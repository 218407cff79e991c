"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines for
passing criteria too (pytest echoes captured output only on failure).

Criterion 3's mutual-information-crossing threshold is asserted at its
stated target of 0.0455 +/- 5e-4; the defining equation's actual root is
0.046098 (see the rate-curve criterion, which brackets the same crossing
inside (0.04, 0.05)), so that single assertion fails by ~1e-4 and is left
red on purpose rather than loosened.
"""

import math
import time

import numpy as np

from _oracles import chsh_max_bloch_grid
from conftest import random_density_matrix
from ebqkd import chsh, cli, security
from ebqkd.ingest import analyze_counts, synthesize_counts
from ebqkd.measurement import DetectorModel, expected_table
from ebqkd.optics import ChannelModel, SourceModel, bell_state, werner_state
from ebqkd.protocol import BBM92, E91, SessionConfig, run_session, security_report
from ebqkd.qstate import BellLabel, TwoQubitState

SQ2 = math.sqrt(2.0)


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}  {detail}")


def test_criterion_1_linear_law_fit():
    """Werner sweep reproduces S = 2 sqrt(2) - 4 sqrt(2) qber by least squares."""
    start = time.perf_counter()
    spec = cli.SweepSpec(
        mechanism="werner",
        grid=tuple(np.round(np.arange(0.70, 1.0001, 0.05), 10)),
        n_pairs=100_000,
    )
    rows = cli.run_sweep(spec, seed=20240, workers=1)
    elapsed = time.perf_counter() - start

    x = np.array([r["qber"] for r in rows])
    y = np.array([r["S_sampled"] for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    r_squared = 1.0 - np.sum((y - fitted) ** 2) / np.sum((y - y.mean()) ** 2)

    slope_ok = abs(slope - (-4 * SQ2)) <= 0.05 * 4 * SQ2
    intercept_ok = abs(intercept - 2 * SQ2) <= 0.02 * 2 * SQ2
    fit_ok = r_squared >= 0.99
    time_ok = elapsed < 30.0
    report(
        "1 linear S-QBER law",
        slope_ok and intercept_ok and fit_ok and time_ok,
        f"slope={slope:.4f} (target {-4*SQ2:.4f}) intercept={intercept:.4f} "
        f"(target {2*SQ2:.4f}) R2={r_squared:.5f} runtime={elapsed:.1f}s",
    )
    assert slope_ok and intercept_ok and fit_ok and time_ok


def test_criterion_2_paper_operating_point():
    """Model S at 2% QBER sits within one error bar of the 2.64 measurement."""
    s = security.s_model(0.02)
    value_ok = abs(s - 2.715) <= 1e-3
    within_bar = abs(s - 2.64) < 0.12
    report(
        "2 operating point", value_ok and within_bar,
        f"s_model(0.02)={s:.4f}, |s-2.64|={abs(s-2.64):.4f} < 0.12",
    )
    assert value_ok and within_bar


def test_criterion_3_thresholds():
    """Threshold solver values at their stated tolerances, under 1 second."""
    security.thresholds.cache_clear()
    start = time.perf_counter()
    thr = security.thresholds()
    elapsed = time.perf_counter() - start

    individual_ok = abs(thr.delta_individual - 0.1464) <= 1e-4
    collective_ok = abs(thr.delta_collective - 0.1100) <= 5e-4
    mi_zero_ok = abs(thr.delta_mi_zero - 0.0455) <= 5e-4
    time_ok = elapsed < 1.0
    report(
        "3 thresholds",
        individual_ok and collective_ok and mi_zero_ok and time_ok,
        f"individual={thr.delta_individual:.6f} collective={thr.delta_collective:.6f} "
        f"mi_zero={thr.delta_mi_zero:.6f} (target 0.0455+-5e-4; defining equation's "
        f"root is 0.046098) runtime={elapsed*1e3:.0f}ms",
    )
    assert individual_ok
    assert collective_ok
    assert time_ok
    # Red on purpose: the required target constant contradicts the
    # defining equation's root; see the module docstring.
    assert mi_zero_ok


def test_criterion_4_mi_curves_cross_once():
    """I_AB falls, I_AE rises, and they cross exactly once inside (0.04, 0.05)."""
    grid = np.linspace(0.0, 0.10, 201)
    i_ab = np.array([1 - 2 * security.binary_entropy(d) for d in grid])
    i_ae = np.array([security.mi_alice_eve(security.s_model(d)) for d in grid])

    ab_monotone = bool(np.all(np.diff(i_ab) < 0))
    ae_monotone = bool(np.all(np.diff(i_ae) > 0))
    gap = i_ab - i_ae
    sign_changes = np.nonzero(np.diff(np.sign(gap)))[0]
    crossings = [0.5 * (grid[i] + grid[i + 1]) for i in sign_changes]
    one_crossing = len(crossings) == 1
    in_window = one_crossing and 0.04 < crossings[0] < 0.05
    report(
        "4 MI curves", ab_monotone and ae_monotone and one_crossing and in_window,
        f"monotone(I_AB down)={ab_monotone} monotone(I_AE up)={ae_monotone} "
        f"crossings={[f'{c:.4f}' for c in crossings]}",
    )
    assert ab_monotone and ae_monotone and one_crossing and in_window


def test_criterion_5_eve_sanity():
    """Full intercept-resend: 25% sifted QBER and a negative key rate."""
    cfg = SessionConfig(
        kind=BBM92,
        source=SourceModel(BellLabel.PHI_PLUS),
        channel=ChannelModel.intercept_resend(1.0),
        detector=DetectorModel(efficiency=1.0),
        n_pairs=1_000_000,
        qber_sample_fraction=0.2,
        seed=52,
    )
    rec = run_session(cfg)
    rep = security_report(cfg, rec)
    sigma = math.sqrt(0.25 * 0.75 / rec.disclosed_length)
    qber_ok = abs(rec.qber_hat - 0.25) < 5 * sigma
    rate_ok = rep.r < 0
    report(
        "5 Eve sanity", qber_ok and rate_ok,
        f"qber={rec.qber_hat:.4f} (0.25 +- {5*sigma:.4f}) r={rep.r:.3f}",
    )
    assert qber_ok and rate_ok


def test_criterion_6_oracle_equivalence():
    """Horodecki maximum vs 2-degree brute force; counts vs analytic CHSH."""
    rng = np.random.default_rng(2024)
    max_gap = 0.0
    grid_ok = True
    for _ in range(50):
        rho = random_density_matrix(rng)
        s_formula = chsh.s_optimal(TwoQubitState(rho)).estimate.s
        s_grid = chsh_max_bloch_grid(rho, step_deg=2.0)
        max_gap = max(max_gap, s_formula - s_grid)
        if not (s_grid <= s_formula + 1e-9 and s_formula - s_grid <= 1e-3):
            grid_ok = False

    state = bell_state(BellLabel.PHI_PLUS)
    settings = chsh.canonical_settings(BellLabel.PHI_PLUS)
    table = expected_table(state, settings.pairs(), 1_000_000)
    est = chsh.s_from_counts(table, settings)
    analytic = chsh.s_analytic(state, settings).s
    counts_ok = abs(est.s - analytic) <= 1e-3
    report(
        "6 oracle equivalence", grid_ok and counts_ok,
        f"max grid gap={max_gap:.2e} (tol 1e-3), "
        f"|S_counts - S_analytic|={abs(est.s - analytic):.2e} (tol 1e-3)",
    )
    assert grid_ok and counts_ok


def test_criterion_7_uncertainty_reproduction():
    """Count files tuned to sigma_S ~ 0.12 cover S_true = 2.64 in >= 99/100 runs."""
    w = 2.64 / (2 * SQ2)
    state = werner_state(BellLabel.PHI_PLUS, w)
    hits = 0
    sigmas = []
    for seed in range(100):
        record = synthesize_counts(
            state, BellLabel.PHI_PLUS, n_pairs_per_row=157, seed=seed,
            detector=DetectorModel(efficiency=1.0),
        )
        est, _ = analyze_counts(record)
        sigmas.append(est.sigma_s)
        if abs(est.s - 2.64) < 3 * est.sigma_s:
            hits += 1
    sigma_ok = abs(float(np.mean(sigmas)) - 0.12) < 0.015
    hits_ok = hits >= 99
    report(
        "7 uncertainty reproduction", sigma_ok and hits_ok,
        f"mean sigma_S={np.mean(sigmas):.4f} (~0.12), within-3sigma {hits}/100",
    )
    assert sigma_ok and hits_ok


def test_criterion_8_end_to_end_determinism(tmp_path):
    """cmd_sweep and cmd_session artifacts are byte-identical across reruns."""
    sweep_args = ["sweep", "--mechanism", "werner", "--grid", "1.0,0.9",
                  "--n-pairs", "30000", "--seed", "88"]
    a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
    assert cli.main(sweep_args + ["--out", str(a)]) == 0
    assert cli.main(sweep_args + ["--out", str(b)]) == 0
    sweep_identical = a.read_bytes() == b.read_bytes()

    config = tmp_path / "session.json"
    config.write_text(
        '{"protocol": "e91", "source": {"label": "psi_minus"},'
        ' "detector": {"efficiency": 1.0}, "n_pairs": 50000,'
        ' "qber_sample_fraction": 0.2, "seed": 88}'
    )
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli.main(["session", str(config), "--emit-keys", "--out", str(r1)]) == 0
    assert cli.main(["session", str(config), "--emit-keys", "--out", str(r2)]) == 0
    session_identical = r1.read_bytes() == r2.read_bytes()
    report(
        "8 determinism", sweep_identical and session_identical,
        f"sweep identical={sweep_identical} session identical={session_identical}",
    )
    assert sweep_identical and session_identical


def test_criterion_9_protocol_combinatorics():
    """BBM92 sifts half the coincidences; E91 keeps 2/9 for key."""
    bbm = run_session(
        SessionConfig(
            kind=BBM92,
            source=SourceModel(BellLabel.PHI_PLUS),
            detector=DetectorModel(efficiency=1.0),
            n_pairs=1_000_000,
            qber_sample_fraction=0.1,
            seed=91,
        )
    )
    ratio_bbm = bbm.sifted_length / bbm.n_coincident
    tol_bbm = 5 * math.sqrt(0.25 / bbm.n_coincident)
    bbm_ok = abs(ratio_bbm - 0.5) < tol_bbm

    e91 = run_session(
        SessionConfig(
            kind=E91,
            source=SourceModel(BellLabel.PSI_MINUS),
            detector=DetectorModel(efficiency=1.0),
            n_pairs=1_000_000,
            qber_sample_fraction=0.1,
            seed=92,
        )
    )
    ratio_e91 = e91.sifted_length / e91.n_coincident
    p = 2 / 9
    tol_e91 = 5 * math.sqrt(p * (1 - p) / e91.n_coincident)
    e91_ok = abs(ratio_e91 - p) < tol_e91
    report(
        "9 protocol combinatorics", bbm_ok and e91_ok,
        f"BBM92 sift={ratio_bbm:.4f} (0.5 +- {tol_bbm:.4f}) "
        f"E91 key fraction={ratio_e91:.4f} ({p:.4f} +- {tol_e91:.4f})",
    )
    assert bbm_ok and e91_ok
