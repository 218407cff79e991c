import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2, chisquare

import _oracles
from conftest import random_density_matrix

from ebqkd import chsh, measurement, optics, protocol, security
from ebqkd.measurement import AnalyzerSetting, CoincidenceRow, CoincidenceTable, DetectorModel
from ebqkd.optics import ChannelModel, SourceModel
from ebqkd.protocol import (
    BBM92,
    E91,
    EmptyBasisError,
    NoSiftedBitsError,
    ProtocolKind,
    SessionConfig,
    estimate,
    protocol_by_name,
    run_session,
    security_report,
    sift,
)
from ebqkd.qstate import BellLabel, TwoQubitState, echo
from ebqkd.security import binary_entropy, evaluate, mi_alice_eve

SQ2 = math.sqrt(2.0)


def config(**kwargs) -> SessionConfig:
    defaults = dict(
        kind=BBM92,
        source=SourceModel(BellLabel.PHI_PLUS),
        channel=ChannelModel.identity(),
        detector=DetectorModel(efficiency=1.0),
        n_pairs=200_000,
        qber_sample_fraction=0.2,
        seed=12,
    )
    defaults.update(kwargs)
    return SessionConfig(**defaults)


def binom_5sigma(p, n):
    return 5 * math.sqrt(p * (1 - p) / n)


class TestProtocolKinds:
    def test_bbm92_layout(self):
        assert BBM92.alice_hwp_deg == (0.0, 22.5)
        assert BBM92.matched_pairs() == ((0, 0), (1, 1))
        assert BBM92.chsh_pairs == ()

    def test_e91_layout(self):
        assert E91.alice_hwp_deg == (0.0, 11.25, 22.5)
        assert E91.bob_hwp_deg == (11.25, 22.5, 33.75)
        assert E91.matched_pairs() == ((1, 0), (2, 1))
        # CHSH pairs sit at the canonical polarization angles.
        pols = [
            (2 * E91.alice_hwp_deg[i], 2 * E91.bob_hwp_deg[j]) for i, j in E91.chsh_pairs
        ]
        assert pols == [(0, 22.5), (0, 67.5), (45, 22.5), (45, 67.5)]
        assert E91.chsh_pairs == ((0, 0), (0, 2), (2, 0), (2, 2))

    def test_chsh_pairs_follow_the_canonical_settings(self):
        # Indices move with the settings; the order stays settings.pairs().
        kind = ProtocolKind("permuted", (22.5, 0.0, 11.25), (33.75, 11.25, 22.5))
        assert kind.chsh_pairs == ((1, 1), (1, 0), (0, 1), (0, 0))

    @pytest.mark.parametrize("alice,bob", [
        ((0.0, 11.25, 22.5), (11.25, 22.5, 30.0)),
        ((0.0, 11.25, 15.0), (0.0, 11.25, 33.75)),
    ], ids=["no-bob-67.5", "no-alice-45"])
    def test_layout_without_a_canonical_setting_has_no_chsh_pairs(self, alice, bob):
        assert ProtocolKind("partial", alice, bob).chsh_pairs == ()

    @pytest.mark.parametrize("pairs", [((5, 5),), ((0, 0),), ((0, 1),)])
    def test_chsh_pairs_are_not_a_constructor_argument(self, pairs):
        # Out of range, a matched pair, a pair off the canonical angles: each
        # once failed only after a whole session had been sampled.
        with pytest.raises(TypeError, match="chsh_pairs"):
            ProtocolKind("x", (0.0, 22.5), (0.0, 22.5), chsh_pairs=pairs)

    @pytest.mark.parametrize("plate", [101.25, 11.2500004], ids=["90-on", "within-1e-6"])
    def test_layout_tells_settings_apart_by_the_tables_key(self, plate):
        kind = ProtocolKind("x", E91.alice_hwp_deg, (plate, *E91.bob_hwp_deg[1:]))
        assert (kind.matched_pairs(), kind.chsh_pairs) == (E91.matched_pairs(), E91.chsh_pairs)

    @pytest.mark.parametrize("kind", [BBM92, E91, ProtocolKind("permuted", (22.5, 0.0, 11.25), (33.75, 11.25, 22.5))])
    @pytest.mark.parametrize("label", list(BellLabel))
    def test_key_plan_is_derived_when_built(self, kind, label):
        # What estimate reads of each key basis: its settings, axis and errors.
        plan = kind.key_plan(label)
        assert plan is kind.key_plan(label)
        assert plan == tuple(
            (a, b, 2.0 * measurement.hwp_key(a.hwp_angle_deg, b.hwp_angle_deg)[0],
             measurement.wrong_outcomes(label, a.polarization_angle_rad))
            for a, b in kind.key_pairs()
        )

    def test_a_plate_90_degrees_on_is_the_same_setting(self):
        # E91 with Bob's 22.5-degree analyzer written as plate 101.25 once
        # kept its key bases but lost its CHSH pairs, so its session took
        # Eve's bound from the linear law instead of the measured S.
        e91b = ProtocolKind("e91b", (0.0, 11.25, 22.5), (101.25, 22.5, 33.75))
        assert (e91b.chsh_pairs, e91b.key_pairs()) == (E91.chsh_pairs, E91.key_pairs())
        cfg = config(kind=E91, channel=ChannelModel.werner(0.9), n_pairs=100_000, seed=1)
        rec, rec_b = run_session(cfg), run_session(dataclasses.replace(cfg, kind=e91b))
        assert rec_b.chsh_subset is not None
        for f in dataclasses.fields(rec):
            np.testing.assert_equal(getattr(rec_b, f.name), getattr(rec, f.name), err_msg=f.name)

    @pytest.mark.parametrize("alice,bob", [
        ((0.0, 202.5), (0.0, 22.5)),
        ((0.0, 22.5, math.nan), (0.0, 22.5)),
        ((0.0, 22.5), (-11.25, 0.0, 22.5)),
        ((0.0, 22.5), (0.0, 22.5, math.inf)),
    ], ids=["above-180", "nan", "negative", "inf"])
    def test_layout_validates_its_angles_when_built(self, alice, bob):
        with pytest.raises(ValueError, match=r"HWP angle must be in \[0, 180\) degrees"):
            ProtocolKind("bad", alice, bob)

    def test_cells_fit_in_uint8(self):
        # A cell is (a * n_b + b) * 4 + outcome, so codes up to 255 take at
        # most 64 setting pairs.  Both layouts match H/V and D/A only.
        ProtocolKind("8x8", (0.0, 22.5, *range(1, 7)), (0.0, 22.5, *range(50, 56)))
        with pytest.raises(ValueError, match="64 setting pairs"):
            ProtocolKind("5x13", (0.0, 22.5, *range(1, 4)), (0.0, 22.5, *range(50, 61)))

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_largest_layout_keys_agree(self, label):
        # Cells up to 255: the last setting pair's codes still fit in uint8.
        kind = ProtocolKind("8x8", (*range(1, 7), 0.0, 22.5), (*range(50, 56), 0.0, 22.5))
        rec = run_session(config(kind=kind, source=SourceModel(label), n_pairs=200_000, seed=8))
        assert rec.qber_hat == 0.0 and rec.key_bits_alice.size > 0
        np.testing.assert_array_equal(rec.key_bits_alice, rec.key_bits_bob)

    @pytest.mark.parametrize("alice,bob", [
        ((0.0, 11.25, 22.5), (0.0, 11.25, 22.5)),
        ((0.0, 22.5), (0.0, 33.75)),
        ((0.0, 22.5), (0.0, 90.0)),
    ], ids=["three-matched", "one-matched", "two-matched-on-one-axis"])
    def test_layout_needs_two_matched_bases_on_distinct_axes(self, alice, bob):
        with pytest.raises(ValueError, match="two matched bases on distinct polarization axes"):
            ProtocolKind("bad", alice, bob)

    def test_lookup_by_name(self):
        assert protocol_by_name("BBM92") is BBM92
        with pytest.raises(ValueError):
            protocol_by_name("bb84")

    @pytest.mark.parametrize("name", ["bb84", "x" * 3000], ids=["short", "long"])
    def test_unknown_name_is_named_and_bounded(self, name):
        with pytest.raises(ValueError) as info:
            protocol_by_name(name)
        assert str(info.value) == f"unknown protocol {echo(name)!r}; expected one of ['bbm92', 'e91']"
        assert len(str(info.value)) < 200


def random_stream(kind, n, seed):
    """Alice and Bob setting indices, outcomes and their cells for ``n`` pairs."""
    rng = np.random.default_rng(seed)
    a = rng.integers(0, len(kind.alice_hwp_deg), n)
    b = rng.integers(0, len(kind.bob_hwp_deg), n)
    outcomes = rng.integers(0, 4, n).astype(np.uint8)
    return a, b, outcomes, cells_of(kind, a, b, outcomes)


def cells_of(kind, a, b, outcomes):
    return ((a * len(kind.bob_hwp_deg) + b) * 4 + outcomes).astype(np.uint8)


def n_cells(kind):
    return len(kind.alice_hwp_deg) * len(kind.bob_hwp_deg) * 4


class TestSift:
    @pytest.mark.parametrize("label", list(BellLabel))
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_matches_masked_oracle(self, kind, label):
        # Each code carries the oracle's bits of its raw cell, and its count
        # is the number of events the oracle keeps in that cell.
        a, b, outcomes, cells = random_stream(kind, 20_000, [4, len(kind.bob_hwp_deg)])
        codes, sifted = sift(kind, label, np.bincount(cells, minlength=n_cells(kind)).tolist())
        kept, bits_a, bits_b = _oracles.sift_masked(kind, label, a, b, outcomes)
        n_b = len(kind.bob_hwp_deg)
        raw = [4 * (i * n_b + j) + k for i, j in kind.matched_pairs() for k in range(4)]
        assert len(codes) == len(sifted) == len(raw)
        for code, count, cell in zip(codes.tolist(), sifted, raw):
            in_cell = cells[kept] == cell
            assert count == np.count_nonzero(in_cell) > 0
            assert (bits_a[in_cell] == code >> 1 & 1).all()
            assert (bits_b[in_cell] == code & 1).all()
        assert sum(sifted) == len(kept)
        assert bits_a.size and (bits_a != bits_b).any() and (bits_a == bits_b).any()

    @pytest.mark.parametrize("label", list(BellLabel))
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_kept_cells_ignore_outcome_counts(self, kind, label):
        # Sifting reads only the announced setting pairs: no choice of
        # counts changes which cells are kept, and unmatched cells never
        # appear.
        rng = np.random.default_rng(6)
        codes, _ = sift(kind, label, [0] * n_cells(kind))
        n_b = len(kind.bob_hwp_deg)
        matched = [i * n_b + j for i, j in kind.matched_pairs()]
        assert [code >> 2 for code in codes.tolist()] == [p for p in matched for _ in range(4)]
        for counts in (rng.integers(0, 1000, n_cells(kind)), np.arange(n_cells(kind))[::-1]):
            again, sifted = sift(kind, label, counts.tolist())
            np.testing.assert_array_equal(again, codes)
            assert sifted == [int(counts[4 * p + k]) for p in matched for k in range(4)]

    def test_counts_pass_through_as_python_ints(self):
        # Totals past 2**63 must reach run_session's memory check unwrapped.
        codes, sifted = sift(BBM92, BellLabel.PHI_PLUS, [2**64 + c for c in range(n_cells(BBM92))])
        assert codes.dtype == np.uint8
        assert sifted == [2**64 + c for c in (0, 1, 2, 3, 12, 13, 14, 15)]

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_noiseless_agreement_every_label(self, label):
        # The per-basis flip rule aligns keys for every Bell family in BBM92.
        cfg = config(source=SourceModel(label), n_pairs=50_000, seed=21)
        rec = run_session(cfg)
        assert rec.qber_hat == 0.0
        np.testing.assert_array_equal(rec.key_bits_alice, rec.key_bits_bob)


class TestRunSession:
    def test_noiseless_bbm92(self):
        cfg = config(n_pairs=1_000_000, seed=7)
        rec = run_session(cfg)
        assert abs(rec.sifted_length / rec.n_coincident - 0.5) < binom_5sigma(0.5, rec.n_coincident)
        assert rec.qber_hat <= 1e-4
        assert rec.disclosed_length + rec.key_bits_alice.size == rec.sifted_length
        assert rec.key_bits_alice.size == rec.key_bits_bob.size
        assert rec.key_bits_alice.dtype == rec.key_bits_bob.dtype == np.uint8

    def test_werner_qber_both_bases(self):
        cfg = config(channel=ChannelModel.werner(0.9), n_pairs=400_000, seed=8)
        rec = run_session(cfg)
        for pol in (0.0, 45.0):
            n_basis = rec.disclosed_length / 2
            assert abs(rec.per_basis_qber[pol] - 0.05) < binom_5sigma(0.05, n_basis)

    def test_e91_chsh_subset_and_key_fraction(self):
        cfg = config(
            kind=E91,
            source=SourceModel(BellLabel.PSI_MINUS),
            n_pairs=1_000_000,
            seed=9,
        )
        rec = run_session(cfg)
        frac = rec.sifted_length / rec.n_coincident
        assert abs(frac - 2 / 9) < binom_5sigma(2 / 9, rec.n_coincident)
        assert rec.chsh_subset is not None
        assert abs(rec.chsh_subset.s - 2 * SQ2) < 5 * rec.chsh_subset.sigma_s
        assert rec.qber_hat <= 1e-4

    def test_full_interception_qber(self):
        cfg = config(channel=ChannelModel.intercept_resend(1.0), n_pairs=400_000, seed=10)
        rec = run_session(cfg)
        assert abs(rec.qber_hat - 0.25) < binom_5sigma(0.25, rec.disclosed_length)

    def test_half_interception_qber(self):
        cfg = config(channel=ChannelModel.intercept_resend(0.5), n_pairs=400_000, seed=11)
        rec = run_session(cfg)
        assert abs(rec.qber_hat - 0.125) < binom_5sigma(0.125, rec.disclosed_length)

    def test_zero_interception_matches_identity_channel(self):
        rec_eve0 = run_session(config(channel=ChannelModel.intercept_resend(0.0), seed=13))
        rec_ident = run_session(config(channel=ChannelModel.identity(), seed=13))
        assert rec_eve0.qber_hat == rec_ident.qber_hat
        np.testing.assert_array_equal(rec_eve0.key_bits_alice, rec_ident.key_bits_alice)

    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_trace_rounded_above_one_at_full_efficiency(self, kind):
        # This depolarized non-maximal state has trace 1 + 2^-52 by rounding;
        # at efficiency 1 every pair is coincident.
        source, channel = SourceModel(BellLabel.PHI_PLUS, epsilon_rad=0.627), ChannelModel.depolarizing(0.2)
        assert optics.apply_channel(optics.generate(source), channel).bloch[0, 0] > 1.0
        rec = run_session(config(kind=kind, source=source, channel=channel, n_pairs=100_000, seed=15))
        assert rec.n_coincident == rec.n_pairs

    def test_determinism(self):
        cfg = config(channel=ChannelModel.werner(0.85), detector=DetectorModel(0.6), seed=14)
        a = run_session(cfg)
        b = run_session(cfg)
        assert a.sifted_length == b.sifted_length
        assert a.qber_hat == b.qber_hat
        assert a.per_basis_qber == b.per_basis_qber
        np.testing.assert_array_equal(a.key_bits_alice, b.key_bits_alice)
        np.testing.assert_array_equal(a.key_bits_bob, b.key_bits_bob)

    def test_qber_estimator_unbiased(self):
        # 100 sessions at Werner 0.9: the mean estimate sits on 0.05.
        estimates = []
        for seed in range(100):
            cfg = config(
                channel=ChannelModel.werner(0.9),
                n_pairs=20_000,
                qber_sample_fraction=0.5,
                seed=seed,
            )
            estimates.append(run_session(cfg).qber_hat)
        mean = float(np.mean(estimates))
        se = float(np.std(estimates, ddof=1) / math.sqrt(len(estimates)))
        assert abs(mean - 0.05) < 3 * se

    def test_no_sifted_bits_error(self):
        cfg = config(detector=DetectorModel(efficiency=1e-9), n_pairs=100, seed=15)
        with pytest.raises(NoSiftedBitsError, match="no sifted bits"):
            run_session(cfg)

    def test_disclosed_sample_missing_a_basis_raises(self):
        # One disclosed bit covers one basis; the other basis has no QBER
        # estimate and must not borrow one.
        cfg = config(n_pairs=20, qber_sample_fraction=0.01, seed=3)
        with pytest.raises(EmptyBasisError, match="zero coincidences in the compatible basis"):
            run_session(cfg)

    def test_e91_empty_chsh_row_raises(self):
        # A session's own table with the (45, 67.5) CHSH row emptied, both
        # key bases still disclosed: the estimator the session runs raises,
        # with no fallback to the linear law.
        cfg = config(kind=E91, source=SourceModel(BellLabel.PSI_MINUS), n_pairs=20_000, seed=4)
        rec = run_session(cfg)
        settings = chsh.canonical_settings(BellLabel.PSI_MINUS)
        empty = (settings.a_prime.polarization_angle_deg, settings.b_prime.polarization_angle_deg)
        assert empty == (45.0, 67.5)
        rows = tuple(
            CoincidenceRow(r.a, r.b, 0, 0, 0, 0) if (r.a, r.b) == (settings.a_prime, settings.b_prime) else r
            for r in rec.counts.rows
        )
        assert rec.counts.find(settings.a_prime, settings.b_prime).total > 0
        assert all(rec.counts.find(a, b).total > 0 for a, b in E91.key_pairs())
        with pytest.raises(chsh.IncompleteTableError, match=r"\(45, 67.5\)"):
            estimate(CoincidenceTable(rows), BellLabel.PSI_MINUS, E91, settings)

    def test_counts_table_reproduces_record(self):
        cfg = config(kind=E91, source=SourceModel(BellLabel.PSI_MINUS), n_pairs=100_000, seed=4)
        rec = run_session(cfg)
        settings = chsh.canonical_settings(BellLabel.PSI_MINUS)
        matched = [rec.counts.find(a, b) for a, b in E91.key_pairs()]
        assert sum(row.total for row in matched) == rec.disclosed_length
        chsh_rows = [rec.counts.find(a, b) for a, b in settings.pairs()]
        assert sum(row.total for row in chsh_rows) + rec.sifted_length <= rec.n_coincident
        est = estimate(rec.counts, BellLabel.PSI_MINUS, E91, settings)
        assert est.chsh == rec.chsh_subset
        assert (est.qber, est.per_basis_qber, est.qber_ci) == (rec.qber_hat, rec.per_basis_qber, rec.qber_ci)

    def test_dark_counts_enter_stream(self):
        cfg = config(
            detector=DetectorModel(efficiency=1.0, dark_rate=0.05),
            n_pairs=100_000,
            seed=16,
        )
        rec = run_session(cfg)
        # ~5000 accidentals on 100k pairs: half sift in, a quarter of those err
        assert rec.n_coincident > 100_000
        assert 0.002 < rec.qber_hat < 0.03

    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_count_fields_are_python_ints(self, kind):
        # numpy counts (np.count_nonzero gives numpy.int64) would reach the
        # JSON report, which json.dumps cannot write.
        cfg = config(kind=kind, detector=DetectorModel(0.8, dark_rate=0.01), n_pairs=50_000, seed=16)
        rec = run_session(cfg)
        assert type(rec.n_coincident) is int
        assert type(rec.sifted_length) is int
        assert type(rec.disclosed_length) is int

    def test_impossible_n_pairs_names_the_key_that_does_not_fit(self):
        # 2**62 pairs sift about 2**61 cells, one byte each: more than the
        # address space whatever the overcommit mode.
        with pytest.raises(protocol.KeyMemoryError, match=(
            r"^n_pairs 4611686018427387904 at detector\.dark_rate 0 give (\d+) sifted coincidences,"
            r" which do not fit in memory$"
        )) as raised:
            run_session(config(n_pairs=2**62))
        n_sifted = int(raised.value.args[0].split(" give ")[1].split()[0])
        assert abs(n_sifted - 2**61) < 6 * math.sqrt(2**60)

    def test_accidentals_that_exceed_the_address_space_name_the_dark_rate(self):
        # 1e18 expected accidentals pass the Poisson sampler but their
        # sifted half does not fit in memory.
        cfg = config(detector=DetectorModel(dark_rate=1e12), n_pairs=1_000_000)
        with pytest.raises(protocol.KeyMemoryError, match=(
            r"^n_pairs 1000000 at detector\.dark_rate 1e\+12 give \d{18} sifted coincidences"
        )):
            run_session(cfg)

    def test_accidentals_past_the_poisson_limit_are_rejected(self):
        limit = measurement._POISSON_LAM_MAX
        config(detector=DetectorModel(dark_rate=limit), n_pairs=1)
        np.random.default_rng(0).poisson(limit)
        for dark_rate in (float(np.nextafter(limit, math.inf)), 1e30):
            with pytest.raises(ValueError, match=r"^detector\.dark_rate gives .* Poisson sampler's limit"):
                config(detector=DetectorModel(dark_rate=dark_rate), n_pairs=1)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(n_pairs=0)
        with pytest.raises(ValueError):
            config(qber_sample_fraction=0.0)
        # A float used to pass and fail later inside numpy with a TypeError.
        for n_pairs in (1e6, True):
            with pytest.raises(ValueError, match=f"^n_pairs must be an integer, got {n_pairs!r}$"):
                config(n_pairs=n_pairs)

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"),
        ("3", "seed must be an integer, got '3'"),
        (True, "seed must be an integer, got True"),
        (-1, "seed must be >= 0, got -1"),
    ])
    def test_seed_must_be_an_integer_at_least_zero(self, seed, message):
        # 1.5 and "3" used to fail inside numpy, True to run as seed 1.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            config(seed=seed)
        assert run_session(config(seed=np.int64(3), n_pairs=1000)).counts == run_session(config(seed=3, n_pairs=1000)).counts

    def test_a_sifted_count_past_int64_names_the_key_that_does_not_fit(self, monkeypatch):
        # No array has 2**63 cells: the guard says so before numpy refuses
        # the shape with an error that names no field.
        def one_full_key_cell(joint, stratum_idx, rng, det):
            counts = [0] * len(joint)
            counts[BBM92.key_cells(BellLabel.PHI_PLUS)[0][0]] = 2**63
            return counts

        monkeypatch.setattr(protocol, "sample_outcome_stream", one_full_key_cell)
        with pytest.raises(protocol.KeyMemoryError, match=(
            r"^n_pairs 200000 at detector\.dark_rate 0 give 9223372036854775808 sifted coincidences,"
            r" which do not fit in memory$"
        )):
            run_session(config())

    def test_wilson_interval_brackets_estimate(self):
        rec = run_session(config(channel=ChannelModel.werner(0.9), seed=17))
        lo, hi = rec.qber_ci
        assert lo <= rec.qber_hat <= hi
        assert 0.0 <= lo < hi <= 1.0


class TestMixedDisturbances:
    def test_session_points_sit_on_model_line(self):
        # End-to-end: sampled (delta, S_model) from whole sessions track the
        # linear law for a visibility-degraded imbalanced source.
        from ebqkd.security import s_model

        cfg = config(
            source=SourceModel(BellLabel.PHI_PLUS, epsilon_rad=0.6, hom_visibility=0.95),
            n_pairs=400_000,
            seed=30,
        )
        rec = run_session(cfg)
        rep = security_report(cfg, rec)
        sigma = math.sqrt(0.25 / rec.disclosed_length)
        assert abs(rep.s_model_value - s_model(rep.delta)) < 1e-12
        expected_delta = (1 - 0.95 * math.sin(2 * 0.6)) / 4
        assert abs(rep.delta - expected_delta) < 5 * sigma

    @pytest.mark.parametrize("label", [BellLabel.PHI_MINUS, BellLabel.PSI_PLUS])
    def test_e91_uncorrelated_basis_bits_are_unflipped(self, label):
        # The 22.5-degree basis is uncorrelated for phi- and psi+, so Bob
        # keeps his raw bit there: its codes are the raw cells, and errors
        # are exactly the unequal outcomes.
        assert E91.matched_pairs()[0] == (1, 0)
        codes, _ = sift(E91, label, [0] * n_cells(E91))
        raw = 4 * (1 * 3 + 0) + np.arange(4)
        np.testing.assert_array_equal(codes[:4], raw)
        np.testing.assert_array_equal(codes[:4] >> 1 & 1 != codes[:4] & 1, [False, True, True, False])

    def test_degenerate_e91_label_runs_without_error(self):
        # phi- sits badly in E91's rotated bases: zero correlation at the
        # 22.5-degree matched basis (coin-flip bits), perfect anticorrelation
        # at 45.  The session still completes, with ~25% pooled error.
        cfg = config(
            kind=E91, source=SourceModel(BellLabel.PHI_MINUS), n_pairs=100_000, seed=31
        )
        rec = run_session(cfg)
        assert rec.per_basis_qber[22.5] == pytest.approx(0.5, abs=0.05)
        assert rec.per_basis_qber[45.0] == pytest.approx(0.0, abs=0.01)
        assert rec.qber_hat == pytest.approx(0.25, abs=0.03)
        # The state is still maximally entangled, so the CHSH subset clears
        # the Tsirelson-level violation and the key rate sits at ~zero: the
        # loss is basis misalignment, not leakage.
        rep = security_report(cfg, rec)
        assert rec.chsh_subset.s == pytest.approx(2 * SQ2, abs=5 * rec.chsh_subset.sigma_s)
        # I_AE falls as S rises, so the S tolerance bounds it; r adds the
        # coin-flip basis's 1 - H(e_b), within the per-basis tolerance.
        i_ae_max = mi_alice_eve(2 * SQ2 - 5 * rec.chsh_subset.sigma_s)
        assert 0.0 <= rep.i_ae <= i_ae_max
        assert abs(rep.r) <= i_ae_max + 1.0 - binary_entropy(0.45)
        assert not rep.collective_bound_ok


def peak_bytes_per_pair(cfg: SessionConfig) -> float:
    tracemalloc.start()
    try:
        run_session(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / cfg.n_pairs


SESSION_CHANNELS = [ChannelModel.werner(0.9), ChannelModel.intercept_resend(0.25)]


class TestSessionMemory:
    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_peak_bytes_per_pair(self, kind, channel):
        # Only the sifted coincidences become arrays, uint8 or bool; none
        # is 8 bytes per cell.
        cfg = config(kind=kind, channel=channel, detector=DetectorModel(), n_pairs=250_000, seed=3)
        assert peak_bytes_per_pair(cfg) <= 32.0

    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_one_block_peak_bytes_per_pair(self, kind, channel):
        # No per-pair array exists: no float64 uniform, no intp index and no
        # byte per pair that is not sifted.
        cfg = config(kind=kind, channel=channel, detector=DetectorModel(), n_pairs=250_000, seed=3)
        assert peak_bytes_per_pair(cfg) <= 10.0

    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_peak_bytes_per_pair_at_bench_size(self, kind, channel):
        # Only the sifted cells (one byte each, plus sifting's masks and
        # bits) grow with n_pairs.
        cfg = config(kind=kind, channel=channel, detector=DetectorModel(), n_pairs=2_000_000, seed=3)
        assert peak_bytes_per_pair(cfg) <= 10.0

    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_peak_slope_per_pair(self, kind, channel):
        # Peak memory grows by what the sifted stream, sifting and the
        # disclosure keep per sifted coincidence, not by eight bytes per
        # coincidence.
        cfgs = [
            config(kind=kind, channel=channel, detector=DetectorModel(), n_pairs=n, seed=3)
            for n in (2_000_000, 8_000_000)
        ]
        small, large = (peak_bytes_per_pair(cfg) * cfg.n_pairs for cfg in cfgs)
        assert (large - small) / 6_000_000 <= 3.5

    def test_disclosed_codes_are_counted_without_an_index_copy(self):
        # The disclosed codes are tallied in bounded slices: casting them to
        # 8-byte indices for np.bincount peaked at 5.0 B per sifted cell at
        # half the cells disclosed.  Measured 1.5.
        cfg = config(channel=ChannelModel.werner(0.9), n_pairs=10_000_000, qber_sample_fraction=0.5, seed=3)
        tracemalloc.start()
        try:
            rec = run_session(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rec.sifted_length <= 2.5

    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_key_bits_are_split_without_a_third_key_sized_array(self, kind):
        # The stream (1 B per sifted cell) and Bob's bits (1 B per key cell)
        # are the peak; splitting through ``key >> 1 & 1`` would add a third
        # key-sized temporary (2.9 B per sifted cell and up).  Measured 1.95-1.96.
        cfg = config(kind=kind, n_pairs=4_000_000, qber_sample_fraction=0.05, seed=3)
        tracemalloc.start()
        try:
            rec = run_session(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rec.sifted_length <= 2.25
        assert rec.key_bits_alice.dtype == rec.key_bits_bob.dtype == np.uint8
        assert set(np.unique(rec.key_bits_alice).tolist()) <= {0, 1}


def session_model(kind, source, channel, det):
    """Kron/trace probability of each cell per emitted pair, then "not
    coincident"; accidentals are left out (dark rate 0)."""
    rho = optics.apply_channel(optics.generate(source), channel).rho
    p = det.coincidence_efficiency() * _oracles.cell_probabilities(kind, rho, channel.eve_fraction)
    return np.append(p, 1.0 - p.sum())


def fits(counts, p):
    """Counts of many sessions (one row each) fit the probabilities ``p``
    pooled and seed by seed, by chi-square."""
    counts = np.asarray(counts)
    possible = p > 0.0
    assert not counts[:, ~possible].any()
    counts, p = counts[:, possible], p[possible]
    pooled = counts.sum(axis=0)
    assert chisquare(pooled, pooled.sum() * p).pvalue > 1e-3
    per_seed = sum(chisquare(c, c.sum() * p).statistic for c in counts)
    assert chi2.sf(per_seed, len(counts) * (len(p) - 1)) > 1e-3


class TestSessionSampler:
    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    def test_stream_sampler_sees_every_pair_once_through_intercept_resend(self, monkeypatch, channel):
        # The bench counts the pairs of every sample_outcome_stream call: one
        # session makes one call for exactly n_pairs pairs, drawn from the
        # cell probabilities that intercept_resend returns.
        joints, calls = [], []
        resend, stream = protocol.intercept_resend, protocol.sample_outcome_stream

        def traced_resend(*args):
            joints.append(resend(*args))
            return joints[-1]

        def traced_stream(joint, stratum_idx, rng, det):
            calls.append((len(stratum_idx), joint is joints[-1], det))
            return stream(joint, stratum_idx, rng, det)

        monkeypatch.setattr(protocol, "intercept_resend", traced_resend)
        monkeypatch.setattr(protocol, "sample_outcome_stream", traced_stream)
        cfg = config(kind=E91, channel=channel, n_pairs=262_149)
        run_session(cfg)
        assert len(joints) == 1
        assert calls == [(262_149, True, cfg.detector)]

    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_cells_match_model_and_strata_oracle(self, monkeypatch, kind, channel):
        # Cell counts of run_session and of the per-pair strata engine
        # (Eve's three draws per pair), over seeds, against the kron/trace
        # cell probabilities: both must fit, pooled and seed by seed.
        captured = []
        stream = protocol.sample_outcome_stream

        def traced_stream(joint, stratum_idx, rng, det):
            captured.append(stream(joint, stratum_idx, rng, det))
            return captured[-1]

        monkeypatch.setattr(protocol, "sample_outcome_stream", traced_stream)
        source = SourceModel(BellLabel.PHI_PLUS, epsilon_rad=0.6)
        det = DetectorModel()
        rho = optics.apply_channel(optics.generate(source), channel).rho
        p = _oracles.cell_probabilities(kind, rho, channel.eve_fraction)
        n_cells, seeds = len(p), range(20)
        lib = np.zeros((len(seeds), n_cells), dtype=np.int64)
        ref = np.zeros_like(lib)
        for i, seed in enumerate(seeds):
            cfg = config(kind=kind, source=source, channel=channel, detector=det, n_pairs=20_000, seed=seed)
            run_session(cfg)
            (drawn,) = captured
            captured.clear()
            lib[i] = drawn
            cells = _oracles.session_cells_strata(
                kind, rho, det, channel.eve_fraction, 20_000, np.random.default_rng(seed)
            )
            ref[i] = np.bincount(cells, minlength=n_cells)
        for counts in (lib, ref):
            fits(counts, p)

    @pytest.mark.parametrize("label", list(BellLabel))
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_counts_are_the_by_hand_draw(self, kind, label):
        # From default_rng(seed), by hand: coincidences (binomial), their
        # cells (multinomial), accidentals (Poisson), their cells
        # (multinomial over uniform cells), then arrange_cells of the sifted
        # cells on the same generator. The record's counts and key are
        # exactly these draws, with the bits mapped by the oracle, not by
        # the library's sift.
        det = DetectorModel(0.7, dark_rate=0.05, window_pairs=2)
        cfg = config(
            kind=kind, source=SourceModel(label), channel=ChannelModel.intercept_resend(0.3), detector=det,
            n_pairs=30_000, seed=21,
        )
        rec = run_session(cfg)
        rng = np.random.default_rng(21)
        state = optics.apply_channel(optics.generate(cfg.source), cfg.channel)
        joint = measurement.intercept_resend(state, kind.alice_settings(), kind.bob_settings(), 0.3)
        counts = rng.multinomial(rng.binomial(30_000, 0.7 * 0.7), joint)
        counts += rng.multinomial(rng.poisson(0.05 * 30_000 / 2), np.full(len(joint), 1 / len(joint)))
        n_b, a_set, b_set = len(kind.bob_hwp_deg), kind.alice_settings(), kind.bob_settings()
        assert rec.n_coincident == counts.sum()
        for i, j in kind.chsh_pairs:
            assert rec.counts.find(a_set[i], b_set[j]).counts() == tuple(counts[4 * (i * n_b + j):][:4])
        sifted = [4 * (i * n_b + j) + k for i, j in kind.matched_pairs() for k in range(4)]
        stream = measurement.arrange_cells(np.array(sifted, dtype=np.uint8), counts[sifted].tolist(), rng)
        assert rec.sifted_length == len(stream)
        disclosed, key = np.split(stream, [rec.disclosed_length])
        disclosed_counts = np.bincount(disclosed, minlength=len(joint))
        for i, j in kind.matched_pairs():
            assert rec.counts.find(a_set[i], b_set[j]).counts() == tuple(disclosed_counts[4 * (i * n_b + j):][:4])
        kept, bits_a, bits_b = _oracles.sift_masked(kind, cfg.source.label, (key >> 2) // n_b, (key >> 2) % n_b, key & 3)
        assert len(kept) == len(key)
        np.testing.assert_array_equal(rec.key_bits_alice, bits_a)
        np.testing.assert_array_equal(rec.key_bits_bob, bits_b)

    @pytest.mark.parametrize("channel", SESSION_CHANNELS)
    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_record_counts_match_model_over_seeds(self, kind, channel):
        # What a record holds of its cell counts: the CHSH cells, the sifted
        # and the other coincident ones and the lost pairs split the
        # emitted pairs by the model; the disclosed cells are a fixed-size
        # random sample of the sifted ones, so they split the disclosed
        # length by the model's matched cells.
        source = SourceModel(BellLabel.PHI_PLUS, epsilon_rad=0.6)
        det = DetectorModel()
        p = session_model(kind, source, channel, det)
        n_b, a_set, b_set = len(kind.bob_hwp_deg), kind.alice_settings(), kind.bob_settings()

        def cells(pairs):
            return [4 * (i * n_b + j) + k for i, j in pairs for k in range(4)]

        def row_counts(rec, pairs):
            return [c for i, j in pairs for c in rec.counts.find(a_set[i], b_set[j]).counts()]

        chsh_cells, matched_cells = cells(kind.chsh_pairs), cells(kind.matched_pairs())
        funnel_p = np.concatenate((
            p[chsh_cells],
            [p[matched_cells].sum(), p[:-1].sum() - p[chsh_cells + matched_cells].sum(), p[-1]],
        ))
        disclosed_p = p[matched_cells] / p[matched_cells].sum()
        funnel, disclosed = [], []
        for seed in range(40):
            cfg = config(kind=kind, source=source, channel=channel, detector=det, n_pairs=20_000, seed=seed)
            rec = run_session(cfg)
            chsh_counts = row_counts(rec, kind.chsh_pairs)
            rest = rec.n_coincident - rec.sifted_length - sum(chsh_counts)
            funnel.append(chsh_counts + [rec.sifted_length, rest, rec.n_pairs - rec.n_coincident])
            disclosed.append(row_counts(rec, kind.matched_pairs()))
        fits(funnel, funnel_p)
        fits(disclosed, disclosed_p)

    @pytest.mark.parametrize("kind", [BBM92, E91])
    @pytest.mark.parametrize("dark_rate", [0.0, 0.05])
    def test_funnel_identity_and_fixed_size_disclosure(self, kind, dark_rate):
        for seed, fraction in ((1, 0.1), (2, 0.37), (3, 0.9)):
            cfg = config(
                kind=kind, channel=ChannelModel.intercept_resend(0.3),
                detector=DetectorModel(0.7, dark_rate=dark_rate), n_pairs=30_001,
                qber_sample_fraction=fraction, seed=seed,
            )
            rec = run_session(cfg)
            retained = len(rec.key_bits_alice)
            assert rec.disclosed_length + retained == rec.sifted_length <= rec.n_coincident
            assert rec.disclosed_length == max(1, round(fraction * rec.sifted_length))
            assert len(rec.key_bits_bob) == retained
            disclosed_rows = [rec.counts.find(a, b) for a, b in kind.key_pairs()]
            assert sum(row.total for row in disclosed_rows) == rec.disclosed_length


class TestSecurityReport:
    def test_bbm92_uses_model_s(self):
        cfg = config(channel=ChannelModel.werner(0.9), seed=18)
        rec = run_session(cfg)
        rep = security_report(cfg, rec)
        assert rep.s == pytest.approx(2 * SQ2 * (1 - 2 * rep.delta), abs=1e-12)

    def test_e91_uses_measured_s(self):
        cfg = config(kind=E91, source=SourceModel(BellLabel.PSI_MINUS), n_pairs=500_000, seed=19)
        rec = run_session(cfg)
        rep = security_report(cfg, rec)
        assert rep.s == pytest.approx(min(rec.chsh_subset.s, 2 * SQ2))

    @pytest.mark.parametrize("kind", [BBM92, E91])
    def test_evaluated_once_per_session(self, monkeypatch, kind):
        calls = []
        original = security.evaluate
        monkeypatch.setattr(security, "evaluate", lambda *a, **k: calls.append(a) or original(*a, **k))
        cfg = config(kind=kind, channel=ChannelModel.werner(0.9), seed=21)
        rec = run_session(cfg)
        rep = security_report(cfg, rec)
        assert len(calls) == 1
        settings = chsh.canonical_settings(cfg.source.label) if kind.chsh_pairs else None
        assert rep == rec.report == estimate(rec.counts, cfg.source.label, kind, settings).report

    def test_interception_kills_rate(self):
        cfg = config(channel=ChannelModel.intercept_resend(1.0), n_pairs=300_000, seed=20)
        rep = security_report(cfg, run_session(cfg))
        assert rep.r < 0
        assert not rep.mi_positive
        assert not rep.individual_bound_ok
        assert not rep.collective_bound_ok


def row(pol_a, pol_b, *counts):
    return CoincidenceRow(
        AnalyzerSetting.from_polarization(pol_a), AnalyzerSetting.from_polarization(pol_b), *counts
    )


class TestEstimate:
    def test_per_basis_pooled_and_report(self):
        table = CoincidenceTable((row(0, 0, 45, 3, 2, 50), row(45, 45, 40, 8, 2, 50)))
        est = estimate(table, BellLabel.PHI_PLUS, BBM92)
        assert est.per_basis_qber == {0.0: 5 / 100, 45.0: 10 / 100}
        assert est.qber == 15 / 200
        lo, hi = est.qber_ci
        assert lo < est.qber < hi
        assert est.chsh is None
        assert est.report == evaluate(0.05, 0.1)

    def test_errors_counted_against_the_label(self):
        # The singlet is anticorrelated in both bases: equal outcomes are errors.
        table = CoincidenceTable((row(0, 0, 3, 45, 50, 2), row(45, 45, 0, 50, 50, 0)))
        est = estimate(table, BellLabel.PSI_MINUS, BBM92)
        assert est.per_basis_qber == {0.0: 0.05, 45.0: 0.0}

    def test_bases_are_ordered_and_keyed_by_the_tables_key(self):
        # Alice's plate 5e-8 deg below 90 is plate 0 by hwp_key: her basis is
        # H/V, keyed 0 and carrying the bit errors, not an axis at 179.9999999.
        near90 = ProtocolKind("near90", (89.99999995, 22.5), (0.0, 22.5))
        table = CoincidenceTable((row(0, 0, 45, 5, 5, 45), row(45, 45, 99, 1, 0, 100)))
        for kind in (BBM92, near90):
            est = estimate(table, BellLabel.PHI_PLUS, kind)
            assert est.per_basis_qber == {0.0: 0.1, 45.0: 0.005}
            assert (est.report.e_b, est.report.e_p) == (0.1, 0.005)

    def test_empty_basis_raises(self):
        table = CoincidenceTable((row(0, 0, 50, 0, 0, 50), row(45, 45, 0, 0, 0, 0)))
        with pytest.raises(EmptyBasisError, match="compatible basis at 45 deg"):
            estimate(table, BellLabel.PHI_PLUS, BBM92)

    def test_missing_basis_row_raises(self):
        table = CoincidenceTable((row(0, 0, 50, 0, 0, 50),))
        with pytest.raises(chsh.IncompleteTableError, match=r"setting pair \(45, 45\) deg"):
            estimate(table, BellLabel.PHI_PLUS, BBM92)

    def test_repeated_key_row_is_refused_not_skipped(self):
        # Keeping only the first H/V row would hide the all-error second one (QBER 0).
        rows = (row(0, 0, 10, 0, 0, 10), row(0, 0, 0, 10, 10, 0), row(45, 45, 10, 0, 0, 10))
        with pytest.raises(ValueError, match=r"duplicate setting pair \(0, 0\) deg"):
            estimate(CoincidenceTable(rows), BellLabel.PHI_PLUS, BBM92)

    def test_s_above_tsirelson_is_flagged_and_clamped(self):
        # Correlators of +-1 signed to match the CHSH combination give S = 4.
        settings = chsh.canonical_settings(BellLabel.PHI_PLUS)
        rows = [row(0, 0, 50, 0, 0, 50), row(45, 45, 50, 0, 0, 50)]
        rows += [
            CoincidenceRow(a, b, *((3, 0, 0, 3) if sign > 0 else (0, 3, 3, 0)))
            for (a, b), sign in zip(settings.pairs(), settings.signs)
        ]
        est = estimate(CoincidenceTable(tuple(rows)), BellLabel.PHI_PLUS, BBM92, settings)
        assert est.chsh.s == 4.0
        assert est.report.s_above_tsirelson
        assert est.report.s == 2 * SQ2
        assert est.report.r == 1.0

    def test_error_free_e91_table_at_classical_s_has_no_key(self):
        # No key error, and CHSH correlators of +-1/2 signed to give S = 2
        # exactly: Eve's bound eats the whole bit, and r = 0 is not a key.
        settings = chsh.canonical_settings(BellLabel.PHI_PLUS)
        rows = [row(22.5, 22.5, 50, 0, 0, 50), row(45, 45, 50, 0, 0, 50)]
        rows += [
            CoincidenceRow(a, b, *((3, 1, 1, 3) if sign > 0 else (1, 3, 3, 1)))
            for (a, b), sign in zip(settings.pairs(), settings.signs)
        ]
        est = estimate(CoincidenceTable(tuple(rows)), BellLabel.PHI_PLUS, E91, settings)
        assert est.qber == 0.0
        assert est.chsh.s == 2.0
        assert est.report.r == 0.0
        assert not est.report.mi_positive

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rank=st.integers(1, 4), label=st.sampled_from(BellLabel))
    def test_linear_law_is_an_identity_of_the_expected_table(self, seed, rank, label):
        """The paper's S = 2 sqrt 2 (1 - 2 delta) holds exactly for every
        state, with S and delta read from one expected table at the
        canonical settings and the BBM92 key bases.  About half of these
        (state, label) pairs have delta > 0.5, where ``s_model`` refuses
        delta, so the formula is written out."""
        state = TwoQubitState(random_density_matrix(np.random.default_rng(seed), rank=rank))
        chsh_settings = chsh.canonical_settings(label)
        table = measurement.expected_table(state, chsh_settings.pairs() + BBM92.key_pairs())
        est = estimate(table, label, BBM92, chsh_settings)
        assert abs(est.chsh.s - 2 * SQ2 * (1 - 2 * est.report.delta)) <= 1e-12

    def test_empty_chsh_row_raises(self):
        settings = chsh.canonical_settings(BellLabel.PHI_PLUS)
        rows = [row(0, 0, 50, 0, 0, 50), row(45, 45, 50, 0, 0, 50)]
        rows += [CoincidenceRow(a, b, 10, 1, 1, 10) for a, b in settings.pairs()[:3]]
        rows.append(CoincidenceRow(settings.a_prime, settings.b_prime, 0, 0, 0, 0))
        with pytest.raises(chsh.IncompleteTableError, match="zero total"):
            estimate(CoincidenceTable(tuple(rows)), BellLabel.PHI_PLUS, BBM92, settings)


def _outcome(call):
    """What ``call()`` returns, or the class and message of what it raises, as text."""
    try:
        return repr(call())
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


#: A count quadruple: 64-bit counts (past 2**53 too), nonnegative floats as
#: ``expected_table`` gives them, or an empty row.
QUADRUPLES = st.one_of(
    st.tuples(*[st.integers(0, 2**63 - 1)] * 4),
    st.tuples(*[st.integers(0, 20)] * 4),
    st.tuples(*[st.floats(0.0, 1e18, allow_nan=False, allow_infinity=False)] * 4),
    st.just((0, 0, 0, 0)),
)


class TestEstimateCounts:
    @settings(max_examples=300, deadline=None)
    @given(
        kind=st.sampled_from([BBM92, E91]),
        label=st.sampled_from(BellLabel),
        with_settings=st.booleans(),
        counts=st.lists(QUADRUPLES, min_size=6, max_size=6),
        order=st.permutations(range(6)),
    )
    def test_table_and_quadruples_agree_bit_for_bit(self, kind, label, with_settings, counts, order):
        # estimate looks the rows up, in whatever order the table holds
        # them, and hands them on in the layout's order: every float of the
        # result (compared by repr) and every error is the same.
        chsh_settings = chsh.canonical_settings(label) if with_settings else None
        pairs = (chsh_settings.pairs() if with_settings else ()) + kind.key_pairs()
        counts = counts[:len(pairs)]
        rows = [CoincidenceRow(a, b, *n) for (a, b), n in zip(pairs, counts)]
        table = CoincidenceTable(tuple(rows[k] for k in order if k < len(rows)))
        by_table = _outcome(lambda: estimate(table, label, kind, chsh_settings))
        assert by_table == _outcome(lambda: protocol.estimate_counts(counts, label, kind, chsh_settings))
        assert by_table == _outcome(lambda: protocol.estimate_counts([list(n) for n in counts], label, kind, chsh_settings))

    @pytest.mark.parametrize("bad", [math.nan, -1, -0.5, math.inf])
    @pytest.mark.parametrize("position", [0, 5])
    def test_a_bad_count_is_refused_by_both_entries_with_one_message(self, bad, position):
        settings_ = chsh.canonical_settings(BellLabel.PHI_PLUS)
        counts = [[10, 1, 1, 10] for _ in range(6)]
        counts[position][2] = bad
        message = "^coincidence counts must be finite and nonnegative$"
        with pytest.raises(ValueError, match=message):
            CoincidenceRow(*(settings_.pairs() + BBM92.key_pairs())[position], *counts[position])
        with pytest.raises(ValueError, match=message):
            protocol.estimate_counts(counts, BellLabel.PHI_PLUS, BBM92, settings_)

    @pytest.mark.parametrize("n_quadruples, with_settings", [(2, True), (5, True), (7, True), (1, False), (6, False)])
    def test_quadruples_must_match_the_layout(self, n_quadruples, with_settings):
        settings_ = chsh.canonical_settings(BellLabel.PHI_PLUS) if with_settings else None
        expected = 6 if with_settings else 2
        with pytest.raises(ValueError, match=rf"^{n_quadruples} count quadruples for the {expected} setting pairs of the layout$"):
            protocol.estimate_counts([[10, 1, 1, 10]] * n_quadruples, BellLabel.PHI_PLUS, BBM92, settings_)

    def test_zero_rows_raise_through_both_entries(self):
        settings_ = chsh.canonical_settings(BellLabel.PHI_PLUS)
        pairs = settings_.pairs() + BBM92.key_pairs()
        for empty, error, message in (
            (1, chsh.IncompleteTableError, r"^zero total coincidences for setting pair \(0, 67\.5\) deg$"),
            (5, EmptyBasisError, r"^zero coincidences in the compatible basis at 45 deg polarization$"),
        ):
            counts = [[0, 0, 0, 0] if k == empty else [10, 1, 1, 10] for k in range(6)]
            table = CoincidenceTable(tuple(CoincidenceRow(a, b, *n) for (a, b), n in zip(pairs, counts)))
            for call in (lambda: estimate(table, BellLabel.PHI_PLUS, BBM92, settings_),
                         lambda: protocol.estimate_counts(counts, BellLabel.PHI_PLUS, BBM92, settings_)):
                with pytest.raises(error, match=message):
                    call()
