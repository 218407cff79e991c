import math
import time

import numpy as np
import pytest
from scipy.optimize import bisect as scipy_bisect

from _oracles import binary_entropy as h2_oracle, mutual_information_joint
from ebqkd.security import (
    _BISECT_XTOL,
    DELTA_INDIVIDUAL,
    S_QUANTUM_MAX,
    SecurityReport,
    binary_entropy,
    evaluate,
    key_rate,
    mi_alice_bob_from_errors,
    mi_alice_eve,
    s_model,
    thresholds,
    _bisect,
)

SQ2 = math.sqrt(2.0)


def bsc_joint(e: float) -> np.ndarray:
    """Symmetric binary channel with uniform input and crossover e."""
    return np.array([(1 - e) / 2, e / 2, e / 2, (1 - e) / 2])


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == pytest.approx(1.0)

    def test_endpoints_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_value_at_011(self):
        # 30-digit evaluation: H(0.11) = 0.499915958164528
        assert binary_entropy(0.11) == pytest.approx(0.499915958164528, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            binary_entropy(-0.01)
        with pytest.raises(ValueError):
            binary_entropy(1.01)

    def test_symmetry_and_concavity(self):
        for p in np.linspace(0.01, 0.99, 33):
            assert binary_entropy(p) == pytest.approx(binary_entropy(1 - p), abs=1e-12)
            assert 0.0 < binary_entropy(p) <= 1.0


class TestMiAliceEve:
    def test_tsirelson_gives_zero(self):
        assert mi_alice_eve(2 * SQ2) == pytest.approx(0.0, abs=1e-12)

    def test_classical_bound_gives_one(self):
        assert mi_alice_eve(2.0) == pytest.approx(1.0)

    def test_paper_measured_value(self):
        # 30-digit evaluation at S = 2.64: 0.362881651900771
        assert mi_alice_eve(2.64) == pytest.approx(0.362881651900771, abs=1e-12)

    def test_subclassical_saturates(self):
        assert mi_alice_eve(1.7) == 1.0
        assert mi_alice_eve(-0.4) == 1.0

    def test_above_tsirelson_rejected(self):
        with pytest.raises(ValueError):
            mi_alice_eve(2.9)

    def test_strictly_decreasing_with_exact_endpoints(self):
        grid = np.linspace(2.0, S_QUANTUM_MAX, 500)
        values = [mi_alice_eve(s) for s in grid]
        assert values[0] == pytest.approx(1.0)
        assert values[-1] == pytest.approx(0.0, abs=1e-9)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestMiAliceBob:
    def test_error_free_is_one_bit(self):
        assert mi_alice_bob_from_errors(0.0, 0.0) == pytest.approx(1.0)

    def test_half_errors_reported_as_is(self):
        # The formula goes to -1 at e_b = e_p = 0.5; it is reported raw and
        # only r > 0 ever counts as secure.
        assert mi_alice_bob_from_errors(0.5, 0.5) == pytest.approx(-1.0)

    def test_bsc_identity_links_both_paths(self):
        # On a symmetric binary channel the joint distribution's I(A:B) is
        # 1 - H(e), so the error-rate path equals it minus H(e_p); with
        # e_p = 0 the two paths agree exactly.
        for e in np.linspace(0.0, 0.5, 21):
            joint = mutual_information_joint(bsc_joint(e))
            assert joint == pytest.approx(1 - h2_oracle(e), abs=1e-12)
            for e_p in (0.0, 0.03, 0.2):
                assert mi_alice_bob_from_errors(e, e_p) == pytest.approx(
                    joint - h2_oracle(e_p), abs=1e-12
                )
            assert mi_alice_bob_from_errors(e, 0.0) == pytest.approx(joint, abs=1e-12)


class TestKeyRate:
    def test_ideal(self):
        assert key_rate(1.0, 0.0) == 1.0

    def test_operating_point_004(self):
        # Exact values at delta = 0.04 (30-digit evaluation):
        # I_AB = 0.515415621835170, I_AE = 0.415522217925402, r = 0.099893.
        delta = 0.04
        i_ab = mi_alice_bob_from_errors(delta, delta)
        i_ae = mi_alice_eve(s_model(delta))
        assert i_ab == pytest.approx(0.515415621835170, abs=1e-12)
        assert i_ae == pytest.approx(0.415522217925402, abs=1e-12)
        assert key_rate(i_ab, i_ae) == pytest.approx(0.099893403909769, abs=1e-12)

    def test_negative_at_005(self):
        delta = 0.05
        r = key_rate(mi_alice_bob_from_errors(delta, delta), mi_alice_eve(s_model(delta)))
        assert r == pytest.approx(-0.061446467116290, abs=1e-12)
        assert r < 0.0


class TestSModel:
    def test_zero_disturbance(self):
        assert s_model(0.0) == pytest.approx(2 * SQ2)

    def test_classical_crossing(self):
        # S = 2 happens at delta = (1 - 1/sqrt(2))/2 ~= 14.6%.
        assert s_model(DELTA_INDIVIDUAL) == pytest.approx(2.0, abs=1e-12)
        assert DELTA_INDIVIDUAL == pytest.approx(0.146446609406726, abs=1e-12)

    def test_two_percent(self):
        assert s_model(0.02) == pytest.approx(2.71529003975634, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            s_model(0.6)


class TestThresholds:
    def test_values_and_runtime(self):
        thresholds.cache_clear()
        start = time.perf_counter()
        thr = thresholds()
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0
        assert thr.delta_individual == pytest.approx(0.146446609406726, abs=1e-12)
        assert thr.delta_collective == pytest.approx(0.110027864438360, abs=5e-6)
        # Root of the defining equation (30-digit bisection): 0.046098097.
        assert thr.delta_mi_zero == pytest.approx(0.046098097455162, abs=5e-6)
        assert thr.s_at_individual == pytest.approx(2.0, abs=1e-9)
        assert thr.s_at_collective == pytest.approx(2.206, abs=1e-3)
        assert thr.s_at_mi_zero == pytest.approx(2.5677, abs=1e-3)

    def test_rate_curve_shape(self):
        # r(delta) = 1 - 2H - I_AE(S(delta)): starts at one full bit,
        # decreases strictly, crosses zero once inside (0.04, 0.05).
        def r(delta):
            return key_rate(
                mi_alice_bob_from_errors(delta, delta), mi_alice_eve(s_model(delta))
            )

        grid = np.linspace(0.0, 0.15, 151)
        values = [r(d) for d in grid]
        assert values[0] == pytest.approx(1.0)
        assert all(b < a for a, b in zip(values, values[1:]))
        crossings = sum(1 for a, b in zip(values, values[1:]) if a > 0 >= b)
        assert crossings == 1
        assert r(0.04) > 0 > r(0.05)


def _collective_rate(d):
    return 1.0 - 2.0 * binary_entropy(d)


def _mi_gap(d):
    return 1.0 - 2.0 * binary_entropy(d) - mi_alice_eve(s_model(d))


class TestBisect:
    """``_bisect`` is a port of ``scipy.optimize.bisect``: same float, bit for bit."""

    @pytest.mark.parametrize("f,a,b,xtol", [
        (_collective_rate, 1e-12, 0.5, _BISECT_XTOL),
        (_mi_gap, 1e-12, 0.25, _BISECT_XTOL),
        (lambda x: x - 0.3, 0.0, 1.0, 1e-6),
        (lambda x: x * x - 2.0, 0.0, 2.0, 1e-12),
        (lambda x: math.exp(-x) - x, -1.0, 3.0, 5e-324),
        (lambda x: 0.75 - x ** 3, 2.0, -1.0, 1e-9),
        (lambda x: x - 0.25, 0.0, 0.5, 1e-6),  # root at the first midpoint
        (lambda x: x - 0.5, 0.5, 1.0, 1e-6),  # root at a bracket end
        (lambda x: x - 1.0, 0.5, 1.0, 1e-6),
        (math.atan, -1.0, 2.0, 2e-12),
    ])
    def test_matches_scipy_bit_for_bit(self, f, a, b, xtol):
        assert _bisect(f, a, b, xtol).hex() == float(scipy_bisect(f, a, b, xtol=xtol)).hex()

    def test_same_sign_bracket_raises(self):
        with pytest.raises(ValueError, match="different signs"):
            _bisect(lambda x: x * x + 1.0, -1.0, 1.0, 1e-6)
        with pytest.raises(ValueError):
            scipy_bisect(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-6)

    def test_hundred_halvings_without_convergence_raise(self):
        # The sign change sits far below 2**-100 of the bracket, out of reach of 100 halvings.
        def step(x):
            return 1.0 if x > 1e-300 else -1.0

        with pytest.raises(RuntimeError):
            _bisect(step, 0.0, 1.0, 5e-324)
        with pytest.raises(RuntimeError):
            scipy_bisect(step, 0.0, 1.0, xtol=5e-324)

    def test_nan_value_raises(self):
        with pytest.raises(ValueError, match="NaN"):
            _bisect(lambda x: math.nan if x > 0.4 else x - 0.3, 0.0, 1.0, 1e-6)

    def test_thresholds_are_pinned(self):
        thr = thresholds()
        assert thr.delta_collective.hex() == "0x1.c2ad00000db8ap-4"
        assert thr.delta_mi_zero.hex() == "0x1.79a200001cb25p-5"


class TestEndToEndLinearLaw:
    def test_sampled_werner_points_sit_on_model_line(self):
        # Sampled (delta, S) pairs from a Werner sweep satisfy the linear
        # disturbance law within the propagated uncertainty.
        from ebqkd.cli import SweepSpec, run_sweep

        spec = SweepSpec(
            mechanism="werner",
            grid=(1.0, 0.9, 0.8, 0.7, 0.6),
            n_pairs=100_000,
        )
        for row in run_sweep(spec, seed=77):
            assert abs(row["S_sampled"] - s_model(row["qber"])) < 5 * row["sigma_S"]


class TestEvaluate:
    def test_verdicts_consistent_with_numbers(self):
        rng = np.random.default_rng(37)
        thr = thresholds()
        for _ in range(300):
            e_b = rng.uniform(0, 0.3)
            e_p = rng.uniform(0, 0.3)
            s = rng.uniform(1.5, S_QUANTUM_MAX) if rng.random() < 0.8 else None
            report = evaluate(e_b, e_p, s=s)
            assert isinstance(report, SecurityReport)
            assert report.delta == pytest.approx((e_b + e_p) / 2)
            assert report.individual_bound_ok == (report.delta < thr.delta_individual)
            assert report.collective_bound_ok == (report.delta < thr.delta_collective)
            assert report.mi_positive == (report.r > 0)
            assert report.subclassical_s == (report.s < 2.0)
            assert not report.s_above_tsirelson
            assert report.r == pytest.approx(report.i_ab - report.i_ae)
            assert report.r <= 1.0
            assert 0.0 <= report.i_ae <= 1.0

    def test_measured_s_preferred(self):
        report = evaluate(0.02, 0.02, s=2.64)
        assert report.s == 2.64
        assert report.s_model_value == pytest.approx(s_model(0.02))
        assert report.i_ae == pytest.approx(mi_alice_eve(2.64))

    def test_model_s_fallback(self):
        report = evaluate(0.03, 0.05)
        assert report.s == pytest.approx(s_model(0.04))

    def test_statistical_overshoot_clamped(self):
        report = evaluate(0.0, 0.0, s=2.8285)
        assert report.s == pytest.approx(S_QUANTUM_MAX)
        assert report.i_ae == pytest.approx(0.0, abs=1e-6)
        assert report.s_above_tsirelson

    def test_tsirelson_bound_itself_not_flagged(self):
        assert not evaluate(0.0, 0.0, s=S_QUANTUM_MAX).s_above_tsirelson
        assert not evaluate(0.0, 0.0).s_above_tsirelson

    def test_classical_s_gives_no_key(self):
        # At S = 2 Eve's bound is one full bit, so an error-free key has
        # r = 0 exactly, which is not a key; S = 2 itself is not subclassical.
        at_two = evaluate(0.0, 0.0, s=2.0)
        assert at_two.r == 0.0
        assert not at_two.mi_positive
        assert not at_two.subclassical_s
        below = evaluate(0.0, 0.0, s=1.9)
        assert below.r == 0.0
        assert not below.mi_positive
        assert below.subclassical_s

    def test_threshold_verdicts_are_strict(self):
        # A QBER on a threshold fails its bound; one ulp below passes it.
        for delta, verdict in (
            (DELTA_INDIVIDUAL, "individual_bound_ok"),
            (thresholds().delta_collective, "collective_bound_ok"),
        ):
            assert not getattr(evaluate(delta, delta), verdict)
            below = math.nextafter(delta, 0.0)
            assert getattr(evaluate(below, below), verdict)

    def test_error_rate_domain(self):
        with pytest.raises(ValueError):
            evaluate(-0.1, 0.0)
