import math

import numpy as np
import pytest
from scipy.stats import chi2_contingency, chisquare

import _oracles
from _oracles import ideal_correlator, sample_cell_counts_grouped
from conftest import random_density_matrix

from ebqkd import measurement
from ebqkd.measurement import (
    AnalyzerSetting,
    CoincidenceRow,
    CoincidenceTable,
    DetectorModel,
    bob_flip,
    intercept_average_state,
    intercept_resend,
    intercept_strata,
    qber_for_basis,
    sample_outcome_stream,
    sample_outcomes,
    spawn_rng,
    wrong_outcomes,
)
from ebqkd.optics import ChannelModel, SourceModel, apply_channel, bell_state, generate
from ebqkd.protocol import BBM92, E91
from ebqkd.qstate import BellLabel, TwoQubitState, joint_probabilities


def setting(pol_deg):
    return AnalyzerSetting.from_polarization(pol_deg)


def sample_pair(state, a, b, det, n, seed):
    """Counts of one setting pair, drawn by the batched sampler."""
    (row,) = sample_outcomes(state, [(a, b)], det, n, [spawn_rng(seed)])
    return row.counts()


class TestAnalyzerSetting:
    def test_polarization_is_twice_hwp(self):
        s = AnalyzerSetting(hwp_angle_deg=11.25)
        assert s.polarization_angle_deg == 22.5
        assert s.polarization_angle_rad == pytest.approx(math.radians(22.5))

    def test_from_polarization(self):
        assert AnalyzerSetting.from_polarization(67.5).hwp_angle_deg == 33.75
        assert AnalyzerSetting.from_polarization(360.0).hwp_angle_deg == 0.0

    def test_range(self):
        with pytest.raises(ValueError):
            AnalyzerSetting(180.0)
        with pytest.raises(ValueError):
            AnalyzerSetting(-1.0)


class TestDetectorModel:
    def test_defaults(self):
        det = DetectorModel()
        assert det.efficiency == 0.6
        assert det.eff_bob == 0.6
        assert det.coincidence_efficiency() == pytest.approx(0.36)

    def test_asymmetric_extension(self):
        det = DetectorModel(efficiency=0.8, efficiency_b=0.5)
        assert det.coincidence_efficiency() == pytest.approx(0.4)

    def test_validation(self):
        with pytest.raises(ValueError):
            DetectorModel(efficiency=0.0)
        with pytest.raises(ValueError):
            DetectorModel(dark_rate=-1.0)
        with pytest.raises(ValueError):
            DetectorModel(window_pairs=0)

    @pytest.mark.parametrize("window_pairs", [0, 2**63, 10**400])
    def test_window_pairs_must_be_a_64_bit_count(self, window_pairs):
        # Past 2**63 the accidentals' mean would overflow the float division.
        with pytest.raises(ValueError, match=r"^window_pairs must be in \[1, 2\*\*63\)"):
            DetectorModel(window_pairs=window_pairs)
        assert DetectorModel(dark_rate=1.0, window_pairs=2**63 - 1).expected_accidentals(2**63 - 1) == 1.0

    @pytest.mark.parametrize("dark_rate", [-1.0, math.nan, math.inf, -math.inf])
    def test_dark_rate_must_be_finite_and_nonnegative(self, dark_rate):
        with pytest.raises(ValueError, match="dark_rate"):
            DetectorModel(dark_rate=dark_rate)

    def test_expected_accidentals(self):
        det = DetectorModel(efficiency=1.0, dark_rate=2.0, window_pairs=100)
        assert det.expected_accidentals(10_000) == pytest.approx(200.0)


class TestCoincidenceTable:
    def test_counts_nonnegative(self):
        with pytest.raises(ValueError):
            CoincidenceRow(setting(0), setting(0), 1, -1, 0, 0)

    def test_find_matches_angles(self):
        row = CoincidenceRow(setting(0), setting(22.5), 1, 2, 3, 4)
        table = CoincidenceTable((row,))
        assert table.find(setting(0), setting(22.5)) is row
        assert table.find(setting(45), setting(22.5)) is None

    def test_find_tolerates_rounding_and_wraps_mod_180(self):
        row = CoincidenceRow(setting(0), setting(22.5), 1, 2, 3, 4)
        table = CoincidenceTable((row,))
        assert table.find(AnalyzerSetting(1e-8), AnalyzerSetting(11.25 + 1e-8)) is row
        assert table.find(AnalyzerSetting(180.0 - 1e-8), AnalyzerSetting(11.25)) is row
        assert table.find(AnalyzerSetting(1e-4), AnalyzerSetting(11.25)) is None

    def test_first_row_wins_on_duplicate_settings(self):
        first = CoincidenceRow(setting(0), setting(0), 1, 0, 0, 1)
        second = CoincidenceRow(setting(0), setting(0), 0, 1, 1, 0)
        assert CoincidenceTable((first, second)).find(setting(0), setting(0)) is first


class TestSampleOutcomes:
    def test_perfect_anticorrelation(self):
        singlet = bell_state(BellLabel.PSI_MINUS)
        det = DetectorModel(efficiency=1.0)
        n = 1_000_000
        n_pp, n_pm, n_mp, n_mm = sample_pair(singlet, setting(0), setting(0), det, n, seed=1)
        assert n_pp == 0 and n_mm == 0
        sigma = 5 * math.sqrt(0.25 * n)
        assert abs(n_pm - n / 2) < sigma
        assert abs(n_mp - n / 2) < sigma

    def test_efficiency_thinning(self):
        state = bell_state(BellLabel.PHI_PLUS)
        det = DetectorModel(efficiency=0.5)
        n = 1_000_000
        total = sum(sample_pair(state, setting(0), setting(0), det, n, seed=2))
        p = 0.25
        assert abs(total - p * n) < 5 * math.sqrt(p * (1 - p) * n)

    def test_maximally_mixed_uniform(self):
        mixed = TwoQubitState(np.eye(4) / 4)
        det = DetectorModel(efficiency=1.0)
        n = 1_000_000
        counts = sample_pair(mixed, setting(10), setting(70), det, n, seed=3)
        sigma = 5 * math.sqrt(0.25 * 0.75 * n)
        for c in counts:
            assert abs(c - n / 4) < sigma

    def test_frequencies_converge_to_born_rule(self):
        state = bell_state(BellLabel.PHI_PLUS, 0.6)
        a, b = setting(30), setting(75)
        det = DetectorModel(efficiency=1.0)
        n = 1_000_000
        counts = np.array(sample_pair(state, a, b, det, n, seed=4))
        probs = joint_probabilities(state, a, b).as_array()
        for c, p in zip(counts, probs):
            assert abs(c / n - p) < 5 * math.sqrt(p * (1 - p) / n) + 1e-9

    def test_same_seed_bit_identical(self):
        state = bell_state(BellLabel.PHI_PLUS)
        det = DetectorModel(efficiency=0.6, dark_rate=0.5)
        a = sample_pair(state, setting(0), setting(22.5), det, 10_000, seed=99)
        b = sample_pair(state, setting(0), setting(22.5), det, 10_000, seed=99)
        assert a == b

    def test_dark_counts_uniform(self):
        # Starve the signal so only accidentals remain, then chi-square.
        state = bell_state(BellLabel.PHI_PLUS)
        det = DetectorModel(efficiency=1e-9, dark_rate=20_000.0)
        counts = sample_pair(state, setting(0), setting(0), det, 1, seed=5)
        assert sum(counts) >= 10_000
        assert chisquare(counts).pvalue > 0.001

    def test_each_pair_draws_from_its_own_generator(self):
        # A batched call equals one call per pair on the same generators, so
        # adding or reordering pairs never moves another pair's counts.
        state = bell_state(BellLabel.PSI_PLUS, 0.7)
        pairs = [(setting(0), setting(22.5)), (setting(45), setting(45)), (setting(30), setting(100))]
        det = DetectorModel(efficiency=0.8, dark_rate=0.01)
        for sampled in (state, intercept_average_state(state, 0.3)):
            rows = sample_outcomes(sampled, pairs, det, 20_000, [spawn_rng(s) for s in (11, 12, 13)])
            assert [(r.a, r.b) for r in rows] == pairs
            for (a, b), seed, row in zip(pairs, (11, 12, 13), rows):
                assert row.counts() == sample_pair(sampled, a, b, det, 20_000, seed)
        with pytest.raises(ValueError):
            sample_outcomes(state, pairs, det, 20_000, [spawn_rng(11), spawn_rng(12)])

    def test_spawn_rng_is_deterministic_per_stream(self):
        a = spawn_rng(7, 3).random(4)
        b = spawn_rng(7, 3).random(4)
        c = spawn_rng(7, 4).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


E91_ALICE = tuple(AnalyzerSetting(t) for t in (0.0, 11.25, 22.5))
E91_BOB = tuple(AnalyzerSetting(t) for t in (11.25, 22.5, 33.75))


def _lost(efficiency):
    """A detector that detects both photons of a pair with probability
    ``efficiency``, all of the loss in Alice's arm."""
    return DetectorModel(efficiency, efficiency_b=1.0)


def _stream(state, eve_fraction, a_settings, b_settings, n, det, seed):
    """Library cell counts of ``n`` pairs with the lost pairs appended."""
    joint = intercept_resend(state, a_settings, b_settings, eve_fraction)
    counts = sample_outcome_stream(joint, np.zeros(n, np.uint8), np.random.default_rng(seed), det)
    return np.array(counts + [n - sum(counts)])


def _oracle_probabilities(bloch, a_settings, b_settings):
    """Kron/trace cell probabilities of ``bloch`` and "not coincident"."""
    rho = _oracles.density_from_bloch(bloch / bloch[0, 0])
    p = np.concatenate([
        _oracles.joint_probabilities(rho, a, b).clip(0.0, 1.0) for a in a_settings for b in b_settings
    ])
    coincident = min(1.0, bloch[0, 0])
    return np.append(p / p.sum() * coincident, 1.0 - coincident)


def _check_against_grouped_oracle(rho, eve_fraction, efficiency, n, a_settings, b_settings, seed):
    """Library counts of ``n`` pairs of ``rho`` under intercept-resend, after
    checking them and the grouped oracle's counts (of the partial-trace
    strata mixture, on another seed) against the kron/trace probabilities
    and against each other."""
    lib = _stream(TwoQubitState(rho), eve_fraction, a_settings, b_settings, n, _lost(efficiency), seed)
    states, weights = _oracles.intercept_strata(rho, eve_fraction)
    bloch = efficiency * _oracles.pauli_bloch(sum(w * r for w, r in zip(weights, states)))
    ref = sample_cell_counts_grouped(bloch, n, a_settings, b_settings, np.random.default_rng(seed + 1000))
    p = _oracle_probabilities(bloch, a_settings, b_settings)
    assert lib.shape == ref.shape == p.shape and lib.sum() == ref.sum() == n
    possible = p > 1e-12
    assert not lib[~possible].any() and not ref[~possible].any()
    for counts in (lib, ref):
        assert chisquare(counts[possible], n * p[possible]).pvalue > 1e-3
    both = np.array([lib, ref])[:, possible]
    assert chi2_contingency(both).pvalue > 1e-3
    return lib


class TestSampleOutcomeStream:
    @pytest.mark.parametrize("stratum", [0, 1, 2, 3, 4])
    def test_matches_grouped_oracle_over_all_strata(self, stratum):
        # The untouched state alone (fraction 0), the intercepted stratum
        # alone (fraction 1) and mixtures of the two, at efficiencies from
        # 1 (no loss) down to 0.3, over all nine setting pairs and the lost
        # pairs, fit the kron/trace probabilities as the
        # setting-pair-by-setting-pair oracle does.
        rho = bell_state(list(BellLabel)[stratum % 4], 0.6).rho
        fraction = (0.0, 1.0, 0.4, 0.7, 0.2)[stratum]
        efficiency = (1.0, 0.8, 0.6, 0.45, 0.3)[stratum]
        lib = _check_against_grouped_oracle(rho, fraction, efficiency, 200_000, E91_ALICE, E91_BOB, stratum)
        assert lib.shape == (37,)
        assert (lib[36] > 0) == (stratum > 0)
        assert (lib[:36].reshape(9, 4).sum(axis=1) > 0).all()

    def test_zero_probability_outcomes(self):
        # Maximal phi+ with equal analyzers never gives +- or -+.
        rho = bell_state(BellLabel.PHI_PLUS).rho
        bases = (setting(0), setting(45))
        counts = _check_against_grouped_oracle(rho, 0.0, 0.5, 10_000, bases, bases, 6)[:16].reshape(4, 4)
        matched = [0, 3]  # (H/V, H/V) and (D/A, D/A)
        assert not counts[matched][:, 1:3].any()
        assert counts[[1, 2]][:, 1:3].all()

    def test_empty_stream(self):
        joint = intercept_resend(bell_state(BellLabel.PHI_PLUS), E91_ALICE, E91_BOB, 0.0)
        det = DetectorModel(dark_rate=5.0)
        assert sample_outcome_stream(joint, np.zeros(0, np.uint8), np.random.default_rng(8), det) == [0] * 36

    def test_reads_only_the_length_of_stratum_idx(self):
        # A broadcast view of n_pairs zeros costs no memory at any n, and
        # coincidences plus accidentals pass 2**63 as Python ints.
        joint = intercept_resend(bell_state(BellLabel.PHI_PLUS), E91_ALICE, E91_BOB, 0.0)
        det = DetectorModel(1.0, dark_rate=0.5)
        every_pair = np.broadcast_to(np.uint8(0), (2**63 - 1,))
        counts = sample_outcome_stream(joint, every_pair, np.random.default_rng(9), det)
        assert all(type(c) is int for c in counts)
        n_acc = sum(counts) - (2**63 - 1)
        assert abs(n_acc - 2**62) < 6 * math.sqrt(2**62)
        assert sample_outcome_stream(joint, np.ones(50, np.uint8), np.random.default_rng(9), det) == (
            sample_outcome_stream(joint, np.zeros(50, np.uint8), np.random.default_rng(9), det)
        )


class TestInterceptResend:
    def test_eve_states_built_once_per_call(self, monkeypatch):
        # The strata are one C stack per call and never become states.
        state = bell_state(BellLabel.PHI_PLUS)
        built, strata = [], []
        post_init = TwoQubitState.__post_init__
        monkeypatch.setattr(
            TwoQubitState, "__post_init__", lambda self: built.append(self) or post_init(self)
        )
        monkeypatch.setattr(
            measurement, "intercept_strata",
            lambda *args: strata.append(args) or intercept_strata(*args),
        )
        for eve_fraction in (0.5, 0.0):
            built.clear()
            strata.clear()
            intercept_resend(state, E91_ALICE, E91_BOB, eve_fraction)
            assert built == [] and len(strata) == 1

    @pytest.mark.parametrize("kind", [BBM92, E91])
    @pytest.mark.parametrize("eve_fraction", [0.0, 0.3])
    def test_cell_probabilities_match_kron_trace_oracle(self, kind, eve_fraction):
        # Coincident cells: the partial-trace strata mixture's Born rule by
        # kron/trace, every setting pair equally likely.
        rho = bell_state(BellLabel.PSI_PLUS, 0.6).rho
        joint = intercept_resend(TwoQubitState(rho), kind.alice_settings(), kind.bob_settings(), eve_fraction)
        expected = _oracles.cell_probabilities(kind, rho, eve_fraction)
        assert joint.shape == (len(kind.alice_hwp_deg) * len(kind.bob_hwp_deg) * 4,)
        np.testing.assert_allclose(joint, expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("eve_fraction", [0.0, 0.3, 1.0])
    def test_stream_matches_masked_strata_and_grouped_oracle(self, eve_fraction):
        # The library draws the cell counts of all pairs from the strata
        # mixture, thinned by the coincidence efficiency: they must follow
        # in distribution the grouped oracle over the partial-trace
        # mixture, and their coincident cells the masked-strata engine,
        # which makes Eve's three draws per pair.
        rho = bell_state(BellLabel.PSI_PLUS, 0.6).rho
        n, efficiency = 40_000, 0.6
        lib = _stream(TwoQubitState(rho), eve_fraction, E91_ALICE, E91_BOB, n, _lost(efficiency), 42)
        states, weights = _oracles.intercept_strata(rho, eve_fraction)
        mixture = _oracles.pauli_bloch(sum(w * r for w, r in zip(weights, states)))
        ref = sample_cell_counts_grouped(efficiency * mixture, n, E91_ALICE, E91_BOB, np.random.default_rng(44))
        observed = np.array([lib, ref])[:, (lib + ref) > 0]
        assert chi2_contingency(observed).pvalue > 1e-3
        coincident = lib[:36].sum()
        assert abs(coincident - efficiency * n) < 5 * math.sqrt(n * efficiency * (1 - efficiency))

        pair_idx = np.random.default_rng(41).integers(0, 9, size=n).astype(np.uint8)
        masked = _oracles.intercept_resend_strata(
            rho, E91_ALICE, E91_BOB, pair_idx, eve_fraction, np.random.default_rng(43)
        )
        masked_cells = np.bincount(pair_idx * 4 + masked, minlength=36)
        observed = np.array([lib[:36], masked_cells])[:, (lib[:36] + masked_cells) > 0]
        assert chi2_contingency(observed).pvalue > 1e-3

    def test_mixture_matches_partial_trace_oracle(self):
        # Two closed-form strata mix to the five partial-trace strata of
        # Eve's basis and result: for random states and fractions, and for
        # the states the program makes (every label, non-maximal,
        # HOM-degraded, depolarized), down to |HH>, where Eve never sees V.
        rng = np.random.default_rng(31)
        rhos = [random_density_matrix(rng, rank=int(rng.integers(1, 5))) for _ in range(200)]
        for i in range(200):
            source = SourceModel(
                list(BellLabel)[i % 4], epsilon_rad=rng.uniform(0, math.pi / 2), hom_visibility=rng.uniform(0, 1)
            )
            rhos.append(apply_channel(generate(source), ChannelModel.werner(rng.uniform(0, 1))).rho)
        rhos.append(bell_state(BellLabel.PHI_PLUS, 0.0).rho)
        for rho in rhos:
            fraction = rng.uniform(0, 1)
            blochs, weights = intercept_strata(TwoQubitState(rho), fraction)
            assert blochs.shape == (2, 4, 4)
            np.testing.assert_array_equal(weights, [1.0 - fraction, fraction])
            states, expected_weights = _oracles.intercept_strata(rho, fraction)
            expected = _oracles.pauli_bloch(sum(w * r for w, r in zip(expected_weights, states)))
            np.testing.assert_allclose(np.tensordot(weights, blochs, axes=1), expected, rtol=0, atol=1e-15)

    def test_strata_weights_sum_to_one(self):
        state = bell_state(BellLabel.PHI_PLUS)
        blochs, weights = intercept_strata(state, 0.3)
        assert len(blochs) == 2
        assert weights.sum() == pytest.approx(1.0)
        assert weights[0] == pytest.approx(0.7)

    def test_average_state_fraction_zero(self):
        state = bell_state(BellLabel.PHI_PLUS, 0.5)
        np.testing.assert_allclose(intercept_average_state(state, 0.0).rho, state.rho, atol=1e-15)

    def test_one_stratum_without_eve(self):
        # At eve_fraction = 0 the mixture is the state alone, and the sampler
        # draws exactly binomial -> multinomial(p) -> poisson from each
        # pair's generator.
        state = bell_state(BellLabel.PHI_PLUS, 0.5)
        blochs, weights = intercept_strata(state, 0.0)
        np.testing.assert_array_equal(blochs, state.bloch[None])
        np.testing.assert_array_equal(weights, [1.0])
        assert intercept_average_state(state, 0.0) is state

        a, b = setting(10), setting(55)
        det = DetectorModel(efficiency=0.7)
        rng_lib, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
        (row,) = sample_outcomes(state, [(a, b)], det, 50_000, [rng_lib])
        n_coinc = rng_ref.binomial(50_000, det.coincidence_efficiency())
        p = joint_probabilities(state, a, b).as_array()
        expected = rng_ref.multinomial(n_coinc, p / p.sum())
        rng_ref.poisson(det.expected_accidentals(50_000))
        assert row.counts() == tuple(int(c) for c in expected)
        assert rng_lib.random() == rng_ref.random()

    def test_full_interception_qber(self):
        # Eve's measure-and-resend on phi+ leaves 25% error in each key basis.
        state = bell_state(BellLabel.PHI_PLUS)
        avg = intercept_average_state(state, 1.0)
        assert qber_for_basis(avg, BellLabel.PHI_PLUS, 0.0) == pytest.approx(0.25, abs=1e-12)
        assert qber_for_basis(avg, BellLabel.PHI_PLUS, math.pi / 4) == pytest.approx(0.25, abs=1e-12)

    def test_qber_linear_in_fraction(self):
        state = bell_state(BellLabel.PHI_PLUS)
        avg = intercept_average_state(state, 0.5)
        assert qber_for_basis(avg, BellLabel.PHI_PLUS, 0.0) == pytest.approx(0.125, abs=1e-12)

    def test_sampled_interception_matches_average(self):
        state = bell_state(BellLabel.PHI_PLUS)
        n = 400_000
        bases = (setting(0),)
        joint = intercept_resend(state, bases, bases, 1.0)
        counts = sample_outcome_stream(joint, np.zeros(n, dtype=np.uint8), np.random.default_rng(8), DetectorModel(1.0))
        wrong = (counts[1] + counts[2]) / n
        assert abs(wrong - 0.25) < 5 * math.sqrt(0.25 * 0.75 / n)

    def test_fraction_range(self):
        state = bell_state(BellLabel.PHI_PLUS)
        with pytest.raises(ValueError):
            intercept_strata(state, 1.5)


class TestBobFlip:
    @pytest.mark.parametrize(
        "label,hv,da",
        [
            (BellLabel.PHI_PLUS, False, False),
            (BellLabel.PHI_MINUS, False, True),
            (BellLabel.PSI_PLUS, True, False),
            (BellLabel.PSI_MINUS, True, True),
        ],
    )
    def test_flip_table(self, label, hv, da):
        assert bob_flip(label, 0.0) is hv
        assert bob_flip(label, math.pi / 4) is da

    @pytest.mark.parametrize("label", [BellLabel.PHI_MINUS, BellLabel.PSI_PLUS])
    @pytest.mark.parametrize("pol_deg", [22.5, 67.5, 112.5, 157.5])
    def test_no_flip_where_ideal_state_is_uncorrelated(self, label, pol_deg):
        # The Born rule leaves a ~1e-16 residue of either sign here; no
        # flip can align uncorrelated bits, so none is made.
        assert abs(ideal_correlator(label, math.radians(pol_deg))) < 1e-9
        assert bob_flip(label, math.radians(pol_deg)) is False
        assert wrong_outcomes(label, math.radians(pol_deg)) == (1, 2)

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_closed_form_agrees_with_born_rule_oracle(self, label):
        checked = 0
        for pol_deg in np.arange(0.0, 180.0, 0.25):
            e = ideal_correlator(label, math.radians(pol_deg))
            if abs(e) > 1e-9:
                assert bob_flip(label, math.radians(pol_deg)) is (e < 0.0), pol_deg
                checked += 1
        assert checked >= 700
