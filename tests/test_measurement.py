import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

import _oracles
from _oracles import ideal_correlator, sample_outcome_stream_grouped
from conftest import random_density_matrix

from ebqkd import measurement
from ebqkd.measurement import (
    AnalyzerSetting,
    CoincidenceRow,
    CoincidenceTable,
    DetectorModel,
    JointCdf,
    PairStream,
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
from ebqkd.optics import bell_state
from ebqkd.qstate import BellLabel, TwoQubitState, joint_probabilities


def setting(pol_deg):
    return AnalyzerSetting.from_polarization(pol_deg)


def sample_pair(state, a, b, det, n, seed):
    """Counts of one setting pair, drawn by the batched sampler."""
    (row,) = sample_outcomes(state, [(a, b)], det, n, [seed])
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
            rows = sample_outcomes(sampled, pairs, det, 20_000, [11, 12, 13])
            assert [(r.a, r.b) for r in rows] == pairs
            for (a, b), seed, row in zip(pairs, (11, 12, 13), rows):
                assert row.counts() == sample_pair(sampled, a, b, det, 20_000, seed)
        with pytest.raises(ValueError):
            sample_outcomes(state, pairs, det, 20_000, [11, 12])

    def test_spawn_rng_is_deterministic_per_stream(self):
        a = spawn_rng(7, 3).random(4)
        b = spawn_rng(7, 3).random(4)
        c = spawn_rng(7, 4).random(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


def _fresh_generators(seed):
    """The lane and refinement bit generators of ``seed``'s stream, built
    apart from :class:`PairStream`: its first two children."""
    return tuple(np.random.PCG64(child) for child in np.random.SeedSequence(seed).spawn(2))


def _next_words(*generators):
    return tuple(int(g.random_raw()) for g in generators)


def _both_samplers(blochs, stratum_idx, a_settings, b_settings, seed):
    """Library and oracle cells from equal seeds, plus the next raw word of
    each side's lane and refinement generators (equal when both consumed
    the same draws)."""
    stream = PairStream.spawn(np.random.SeedSequence(seed))
    lib = sample_outcome_stream(JointCdf.of(blochs, a_settings, b_settings), stratum_idx, stream)
    words, refine = _fresh_generators(seed)
    ref = sample_outcome_stream_grouped(blochs, stratum_idx, a_settings, b_settings, words, refine)
    return lib, ref, _next_words(stream.words, stream.refine), _next_words(words, refine)


E91_ALICE = tuple(AnalyzerSetting(t) for t in (0.0, 11.25, 22.5))
E91_BOB = tuple(AnalyzerSetting(t) for t in (11.25, 22.5, 33.75))


class TestSampleOutcomeStream:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_grouped_oracle_over_all_strata(self, seed):
        # Every pair's cell is searchsorted(cdf[stratum], u, side="right") of
        # its own uniform, for a k = 5 stack whose traces run from 1 (no
        # loss) down to 0.3, over all nine setting pairs and the lost cell;
        # some pairs fall in split buckets and draw refinement words.
        rng = np.random.default_rng([99, seed])
        state = bell_state(list(BellLabel)[seed % 4], 0.6)
        blochs, _ = intercept_strata(state, 0.4)
        blochs = blochs * np.array([1.0, 0.8, 0.6, 0.45, 0.3])[:, None, None]
        n = 20_000
        stratum_idx = rng.integers(0, len(blochs), size=n).astype(np.uint8)
        lib, ref, next_lib, next_ref = _both_samplers(blochs, stratum_idx, E91_ALICE, E91_BOB, seed)
        assert set(np.unique(stratum_idx)) == set(range(5))
        assert lib.dtype == np.uint8 and lib.shape == (n,)
        assert np.array_equal(lib, ref)
        assert next_lib == next_ref
        assert next_lib[1] != _next_words(_fresh_generators(seed)[1])[0]
        lost = lib == 36
        assert not lost[stratum_idx == 0].any() and all(lost[stratum_idx == s].any() for s in range(1, 5))
        assert set(np.unique(lib[~lost] >> 2)) == set(range(9))

    def test_single_group(self):
        # One stratum of a k = 5 stack: every pair in stratum 3.
        blochs, _ = intercept_strata(bell_state(BellLabel.PHI_PLUS), 0.5)
        n = 5_000
        stratum_idx = np.full(n, 3, dtype=np.uint8)
        lib, ref, next_lib, next_ref = _both_samplers(0.7 * blochs, stratum_idx, E91_ALICE, E91_BOB, 7)
        assert np.array_equal(lib, ref)
        assert next_lib == next_ref

    def test_zero_probability_outcomes(self):
        # Maximal phi+ with equal analyzers never gives +- or -+ (k = 1).
        blochs = 0.5 * bell_state(BellLabel.PHI_PLUS).bloch[None]
        bases = (setting(0), setting(45))
        n = 10_000
        lib, ref, next_lib, next_ref = _both_samplers(blochs, np.zeros(n, dtype=np.uint8), bases, bases, 6)
        assert np.array_equal(lib, ref)
        assert next_lib == next_ref
        coincident = lib[lib < 16]
        matched = np.isin(coincident >> 2, (0, 3))  # (H/V, H/V) and (D/A, D/A)
        assert not np.isin(coincident[matched] & 3, (1, 2)).any()
        assert np.isin(coincident[~matched] & 3, (1, 2)).any()

    def test_empty_stream(self):
        blochs = bell_state(BellLabel.PHI_PLUS).bloch[None]
        empty = np.zeros(0, dtype=np.uint8)
        lib, ref, next_lib, next_ref = _both_samplers(blochs, empty, E91_ALICE, E91_BOB, 8)
        assert lib.dtype == np.uint8 and lib.shape == (0,)
        assert np.array_equal(lib, ref)
        assert next_lib == next_ref == _next_words(*_fresh_generators(8))

    @pytest.mark.parametrize("sizes", [(3, 1, 5, 4097, 6), (4, 4, 8), (1,) * 11])
    def test_lanes_carry_over_between_draws(self, sizes):
        # Pairs read lanes in stream order however the draws cut the words:
        # lane j of word w is (w >> 16 j) & 0xFFFF.
        stream = PairStream.spawn(np.random.SeedSequence(4))
        drawn = np.concatenate([stream.lanes(n) for n in sizes])
        words, _ = _fresh_generators(4)
        raw = [int(w) for w in words.random_raw(-(-sum(sizes) // 4))]
        assert drawn.dtype == np.dtype("<u2")
        assert drawn.tolist() == [(raw[i // 4] >> (16 * (i % 4))) & 0xFFFF for i in range(sum(sizes))]
        assert _next_words(stream.words) == _next_words(words)


def _sub_normalised_cdfs():
    """Nondecreasing CDFs over 1..36 cells with last value ``trace`` in
    (0, 1] or one ulp above 1: zero-mass cells, thresholds snapped onto
    bucket edges ``k / B``, trace exactly 1 and a trace that rounded up all
    occur."""
    buckets = measurement._BUCKETS
    weight = st.one_of(st.just(0.0), st.floats(1e-12, 1e-3), st.floats(1e-3, 1.0))
    snap = st.one_of(st.none(), st.integers(0, buckets))

    @st.composite
    def cdfs(draw):
        weights = draw(st.lists(weight, min_size=1, max_size=36))
        if sum(weights) == 0.0:
            weights[-1] = 1.0
        trace = draw(st.one_of(st.just(1.0), st.just(_ABOVE_ONE), st.floats(1e-3, 1.0)))
        cdf = np.cumsum(weights)
        cdf /= cdf[-1]
        cdf *= trace
        for i in range(len(cdf) - 1):
            k = draw(snap)
            if k is not None:
                cdf[i] = k / buckets
        return np.maximum.accumulate(np.clip(cdf, 0.0, trace))

    return cdfs()


#: A trace of 1 that rounded up: ``cos^2 + sin^2`` or a mixture's weights
#: can sum to it.
_ABOVE_ONE = float(np.nextafter(1.0, 2.0))


class _RawWords:
    """A bit generator stand-in whose raw words are given, in order."""

    def __init__(self, words: np.ndarray) -> None:
        self.words, self.used = words, 0

    def random_raw(self, size: int) -> np.ndarray:
        self.used += size
        assert self.used <= len(self.words), "more refinement words drawn than split pairs"
        return self.words[self.used - size:self.used]


_LOW = 1 << 37


def _pairs_at_edges(cdf: np.ndarray, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """``(lanes, low)``: every lane with random low 37 bits; the lanes at and
    beside every threshold's bucket, and the first and last, with low bits 0,
    ``2**37 - 1`` and random ones; and the 53-bit uniforms on and next to
    every threshold."""
    buckets = measurement._BUCKETS
    near = np.floor(cdf * buckets).astype(np.int64)
    near = np.concatenate((near - 1, near, near + 1, [0, buckets - 1]))
    near = np.repeat(near[(near >= 0) & (near < buckets)], 3)
    on = np.array([math.floor(c * 2.0**53) + d for c in cdf for d in (-1, 0, 1, 2)], dtype=np.int64)
    on = on[(on >= 0) & (on < 1 << 53)]
    lanes = np.concatenate((np.arange(buckets), near, on >> 37))
    low = np.concatenate((
        rng.integers(0, _LOW, size=buckets),
        np.tile([0, _LOW - 1, int(rng.integers(0, _LOW))], len(near) // 3),
        on & (_LOW - 1),
    ))
    return lanes, low.astype(np.uint64)


def _check_lookup(cdfs, stratum_idx, lanes, low) -> np.ndarray:
    """Cells of ``JointCdf(cdfs).invert`` against
    ``searchsorted(cdfs[stratum], ((lane << 37) | low) * 2**-53)``; the
    pairs whose bucket a threshold ``c`` splits (``lane < c * 2**16 <
    lane + 1``) must draw exactly their refinement words, in stream order,
    and only their top 37 bits may count."""
    buckets = measurement._BUCKETS
    split = np.zeros(len(lanes), dtype=bool)
    expected = np.zeros(len(lanes), dtype=np.int64)
    u = ((lanes.astype(np.uint64) << 37) | low).astype(np.float64) * 2.0**-53
    for s, cdf in enumerate(cdfs):
        mine = stratum_idx == s
        scaled = cdf * buckets
        split[mine] = scaled.searchsorted(lanes[mine], side="right") < scaled.searchsorted(lanes[mine] + 1)
        expected[mine] = cdf.searchsorted(u[mine], side="right")
    junk = np.arange(len(lanes), dtype=np.uint64) % np.uint64(1 << 27)
    refine = _RawWords(((low << 27) | junk)[split])
    cells = JointCdf(cdfs).invert(stratum_idx, lanes.astype(np.uint16), refine)
    assert cells.dtype == np.uint8
    assert np.array_equal(cells, expected)
    assert refine.used == np.count_nonzero(split)
    return cells


class TestBucketLookup:
    @settings(max_examples=150, deadline=None)
    @given(cdf=_sub_normalised_cdfs(), seed=st.integers(0, 2**32 - 1))
    def test_lookup_equals_searchsorted(self, cdf, seed):
        lanes, low = _pairs_at_edges(cdf, np.random.default_rng(seed))
        _check_lookup(cdf[None], np.zeros(len(lanes), dtype=np.uint8), lanes, low)

    @settings(max_examples=50, deadline=None)
    @given(first=_sub_normalised_cdfs(), second=_sub_normalised_cdfs(), seed=st.integers(0, 2**32 - 1))
    def test_lookup_per_stratum(self, first, second, seed):
        n = max(len(first), len(second))
        cdfs = np.array([np.pad(c, (0, n - len(c)), constant_values=c[-1]) for c in (first, second)])
        rng = np.random.default_rng(seed)
        lanes, low = (np.concatenate(parts) for parts in zip(*(_pairs_at_edges(c, rng) for c in cdfs)))
        stratum_idx = rng.integers(0, 2, size=len(lanes)).astype(np.uint8)
        _check_lookup(cdfs, stratum_idx, lanes, low)

    def test_table_marks_only_buckets_holding_a_threshold(self):
        # Thresholds inside buckets 0 and 1, on the edges 0, 1 / B and 1 / 2,
        # a zero-mass cell and trace 1.
        buckets = measurement._BUCKETS
        cdf = np.array([0.0, 0.5, 1.0, 1.5, 1.5, buckets / 2, buckets]) / buckets
        table = measurement._bucket_table(cdf)
        assert table.dtype == np.uint8 and table.shape == (buckets,)
        assert list(table[:3]) == [measurement._SPLIT, measurement._SPLIT, 5]
        assert table[buckets // 2 - 1] == 5 and table[buckets // 2] == 6 and table[-1] == 6
        assert np.count_nonzero(table == measurement._SPLIT) == 2
        lanes, low = _pairs_at_edges(cdf, np.random.default_rng(0))
        _check_lookup(cdf[None], np.zeros(len(lanes), dtype=np.uint8), lanes, low)

    def test_trace_above_one_fills_no_bucket(self):
        # Last threshold 1 + 2^-52: no uniform in [0, 1) reaches it, so the
        # "not coincident" cell gets no bucket and every u draws a cell.
        buckets = measurement._BUCKETS
        cdf = np.array([0.25, 0.5, 0.75, _ABOVE_ONE])
        table = measurement._bucket_table(cdf)
        assert table.shape == (buckets,) and table[-1] == 3
        lanes, low = _pairs_at_edges(cdf, np.random.default_rng(1))
        cells = _check_lookup(cdf[None], np.zeros(len(lanes), dtype=np.uint8), lanes, low)
        assert cells.max() == 3

    def test_stack_with_trace_above_one_matches_grouped_oracle(self):
        # A trace that rounds to 1 + 2^-52 (a valid state at efficiency 1)
        # samples like any other: no pair is lost in that stratum.
        blochs, _ = intercept_strata(bell_state(BellLabel.PSI_MINUS, 0.6), 0.4)
        blochs = blochs * np.array([_ABOVE_ONE, 1.0, 0.5, _ABOVE_ONE, 0.9])[:, None, None]
        stratum_idx = np.random.default_rng(5).integers(0, 5, size=20_000).astype(np.uint8)
        lib, ref, next_lib, next_ref = _both_samplers(blochs, stratum_idx, E91_ALICE, E91_BOB, 9)
        assert np.array_equal(lib, ref)
        assert next_lib == next_ref
        assert not (lib[np.isin(stratum_idx, (0, 1, 3))] == 36).any()


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
            intercept_resend(state, E91_ALICE, E91_BOB, eve_fraction, 0.6)
            assert built == [] and len(strata) == 1

    @pytest.mark.parametrize("eve_fraction", [0.0, 0.3, 1.0])
    def test_stream_matches_masked_strata_and_grouped_oracle(self, eve_fraction):
        # The library draws one uniform per pair from the strata mixture
        # scaled by the coincidence efficiency: on an equal seed it must
        # equal the grouped joint-CDF sampler over the partial-trace mixture,
        # and its coincident cells must follow in distribution the masked-
        # strata engine, which makes Eve's three draws per pair.
        rho = bell_state(BellLabel.PSI_PLUS, 0.6).rho
        n, efficiency = 40_000, 0.6
        stream = PairStream.spawn(np.random.SeedSequence(42))
        joint = intercept_resend(TwoQubitState(rho), E91_ALICE, E91_BOB, eve_fraction, efficiency)
        lib = sample_outcome_stream(joint, np.zeros(n, dtype=np.uint8), stream)
        states, weights = _oracles.intercept_strata(rho, eve_fraction)
        mixture = _oracles.pauli_bloch(sum(w * r for w, r in zip(weights, states)))[None]
        words, refine = _fresh_generators(42)
        ref = sample_outcome_stream_grouped(
            efficiency * mixture, np.zeros(n, dtype=np.uint8), E91_ALICE, E91_BOB, words, refine
        )
        assert np.array_equal(lib, ref)
        assert _next_words(stream.words, stream.refine) == _next_words(words, refine)
        coincident = np.count_nonzero(lib < 36)
        assert abs(coincident - efficiency * n) < 5 * math.sqrt(n * efficiency * (1 - efficiency))

        pair_idx = np.random.default_rng(41).integers(0, 9, size=n).astype(np.uint8)
        masked = _oracles.intercept_resend_strata(
            rho, E91_ALICE, E91_BOB, pair_idx, eve_fraction, np.random.default_rng(43)
        )
        lib_cells = np.bincount(lib, minlength=37)[:36]
        masked_cells = np.bincount(pair_idx * 4 + masked, minlength=36)
        observed = np.array([lib_cells, masked_cells])[:, (lib_cells + masked_cells) > 0]
        assert chi2_contingency(observed).pvalue > 1e-3

    def test_strata_match_partial_trace_oracle(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            rho = random_density_matrix(rng)
            fraction = rng.uniform(0, 1)
            blochs, weights = intercept_strata(TwoQubitState(rho), fraction)
            expected_rhos, expected_weights = _oracles.intercept_strata(rho, fraction)
            assert blochs.shape == (5, 4, 4)
            np.testing.assert_allclose(weights, expected_weights, rtol=0, atol=1e-14)
            expected = [_oracles.pauli_bloch(r) for r in expected_rhos]
            np.testing.assert_allclose(blochs, expected, rtol=0, atol=1e-14)

    def test_unreachable_eve_outcome_keeps_placeholder(self):
        # |HH>: Eve never sees V in H/V; that stratum has weight 0.
        blochs, weights = intercept_strata(bell_state(BellLabel.PHI_PLUS, 0.0), 1.0)
        assert weights[2] == 0.0
        np.testing.assert_allclose(blochs[2, 1:, 0], 0.0, atol=1e-15)

    def test_strata_weights_sum_to_one(self):
        state = bell_state(BellLabel.PHI_PLUS)
        blochs, weights = intercept_strata(state, 0.3)
        assert len(blochs) == 5
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
        joint = intercept_resend(state, bases, bases, 1.0, 1.0)
        stream = PairStream.spawn(np.random.SeedSequence(8))
        outcomes = sample_outcome_stream(joint, np.zeros(n, dtype=np.uint8), stream)
        wrong = np.isin(outcomes, (1, 2)).mean()
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
