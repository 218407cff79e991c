import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2_contingency, chisquare

import _oracles
from _oracles import ideal_correlator, sample_cell_counts_grouped
from conftest import random_density_matrix

from ebqkd import measurement
from ebqkd.chsh import ChshSettings
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
from ebqkd.protocol import BBM92, E91, ProtocolKind
from ebqkd.qstate import BellLabel, TwoQubitState, born_table, joint_probabilities


def setting(pol_deg):
    return AnalyzerSetting.from_polarization(pol_deg)


def sample_pair(state, a, b, det, n, seed):
    """Counts of one setting pair, drawn by the batched sampler."""
    (row,) = sample_outcomes(state, [(a, b)], det, n, spawn_rng(seed))
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


def _e91_with_bob_plate(plate):
    """E91 with Bob's first plate replaced: its matched and CHSH pairs, or why it is refused."""
    try:
        kind = ProtocolKind("x", E91.alice_hwp_deg, (plate, *E91.bob_hwp_deg[1:]))
    except ValueError as exc:
        return str(exc)
    return kind.matched_pairs(), kind.chsh_pairs


#: Plates in [0, 90): the layouts' own angles, then any.
_PLATES = st.one_of(st.sampled_from((0.0, 11.25, 22.5, 33.75, 45.0, 67.5)), st.floats(0.0, 90.0, exclude_max=True))


class TestOneAxisPerPlate:
    @settings(max_examples=200, deadline=None)
    @given(u=_PLATES.map(lambda t: t + 90.0).filter(lambda u: u < 180.0), seed=st.integers(0, 2**32 - 1))
    def test_plates_90_degrees_apart_are_interchangeable(self, u, seed):
        t = u - 90.0  # exact: the two plates are exactly 90 degrees apart
        s, s90, b = AnalyzerSetting(t), AnalyzerSetting(u), setting(22.5)
        assert s == s90 and hash(s) == hash(s90) and 0.0 <= s90.polarization_angle_deg < 180.0
        table = CoincidenceTable((CoincidenceRow(s, b, 1, 2, 3, 4),))
        assert table.find(s90, b) is table.find(s, b) is table.rows[0]
        # The Born rule at the plate as given, before any reduction.
        rho = random_density_matrix(np.random.default_rng(seed))
        raw = _oracles.joint_probabilities(rho, SimpleNamespace(polarization_angle_rad=math.radians(2.0 * u)), b)
        bloch = TwoQubitState(rho).bloch
        for row in born_table(bloch, ((s, b), (s90, b))):
            np.testing.assert_allclose(row, raw, rtol=0, atol=1e-12)
        assert _e91_with_bob_plate(t) == _e91_with_bob_plate(u)
        with pytest.raises(ValueError, match="four distinct analyzer settings"):
            ChshSettings(setting(0.0), setting(45.0), s, s90)


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

    def test_repeated_setting_pair_raises_and_names_it(self):
        first = CoincidenceRow(setting(0), setting(0), 1, 0, 0, 1)
        second = CoincidenceRow(setting(0), setting(0), 0, 1, 1, 0)
        with pytest.raises(ValueError, match=r"duplicate setting pair \(0, 0\) deg"):
            CoincidenceTable((first, second))
        with pytest.raises(ValueError, match="duplicate setting pair"):
            CoincidenceTable((first, first))

    def test_row_returns_the_row_or_names_the_missing_pair(self):
        row = CoincidenceRow(setting(0), setting(22.5), 1, 2, 3, 4)
        table = CoincidenceTable((row,))
        assert table.row(AnalyzerSetting(1e-8), setting(22.5)) is row
        with pytest.raises(measurement.IncompleteTableError,
                           match=r"^coincidence table is missing setting pair \(45, 45\) deg$"):
            table.row(setting(45), setting(45))

    def test_hwp_key_cache_is_bounded(self):
        # Many distinct count files must not grow the memo without bound.
        maxsize = measurement.hwp_key.cache_info().maxsize
        assert maxsize is not None
        for k in range(2 * maxsize):
            measurement.hwp_key(k * 1e-3, 11.25)
        assert measurement.hwp_key.cache_info().currsize <= maxsize

    @pytest.mark.parametrize("first", [float, np.float64])
    def test_hwp_key_memo_returns_what_the_rule_returns(self, first):
        """Equal angles of another type are not served from one entry: a key
        keeps its type, whichever call came first."""
        second = np.float64 if first is float else float
        for angles in ((22.5, 101.25), (180.0 - 1e-8, 11.2500004), (-0.0, 89.9999996)):
            for kind in (first, second):
                a, b = map(kind, angles)
                key = measurement.hwp_key(a, b)
                expected = measurement.hwp_key.__wrapped__(a, b)
                assert key == expected and list(map(type, key)) == list(map(type, expected))

    @pytest.mark.parametrize("n", [1.0, 1_000_000, 0.37, 2**62])
    def test_expected_table_rows_are_n_times_the_born_rows(self, n):
        rng = np.random.default_rng(31)
        state = TwoQubitState(random_density_matrix(rng, rank=2))
        pairs = [(AnalyzerSetting(t), AnalyzerSetting(u)) for t, u in rng.uniform(0, 180, size=(5, 2))]
        table = measurement.expected_table(state, pairs, n)
        assert [(row.a, row.b) for row in table.rows] == pairs
        assert all(type(c) is float for row in table.rows for c in row.counts())
        counts = np.array([row.counts() for row in table.rows])
        assert counts.tobytes() == (n * born_table(state.bloch, pairs)).tobytes()
        assert measurement.expected_table(state, pairs) == measurement.expected_table(state, pairs, 1.0)

    @pytest.mark.parametrize("n", [-1.0, math.nan, math.inf])
    def test_expected_table_refuses_a_count_that_is_not_finite_and_nonnegative(self, n):
        with pytest.raises(ValueError, match=r"^n must be finite and >= 0, got "):
            measurement.expected_table(bell_state(BellLabel.PHI_PLUS), [(setting(0), setting(0))], n)

    def test_incomplete_table_error_is_defined_once(self):
        from ebqkd import chsh

        assert chsh.IncompleteTableError is measurement.IncompleteTableError


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

    def test_pairs_draw_in_order_from_one_generator(self):
        # A batched call equals successive single-pair calls on one generator
        # of the same seed, so appending a pair never moves the rows before it.
        state = bell_state(BellLabel.PSI_PLUS, 0.7)
        pairs = [(setting(0), setting(22.5)), (setting(45), setting(45)), (setting(30), setting(100))]
        det = DetectorModel(efficiency=0.8, dark_rate=0.01)  # 200 accidentals expected per pair
        for sampled in (state, intercept_average_state(state, 0.3)):
            rows = sample_outcomes(sampled, pairs, det, 20_000, spawn_rng(11))
            assert [(r.a, r.b) for r in rows] == pairs
            rng = spawn_rng(11)
            assert rows == tuple(row for pair in pairs for row in sample_outcomes(sampled, [pair], det, 20_000, rng))
            for k in range(1, len(pairs)):
                assert sample_outcomes(sampled, pairs[:k], det, 20_000, spawn_rng(11)) == rows[:k]

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


def arrangements(codes, counts):
    """Every distinct sequence holding ``codes[t]`` exactly ``counts[t]`` times."""
    if not any(counts):
        yield ()
        return
    for t, c in enumerate(counts):
        if c:
            rest = [*counts[:t], c - 1, *counts[t + 1:]]
            for tail in arrangements(codes, rest):
                yield (codes[t], *tail)


#: Multisets with few enough arrangements to enumerate.
_SMALL_MULTISETS = [
    ((3, 7, 9), (2, 0, 2), 6),  # a zero count
    ((0, 1, 2, 3, 4), (1, 1, 1, 1, 1), 120),  # all distinct
    ((5, 2, 6), (6, 1, 1), 56),  # one dominant code
    ((0, 12, 13), (4, 4, 1), 630),
]


def _spy_on_repairs(monkeypatch) -> dict[str, int]:
    """Count the calls of each of ``arrange_cells``' two repairs from now on."""
    calls = {"sampled": 0, "scanned": 0}
    for repair in calls:
        def counted(*args, repair=repair, step=getattr(measurement, f"_{repair}_positions")):
            calls[repair] += 1
            return step(*args)

        monkeypatch.setattr(measurement, f"_{repair}_positions", counted)
    return calls


class TestArrangeCells:
    # A small multiset has few enough arrangements to enumerate: the
    # sampler must hit each with equal frequency, also when its chunks
    # are cut to a few cells so that the repair scan crosses chunks.
    @pytest.mark.parametrize("chunk", [None, 2])
    @pytest.mark.parametrize("codes, counts, n_arrangements", _SMALL_MULTISETS)
    def test_every_arrangement_is_equally_likely(self, monkeypatch, chunk, codes, counts, n_arrangements):
        if chunk is not None:
            monkeypatch.setattr(measurement, "_CHUNK", chunk)
        assert chisquare(self._arrangements_seen(codes, counts, n_arrangements)).pvalue > 1e-3

    # The same, with every over-drawn code sent through one repair: sampled
    # positions (no batch is too large) or the scan (every batch is); the
    # spy shows that the other repair never ran.
    @pytest.mark.parametrize("repair, limit", [("sampled", math.inf), ("scanned", 0.0)])
    @pytest.mark.parametrize("chunk", [None, 2])
    @pytest.mark.parametrize("codes, counts, n_arrangements", _SMALL_MULTISETS)
    def test_each_repair_gives_every_arrangement_equally(
        self, monkeypatch, repair, limit, chunk, codes, counts, n_arrangements
    ):
        monkeypatch.setattr(measurement, "_SAMPLE_LIMIT", limit)
        if chunk is not None:
            monkeypatch.setattr(measurement, "_CHUNK", chunk)
        calls = _spy_on_repairs(monkeypatch)
        assert chisquare(self._arrangements_seen(codes, counts, n_arrangements)).pvalue > 1e-3
        assert calls[repair] > 0 and sum(calls.values()) == calls[repair]

    @staticmethod
    def _arrangements_seen(codes, counts, n_arrangements):
        """How often each arrangement comes out of seeded draws."""
        every = {bytes(a): i for i, a in enumerate(arrangements(codes, counts))}
        assert len(every) == n_arrangements
        rng = np.random.default_rng(2023)
        seen = np.zeros(n_arrangements, dtype=np.int64)
        for _ in range(max(1000, 10 * n_arrangements)):
            seen[every[measurement.arrange_cells(np.array(codes, dtype=np.uint8), counts, rng).tobytes()]] += 1
        return seen

    @pytest.mark.parametrize(
        "counts",
        [
            [5],  # one code only
            [0, 0, 7, 0],  # one code with a count among zeros
            [1],
            [1, 1],
            [2, 0, 1],  # n < 4
            [100_000, 1, 3, 0, 200, 17],  # shares below 1/256
            [measurement._CHUNK, 1, measurement._CHUNK + 3],  # n not a multiple of the chunk
            [measurement._CHUNK - 1, 1],  # n exactly one chunk
            [85_721, 85_266, 85_740, 85_559, 4_507, 4_357, 4_422, 4_428],  # a bench-sized key
            [2_000_000, 1, 3, 0, 17, 25],  # shares below 1/65536
            [1_000_000, 1_000_000, 30, 29, 1, 1, 2, 5],
        ],
    )
    def test_holds_each_code_exactly_its_count(self, counts):
        codes = np.array([13, 0, 255, 6, 12, 1, 14, 15][:len(counts)], dtype=np.uint8)
        for seed in range(3):
            stream = measurement.arrange_cells(codes, counts, np.random.default_rng(seed))
            assert stream.dtype == np.uint8 and len(stream) == sum(counts)
            assert [int(np.count_nonzero(stream == c)) for c in codes] == counts

    def test_empty(self):
        stream = measurement.arrange_cells(np.array([4, 5], dtype=np.uint8), [0, 0], np.random.default_rng(0))
        assert stream.dtype == np.uint8 and len(stream) == 0

    @pytest.mark.parametrize("codes, counts", [((1, 1), (2, 3)), ((1, 2), (2, -1))])
    def test_refuses_repeated_codes_and_negative_counts(self, codes, counts):
        with pytest.raises(ValueError, match="distinct codes and nonnegative counts"):
            measurement.arrange_cells(np.array(codes, dtype=np.uint8), counts, np.random.default_rng(0))

    def test_same_generator_state_gives_the_same_bytes(self):
        codes = np.array([0, 1, 2, 3, 12, 13, 14, 15], dtype=np.uint8)
        counts = [40_000, 41_000, 39_500, 40_250, 2_000, 2_100, 1_950, 2_050]
        first, second = np.random.default_rng(77), np.random.default_rng(77)
        a = measurement.arrange_cells(codes, counts, first)
        b = measurement.arrange_cells(codes, counts, second)
        assert a.tobytes() == b.tobytes()
        assert first.bit_generator.state == second.bit_generator.state

    def test_positions_are_uniform_across_chunks(self):
        # Beyond enumeration: over seeds, each code's share at positions on
        # both sides of a chunk boundary and at the end is its count's share.
        codes = np.array([0, 1, 2], dtype=np.uint8)
        counts = [2 * measurement._CHUNK, 600, measurement._CHUNK + 5]
        n = sum(counts)
        where = np.array([0, measurement._CHUNK - 1, measurement._CHUNK, 2 * measurement._CHUNK, n - 1])
        seen = np.zeros((len(where), len(codes)), dtype=np.int64)
        rng = np.random.default_rng(4)
        for _ in range(400):
            stream = measurement.arrange_cells(codes, counts, rng)
            seen[np.arange(len(where)), stream[where]] += 1
        p = np.array(counts) / n
        for row in seen:
            assert chisquare(row, row.sum() * p).pvalue > 1e-3

    def test_sampled_repair_keeps_positions_uniform_across_chunks(self, monkeypatch):
        # Codes common enough that every repair samples positions; chunks
        # of 1,000 cells, so that the proposal and the position draws both
        # cross chunk boundaries.  Each code's share at positions on both
        # sides of a boundary and at the ends is its count's share.
        chunk = 1000
        monkeypatch.setattr(measurement, "_CHUNK", chunk)
        calls = _spy_on_repairs(monkeypatch)
        codes = np.array([0, 1, 2], dtype=np.uint8)
        counts = [30 * chunk, 20 * chunk + 9, 10 * chunk - 5]
        n = sum(counts)
        where = np.array([0, chunk - 1, chunk, 30 * chunk - 1, 30 * chunk, n - chunk, n - 1])
        seen = np.zeros((len(where), len(codes)), dtype=np.int64)
        rng = np.random.default_rng(5)
        for _ in range(400):
            stream = measurement.arrange_cells(codes, counts, rng)
            seen[np.arange(len(where)), stream[where]] += 1
        assert calls["scanned"] == 0 and calls["sampled"] >= 400
        p = np.array(counts) / n
        for row in seen:
            assert chisquare(row, row.sum() * p).pvalue > 1e-3

    @pytest.mark.parametrize(
        "counts",
        [
            [16_000_000, 1],  # the single cell draws no slot
            [15_999_550, 1, 250, 199],  # 199 cells round up to a slot: about 244 drawn
        ],
    )
    def test_a_single_cell_beside_16_million(self, monkeypatch, counts):
        # Removing most of a code's cells by sampled positions would be a
        # coupon collector's draw; such a code must be scanned instead.
        calls = _spy_on_repairs(monkeypatch)
        codes = np.array([7, 3, 2, 5][:len(counts)], dtype=np.uint8)
        for seed in range(3):
            stream = measurement.arrange_cells(codes, counts, np.random.default_rng(seed))
            assert np.bincount(stream, minlength=8)[codes].tolist() == counts
        if len(counts) == 2:
            assert calls == {"sampled": 3, "scanned": 0}
        else:
            assert calls["scanned"] == 3

    @pytest.mark.parametrize(
        "shares",
        [
            [0.2375] * 4 + [0.0125] * 4,  # a BBM92 key at 5% QBER
            [0.014] * 4 + [0.236] * 4,  # rare codes rounded up: the most repair
            [0.9, 0.05, 0.03, 0.02],
        ],
    )
    def test_peak_memory_is_the_stream_plus_little(self, shares):
        n = 1 << 22
        counts = np.random.default_rng(1).multinomial(n, shares).tolist()
        codes = np.arange(len(counts), dtype=np.uint8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            measurement.arrange_cells(codes, counts, np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n

    def test_peak_memory_with_rare_shares_rounded_up(self, monkeypatch):
        # 122 of 2**22 cells is 1.906 of 65,536 slots: each rare code holds
        # two, is drawn about 128 times and must be scanned.
        calls = _spy_on_repairs(monkeypatch)
        n = 1 << 22
        counts = [122] * 4 + [(n - 4 * 122) // 4] * 4
        assert sum(counts) == n and measurement._slot_widths(counts)[:4] == [2] * 4
        codes = np.arange(len(counts), dtype=np.uint8)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            stream = measurement.arrange_cells(codes, counts, np.random.default_rng(2))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * n
        assert calls["scanned"] == 1
        assert np.bincount(stream, minlength=len(codes)).tolist() == counts


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
        # At eve_fraction = 0 the two strata weigh (1, 0), their mixture is
        # the state alone bit for bit, the average state is the state itself,
        # and the sampler draws exactly binomial -> multinomial(p) -> poisson
        # from each pair's generator.
        state = bell_state(BellLabel.PHI_PLUS, 0.5)
        blochs, weights = intercept_strata(state, 0.0)
        np.testing.assert_array_equal(blochs[0], state.bloch)
        np.testing.assert_array_equal(weights, [1.0, 0.0])
        assert intercept_average_state(state, 0.0) is state
        rng = np.random.default_rng(12)
        sources = [random_density_matrix(rng, rank=int(rng.integers(1, 5))) for _ in range(200)]
        sources += [generate(SourceModel(label, epsilon_rad=0.6, hom_visibility=0.9)).rho for label in BellLabel]
        for rho in sources:
            source = TwoQubitState(rho)
            table = born_table(source.bloch, itertools.product(E91_ALICE, E91_BOB)).ravel()
            np.testing.assert_array_equal(intercept_resend(source, E91_ALICE, E91_BOB, 0.0), table / table.sum())

        a, b = setting(10), setting(55)
        det = DetectorModel(efficiency=0.7)
        rng_lib, rng_ref = np.random.default_rng(4), np.random.default_rng(4)
        (row,) = sample_outcomes(state, [(a, b)], det, 50_000, rng_lib)
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
        assert abs(ideal_correlator(label, math.radians(pol_deg), math.radians(pol_deg))) < 1e-9
        assert bob_flip(label, math.radians(pol_deg)) is False
        assert wrong_outcomes(label, math.radians(pol_deg)) == (1, 2)

    @pytest.mark.parametrize("label", list(BellLabel))
    def test_closed_form_agrees_with_born_rule_oracle(self, label):
        checked = 0
        for pol_deg in np.arange(0.0, 180.0, 0.25):
            e = ideal_correlator(label, math.radians(pol_deg), math.radians(pol_deg))
            if abs(e) > 1e-9:
                assert bob_flip(label, math.radians(pol_deg)) is (e < 0.0), pol_deg
                checked += 1
        assert checked >= 700
