"""Analyzer settings, outcome sampling and coincidence counting.

A coincidence is both photons of one emitted pair being detected in the
same emission slot; detector efficiency is applied independently per arm
and accidental coincidences follow a Poisson model spread uniformly over
the cells.  All sampling is deterministic given a seed and is one count
draw, :func:`sample_outcome_stream`: a sweep point or count file makes it
once per setting pair, all on one generator (:func:`sample_outcomes`), a
session once over its cells ``(a * n_b + b) * 4 + outcome``
(probabilities from :func:`intercept_resend`).  A session's sifted cells
are then laid out in a uniformly random order by :func:`arrange_cells`,
the one arrangement draw: raw generator words through a 2^16-slot table,
then uniform positions or ranks that repair the counts, then a shuffle of
the missing codes.  Eve's intercept-resend attack is sampled as
the mixture of :func:`intercept_strata`: her records never leave the
sampler, so no draw of hers is needed.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import BellLabel, TwoQubitState, born_table, echo, ideal_correlator, joint_probabilities


@dataclass(frozen=True)
class AnalyzerSetting:
    """Half-wave-plate setting of one party's polarization analyzer.

    A half-wave plate at angle t rotates polarization by 2t, so the
    analyzer projects onto linear polarization at twice the plate angle;
    the reflected port sits 90 degrees away.  Plates at t and t + 90 analyze
    one axis, so the plate is stored mod 90: the axis is in [0, 180).
    """

    hwp_angle_deg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hwp_angle_deg < 180.0:
            raise ValueError(
                f"HWP angle must be in [0, 180) degrees, got {self.hwp_angle_deg!r}"
            )
        object.__setattr__(self, "hwp_angle_deg", self.hwp_angle_deg % 90.0)

    @classmethod
    def from_polarization(cls, polarization_angle_deg: float) -> "AnalyzerSetting":
        """Setting whose transmission axis is at the given polarization angle."""
        return cls((polarization_angle_deg % 360.0) / 2.0)

    @property
    def polarization_angle_deg(self) -> float:
        return 2.0 * self.hwp_angle_deg

    @property
    def polarization_angle_rad(self) -> float:
        return math.radians(self.polarization_angle_deg)


@dataclass(frozen=True)
class DetectorModel:
    """Identical twin single-photon detectors with Poisson accidentals.

    Args:
        efficiency: detection probability per photon in (0, 1].
        dark_rate: expected accidental coincidences per acquisition window.
        window_pairs: emitted pairs per acquisition window.
        efficiency_b: optional asymmetric efficiency for Bob's arm;
            defaults to ``efficiency`` (both parties identical).
    """

    efficiency: float = 0.6
    dark_rate: float = 0.0
    window_pairs: int = 1
    efficiency_b: float | None = None

    def __post_init__(self) -> None:
        for name, eff in (("efficiency", self.efficiency), ("efficiency_b", self.efficiency_b)):
            if eff is not None and not 0.0 < eff <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {eff!r}")
        if not (math.isfinite(self.dark_rate) and self.dark_rate >= 0.0):
            raise ValueError(f"dark_rate must be finite and >= 0, got {self.dark_rate!r}")
        if not 1 <= self.window_pairs < 2**63:
            raise ValueError(f"window_pairs must be in [1, 2**63), got {echo(repr(self.window_pairs))}")

    @property
    def eff_alice(self) -> float:
        return self.efficiency

    @property
    def eff_bob(self) -> float:
        return self.efficiency if self.efficiency_b is None else self.efficiency_b

    def coincidence_efficiency(self) -> float:
        """Probability that both photons of a pair are detected."""
        return self.eff_alice * self.eff_bob

    def expected_accidentals(self, n_pairs: int) -> float:
        """Expected accidental coincidences over ``n_pairs`` emissions."""
        return self.dark_rate * n_pairs / self.window_pairs


@dataclass(frozen=True)
class CoincidenceRow:
    """Counts of the four joint outcomes for one analyzer setting pair (floats if expected values)."""

    a: AnalyzerSetting
    b: AnalyzerSetting
    n_pp: int
    n_pm: int
    n_mp: int
    n_mm: int

    def __post_init__(self) -> None:
        if min(self.n_pp, self.n_pm, self.n_mp, self.n_mm) < 0:
            raise ValueError("coincidence counts must be nonnegative")

    @property
    def total(self) -> int:
        return self.n_pp + self.n_pm + self.n_mp + self.n_mm

    def counts(self) -> tuple[int, int, int, int]:
        return (self.n_pp, self.n_pm, self.n_mp, self.n_mm)


@functools.lru_cache(maxsize=1024, typed=True)
def hwp_key(alice_hwp_deg: float, bob_hwp_deg: float) -> tuple[float, float]:
    """Identity of an (Alice, Bob) HWP angle pair, the one rule that tells
    settings apart: each angle mod 90 (one axis), rounded to 1e-6 deg.
    Memoized (bounded, and typed so that a numpy float keeps its type)."""
    return (round(alice_hwp_deg % 90.0, 6) % 90.0, round(bob_hwp_deg % 90.0, 6) % 90.0)


def pair_name(a: AnalyzerSetting, b: AnalyzerSetting) -> str:
    """A setting pair as errors name it: its polarization angles, ``(0, 22.5) deg``."""
    return f"({a.polarization_angle_deg:g}, {b.polarization_angle_deg:g}) deg"


class IncompleteTableError(ValueError):
    """A coincidence table lacks rows or counts needed by the estimator."""


@dataclass(frozen=True)
class CoincidenceTable:
    """Coincidence counts per (Alice setting, Bob setting) combination.

    Every front end (sweep, session, analyze) fills one of these and hands
    it to :func:`ebqkd.protocol.estimate`.  Rows are looked up by
    :func:`hwp_key`, and a table with two rows of one key is refused.
    """

    rows: tuple[CoincidenceRow, ...]

    def __post_init__(self) -> None:
        index: dict[tuple[float, float], CoincidenceRow] = {}
        for r in self.rows:
            key = hwp_key(r.a.hwp_angle_deg, r.b.hwp_angle_deg)
            if key in index:
                raise ValueError(f"duplicate setting pair {pair_name(r.a, r.b)}")
            index[key] = r
        object.__setattr__(self, "_index", index)

    def find(self, a: AnalyzerSetting, b: AnalyzerSetting) -> CoincidenceRow | None:
        return self._index.get(hwp_key(a.hwp_angle_deg, b.hwp_angle_deg))

    def row(self, a: AnalyzerSetting, b: AnalyzerSetting) -> CoincidenceRow:
        """The row of ``(a, b)``, or :class:`IncompleteTableError` naming the missing pair."""
        if (found := self.find(a, b)) is None:
            raise IncompleteTableError(f"coincidence table is missing setting pair {pair_name(a, b)}")
        return found


def spawn_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic child generator for (master seed, stream indices).

    The fixed splitting rule makes parallel work independent of scheduling
    order: every task keyed by the same indices sees the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(stream)))


def intercept_strata(state: TwoQubitState, eve_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Mixture components seen downstream of an intercept-resend attack.

    Returns ``(blochs, weights)``: a ``(2, 4, 4)`` stack of the two
    components' Pauli correlation matrices and their weights ``(1 -
    eve_fraction, eve_fraction)``, at every fraction, 0 included.  Index 0
    is the untouched ``state.bloch``.  Eve measures Bob's photon in H/V or
    D/A (Bloch axis z or x, chosen uniformly) and forwards an eigenstate of
    her result, which keeps only Bob's Bloch component along her axis.  Her
    basis and result are discarded, so index 1 scales Bob's columns ``(I,
    x, y, z)`` of ``C`` by ``(1, 1/2, 0, 1/2)``.
    """
    if not 0.0 <= eve_fraction <= 1.0:
        raise ValueError(f"eve_fraction must be in [0, 1], got {eve_fraction!r}")
    c = state.bloch
    return np.stack((c, c * [1.0, 0.5, 0.0, 0.5])), np.array([1.0 - eve_fraction, eve_fraction])


def intercept_average_state(state: TwoQubitState, eve_fraction: float) -> TwoQubitState:
    """Ensemble-average state after intercept-resend (Eve's records discarded).

    ``state`` itself at ``eve_fraction = 0``, without asking for the strata;
    otherwise the state whose correlation matrix is the weighted sum of the
    :func:`intercept_strata` components.  Every pair downstream of the
    attack is drawn from it.
    """
    if eve_fraction == 0.0:
        return state
    blochs, weights = intercept_strata(state, eve_fraction)
    return TwoQubitState.from_bloch(np.tensordot(weights, blochs, axes=1))


def sample_outcomes(
    state: TwoQubitState,
    pairs: Sequence[tuple[AnalyzerSetting, AnalyzerSetting]],
    det: DetectorModel,
    n_pairs: int,
    rng: np.random.Generator,
) -> tuple[CoincidenceRow, ...]:
    """Coincidence counts for each analyzer setting pair.

    Each pair is one :func:`sample_outcome_stream` of ``n_pairs`` emitted
    pairs over its four Born-rule outcomes, drawn from ``rng`` in pair order.
    One :func:`~ebqkd.qstate.born_table` of ``pairs`` is built per call.
    Under intercept-resend pass :func:`intercept_average_state`.

    Returns:
        One :class:`CoincidenceRow` per pair, in order, deterministic given
        the generator's state.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs!r}")
    tables = born_table(state.bloch, pairs)
    tables /= tables.sum(axis=-1, keepdims=True)
    every_pair = np.broadcast_to(np.uint8(0), (n_pairs,))  # read for its length
    return tuple(
        CoincidenceRow(a, b, *sample_outcome_stream(p, every_pair, rng, det))
        for (a, b), p in zip(pairs, tables)
    )


def sample_outcome_stream(
    joint: np.ndarray, stratum_idx: np.ndarray, rng: np.random.Generator, det: DetectorModel
) -> list[int]:
    """Coincidence counts per cell of ``len(stratum_idx)`` emitted pairs.

    Drawn in this order: the coincidences (binomial), their cells
    (multinomial in ``joint``, one pair's cell probabilities, summing to
    1), the accidentals (Poisson) and, if any, their cells (multinomial
    over uniform cells).  Counts are Python ints: their total can pass
    2**63.  Only ``len(stratum_idx)`` is read: the argument stays because
    the benchmark's layer tracing counts pairs from it, until the bench
    reads the package's own stage counters (ROADMAP direction 7).
    """
    n_pairs = len(stratum_idx)
    counts = rng.multinomial(rng.binomial(n_pairs, det.coincidence_efficiency()), joint).tolist()
    n_acc = int(rng.poisson(det.expected_accidentals(n_pairs)))
    if n_acc:
        accidentals = rng.multinomial(n_acc, np.full(len(joint), 1.0 / len(joint))).tolist()
        counts = [c + a for c, a in zip(counts, accidentals)]
    return counts


#: Cells drawn per step of :func:`arrange_cells`; its temporaries are O(this).
_CHUNK = 1 << 14

#: Slots of the proposal table, one per value of a 16-bit piece of a word.
_SLOTS = 1 << 16

#: Largest batch of sampled positions, as a share of the cells, with which
#: :func:`arrange_cells` repairs a code; a code that needs more is scanned.
_SAMPLE_LIMIT = 1 / 16


def _slot_widths(counts: Sequence[int]) -> list[int]:
    """Each count's share of ``_SLOTS`` slots, split by largest remainder
    in Python ints (no overflow at any total); a zero count gets no slot."""
    n = sum(counts)
    widths = [_SLOTS * c // n for c in counts]
    by_remainder = sorted(range(len(counts)), key=lambda t: -(_SLOTS * counts[t] % n))
    for t in by_remainder[:_SLOTS - sum(widths)]:
        widths[t] += 1
    return widths


def arrange_cells(codes: np.ndarray, counts: Sequence[int], rng: np.random.Generator) -> np.ndarray:
    """A uint8 stream holding ``codes[t]`` exactly ``counts[t]`` times, in
    a uniformly random order: the law of ``np.repeat(codes, counts)``
    followed by ``rng.shuffle``, without a random step per cell.

    1. Proposal: every cell is drawn i.i.d. through a ``_SLOTS``-slot
       table, each code holding its largest-remainder share of the slots,
       indexed by the 16-bit pieces of raw little-endian generator words
       (``random_raw``), in chunks of ``_CHUNK`` cells; one histogram
       counts the codes drawn.
    2. Repair: each code drawn ``e`` times too often gives up a uniform
       subset of ``e`` of its positions.  A code that loses few of its
       cells finds them from uniform positions (:func:`_sampled_positions`);
       the others are listed by one chunked scan and picked by rank
       (:func:`_scanned_positions`).  The missing codes, shuffled, fill
       the freed positions.

    i.i.d. draws are exchangeable, and a uniform subset of a code's
    positions and a shuffled filling commute with every permutation of
    positions, so the law of the result is invariant under them; it has
    the exact counts, so it is the uniform arrangement.  The draw order,
    part of the reproducibility contract, is the chunks' raw words, the
    sampled positions code by code, the ranks code by code, then the
    shuffle of the missing codes.  ``codes`` must be distinct; temporaries
    beyond the stream are O(``_CHUNK``) plus O(cells repaired).
    """
    codes = np.asarray(codes, dtype=np.uint8)
    if len(set(codes.tolist())) != len(codes) or min(counts, default=0) < 0:
        raise ValueError("arrange_cells needs distinct codes and nonnegative counts")
    n = sum(counts)
    stream = np.empty(n, dtype=np.uint8)  # first, so that a total that cannot fit fails here
    if n == 0:
        return stream
    widths = _slot_widths(counts)
    table = np.repeat(codes, widths)
    *counted, last = np.flatnonzero(widths).tolist()  # the last code's tally is the rest
    drawn = np.zeros(len(codes), dtype=np.int64)
    for lo in range(0, n, _CHUNK):
        chunk = stream[lo:lo + _CHUNK]
        words = rng.bit_generator.random_raw(-(-len(chunk) // 4)).astype("<u8", copy=False)
        # Every piece is a slot, so "clip" never clips; it spares take a copy of out.
        table.take(words.view("<u2")[:len(chunk)], out=chunk, mode="clip")
        for t in counted:
            drawn[t] += np.count_nonzero(chunk == codes[t])
    drawn[last] = n - drawn.sum()

    excess = drawn - np.array(counts, dtype=np.int64)
    freed, scanned = [], []
    for t in np.flatnonzero(excess > 0).tolist():
        e, d = int(excess[t]), int(drawn[t])
        if _batch(e, e, d, n) <= _SAMPLE_LIMIT * n:
            freed.append(_sampled_positions(stream, codes[t], e, d, rng))
        else:
            scanned.append(t)
    if scanned:
        freed += _scanned_positions(stream, codes[scanned], excess[scanned].tolist(), rng)
    missing = np.repeat(codes, np.maximum(-excess, 0))
    rng.shuffle(missing)
    if freed:
        stream[np.concatenate(freed)] = missing
    return stream


def _batch(short: int, excess: int, drawn: int, n: int) -> int:
    """Uniform positions to draw for ``short`` more distinct cells of a
    code drawn ``drawn`` times among ``n``: each hits it with probability
    ``drawn / n`` and is new with probability at least
    ``(drawn - excess) / drawn``; 4 standard deviations of margin."""
    hits = short * drawn / (drawn - excess)
    return math.ceil((hits + 4 * math.sqrt(hits) + 4) * n / drawn)


def _sampled_positions(stream: np.ndarray, code: int, excess: int, drawn: int, rng: np.random.Generator) -> np.ndarray:
    """``excess`` positions of ``code``, a uniform subset of its ``drawn``
    cells: uniform positions that hit the code are i.i.d. uniform over its
    cells, and the first ``excess`` distinct ones of such a sequence, in
    draw order, are a uniform subset.  Positions are drawn ``_CHUNK`` at a
    time, and each batch is sized from the expected need, so the loop
    almost always runs once."""
    n = len(stream)
    hits, short = [], excess
    while True:
        size = _batch(short, excess, drawn, n)
        for lo in range(0, size, _CHUNK):
            at = rng.integers(0, n, min(_CHUNK, size - lo))
            hits.append(at[stream[at] == code])
        found = np.concatenate(hits)
        distinct, first = np.unique(found, return_index=True)
        if len(distinct) >= excess:
            return found[np.sort(first)[:excess]]
        hits, short = [found], excess - len(distinct)


def _scanned_positions(
    stream: np.ndarray, codes: np.ndarray, excess: Sequence[int], rng: np.random.Generator
) -> list[np.ndarray]:
    """For each of ``codes``, ``excess`` of its positions, a uniform subset
    picked by rank (``rng.choice``) among the positions that one chunked
    scan of ``stream`` lists for all of them."""
    marked = np.zeros(256, dtype=bool)
    marked[codes] = True
    where = np.concatenate([
        np.flatnonzero(marked.take(stream[lo:lo + _CHUNK])) + lo for lo in range(0, len(stream), _CHUNK)
    ])
    which = stream[where]
    picks = []
    for code, e in zip(codes.tolist(), excess):
        mine = where[which == code]
        picks.append(mine[rng.choice(len(mine), e, replace=False, shuffle=False)])
    return picks


def intercept_resend(
    state: TwoQubitState,
    a_settings: Sequence[AnalyzerSetting],
    b_settings: Sequence[AnalyzerSetting],
    eve_fraction: float,
) -> np.ndarray:
    """Cell probabilities of a coincident pair under partial intercept-resend.

    For an intercepted pair Eve measures Bob's photon in a uniformly random
    key basis (H/V or D/A) and forwards a re-prepared eigenstate.  She acts
    on each pair independently of its settings and her records are not
    returned, so every pair is drawn from the weighted
    :func:`intercept_strata` mixture: the same distribution as drawing her
    interception, basis and result first, with no Eve randomness consumed.
    At ``eve_fraction = 0`` the weights ``(1, 0)`` mix to ``state.bloch``
    exactly.

    The result is the mixture's :func:`~ebqkd.qstate.born_table` over the
    setting pairs ``itertools.product(a_settings, b_settings)``, flattened
    over the cells ``(a * n_b + b) * 4 + outcome`` (``n_b =
    len(b_settings)``, outcome 0..3 for ``++, +-, -+, --``) and scaled to
    sum to 1, so every setting pair is equally likely.
    """
    blochs, weights = intercept_strata(state, eve_fraction)
    joint = born_table(np.tensordot(weights, blochs, axes=1), itertools.product(a_settings, b_settings)).ravel()
    return joint / joint.sum()


def expected_table(
    state: TwoQubitState, pairs: Sequence[tuple[AnalyzerSetting, AnalyzerSetting]], n: float = 1.0
) -> CoincidenceTable:
    """Noiseless expected counts of ``n`` coincidences per setting pair, unrounded: row
    ``k`` holds ``n`` times row ``k`` of the :func:`~ebqkd.qstate.born_table`, as floats."""
    if not 0.0 <= n < math.inf:
        raise ValueError(f"n must be finite and >= 0, got {n!r}")
    rows = (n * born_table(state.bloch, pairs)).tolist()
    return CoincidenceTable(tuple(CoincidenceRow(a, b, *counts) for (a, b), counts in zip(pairs, rows)))


def qber_for_basis(
    state: TwoQubitState, label: BellLabel, basis_pol_rad: float
) -> float:
    """Analytic error probability when both parties measure at one angle."""
    setting = AnalyzerSetting.from_polarization(math.degrees(basis_pol_rad))
    p = joint_probabilities(state, setting, setting).as_array()
    i, j = wrong_outcomes(label, basis_pol_rad)
    return float(p[i] + p[j])


def bob_flip(label: BellLabel, basis_pol_rad: float) -> bool:
    """Whether Bob inverts his bit in this basis to align keys: when the
    :func:`~ebqkd.qstate.ideal_correlator` of ``label`` at equal angles is
    below -1e-9 (the singlet in every basis, psi+ in H/V, phi- in D/A).
    Where it is 0 (phi- and psi+ at 22.5 + k 45 degrees) no flip can align
    the keys and none is made.
    """
    return ideal_correlator(label, basis_pol_rad, basis_pol_rad) < -1e-9


def wrong_outcomes(label: BellLabel, basis_pol_rad: float) -> tuple[int, int]:
    """Indices into ``(++, +-, -+, --)`` of the key errors in one basis.

    An outcome is wrong when Alice's and Bob's key bits differ after
    Bob's :func:`bob_flip`: the equal outcomes if he flips, else the
    unequal ones.
    """
    return (0, 3) if bob_flip(label, basis_pol_rad) else (1, 2)
