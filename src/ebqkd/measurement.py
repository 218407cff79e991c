"""Analyzer settings, per-pair outcome sampling and coincidence counting.

A coincidence is both photons of one emitted pair being detected in the
same emission slot; detector efficiency is applied independently per arm
and accidental coincidences follow a Poisson model spread uniformly over
the four outcomes.  All sampling is deterministic given a seed.  The
session sampler turns one exact 53-bit uniform per emitted pair into its
cell ``(a * n_b + b) * 4 + outcome``, or ``n_a * n_b * 4`` for a pair that
is not coincident: one joint CDF per correlation matrix covers the setting
pair, the coincidence and the outcome.  A pair's top 16 bits are a lane of
a raw generator word, four pairs per word (:class:`PairStream`), and index
a uint8 table over 2^16 equal buckets (:class:`JointCdf`, built once per
session); only a pair whose bucket holds a CDF threshold draws its other
37 bits.  Eve's intercept-resend attack
is sampled as the mixture of :func:`intercept_strata`: her records never
leave the sampler, so no draw of hers is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .qstate import BellLabel, TwoQubitState, born_table, joint_probabilities

#: Polarization angles (radians) of the two key-generation bases, H/V and D/A.
KEY_BASES_RAD = (0.0, math.pi / 4)


@dataclass(frozen=True)
class AnalyzerSetting:
    """Half-wave-plate setting of one party's polarization analyzer.

    A half-wave plate at angle t rotates polarization by 2t, so the
    analyzer projects onto linear polarization at twice the plate angle;
    the reflected port sits 90 degrees away.
    """

    hwp_angle_deg: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.hwp_angle_deg < 180.0:
            raise ValueError(
                f"HWP angle must be in [0, 180) degrees, got {self.hwp_angle_deg!r}"
            )

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
        if self.window_pairs < 1:
            raise ValueError(f"window_pairs must be >= 1, got {self.window_pairs!r}")

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
    """Counts of the four joint outcomes for one analyzer setting pair."""

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


def hwp_key(alice_hwp_deg: float, bob_hwp_deg: float) -> tuple[float, float]:
    """Lookup key of an (Alice, Bob) HWP angle pair: mod 180, rounded to 1e-6 deg."""
    return (round(alice_hwp_deg % 180.0, 6) % 180.0, round(bob_hwp_deg % 180.0, 6) % 180.0)


@dataclass(frozen=True)
class CoincidenceTable:
    """Coincidence counts per (Alice setting, Bob setting) combination.

    Every front end (sweep, session, analyze) fills one of these and hands
    it to :func:`ebqkd.protocol.estimate`.  Rows are looked up by
    :func:`hwp_key`; when two rows share a key the first one is found.
    """

    rows: tuple[CoincidenceRow, ...]

    def __post_init__(self) -> None:
        index = {hwp_key(r.a.hwp_angle_deg, r.b.hwp_angle_deg): r for r in reversed(self.rows)}
        object.__setattr__(self, "_index", index)

    def find(self, a: AnalyzerSetting, b: AnalyzerSetting) -> CoincidenceRow | None:
        return self._index.get(hwp_key(a.hwp_angle_deg, b.hwp_angle_deg))


def spawn_rng(seed: int | np.random.Generator, *stream: int) -> np.random.Generator:
    """Deterministic child generator for (master seed, stream indices).

    The fixed splitting rule makes parallel work independent of scheduling
    order: every task keyed by the same indices sees the same stream.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(stream)))


def intercept_strata(state: TwoQubitState, eve_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Mixture components seen downstream of an intercept-resend attack.

    Returns ``(blochs, weights)``: a ``(k, 4, 4)`` stack of the components'
    Pauli correlation matrices and their weights.  Index 0 is the untouched
    ``state.bloch`` (weight ``1 - eve_fraction``); at ``eve_fraction = 0``
    it is the only component (k = 1), otherwise k = 5.  Eve measures Bob's
    photon in one of :data:`KEY_BASES_RAD` (chosen uniformly) and forwards
    a freshly prepared eigenstate of her result; indices
    ``1 + 2 * basis + outcome`` are those product states, with weight
    ``eve_fraction / 2`` times the Born-rule probability of her result.  In
    the Pauli picture of :mod:`ebqkd.qstate`, her outcome ``+/-`` along
    Bloch direction ``e`` has ``p = (1 +/- e.r_B) / 2``, leaves Alice with
    Bloch vector ``(r_A +/- T e) / (2 p)`` and forwards the product state
    ``C = outer((1, r_A'), (1, +/-e))``.
    """
    if not 0.0 <= eve_fraction <= 1.0:
        raise ValueError(f"eve_fraction must be in [0, 1], got {eve_fraction!r}")
    c = state.bloch
    if eve_fraction == 0.0:
        return c[None], np.ones(1)
    e = np.array([[math.sin(2.0 * theta), 0.0, math.cos(2.0 * theta)] for theta in KEY_BASES_RAD])
    forwarded = np.stack([e, -e], axis=1).reshape(-1, 3)
    p = np.maximum(0.0, (1.0 + forwarded @ c[0, 1:]) / 2.0)
    # An unreachable outcome keeps a maximally mixed Alice as a placeholder.
    r_alice = c[1:, 0] + forwarded @ c[1:, 1:].T
    r_alice = np.divide(r_alice, 2.0 * p[:, None], out=np.zeros_like(r_alice), where=p[:, None] > 0.0)
    ones = np.ones((len(p), 1))
    products = np.einsum("si,sj->sij", np.hstack((ones, r_alice)), np.hstack((ones, forwarded)))
    weights = np.concatenate(([1.0 - eve_fraction], eve_fraction * 0.5 * p))
    return np.concatenate((c[None], products)), weights


def intercept_average_state(state: TwoQubitState, eve_fraction: float) -> TwoQubitState:
    """Ensemble-average state after intercept-resend (Eve's records discarded).

    ``state`` itself at ``eve_fraction = 0``; otherwise the state whose
    correlation matrix is the weighted sum of the :func:`intercept_strata`
    components.  Every pair downstream of the attack is drawn from it.
    """
    blochs, weights = intercept_strata(state, eve_fraction)
    if len(weights) == 1:
        return state
    return TwoQubitState.from_bloch(np.tensordot(weights, blochs, axes=1))


def sample_outcomes(
    state: TwoQubitState,
    pairs: Sequence[tuple[AnalyzerSetting, AnalyzerSetting]],
    det: DetectorModel,
    n_pairs: int,
    rngs: Sequence[int | np.random.Generator],
) -> tuple[CoincidenceRow, ...]:
    """Coincidence counts for each analyzer setting pair.

    Pair ``j`` draws from ``spawn_rng(rngs[j])`` alone: the coincidences
    among ``n_pairs`` emitted pairs (binomial in the product of the per-arm
    detection efficiencies), their Born-rule outcomes (multinomial), and
    Poisson accidentals spread uniformly over the four outcomes.  One
    :func:`~ebqkd.qstate.born_table` for all pairs is built per call.  Under
    intercept-resend pass :func:`intercept_average_state`.

    Returns:
        One :class:`CoincidenceRow` per pair, in order, deterministic given
        the generators.
    """
    if n_pairs < 1:
        raise ValueError(f"n_pairs must be >= 1, got {n_pairs!r}")
    a_settings, b_settings = zip(*pairs)
    on_pair = np.arange(len(pairs))
    tables = born_table(state.bloch, a_settings, b_settings)[on_pair, on_pair]
    tables /= tables.sum(axis=-1, keepdims=True)
    rows = []
    for (a, b), p, seed in zip(pairs, tables, rngs, strict=True):
        rng = spawn_rng(seed)
        n_coinc = int(rng.binomial(n_pairs, det.coincidence_efficiency()))
        counts = rng.multinomial(n_coinc, p)
        n_acc = int(rng.poisson(det.expected_accidentals(n_pairs)))
        if n_acc:
            counts += rng.multinomial(n_acc, np.full(4, 0.25))
        rows.append(CoincidenceRow(a, b, *(int(c) for c in counts)))
    return tuple(rows)


#: Top bits of a pair's uniform, read from its lane: lane ``j`` is the
#: bucket ``[j, j + 1) / _BUCKETS`` of the lookup table of :class:`JointCdf`.
_LANE_BITS = 16
_BUCKETS = 1 << _LANE_BITS

#: Low bits of a pair's uniform, drawn only where its bucket is split: the
#: uniform is ``((lane << 37) | r) * 2**-53``, exact in float64.
_REFINE_BITS = 53 - _LANE_BITS

#: Table entry of a bucket that holds a CDF threshold; no cell reaches it,
#: since a protocol layout has at most 63 setting pairs (252 cells).
_SPLIT = 255


def _bucket_table(cdf: np.ndarray) -> np.ndarray:
    """uint8 ``table[j] = searchsorted(cdf, u, side="right")`` for every ``u``
    in bucket ``[j, j + 1) / _BUCKETS``, or :data:`_SPLIT` where a threshold
    lies strictly inside the bucket and the cell depends on ``u``.

    The cell in bucket ``j`` counts the thresholds ``c <= j / _BUCKETS``,
    that is ``ceil(c * _BUCKETS) <= j``; a threshold with
    ``floor(c * _BUCKETS) < ceil(c * _BUCKETS)`` splits bucket ``floor``.
    A threshold at or above 1 (a trace that rounds to ``1 + 2**-52``) is
    reached by no ``u`` and counts in no bucket.
    """
    scaled = cdf * _BUCKETS
    first = np.minimum(np.ceil(scaled), _BUCKETS).astype(np.intp)
    last = np.floor(scaled).astype(np.intp)
    cells = np.arange(len(cdf) + 1, dtype=np.uint8)
    table = np.repeat(cells, np.diff(first, prepend=0, append=_BUCKETS))
    table[last[last < first]] = _SPLIT
    return table


class PairStream:
    """The random bits of a stream of pairs, in stream order.

    Pair ``i`` reads lane ``i % 4`` of raw word ``w = i // 4`` of
    ``words``, the 16 bits ``(w >> 16 * (i % 4)) & 0xFFFF``: the top bits
    of its uniform.  Lanes that one :meth:`lanes` call leaves over are the
    first of the next, so however the pairs are cut into blocks, each pair
    reads the same lane.  ``refine`` gives the low :data:`_REFINE_BITS`
    bits (the top bits of one raw word) of each pair whose bucket is split,
    in stream order; it is a generator of its own, so those words do not
    depend on the blocks either.
    """

    def __init__(self, words: np.random.BitGenerator, refine: np.random.BitGenerator) -> None:
        self.words = words
        self.refine = refine
        self._carry = np.zeros(0, dtype="<u2")

    @classmethod
    def spawn(cls, seed_seq: np.random.SeedSequence) -> "PairStream":
        """A stream on the next two children of ``seed_seq``: words, then refinement."""
        words, refine = seed_seq.spawn(2)
        return cls(np.random.PCG64(words), np.random.PCG64(refine))

    def lanes(self, n: int) -> np.ndarray:
        """The next ``n`` lanes, as little-endian uint16: on a little-endian
        host a view of the raw words."""
        lanes = self._carry
        if n > len(lanes):
            words = self.words.random_raw(-(-(n - len(lanes)) // 4)).astype("<u8", copy=False).view("<u2")
            lanes = np.concatenate((lanes, words)) if len(lanes) else words
        self._carry = lanes[n:].copy()
        return lanes[:n]


@dataclass(frozen=True, eq=False)
class JointCdf:
    """Joint CDFs of a stack of strata over the session cells, with the
    uint8 table that inverts them.

    ``cdfs`` is a ``(k, n)`` stack of nondecreasing CDFs with ``n < 255``;
    row ``s`` belongs to stratum ``s``, and a uniform ``u`` of that stratum
    draws cell ``searchsorted(cdfs[s], u, side="right")``, which is ``n``
    when ``u`` lies beyond the last value.  ``table`` holds one
    :func:`_bucket_table` per row over :data:`_BUCKETS` equal buckets of
    ``u`` (64 KiB per row); it is built once, so one ``JointCdf`` serves
    every block of a session.
    """

    cdfs: np.ndarray
    table: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "table", np.concatenate([_bucket_table(cdf) for cdf in self.cdfs]))

    @classmethod
    def of(
        cls,
        blochs: np.ndarray,
        a_settings: Sequence[AnalyzerSetting],
        b_settings: Sequence[AnalyzerSetting],
    ) -> "JointCdf":
        """Joint CDFs of a ``(k, 4, 4)`` stack of correlation matrices.

        Each may be sub-normalised: ``C[0, 0]`` is the probability that the
        pair is coincident.  A row runs over the cells
        ``(a * n_b + b) * 4 + outcome`` (``n_b = len(b_settings)``, outcome
        0..3 for ``++, +-, -+, --``): its
        :func:`~ebqkd.qstate.born_table` flattened, accumulated and scaled
        so that its last value is ``C[0, 0]`` (every setting pair is equally
        likely).  The missing trace is the last cell,
        ``n_cells = n_a * n_b * 4``: "not coincident".
        """
        probs = born_table(blochs, a_settings, b_settings).reshape(len(blochs), -1)
        cdfs = probs.cumsum(axis=1)
        cdfs /= cdfs[:, -1:]
        cdfs *= blochs[:, :1, 0]
        return cls(cdfs)

    def invert(
        self, stratum_idx: np.ndarray, lanes: np.ndarray, refine: np.random.BitGenerator
    ) -> np.ndarray:
        """``searchsorted(cdfs[stratum], u, side="right")`` per pair, as uint8.

        ``stratum_idx`` picks each pair's row and its uint16 lane is the
        bucket of its uniform ``u``, whose cell one table lookup gives.  A
        pair whose bucket holds a threshold takes ``r``, the top
        :data:`_REFINE_BITS` bits of the next raw word of ``refine``, in
        stream order; its cell is the exact ``searchsorted`` of
        ``u = ((lane << 37) | r) * 2**-53``, built as an integer so that no
        rounding moves it out of its bucket.
        """
        bucket = lanes
        if len(self.cdfs) > 1:
            bucket = stratum_idx.astype(np.intp) << _LANE_BITS
            bucket |= lanes
        cells = self.table.take(bucket)
        split = np.flatnonzero(cells == _SPLIT)
        if len(split):
            u = lanes[split].astype(np.uint64) << _REFINE_BITS
            u |= refine.random_raw(len(split)) >> (64 - _REFINE_BITS)
            u = u * 2.0**-53
            for s, cdf in enumerate(self.cdfs):
                mine = stratum_idx[split] == s
                cells[split[mine]] = cdf.searchsorted(u[mine], side="right")
        return cells


def sample_outcome_stream(joint: JointCdf, stratum_idx: np.ndarray, stream: PairStream) -> np.ndarray:
    """Per-pair cells: a uniform setting pair, coincidence and outcome in one draw.

    ``stratum_idx`` indexes the rows of ``joint`` (see :meth:`JointCdf.of`
    for the cells).  The pairs read the next ``len(stratum_idx)`` lanes of
    ``stream``, and :meth:`JointCdf.invert` turns each into its cell,
    refining split buckets from ``stream.refine``.
    """
    return joint.invert(stratum_idx, stream.lanes(len(stratum_idx)), stream.refine)


def intercept_resend(
    state: TwoQubitState,
    a_settings: Sequence[AnalyzerSetting],
    b_settings: Sequence[AnalyzerSetting],
    eve_fraction: float,
    efficiency: float,
) -> JointCdf:
    """One-stratum :class:`JointCdf` of the pairs under partial
    intercept-resend, both photons of a pair detected with probability
    ``efficiency``.

    For an intercepted pair Eve measures Bob's photon in a uniformly random
    key basis (H/V or D/A) and forwards a re-prepared eigenstate.  She acts
    on each pair independently of its settings and her records are not
    returned, so every pair is drawn from the weighted
    :func:`intercept_strata` mixture as one stratum: the same distribution
    as drawing her interception, basis and result first, with no Eve
    randomness consumed.  The mixture's correlation matrix is scaled by
    ``efficiency``, whose missing trace is the "not coincident" cell.  At
    ``eve_fraction = 0`` the mixture is ``state.bloch``.
    """
    blochs, weights = intercept_strata(state, eve_fraction)
    mixture = efficiency * np.tensordot(weights, blochs, axes=1)
    return JointCdf.of(mixture[None], a_settings, b_settings)


def expected_counts(
    state: TwoQubitState,
    a: AnalyzerSetting,
    b: AnalyzerSetting,
    n_pairs: int,
) -> CoincidenceRow:
    """Noiseless expected coincidence counts (rounded) for one setting pair."""
    dist = joint_probabilities(state, a, b)
    n = np.rint(dist.as_array() * n_pairs).astype(int)
    return CoincidenceRow(a, b, *(int(c) for c in n))


def qber_for_basis(
    state: TwoQubitState, label: BellLabel, basis_pol_rad: float
) -> float:
    """Analytic error probability when both parties measure at one angle."""
    setting = AnalyzerSetting.from_polarization(math.degrees(basis_pol_rad))
    p = born_table(state.bloch, (setting,), (setting,))[0, 0]
    i, j = wrong_outcomes(label, basis_pol_rad)
    return float(p[i] + p[j])


#: Equal-angle correlator E(t, t) of each maximal Bell state at
#: polarization angle t (radians).
_IDEAL_CORRELATOR = {
    BellLabel.PHI_PLUS: lambda t: 1.0,
    BellLabel.PSI_MINUS: lambda t: -1.0,
    BellLabel.PHI_MINUS: lambda t: math.cos(4.0 * t),
    BellLabel.PSI_PLUS: lambda t: -math.cos(4.0 * t),
}


def bob_flip(label: BellLabel, basis_pol_rad: float) -> bool:
    """Whether Bob inverts his bit in this basis to align keys.

    True when the ideal maximal state of ``label`` is anticorrelated for
    equal analyzer angles at ``basis_pol_rad`` (the singlet in every
    basis, psi+ in H/V, phi- in D/A).  Where that state is uncorrelated
    (phi- and psi+ at 22.5 + k 45 degrees) no flip can align the keys and
    none is made: the correlator must be below -1e-9.
    """
    return _IDEAL_CORRELATOR[label](basis_pol_rad) < -1e-9


def wrong_outcomes(label: BellLabel, basis_pol_rad: float) -> tuple[int, int]:
    """Indices into ``(++, +-, -+, --)`` of the key errors in one basis.

    An outcome is wrong when Alice's and Bob's key bits differ after
    Bob's :func:`bob_flip`: the equal outcomes if he flips, else the
    unequal ones.
    """
    return (0, 3) if bob_flip(label, basis_pol_rad) else (1, 2)
