"""Analyzer settings, outcome sampling and coincidence counting.

A coincidence is both photons of one emitted pair being detected in the
same emission slot; detector efficiency is applied independently per arm
and accidental coincidences follow a Poisson model spread uniformly over
the cells.  All sampling is deterministic given a seed and is one count
draw, :func:`sample_outcome_stream`: a sweep makes it once per setting
pair over that pair's four outcomes (:func:`sample_outcomes`), a session
once over its cells ``(a * n_b + b) * 4 + outcome`` (probabilities from
:func:`intercept_resend`).  Eve's intercept-resend attack is sampled as
the mixture of :func:`intercept_strata`: her records never leave the
sampler, so no draw of hers is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .qstate import BellLabel, TwoQubitState, born_table, joint_probabilities


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
        if not 1 <= self.window_pairs < 2**63:
            raise ValueError(f"window_pairs must be in [1, 2**63), got {self.window_pairs!r}")

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


def spawn_rng(seed: int, *stream: int) -> np.random.Generator:
    """Deterministic child generator for (master seed, stream indices).

    The fixed splitting rule makes parallel work independent of scheduling
    order: every task keyed by the same indices sees the same stream.
    """
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(stream)))


def intercept_strata(state: TwoQubitState, eve_fraction: float) -> tuple[np.ndarray, np.ndarray]:
    """Mixture components seen downstream of an intercept-resend attack.

    Returns ``(blochs, weights)``: a ``(k, 4, 4)`` stack of the components'
    Pauli correlation matrices and their weights.  Index 0 is the untouched
    ``state.bloch`` (weight ``1 - eve_fraction``); at ``eve_fraction = 0``
    it is the only component (k = 1), otherwise k = 2.  Eve measures Bob's
    photon in H/V or D/A (Bloch axis z or x, chosen uniformly) and
    forwards an eigenstate of her result, which keeps only Bob's Bloch
    component along her axis.  Her basis and result are discarded, so
    index 1 (weight ``eve_fraction``) scales Bob's columns ``(I, x, y, z)``
    of ``C`` by ``(1, 1/2, 0, 1/2)``.
    """
    if not 0.0 <= eve_fraction <= 1.0:
        raise ValueError(f"eve_fraction must be in [0, 1], got {eve_fraction!r}")
    c = state.bloch
    if eve_fraction == 0.0:
        return c[None], np.ones(1)
    return np.stack((c, c * [1.0, 0.5, 0.0, 0.5])), np.array([1.0 - eve_fraction, eve_fraction])


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
    rngs: Sequence[np.random.Generator],
) -> tuple[CoincidenceRow, ...]:
    """Coincidence counts for each analyzer setting pair.

    Pair ``j`` is one :func:`sample_outcome_stream` of ``n_pairs`` emitted
    pairs over its four Born-rule outcomes, from the generator ``rngs[j]``
    alone.  One :func:`~ebqkd.qstate.born_table` for all pairs is built per
    call.  Under intercept-resend pass :func:`intercept_average_state`.

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
    every_pair = np.broadcast_to(np.uint8(0), (n_pairs,))  # read for its length
    return tuple(
        CoincidenceRow(a, b, *sample_outcome_stream(p, every_pair, rng, det))
        for (a, b), p, rng in zip(pairs, tables, rngs, strict=True)
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
    At ``eve_fraction = 0`` the mixture is ``state.bloch``.

    The result is the mixture's :func:`~ebqkd.qstate.born_table` flattened
    over the cells ``(a * n_b + b) * 4 + outcome`` (``n_b =
    len(b_settings)``, outcome 0..3 for ``++, +-, -+, --``) and scaled to
    sum to 1, so every setting pair is equally likely.
    """
    blochs, weights = intercept_strata(state, eve_fraction)
    joint = born_table(np.tensordot(weights, blochs, axes=1), a_settings, b_settings).ravel()
    return joint / joint.sum()


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
