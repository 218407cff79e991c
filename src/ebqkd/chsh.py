"""Bell-CHSH parameter estimation.

Analytic correlators, the settings-optimized maximum via the Horodecki
criterion, and count-based estimation with binomial-approximation
uncertainty.

Both analytic routes read one object, the state's Pauli correlation
matrix ``C`` (see :mod:`ebqkd.qstate`): linear-analyzer correlators come
from the rows of :func:`~ebqkd.qstate.born_table` for the setting pairs,
``E(a, b) = a . T b`` with ``T = C[1:, 1:]``, and the Horodecki maximum
from the eigenvalues of ``T^T T``.

Canonical geometry
------------------
All four Bell-state families are tested at the same polarization angles,
Alice (0, 45) and Bob (22.5, 67.5) degrees.  S is a signed combination of
the four correlators, ``S = sum_i sign_i E_i`` over
``(E(a,b), E(a,b'), E(a',b), E(a',b'))``; the default signs ``(+,-,+,+)``
suit phi+.  Each family's sign ``i`` is derived: the sign of its maximal
state's :func:`~ebqkd.qstate.ideal_correlator` (+/-1/sqrt 2) at pair ``i``,
so every label reaches 2*sqrt(2) at maximality:

====================  ================
state                 signs
====================  ================
phi+                  (+, -, +, +)
phi-                  (+, -, -, -)
psi+                  (-, +, +, +)
psi- (singlet)        (-, +, -, -)
====================  ================
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .measurement import AnalyzerSetting, CoincidenceTable, IncompleteTableError, hwp_key, pair_name
from .qstate import BellLabel, TwoQubitState, born_table, ideal_correlator, joint_probabilities
from .security import S_QUANTUM_MAX as TSIRELSON  # quantum ceiling on |S|, re-exported


@dataclass(frozen=True)
class ChshSettings:
    """The four analyzer settings of a CHSH test plus the sign convention.

    ``signs`` multiplies the correlators in the order
    ``(E(a,b), E(a,b'), E(a',b), E(a',b'))`` and must contain an odd number
    of minus signs for the classical bound |S| <= 2 to apply.
    """

    a: AnalyzerSetting
    a_prime: AnalyzerSetting
    b: AnalyzerSetting
    b_prime: AnalyzerSetting
    signs: tuple[int, int, int, int] = (1, -1, 1, 1)

    def __post_init__(self) -> None:
        a, a_prime, b, b_prime = (s.hwp_angle_deg for s in self.all_settings())
        if len(set(hwp_key(a, a_prime) + hwp_key(b, b_prime))) != 4:  # four distinct keys
            raise ValueError("CHSH requires four distinct analyzer settings")
        if sorted(abs(s) for s in self.signs) != [1, 1, 1, 1] or self.signs.count(-1) % 2 == 0:
            raise ValueError(f"signs must be +/-1 with an odd number of -1, got {self.signs!r}")
        object.__setattr__(self, "_pairs", tuple(itertools.product((self.a, self.a_prime), (self.b, self.b_prime))))

    def all_settings(self) -> tuple[AnalyzerSetting, ...]:
        return (self.a, self.a_prime, self.b, self.b_prime)

    def pairs(self) -> tuple[tuple[AnalyzerSetting, AnalyzerSetting], ...]:
        """Setting pairs in correlator order (a,b), (a,b'), (a',b), (a',b'), derived when built."""
        return self._pairs


def _canonical(label: BellLabel) -> ChshSettings:
    alice, bob = (0.0, 45.0), (22.5, 67.5)  # polarization angles, degrees
    e = (ideal_correlator(label, math.radians(a), math.radians(b)) for a, b in itertools.product(alice, bob))
    signs = tuple(1 if x > 0.0 else -1 for x in e)
    return ChshSettings(*map(AnalyzerSetting.from_polarization, alice + bob), signs=signs)


_CANONICAL = {label: _canonical(label) for label in BellLabel}


def canonical_settings(label: BellLabel = BellLabel.PHI_PLUS) -> ChshSettings:
    """Canonical CHSH geometry; each sign is that of ``label``'s ideal correlator at its pair.

    Built once per label, at import, and shared: the result is frozen."""
    return _CANONICAL[label]


@dataclass(frozen=True)
class ChshEstimate:
    """An S value with its four correlators and propagated uncertainty."""

    s: float
    correlators: tuple[float, float, float, float]
    sigma_s: float = 0.0

    def __post_init__(self) -> None:
        # Each test is written so that NaN fails it.
        if not all(abs(e) <= 1.0 + 1e-9 for e in self.correlators):
            raise ValueError(f"correlators must lie in [-1, 1], got {self.correlators!r}")
        if not abs(self.s) <= 4.0 + 1e-9:
            raise ValueError(f"|S| must be finite and at most 4, got {self.s!r}")
        if not 0.0 <= self.sigma_s < math.inf:
            raise ValueError(f"sigma_s must be finite and nonnegative, got {self.sigma_s!r}")


@dataclass(frozen=True)
class OptimalChsh:
    """Settings-optimized CHSH value and the Bloch directions achieving it.

    Directions are unit vectors on the (x, y, z) Bloch sphere, ordered to
    reproduce ``estimate.s`` under the default sign convention.  When a
    direction lies in the x-z plane it corresponds to a linear analyzer
    (see :func:`bloch_to_polarization_angle`).
    """

    estimate: ChshEstimate
    alice_directions: tuple[np.ndarray, np.ndarray] = field(repr=False)
    bob_directions: tuple[np.ndarray, np.ndarray] = field(repr=False)


def correlator_analytic(
    state: TwoQubitState, a: AnalyzerSetting, b: AnalyzerSetting
) -> float:
    """E(a, b) = p(++) + p(--) - p(+-) - p(-+) from the Born rule."""
    return joint_probabilities(state, a, b).correlator()


def s_analytic(state: TwoQubitState, settings: ChshSettings) -> ChshEstimate:
    """Exact CHSH combination for the given settings (zero uncertainty)."""
    return s_from_born(born_table(state.bloch, settings.pairs()), settings)


def s_from_born(born: np.ndarray, settings: ChshSettings) -> ChshEstimate:
    """Exact CHSH combination from Born rows whose first four are those of
    ``settings.pairs()``, in order (a caller's wider table may go on)."""
    p = born[:4]
    correlators = tuple((p[:, 0] + p[:, 3] - p[:, 1] - p[:, 2]).tolist())
    s = sum(sign * e for sign, e in zip(settings.signs, correlators))
    return ChshEstimate(s=s, correlators=correlators, sigma_s=0.0)


def correlation_matrix(state: TwoQubitState) -> np.ndarray:
    """3x3 Bloch correlation matrix T_ij = Tr(rho sigma_i x sigma_j) = C[i, j]."""
    return state.bloch[1:, 1:]


def s_optimal(state: TwoQubitState) -> OptimalChsh:
    """Maximum CHSH value over all measurement settings.

    By the Horodecki criterion the maximum is ``2 sqrt(m1 + m2)`` with
    ``m1 >= m2`` the two largest eigenvalues of ``T^T T``; the achieving
    directions are built from the corresponding eigenvectors.
    """
    t = correlation_matrix(state)
    evals, evecs = np.linalg.eigh(t.T @ t)
    m1 = max(float(evals[2]), 0.0)
    m2 = max(float(evals[1]), 0.0)
    c1 = evecs[:, 2]
    c2 = evecs[:, 1]
    s_max = 2.0 * math.sqrt(m1 + m2)

    phi = math.atan2(math.sqrt(m2), math.sqrt(m1)) if (m1 or m2) else 0.0
    b_dir = math.cos(phi) * c1 + math.sin(phi) * c2
    b_prime_dir = math.cos(phi) * c1 - math.sin(phi) * c2
    a_dir = _normalized_or(t @ c2, fallback=np.array([0.0, 0.0, 1.0]))
    a_prime_dir = _normalized_or(t @ c1, fallback=np.array([1.0, 0.0, 0.0]))

    correlators = tuple(
        float(u @ t @ v)
        for u, v in (
            (a_dir, b_dir),
            (a_dir, b_prime_dir),
            (a_prime_dir, b_dir),
            (a_prime_dir, b_prime_dir),
        )
    )
    estimate = ChshEstimate(
        s=min(s_max, 4.0),
        correlators=tuple(min(1.0, max(-1.0, e)) for e in correlators),
        sigma_s=0.0,
    )
    return OptimalChsh(
        estimate=estimate,
        alice_directions=(a_dir, a_prime_dir),
        bob_directions=(b_dir, b_prime_dir),
    )


def _normalized_or(v: np.ndarray, fallback: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(v))
    if norm < 1e-12:
        return fallback
    return v / norm


def bloch_to_polarization_angle(direction: np.ndarray, atol: float = 1e-9) -> float:
    """Polarization angle (degrees) of an x-z-plane Bloch direction.

    Linear analyzers measure ``cos(2 theta) sigma_z + sin(2 theta) sigma_x``;
    a direction with a y component has no linear-polarization equivalent
    and raises ``ValueError``.
    """
    direction = np.asarray(direction, dtype=float)
    if abs(direction[1]) > atol:
        raise ValueError(
            f"direction {direction!r} leaves the linear-polarization (x-z) plane"
        )
    return math.degrees(0.5 * math.atan2(direction[0], direction[2])) % 180.0


def s_from_counts(table: CoincidenceTable, settings: ChshSettings) -> ChshEstimate:
    """CHSH estimate from a coincidence table: the rows of ``settings.pairs()``
    (:class:`IncompleteTableError` naming a missing one), then
    :func:`s_from_quadruples`."""
    return s_from_quadruples([table.row(a, b).counts() for a, b in settings.pairs()], settings)


def s_from_quadruples(counts: Sequence[Sequence[float]], settings: ChshSettings) -> ChshEstimate:
    """CHSH estimate from the outcome counts ``(n_pp, n_pm, n_mp, n_mm)`` of
    ``settings.pairs()``, in that order (a caller's longer list may go on).

    Per setting pair, ``E = (n_pp + n_mm - n_pm - n_mp) / n_total`` with
    the binomial-approximation variance ``sigma_E^2 = (1 - E^2) / n_total``;
    ``sigma_S`` adds the four variances in quadrature.

    Raises:
        IncompleteTableError: a setting pair has no coincidence.
    """
    correlators = []
    var_sum = 0.0
    for (n_pp, n_pm, n_mp, n_mm), (a, b) in zip(counts, settings.pairs()):
        total = n_pp + n_pm + n_mp + n_mm
        if total == 0:
            raise IncompleteTableError(f"zero total coincidences for setting pair {pair_name(a, b)}")
        e = (n_pp + n_mm - n_pm - n_mp) / total
        correlators.append(e)
        var_sum += (1.0 - e * e) / total
    s = sum(sign * e for sign, e in zip(settings.signs, correlators))
    return ChshEstimate(s=s, correlators=tuple(correlators), sigma_s=math.sqrt(var_sum))
