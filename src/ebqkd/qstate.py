"""Two-qubit polarization state algebra.

Density operators over the two-photon product basis {HH, HV, VH, VV},
joint outcome probabilities behind linear polarization analyzers, and the
one definition of each Bell label (:data:`BELL_TERMS`).  The sources live
in :mod:`ebqkd.optics`.  :func:`echo`, the one rule for quoting input in
an error message, lives here because every other module imports this one.

Conventions
-----------
* Basis order is fixed globally as ``(HH, HV, VH, VV)``; index ``2*i + j``
  holds the amplitude of Alice's polarization ``i`` and Bob's ``j`` with
  ``H = 0`` and ``V = 1``.
* The source's two output ports map to the parties as port 1 -> Alice,
  port 2 -> Bob.
* An analyzer's "+" outcome is transmission along its polarization axis;
  "-" is the orthogonal port.
* A state is read through its real Pauli correlation matrix
  ``C[m, n] = Tr(rho sigma_m x sigma_n)`` with ``sigma = (I, X, Y, Z)``:
  ``C[0, 0] = 1``, Bloch vectors ``r_A = C[1:, 0]`` and ``r_B = C[0, 1:]``,
  correlations ``T = C[1:, 1:]``; ``rho = 1/4 sum C[m, n] sigma_m x sigma_n``.
* A half-wave plate at angle ``t`` analyzes along ``a = (sin 4t, 0, cos 4t)``
  and the Born rule is one bilinear form, ``p(s_a, s_b) = 1/4 (1, s_a a)
  C (1, s_b b)^T`` for port signs ``s = +/-1`` (:func:`born_table`, the
  only Born-rule evaluation in the package: one row per setting pair).
* :func:`checked_bloch` (``rho`` to ``C``, after the invariant checks),
  :func:`density` (``C`` to ``rho``) and :func:`born_table` take stacks
  with leading axes, computing each matrix as a single one, so a sweep
  checks and tabulates a block of grid points in one call each.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

import numpy as np

if TYPE_CHECKING:
    from .measurement import AnalyzerSetting

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
PSD_ATOL = 1e-9

_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
#: Row ``4*m + n`` holds the 16 entries of sigma_m x sigma_n in basis order.
_PAULI_PAIRS = np.einsum("mij,nkl->mnikjl", _PAULI, _PAULI).reshape(16, 16)
_PAULI_PAIRS_CONJ = _PAULI_PAIRS.conj()


def echo(text: str) -> str:
    """``text`` cut to 40 characters and ``...``: the one rule for echoing
    input in an error message, so that the message does not grow with it."""
    return text if len(text) <= 40 else text[:40] + "..."


class InvariantViolation(ValueError):
    """A state or distribution failed one of its defining invariants."""


class BellLabel(enum.Enum):
    """The four maximally entangled polarization states."""

    PHI_PLUS = "phi_plus"
    PHI_MINUS = "phi_minus"
    PSI_PLUS = "psi_plus"
    PSI_MINUS = "psi_minus"


#: The one per-label table: ``(first, second, sign)`` defines the state
#: ``(|first> + sign |second>) / sqrt 2`` on two basis indices.
BELL_TERMS: dict[BellLabel, tuple[int, int, float]] = {
    BellLabel.PHI_PLUS: (0, 3, 1.0),
    BellLabel.PHI_MINUS: (0, 3, -1.0),
    BellLabel.PSI_PLUS: (1, 2, 1.0),
    BellLabel.PSI_MINUS: (1, 2, -1.0),
}


def ideal_correlator(label: BellLabel, alpha: float, beta: float) -> float:
    """E(alpha, beta) of the maximal state of ``label`` at polarization
    angles ``alpha``, ``beta`` (radians): ``sign sin 2alpha sin 2beta + z
    cos 2alpha cos 2beta``, ``sign`` the relative sign of its terms and ``z``
    +1 for phi, -1 for psi (``T = diag(sign, -sign z, z)``).  Bob's key
    flip and the canonical CHSH signs are read from it."""
    first, _, sign = BELL_TERMS[label]
    z = 1.0 if first == 0 else -1.0
    a, b = 2.0 * alpha, 2.0 * beta
    return sign * math.sin(a) * math.sin(b) + z * math.cos(a) * math.cos(b)


def _frozen_array(x, shape, dtype=complex) -> np.ndarray:
    """A read-only copy, returned as a view so that its ``writeable`` flag
    cannot be set again: states and memoized arrays are shared."""
    arr = np.asarray(x, dtype=dtype).reshape(shape).copy()
    arr.flags.writeable = False
    return arr.view()


def checked_bloch(rho) -> np.ndarray:
    """The Pauli correlation matrix ``C`` of each density operator of a
    ``(..., 4, 4)`` stack, after the four invariant checks.

    Each check is one call over the whole stack, in this order: every
    entry is finite, every matrix is Hermitian (``|rho - rho^dagger| <=
    HERMITICITY_ATOL`` entrywise), has trace 1 (within ``10 * TRACE_ATOL``)
    and is positive semidefinite (lowest eigenvalue >= ``-PSD_ATOL``).  A
    failure is an :class:`InvariantViolation` with the check's own message,
    quoting the first failing matrix, so a stack fails as its first bad
    state alone would.  ``C`` is one ``(16, 16) @ (16, 1)`` product per
    matrix, the same bits whatever the stack.
    """
    rho = np.asarray(rho, dtype=complex)
    if not np.isfinite(rho).all():
        raise InvariantViolation("density matrix has a non-finite entry")
    if np.abs(rho - rho.conj().swapaxes(-1, -2)).max(initial=0.0) > HERMITICITY_ATOL:
        raise InvariantViolation("density matrix is not Hermitian")
    traces = rho.trace(axis1=-2, axis2=-1).real
    if (off := np.abs(traces - 1.0) > 10 * TRACE_ATOL).any():
        raise InvariantViolation(f"density matrix has trace {float(traces[off][0])!r}, expected 1")
    lowest = np.linalg.eigvalsh(rho)[..., 0]
    if (negative := lowest < -PSD_ATOL).any():
        raise InvariantViolation(
            f"density matrix is not positive semidefinite (lowest eigenvalue {float(lowest[negative][0]):.3e})"
        )
    # Tr(rho P) = sum rho * conj(P) for Hermitian P.  Contiguous, as a
    # state's own C is, so later products meet a stack in the same layout.
    bloch = _PAULI_PAIRS_CONJ @ rho.reshape(*rho.shape[:-2], 16, 1)
    return np.ascontiguousarray(bloch.real).reshape(rho.shape)


def density(bloch) -> np.ndarray:
    """``rho = 1/4 sum_mn C[m, n] sigma_m x sigma_n`` of each ``C`` of a
    ``(..., 4, 4)`` stack: one ``(1, 16) @ (16, 16)`` product per matrix,
    the same bits whatever the stack.  Unchecked: :func:`checked_bloch`
    reads the result back."""
    bloch = np.asarray(bloch, dtype=float)
    return (bloch.reshape(*bloch.shape[:-2], 1, 16) @ _PAULI_PAIRS).reshape(*bloch.shape[:-2], 4, 4) / 4.0


@dataclass(frozen=True, eq=False)
class TwoQubitState:
    """A 4x4 density operator on the polarization product basis.

    The constructor runs :func:`checked_bloch`, whose four checks each
    raise an :class:`InvariantViolation` with its own message, and keeps
    its ``C`` as ``bloch``, the real Pauli correlation matrix every
    probability is read from (see the module conventions).  Instances are
    immutable and safe to share between parallel workers.
    """

    rho: np.ndarray
    bloch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        rho = np.asarray(self.rho, dtype=complex).reshape(4, 4)
        bloch = checked_bloch(rho)
        object.__setattr__(self, "rho", _frozen_array(rho, (4, 4)))
        object.__setattr__(self, "bloch", _frozen_array(bloch, (4, 4), dtype=float))

    def __reduce__(self):
        """Pickle as the constructor call, so that a loaded state is checked
        and frozen again (pickle alone would return writeable arrays)."""
        return type(self), (self.rho,)

    @classmethod
    def from_bloch(cls, bloch) -> "TwoQubitState":
        """The state of ``C = bloch``: its :func:`density`, checked."""
        return cls(density(np.reshape(bloch, (4, 4))))

    def purity(self) -> float:
        """Tr(rho^2); 1 for pure states, 1/4 for the maximally mixed state."""
        return float(np.trace(self.rho @ self.rho).real)


@dataclass(frozen=True)
class JointDistribution:
    """Probabilities of the four joint analyzer outcomes.

    Outcome order is ``(++, +-, -+, --)`` where the first slot is Alice's
    port and "+" means transmission along the analyzer axis.
    """

    p_pp: float
    p_pm: float
    p_mp: float
    p_mm: float

    def __post_init__(self) -> None:
        probs = (self.p_pp, self.p_pm, self.p_mp, self.p_mm)
        if min(probs) < -1e-9:
            raise InvariantViolation(f"negative outcome probability in {probs}")
        if abs(sum(probs) - 1.0) > 1e-9:
            raise InvariantViolation(f"outcome probabilities sum to {sum(probs)!r}")
        # Clip floating-point dust so downstream samplers see exact simplex points.
        for name, p in zip(("p_pp", "p_pm", "p_mp", "p_mm"), probs):
            object.__setattr__(self, name, min(max(float(p), 0.0), 1.0))

    def as_array(self) -> np.ndarray:
        return np.array([self.p_pp, self.p_pm, self.p_mp, self.p_mm])

    def correlator(self) -> float:
        """E = p(++) + p(--) - p(+-) - p(-+)."""
        return self.p_pp + self.p_mm - self.p_pm - self.p_mp


def born_table(bloch: np.ndarray, pairs: "Iterable[tuple[AnalyzerSetting, AnalyzerSetting]]") -> np.ndarray:
    """Outcome probabilities ``(++, +-, -+, --)`` of each (Alice, Bob) setting pair.

    ``bloch`` is a correlation matrix ``C`` (``state.bloch``), or a
    ``(..., 4, 4)`` stack of them.  Row ``k`` of the ``(..., len(pairs),
    4)`` result is ``p(s_a, s_b) = 1/4 (1, s_a a) C (1, s_b b)^T`` at pair
    ``k``, clipped to [0, 1] so samplers see simplex points.  Every matrix
    of a stack takes the products a single ``C`` takes, so its rows are the
    same bits.
    """
    pairs = tuple(pairs)
    bloch = np.asarray(bloch, dtype=float)
    a, b = _port_vectors(a for a, _ in pairs), _port_vectors(b for _, b in pairs)
    lead = bloch.shape[:-2]
    p = (a @ bloch).reshape(*lead, len(pairs), 2, 4) @ b.reshape(-1, 2, 4).transpose(0, 2, 1) / 4.0
    return np.clip(p.reshape(*lead, len(pairs), 4), 0.0, 1.0)


def _port_vectors(settings: "Iterable[AnalyzerSetting]") -> np.ndarray:
    """Rows ``(1, a)`` then ``(1, -a)`` per setting: its "+" and "-" ports."""
    return _port_vectors_of(tuple(settings))


@functools.lru_cache(maxsize=64)
def _port_vectors_of(settings: "tuple[AnalyzerSetting, ...]") -> np.ndarray:
    angle = 2.0 * np.array([s.polarization_angle_rad for s in settings])
    rows = np.zeros((angle.size, 2, 4))
    rows[:, :, 0] = 1.0
    rows[:, 0, 1] = np.sin(angle)
    rows[:, 0, 3] = np.cos(angle)
    np.negative(rows[:, 0, 1:], out=rows[:, 1, 1:])
    return _frozen_array(rows, (-1, 4), dtype=float)


def joint_probabilities(
    state: TwoQubitState, a: "AnalyzerSetting", b: "AnalyzerSetting"
) -> JointDistribution:
    """Born-rule outcome probabilities for one pair of linear analyzers.

    Row 0 of a one-pair :func:`born_table`.
    """
    return JointDistribution(*born_table(state.bloch, ((a, b),))[0])
