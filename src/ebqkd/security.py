"""Information-theoretic security quantities.

Binary entropy, the CHSH-based bound on Eve's information, Alice-Bob
mutual information from bit and phase error rates, the secret key rate,
the linear disturbance law S = 2*sqrt(2) (1 - 2 delta), and the QBER
thresholds it implies.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache


S_CLASSICAL = 2.0
#: Quantum-mechanical ceiling on |S| (Tsirelson bound); also ``chsh.TSIRELSON``.
S_QUANTUM_MAX = 2.0 * math.sqrt(2.0)

#: QBER where the linear disturbance law crosses S = 2 (individual attacks).
DELTA_INDIVIDUAL = (1.0 - 1.0 / math.sqrt(2.0)) / 2.0

_BISECT_XTOL = 1e-6
#: ``scipy.optimize.bisect``'s defaults: relative tolerance 4 eps, 100 halvings.
_BISECT_RTOL = 4.0 * sys.float_info.epsilon
_BISECT_MAXITER = 100


def binary_entropy(p: float) -> float:
    """H(p) = -p log2 p - (1-p) log2 (1-p), with H(0) = H(1) = 0.

    Raises:
        ValueError: if ``p`` is outside [0, 1].
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability must be in [0, 1], got {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def mi_alice_eve(s: float) -> float:
    """Upper bound on Eve's information given an observed CHSH value.

    ``I(A:E) = H((1 + sqrt(S^2/4 - 1)) / 2)``: zero at the Tsirelson bound
    and one full bit at the classical bound S = 2.  Sampled S below 2 makes
    the square root imaginary; the bound then saturates at 1 bit (callers
    can flag this via ``s < 2``, see ``SecurityReport.subclassical_s``).

    Raises:
        ValueError: if ``s`` exceeds the Tsirelson bound.
    """
    if s > S_QUANTUM_MAX + 1e-9:
        raise ValueError(f"S={s!r} exceeds the quantum maximum 2*sqrt(2)")
    if s < S_CLASSICAL:
        return 1.0
    s = min(s, S_QUANTUM_MAX)
    return binary_entropy((1.0 + math.sqrt(s * s / 4.0 - 1.0)) / 2.0)


def mi_alice_bob_from_errors(e_b: float, e_p: float) -> float:
    """I(A:B) = 1 - H(e_b) - H(e_p) from bit and phase error rates.

    Reported as computed; the value goes negative for large errors and the
    security verdicts only ever treat r > 0 as secure.
    """
    return 1.0 - binary_entropy(e_b) - binary_entropy(e_p)


def key_rate(i_ab: float, i_ae: float) -> float:
    """Secret key rate per sifted bit, r = I(A:B) - I(A:E)."""
    return i_ab - i_ae


def s_model(delta: float) -> float:
    """Linear disturbance law S = 2*sqrt(2) (1 - 2 delta).

    ``delta`` is the basis-averaged QBER in [0, 0.5].
    """
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must be in [0, 0.5], got {delta!r}")
    return S_QUANTUM_MAX * (1.0 - 2.0 * delta)


@dataclass(frozen=True)
class Thresholds:
    """Safe-operation QBER thresholds and the S values they map to."""

    delta_individual: float
    delta_collective: float
    delta_mi_zero: float
    s_at_individual: float
    s_at_collective: float
    s_at_mi_zero: float


def _bisect(f, a: float, b: float, xtol: float) -> float:
    """Root of ``f`` in ``[a, b]`` by bisection, step for step as scipy's.

    A port of ``scipy.optimize.bisect`` at its default ``rtol`` and
    ``maxiter``, so every root is the same float: halve the step ``dm``,
    move ``a`` to the midpoint while ``f`` there has the sign of ``f(a)``,
    and stop at an exact zero or once ``|dm| < xtol + rtol |midpoint|``.

    Raises:
        ValueError: if ``f(a)`` and ``f(b)`` have the same sign, or ``f``
            returns NaN.
        RuntimeError: if the bracket is not resolved in 100 halvings.
    """

    def value(x: float) -> float:
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    fa, fb = value(a), value(b)
    if fa * fb > 0:
        raise ValueError("f(a) and f(b) must have different signs")
    if fa == 0:
        return a
    if fb == 0:
        return b
    dm = b - a
    for _ in range(_BISECT_MAXITER):
        dm *= 0.5
        xm = a + dm
        fm = value(xm)
        if fm * fa >= 0:
            a = xm
        if fm == 0 or abs(dm) < xtol + _BISECT_RTOL * abs(xm):
            return xm
    raise RuntimeError(f"bisection did not converge in {_BISECT_MAXITER} iterations")


@lru_cache(maxsize=1)
def thresholds() -> Thresholds:
    """Solve the three QBER thresholds.

    * ``delta_individual``: S(delta) = 2, i.e. (1 - 1/sqrt(2))/2, analytic.
    * ``delta_collective``: root of 1 - 2 H(delta) (key rate against
      collective attacks hits zero), by bisection.
    * ``delta_mi_zero``: root of 1 - 2 H(delta) - I(A:E)(S(delta)), the
      crossing of the two mutual-information curves, by bisection.

    Bisection (:func:`_bisect`) uses a fixed bracket and 1e-6 tolerance;
    the entropy derivative is singular at 0, so derivative-based methods
    are avoided.
    """
    delta_collective = _bisect(lambda d: 1.0 - 2.0 * binary_entropy(d), 1e-12, 0.5, _BISECT_XTOL)
    delta_mi_zero = _bisect(
        lambda d: 1.0 - 2.0 * binary_entropy(d) - mi_alice_eve(s_model(d)),
        1e-12,
        0.25,
        _BISECT_XTOL,
    )
    return Thresholds(
        delta_individual=DELTA_INDIVIDUAL,
        delta_collective=delta_collective,
        delta_mi_zero=delta_mi_zero,
        s_at_individual=s_model(DELTA_INDIVIDUAL),
        s_at_collective=s_model(delta_collective),
        s_at_mi_zero=s_model(delta_mi_zero),
    )


@dataclass(frozen=True)
class SecurityReport:
    """Security quantities and verdicts for one measured operating point.

    ``s`` is the CHSH value used for Eve's bound (measured when available,
    otherwise the linear-law prediction ``s_model_value``); verdicts follow
    the stored numbers: individual bound delta < ~14.6%, collective bound
    delta < ~11%, and a positive key rate.  ``s_above_tsirelson`` is true
    when the measured S exceeded 2 sqrt(2) and ``s`` holds the clamped
    value, so the report does not pass off a fluctuation as a measurement.
    """

    e_b: float
    e_p: float
    delta: float
    s: float
    s_model_value: float
    i_ab: float
    i_ae: float
    r: float
    subclassical_s: bool
    s_above_tsirelson: bool
    individual_bound_ok: bool
    collective_bound_ok: bool
    mi_positive: bool


def evaluate(e_b: float, e_p: float, s: float | None = None) -> SecurityReport:
    """Build a :class:`SecurityReport` from measured error rates.

    Args:
        e_b: bit error rate (key basis).
        e_p: phase error rate (conjugate basis).
        s: measured CHSH value; when omitted the linear law at the
            basis-averaged QBER stands in.  Values above the Tsirelson
            bound (statistical fluctuation) are clamped down to it and
            flagged in ``s_above_tsirelson``.
    """
    for name, e in (("e_b", e_b), ("e_p", e_p)):
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"{name} must be in [0, 1], got {e!r}")
    delta = 0.5 * (e_b + e_p)
    s_pred = s_model(delta) if delta <= 0.5 else 0.0
    s_used = min(s, S_QUANTUM_MAX) if s is not None else s_pred
    i_ab = mi_alice_bob_from_errors(e_b, e_p)
    i_ae = mi_alice_eve(s_used)
    r = key_rate(i_ab, i_ae)
    thr = thresholds()
    return SecurityReport(
        e_b=e_b,
        e_p=e_p,
        delta=delta,
        s=s_used,
        s_model_value=s_pred,
        i_ab=i_ab,
        i_ae=i_ae,
        r=r,
        subclassical_s=s_used < S_CLASSICAL,
        s_above_tsirelson=s is not None and s > S_QUANTUM_MAX,
        individual_bound_ok=delta < thr.delta_individual,
        collective_bound_ok=delta < thr.delta_collective,
        mi_positive=r > 0.0,
    )
