"""Source and channel models.

The photon-pair source produces a chosen Bell state whose maximality is
degraded two ways: an amplitude imbalance between the two superposition
terms and a partial-distinguishability (HOM-visibility) factor that
dephases the coherence between them.  Channels add a Werner-style
depolarizing disturbance or tag the stream for an intercept-resend attack
that is realized at the sampling level.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .qstate import BELL_TERMS, BellLabel, TwoQubitState, echo


@dataclass(frozen=True)
class SourceModel:
    """Photon-pair source emitting one Bell-state family.

    Args:
        label: which Bell state the optics are arranged to produce.
        epsilon_rad: amplitude imbalance in [0, pi/2]; pi/4 is maximal.
        hom_visibility: HOM-dip visibility in [0, 1].  Partial photon
            distinguishability (V < 1) dephases the two-term coherence:
            populations stay fixed by ``epsilon_rad`` while the
            off-diagonal terms are scaled by V.
    """

    label: BellLabel
    epsilon_rad: float = math.pi / 4
    hom_visibility: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon_rad <= math.pi / 2:
            raise ValueError(f"epsilon_rad must be in [0, pi/2], got {self.epsilon_rad!r}")
        if not 0.0 <= self.hom_visibility <= 1.0:
            raise ValueError(f"hom_visibility must be in [0, 1], got {self.hom_visibility!r}")


class ChannelKind(enum.Enum):
    IDENTITY = "identity"
    DEPOLARIZING = "depolarizing"
    INTERCEPT_RESEND = "intercept_resend"


@dataclass(frozen=True)
class ChannelModel:
    """Disturbance applied between source and analyzers.

    ``DEPOLARIZING`` with ``arm="both"`` is the Werner form
    ``rho -> (1-p) rho + p I/4`` (Werner weight W = 1 - p); ``arm="a"`` or
    ``"b"`` depolarizes a single arm towards its marginal.
    ``INTERCEPT_RESEND`` only tags the stream here.  With Eve's records
    discarded the attack is a per-pair CP map on Bob's arm, but the
    sampling layer applies it (:mod:`ebqkd.measurement`): the benchmark's
    session check applies :func:`apply_channel` and then Eve's average.
    """

    kind: ChannelKind = ChannelKind.IDENTITY
    parameter: float = 0.0
    arm: str = "both"

    def __post_init__(self) -> None:
        if not 0.0 <= self.parameter <= 1.0:
            raise ValueError(f"parameter must be in [0, 1], got {self.parameter!r}")
        if self.arm not in ("a", "b", "both"):
            raise ValueError(f"arm must be 'a', 'b' or 'both', got {echo(repr(self.arm))}")

    @classmethod
    def identity(cls) -> "ChannelModel":
        return cls(ChannelKind.IDENTITY)

    @classmethod
    def depolarizing(cls, p: float, arm: str = "both") -> "ChannelModel":
        return cls(ChannelKind.DEPOLARIZING, p, arm)

    @classmethod
    def werner(cls, w: float) -> "ChannelModel":
        """Symmetric depolarizing channel with Werner weight ``w``."""
        return cls(ChannelKind.DEPOLARIZING, 1.0 - w, "both")

    @classmethod
    def intercept_resend(cls, fraction: float) -> "ChannelModel":
        return cls(ChannelKind.INTERCEPT_RESEND, fraction)

    @property
    def eve_fraction(self) -> float:
        return self.parameter if self.kind is ChannelKind.INTERCEPT_RESEND else 0.0


def generate(source: SourceModel) -> TwoQubitState:
    """Post-selected two-photon polarization state of the source.

    The pure state ``cos(eps)|first> +/- sin(eps)|second>`` on the label's
    two basis terms (e.g. ``cos(eps)|HH> + sin(eps)|VV>`` for phi+), with
    the coherence between them scaled by the HOM visibility V.  With V = 1
    and epsilon = pi/4 this is the exact Bell state; epsilon = 0 is a
    product state.  Coherence magnitude is nondecreasing in V for fixed
    epsilon, and the output is always a valid density operator.
    """
    first, second, sign = BELL_TERMS[source.label]
    c, s = complex(math.cos(source.epsilon_rad)), complex(sign * math.sin(source.epsilon_rad))
    rho = np.zeros((4, 4), dtype=complex)  # |amp><amp| has four nonzero entries
    rho[first, first] = c * c.conjugate()
    rho[second, second] = s * s.conjugate()
    rho[first, second] = c * s.conjugate() * source.hom_visibility
    rho[second, first] = s * c.conjugate() * source.hom_visibility
    return TwoQubitState(rho)


def apply_channel(state: TwoQubitState, channel: ChannelModel) -> TwoQubitState:
    """Propagate a state through the channel (a deterministic map).

    Depolarizing scales the Pauli correlation matrix ``C`` by ``1 - p``:
    Alice's rows 1..3 for ``arm="a"``, Bob's columns 1..3 for ``"b"`` and
    every entry but ``C[0, 0]`` for ``"both"``.
    """
    if channel.kind in (ChannelKind.IDENTITY, ChannelKind.INTERCEPT_RESEND):
        # Intercept-resend is a tag only; per-pair attack statistics live in the sampling layer.
        return state
    keep = 1.0 - channel.parameter
    c = state.bloch.copy()
    if channel.arm == "a":
        c[1:, :] *= keep
    elif channel.arm == "b":
        c[:, 1:] *= keep
    else:
        c *= keep
        c[0, 0] = 1.0
    return TwoQubitState.from_bloch(c)


def bell_state(label: BellLabel, epsilon: float = math.pi / 4) -> TwoQubitState:
    """The pure source state of ``label`` with amplitude imbalance ``epsilon`` in [0, pi/2]."""
    return generate(SourceModel(label, epsilon_rad=epsilon))


def werner_state(label: BellLabel, w: float) -> TwoQubitState:
    """Werner mixture w |bell><bell| + (1 - w) I/4 of a maximal Bell state."""
    return apply_channel(generate(SourceModel(label)), ChannelModel.werner(w))
