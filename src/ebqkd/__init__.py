"""Entanglement-based QKD simulation and security analysis.

Models the source/channel/measurement chain of BBM92 and E91 sessions with
non-maximally entangled photon pairs, estimates the Bell-CHSH parameter
and QBER from simulated or ingested coincidence counts, and evaluates
mutual informations, the secret key rate and safe-operation thresholds.
"""

from .chsh import (
    ChshEstimate,
    ChshSettings,
    TSIRELSON,
    canonical_settings,
    s_analytic,
    s_from_counts,
    s_optimal,
)
from .measurement import (
    AnalyzerSetting,
    CoincidenceRow,
    CoincidenceTable,
    DetectorModel,
    sample_outcomes,
)
from .optics import (
    ChannelKind,
    ChannelModel,
    SourceModel,
    apply_channel,
    bell_state,
    generate,
    werner_state,
)
from .protocol import BBM92, E91, SessionConfig, SessionRecord, run_session, sift
from .qstate import (
    BellLabel,
    InvariantViolation,
    JointDistribution,
    TwoQubitState,
    joint_probabilities,
)
from .security import (
    SecurityReport,
    Thresholds,
    binary_entropy,
    evaluate,
    key_rate,
    mi_alice_bob_from_errors,
    mi_alice_eve,
    s_model,
    thresholds,
)

__version__ = "0.1.0"

__all__ = [
    "AnalyzerSetting",
    "BBM92",
    "BellLabel",
    "ChannelKind",
    "ChannelModel",
    "ChshEstimate",
    "ChshSettings",
    "CoincidenceRow",
    "CoincidenceTable",
    "DetectorModel",
    "E91",
    "InvariantViolation",
    "JointDistribution",
    "SecurityReport",
    "SessionConfig",
    "SessionRecord",
    "SourceModel",
    "Thresholds",
    "TSIRELSON",
    "TwoQubitState",
    "apply_channel",
    "bell_state",
    "binary_entropy",
    "canonical_settings",
    "evaluate",
    "generate",
    "joint_probabilities",
    "key_rate",
    "mi_alice_bob_from_errors",
    "mi_alice_eve",
    "run_session",
    "s_analytic",
    "s_from_counts",
    "s_model",
    "s_optimal",
    "sample_outcomes",
    "sift",
    "thresholds",
    "werner_state",
]
