"""BBM92 and E91 session engines.

A session draws the counts of its cells, not its pairs one by one, with
:func:`~ebqkd.measurement.sample_outcome_stream`: the coincidences among
the emitted pairs (binomial), their (setting pair, outcome) cells
(multinomial; the setting pair is uniform, the same as independent
uniform bases for Alice and Bob), then Poisson accidentals spread over the
cells by a second multinomial.  Only the sifted coincidences (matched
bases) are expanded into a stream, one uint8 cell each, and shuffled; the
first ones form the disclosed random sample that estimates the QBER (those
bits are consumed), the rest the key.  Pairs are independent, so given the
counts the sifted stream is a uniformly random arrangement of its cells,
which is what the shuffle draws.  E91 additionally routes the four
designated unmatched setting combinations into a CHSH estimate.

Bit mapping: the transmitted port is bit 0.  Bob inverts his bit in a
matched basis exactly when the session's ideal Bell state is
anticorrelated there (singlet: every basis; psi+: H/V; phi-: D/A).  Every
family then yields agreeing keys in BBM92 on a noiseless channel; in E91,
phi- and psi+ are uncorrelated in the 22.5-degree key basis, whose bits
agree only by chance (QBER 0.5).

Cell index: cell ``(a * n_b + b) * 4 + outcome`` (setting indices ``a``,
``b``; outcome 0..3 for ``++, +-, -+, --``) counts the coincidences of one
setting pair and outcome.  In the sifted stream a cell's setting pair
``cell >> 2`` decides, by uint8 compares, whether Bob flips its bit;
``cell >> 1 & 1`` and ``cell & 1`` are the raw bits.  The CHSH rows of the
counts table are the cell counts, the matched rows a bincount of the
disclosed cells.

:func:`estimate` is the one estimator behind ``sweep``, ``session`` and
``analyze``: it turns a :class:`~ebqkd.measurement.CoincidenceTable` into
S, the per-basis and pooled QBER and the security report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import chsh, optics, security
from .measurement import (
    AnalyzerSetting,
    CoincidenceRow,
    CoincidenceTable,
    DetectorModel,
    bob_flip,
    intercept_resend,
    sample_outcome_stream,
    wrong_outcomes,
)
from .optics import ChannelModel, SourceModel
from .qstate import BellLabel


class EmptyBasisError(ValueError):
    """A key basis holds no coincidences, so its QBER is undefined."""


class NoSiftedBitsError(EmptyBasisError):
    """A session produced no compatible-basis coincidences."""


class KeyMemoryError(MemoryError):
    """A session's sifted coincidences do not fit in memory."""


@dataclass(frozen=True)
class ProtocolKind:
    """Measurement-basis layout of one protocol variant.

    ``chsh_pairs`` lists the (Alice index, Bob index) combinations whose
    outcomes feed the security CHSH test (E91 only).  The layout must have
    two matched bases: the lower polarization angle carries the bit
    errors, the other the phase errors.
    """

    name: str
    alice_hwp_deg: tuple[float, ...]
    bob_hwp_deg: tuple[float, ...]
    chsh_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if len(self.alice_hwp_deg) * len(self.bob_hwp_deg) > 63:
            raise ValueError("a protocol layout has at most 63 setting pairs (uint8 cells)")

    def alice_settings(self) -> tuple[AnalyzerSetting, ...]:
        return tuple(AnalyzerSetting(t) for t in self.alice_hwp_deg)

    def bob_settings(self) -> tuple[AnalyzerSetting, ...]:
        return tuple(AnalyzerSetting(t) for t in self.bob_hwp_deg)

    def matched_pairs(self) -> tuple[tuple[int, int], ...]:
        """Setting-index pairs with equal polarization angles (key events)."""
        matches = []
        for i, ta in enumerate(self.alice_hwp_deg):
            for j, tb in enumerate(self.bob_hwp_deg):
                if abs((2 * ta) % 180.0 - (2 * tb) % 180.0) < 1e-9:
                    matches.append((i, j))
        return tuple(matches)

    def key_pairs(self) -> tuple[tuple[AnalyzerSetting, AnalyzerSetting], ...]:
        """(Alice, Bob) settings of each matched basis, as ``matched_pairs``."""
        alice, bob = self.alice_settings(), self.bob_settings()
        return tuple((alice[i], bob[j]) for i, j in self.matched_pairs())


#: Both parties measure in {H/V, D/A}.
BBM92 = ProtocolKind("bbm92", (0.0, 22.5), (0.0, 22.5))

#: Three bases per party; the outer combinations form the CHSH test at the
#: canonical polarization angles (0, 45) x (22.5, 67.5).
E91 = ProtocolKind(
    "e91",
    (0.0, 11.25, 22.5),
    (11.25, 22.5, 33.75),
    chsh_pairs=((0, 0), (0, 2), (2, 0), (2, 2)),
)

#: Every protocol variant, by name.
PROTOCOLS = {k.name: k for k in (BBM92, E91)}


def protocol_by_name(name: str) -> ProtocolKind:
    try:
        return PROTOCOLS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown protocol {name!r}; expected one of {sorted(PROTOCOLS)}")


#: Largest mean that numpy's Poisson sampler accepts ("lam value too large"
#: above it).
_POISSON_LAM_MAX = float(np.iinfo(np.int64).max - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class SessionConfig:
    kind: ProtocolKind
    source: SourceModel
    channel: ChannelModel = ChannelModel.identity()
    detector: DetectorModel = DetectorModel()
    n_pairs: int = 100_000
    qber_sample_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.n_pairs < 2**63:
            raise ValueError(f"n_pairs must be in [1, 2**63), got {self.n_pairs!r}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed!r}")
        if not 0.0 < self.qber_sample_fraction < 1.0:
            raise ValueError(
                f"qber_sample_fraction must be in (0, 1), got {self.qber_sample_fraction!r}"
            )
        accidentals = self.detector.expected_accidentals(self.n_pairs)
        if not accidentals <= _POISSON_LAM_MAX:
            raise ValueError(
                f"detector.dark_rate gives {accidentals:.6g} expected accidental coincidences"
                f" over {self.n_pairs} pairs, above the Poisson sampler's limit {_POISSON_LAM_MAX:.6g}"
            )


@dataclass(frozen=True)
class SessionRecord:
    """Outcome of one protocol session.

    ``per_basis_qber`` is keyed by the matched polarization angle in
    degrees (0.0 is H/V, 45.0 is D/A for BBM92).  Disclosed QBER-sample
    bits are removed from the keys, so
    ``disclosed_length + len(key_bits_alice) == sifted_length``.
    ``counts`` is the table the estimates come from: the CHSH setting
    pairs over every coincidence, the matched bases over the disclosed
    sample only.  ``report`` is the security evaluation of that table.
    """

    n_pairs: int
    n_coincident: int
    sifted_length: int
    disclosed_length: int
    qber_hat: float
    qber_ci: tuple[float, float]
    per_basis_qber: dict[float, float]
    chsh_subset: chsh.ChshEstimate | None
    key_bits_alice: np.ndarray
    key_bits_bob: np.ndarray
    counts: CoincidenceTable
    report: security.SecurityReport


@dataclass(frozen=True)
class SiftResult:
    cells: np.ndarray
    bits_alice: np.ndarray
    bits_bob: np.ndarray


def _in_pairs(cells: np.ndarray, pairs: tuple[tuple[int, int], ...], n_b: int) -> np.ndarray:
    """Mask of the cells whose setting pair ``cell >> 2`` is one of ``pairs``.

    One uint8 compare per pair: a lookup table indexed by the cells would
    first copy them to an intp array, eight bytes per cell.
    """
    setting_pair = cells >> 2
    mask = np.zeros(len(cells), dtype=bool)
    for i, j in pairs:
        mask |= setting_pair == i * n_b + j
    return mask


def sift(kind: ProtocolKind, label: BellLabel, cells: np.ndarray) -> SiftResult:
    """Keep matched-basis events and map outcomes to key bits.

    ``cells`` holds one uint8 cell index per coincidence (see the module
    docstring); the result holds the matched-basis cells in stream order
    and their bits.  The setting pair ``cell >> 2`` decides both whether a
    cell is kept and whether Bob flips its bit.  Deterministic and
    order-preserving; sifting looks only at the announced setting pair,
    never at outcomes.
    """
    n_b = len(kind.bob_hwp_deg)
    matched = kind.matched_pairs()
    flipped = tuple((i, j) for i, j in matched if bob_flip(label, math.radians(2.0 * kind.alice_hwp_deg[i])))
    kept = cells[_in_pairs(cells, matched, n_b)]
    bits_alice = kept >> 1
    bits_alice &= 1
    bits_bob = kept & 1
    bits_bob ^= _in_pairs(kept, flipped, n_b)
    return SiftResult(kept, bits_alice, bits_bob)


def _wilson_interval(errors: int, n: int, z: float = 1.96) -> tuple[float, float]:
    if n == 0:
        return (0.0, 1.0)
    p = errors / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


def run_session(cfg: SessionConfig) -> SessionRecord:
    """Run a full protocol session; identical configs give identical records.

    Raises:
        KeyMemoryError: if the sifted coincidences do not fit in memory.
        NoSiftedBitsError: if no compatible-basis coincidence survived.
        EmptyBasisError: if the disclosed sample misses a matched basis.
        chsh.IncompleteTableError: if an E91 CHSH setting pair saw no
            coincidence.
    """
    rng = np.random.default_rng(cfg.seed)
    state = optics.apply_channel(optics.generate(cfg.source), cfg.channel)
    alice, bob = cfg.kind.alice_settings(), cfg.kind.bob_settings()
    n_b, n_cells = len(bob), len(alice) * len(bob) * 4

    # Fixed draw order, part of the reproducibility contract: the cell
    # counts of all n_pairs pairs (sample_outcome_stream's own order), then
    # the shuffle of the sifted cells.
    joint = intercept_resend(state, alice, bob, cfg.channel.eve_fraction)
    every_pair = np.broadcast_to(np.uint8(0), (cfg.n_pairs,))  # read for its length
    counts = sample_outcome_stream(joint, every_pair, rng, cfg.detector)
    n_coincident = sum(counts)

    matched = cfg.kind.matched_pairs()
    sifted_cells = [4 * (i * n_b + j) + k for i, j in matched for k in range(4)]
    sifted_counts = [counts[c] for c in sifted_cells]
    n_sifted = sum(sifted_counts)
    if n_sifted == 0:
        raise NoSiftedBitsError(
            f"no sifted bits: {n_coincident} coincidences, none in matched bases"
        )
    try:
        if n_sifted >= 2**63:  # np.repeat would wrap the total
            raise MemoryError
        stream = np.repeat(np.array(sifted_cells, dtype=np.uint8), sifted_counts)
    except MemoryError:
        raise KeyMemoryError(
            f"n_pairs {cfg.n_pairs} at detector.dark_rate {cfg.detector.dark_rate:g}"
            f" give {n_sifted} sifted coincidences, which do not fit in memory"
        ) from None
    rng.shuffle(stream)

    n_disclose = max(1, int(round(cfg.qber_sample_fraction * n_sifted)))
    disclosed_counts = np.bincount(stream[:n_disclose], minlength=n_cells).tolist()
    sifted = sift(cfg.kind, cfg.source.label, stream[n_disclose:])
    rows = ((matched, disclosed_counts), (cfg.kind.chsh_pairs, counts))
    table = CoincidenceTable(tuple(
        CoincidenceRow(alice[i], bob[j], *cells[4 * (i * n_b + j):4 * (i * n_b + j + 1)])
        for pairs, cells in rows
        for i, j in pairs
    ))
    settings = chsh.canonical_settings(cfg.source.label) if cfg.kind.chsh_pairs else None
    est = estimate(table, cfg.source.label, cfg.kind, settings)
    return SessionRecord(
        n_pairs=cfg.n_pairs,
        n_coincident=n_coincident,
        sifted_length=n_sifted,
        disclosed_length=n_disclose,
        qber_hat=est.qber,
        qber_ci=est.qber_ci,
        per_basis_qber=est.per_basis_qber,
        chsh_subset=est.chsh,
        key_bits_alice=sifted.bits_alice,
        key_bits_bob=sifted.bits_bob,
        counts=table,
        report=est.report,
    )


@dataclass(frozen=True)
class Estimate:
    """Everything one count table says about a link.

    ``chsh`` is None when no CHSH settings were given; ``per_basis_qber``
    is keyed by the matched polarization angle in degrees; ``qber`` pools
    both matched bases and ``qber_ci`` is its 95% Wilson interval.
    """

    chsh: chsh.ChshEstimate | None
    per_basis_qber: dict[float, float]
    qber: float
    qber_ci: tuple[float, float]
    report: security.SecurityReport


def estimate(
    table: CoincidenceTable,
    label: BellLabel,
    kind: ProtocolKind,
    settings: chsh.ChshSettings | None = None,
) -> Estimate:
    """CHSH value, QBERs and security report from one coincidence table.

    The table must hold a row per matched basis of ``kind``; key errors
    are counted against the ideal state of ``label`` (see
    :func:`~ebqkd.measurement.wrong_outcomes`).  With ``settings`` the
    table must also hold the four CHSH rows and Eve's bound uses the
    measured S; without, the linear disturbance law stands in.

    Raises:
        chsh.IncompleteTableError: a required row is missing, or a CHSH
            row is empty.
        EmptyBasisError: a matched basis holds no coincidences.
    """
    per_basis: dict[float, float] = {}
    n_wrong = n_total = 0
    for a, b in kind.key_pairs():
        pol = a.polarization_angle_deg % 180.0
        row = table.find(a, b)
        if row is None:
            raise chsh.IncompleteTableError(
                f"coincidence table is missing the key basis at {pol:g} deg polarization"
            )
        if row.total == 0:
            raise EmptyBasisError(
                f"zero coincidences in the compatible basis at {pol:g} deg polarization"
            )
        counts = row.counts()
        wrong = sum(counts[k] for k in wrong_outcomes(label, math.radians(pol)))
        per_basis[pol] = wrong / row.total
        n_wrong += wrong
        n_total += row.total
    s_est = chsh.s_from_counts(table, settings) if settings is not None else None
    e_b, e_p = (per_basis[pol] for pol in sorted(per_basis))
    return Estimate(
        chsh=s_est,
        per_basis_qber=per_basis,
        qber=n_wrong / n_total,
        qber_ci=_wilson_interval(n_wrong, n_total),
        report=security.evaluate(e_b, e_p, s=None if s_est is None else s_est.s),
    )


def security_report(cfg: SessionConfig, record: SessionRecord) -> security.SecurityReport:
    """Security evaluation of a finished session, from its count table.

    Eve's bound uses the session's measured CHSH value when the protocol
    provides one, otherwise the linear disturbance law.  :func:`run_session`
    already evaluated it; this returns ``record.report``.
    """
    return record.report
