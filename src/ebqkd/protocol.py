"""BBM92 and E91 session engines.

A session emits entangled pairs in blocks.  Each pair's uniform picks its
setting pair (uniform, the same as independent uniform bases for Alice and
Bob), whether both arms detected it and its joint analyzer outcome
together; of each block only the coincidences that the key or the counts
table can use (matched bases and, for E91, the CHSH setting pairs) are
kept, and the others are only counted.  The session seed gives three
generators: its first child's raw words hold the pairs' 16-bit lanes, four
per word; its second child refines the few pairs whose lane is a bucket
split by a CDF threshold; the session generator itself then draws the
accidentals and the disclosure.  Lanes carry over from block to block and
refinements come in stream order, so the block size does not change the
stream.  The session then sifts on announced bases and estimates the QBER
from a disclosed random subset (those bits are consumed).  E91
additionally routes the four designated unmatched setting combinations
into a CHSH estimate.

Bit mapping: the transmitted port is bit 0.  Bob inverts his bit in a
matched basis exactly when the session's ideal Bell state is
anticorrelated there (singlet: every basis; psi+: H/V; phi-: D/A).  Every
family then yields agreeing keys in BBM92 on a noiseless channel; in E91,
phi- and psi+ are uncorrelated in the 22.5-degree key basis, whose bits
agree only by chance (QBER 0.5).

Cell index: a session carries each pair as one uint8 cell
``(a * n_b + b) * 4 + outcome`` (setting indices ``a``, ``b``; outcome 0..3
for ``++, +-, -+, --``); the cell ``n_cells = n_a * n_b * 4`` means "not
coincident" and is dropped as it is drawn.  A cell's setting pair
``cell >> 2`` decides, by uint8 compares, whether it is kept, sifted and
flipped by Bob; ``cell >> 1 & 1`` and ``cell & 1`` are the raw bits.  The
CHSH rows of the counts table are a bincount of the kept cells, the
matched rows one of the disclosed sifted cells.

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
    PairStream,
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


class AccidentalsMemoryError(MemoryError):
    """A session's accidental coincidences do not fit in memory."""


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


def _complement(n: int, taken: np.ndarray) -> np.ndarray:
    """Mask over ``range(n)`` that is False exactly at the indices in ``taken``."""
    keep = np.ones(n, dtype=bool)
    keep[taken] = False
    return keep


#: Pairs drawn per block by :func:`run_session`; it bounds the block's
#: arrays and changes no draw (a multiple of 4, so that no block leaves a
#: word's lanes over for the next).
_BLOCK = 1 << 17


def run_session(cfg: SessionConfig) -> SessionRecord:
    """Run a full protocol session; identical configs give identical records.

    Raises:
        AccidentalsMemoryError: if the dark rate asks for more accidental
            coincidences than fit in memory.
        NoSiftedBitsError: if no compatible-basis coincidence survived.
        EmptyBasisError: if the disclosed sample misses a matched basis.
        chsh.IncompleteTableError: if an E91 CHSH setting pair saw no
            coincidence.
    """
    seed_seq = np.random.SeedSequence(cfg.seed)
    rng = np.random.default_rng(seed_seq)
    stream = PairStream.spawn(seed_seq)
    state = optics.apply_channel(optics.generate(cfg.source), cfg.channel)
    alice, bob = cfg.kind.alice_settings(), cfg.kind.bob_settings()
    n, n_cells = cfg.n_pairs, len(alice) * len(bob) * 4

    # Fixed draw order, part of the reproducibility contract: one uniform
    # per pair, in stream order, which picks the setting pair, coincidence
    # and outcome together (its lane from the first child generator of the
    # session seed, its refinement, if its bucket is split, from the
    # second); then accidentals and disclosure from the session generator.
    # One joint CDF serves every block. Across blocks only the cells the
    # counts table or the key can use (matched bases and CHSH pairs) are
    # kept, in a buffer allocated once (an impossible n_pairs fails here,
    # before any draw); the other coincidences are only counted.
    joint = intercept_resend(
        state, alice, bob, cfg.channel.eve_fraction, cfg.detector.coincidence_efficiency()
    )
    counted = cfg.kind.matched_pairs() + cfg.kind.chsh_pairs
    cells = np.empty(n, dtype=np.uint8)
    one_stratum = np.zeros(min(_BLOCK, n), dtype=np.uint8)
    n_coincident = n_kept = 0
    for start in range(0, n, _BLOCK):
        drawn = sample_outcome_stream(joint, one_stratum[:n - start], stream)
        n_coincident += int(np.count_nonzero(drawn < n_cells))
        kept = _in_pairs(drawn, counted, len(bob))
        k = int(np.count_nonzero(kept))
        np.compress(kept, drawn, out=cells[n_kept:n_kept + k])
        n_kept += k
    cells = cells[:n_kept]
    del one_stratum, joint, stream  # frees the sampler's table and block buffer before sifting

    expected_acc = cfg.detector.expected_accidentals(n)
    n_acc = int(rng.poisson(expected_acc))
    if n_acc:
        try:
            accidentals = rng.integers(0, n_cells, size=n_acc, dtype=np.uint8)
            cells = np.concatenate([cells, accidentals[_in_pairs(accidentals, counted, len(bob))]])
        except MemoryError:
            raise AccidentalsMemoryError(
                f"detector.dark_rate: {expected_acc:.6g} expected accidental coincidences"
                " do not fit in memory"
            ) from None
        n_coincident += n_acc

    # The CHSH rows count every kept cell, the matched rows only the
    # disclosed sample. bincount copies its input to intp, so the kept
    # cells are counted block by block.
    kept_counts = np.zeros(n_cells, dtype=np.intp)
    if cfg.kind.chsh_pairs:
        for start in range(0, len(cells), _BLOCK):
            kept_counts += np.bincount(cells[start:start + _BLOCK], minlength=n_cells)
    sifted = sift(cfg.kind, cfg.source.label, cells)
    del cells  # frees the n-byte buffer before the disclosure draw
    n_sifted = len(sifted.cells)
    if n_sifted == 0:
        raise NoSiftedBitsError(
            f"no sifted bits: {n_coincident} coincidences, none in matched bases"
        )

    n_disclose = max(1, int(round(cfg.qber_sample_fraction * n_sifted)))
    disclosed = rng.choice(n_sifted, size=n_disclose, replace=False)
    retained = _complement(n_sifted, disclosed)
    disclosed_counts = np.bincount(sifted.cells[disclosed], minlength=n_cells)
    rows = ((cfg.kind.matched_pairs(), disclosed_counts), (cfg.kind.chsh_pairs, kept_counts))
    table = CoincidenceTable(tuple(
        CoincidenceRow(alice[i], bob[j], *(int(c) for c in counts.reshape(-1, 4)[i * len(bob) + j]))
        for pairs, counts in rows
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
        key_bits_alice=sifted.bits_alice[retained],
        key_bits_bob=sifted.bits_bob[retained],
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
