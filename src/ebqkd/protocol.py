"""BBM92 and E91 session engines.

A session draws the counts of its cells, not its pairs one by one, with
:func:`~ebqkd.measurement.sample_outcome_stream`: the coincidences among
the emitted pairs (binomial), their (setting pair, outcome) cells
(multinomial; the setting pair is uniform, the same as independent
uniform bases for Alice and Bob), then Poisson accidentals spread over the
cells by a second multinomial.  Only the sifted coincidences (matched
bases) are laid out as a stream, one uint8 code each, in a uniformly
random order (:func:`~ebqkd.measurement.arrange_cells`); the first ones
form the disclosed random sample that estimates the QBER (those bits are
consumed), the rest the key.  Pairs are independent, so given the counts
the sifted stream is a uniformly random arrangement of its cells, which is
what ``arrange_cells`` draws.  E91 additionally routes its four canonical
CHSH setting combinations into a CHSH estimate.

Bit mapping: the transmitted port is bit 0.  Bob inverts his bit in a
matched basis exactly when the session's ideal Bell state is
anticorrelated there (singlet: every basis; psi+: H/V; phi-: D/A).  Every
family then yields agreeing keys in BBM92 on a noiseless channel; in E91,
phi- and psi+ are uncorrelated in the 22.5-degree key basis, whose bits
agree only by chance (QBER 0.5).

Cell index: cell ``(a * n_b + b) * 4 + outcome`` (setting indices ``a``,
``b``; outcome 0..3 for ``++, +-, -+, --``) counts the coincidences of one
setting pair and outcome.  A :class:`ProtocolKind` derives, when built, its
CHSH cells and per Bell label its key cells and their codes ``cell ^ flip``
(Alice's bit in ``code >> 1 & 1``, Bob's aligned bit in ``code & 1``), which
:func:`sift` reads.  The CHSH rows of the counts table are cell counts, the
matched rows a :func:`~ebqkd.measurement.tally` of the disclosed codes.

:func:`estimate` is the one estimator behind ``sweep``, ``session`` and
``analyze``: it turns a :class:`~ebqkd.measurement.CoincidenceTable` into
S, the per-basis and pooled QBER and the security report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import chsh, optics, security
from .measurement import (
    AnalyzerSetting,
    CoincidenceRow,
    CoincidenceTable,
    DetectorModel,
    arrange_cells,
    bob_flip,
    check_draw,
    hwp_key,
    intercept_resend,
    sample_outcome_stream,
    tally,
    wrong_outcomes,
)
from .optics import ChannelModel, SourceModel
from .qstate import BellLabel, echo


class EmptyBasisError(ValueError):
    """A key basis holds no coincidences, so its QBER is undefined."""


class NoSiftedBitsError(EmptyBasisError):
    """A session produced no compatible-basis coincidences."""


class KeyMemoryError(MemoryError):
    """A session's sifted coincidences do not fit in memory."""


@dataclass(frozen=True)
class ProtocolKind:
    """Measurement-basis layout of one protocol variant.

    Derived once, when built, from the angles' :func:`~ebqkd.measurement.hwp_key`:
    a setting pair is matched (a key event) when its two keys are equal, and
    the layout must have two matched bases on distinct axes, the lower key
    carrying the bit errors, the other the phase errors.
    ``chsh_pairs``, whose outcomes feed the security CHSH test, holds the
    indices of the canonical CHSH settings in ``pairs()`` order, or ``()``.
    :meth:`key_plan` gives, per Bell label, what :func:`estimate` reads of
    each key basis, :meth:`key_cells` and :meth:`chsh_cells` a session's cells.
    """

    name: str
    alice_hwp_deg: tuple[float, ...]
    bob_hwp_deg: tuple[float, ...]
    chsh_pairs: tuple[tuple[int, int], ...] = field(init=False)

    def __post_init__(self) -> None:
        if len(self.alice_hwp_deg) * len(self.bob_hwp_deg) > 64:
            raise ValueError("a protocol layout has at most 64 setting pairs (uint8 cells)")
        alice, bob = tuple(map(AnalyzerSetting, self.alice_hwp_deg)), tuple(map(AnalyzerSetting, self.bob_hwp_deg))
        keys = {(i, j): hwp_key(a.hwp_angle_deg, b.hwp_angle_deg)
                for i, a in enumerate(alice) for j, b in enumerate(bob)}
        first = {ij: 4 * p for p, ij in enumerate(keys)}  # a pair's first cell, Alice-major
        matched = tuple(ij for ij, (ka, kb) in keys.items() if ka == kb)
        if len(matched) != 2 or len({keys[ij][0] for ij in matched}) != 2:
            raise ValueError("a protocol layout needs exactly two matched bases on distinct polarization axes")
        index = {key: ij for ij, key in keys.items()}
        found = [index.get(hwp_key(a.hwp_angle_deg, b.hwp_angle_deg)) for a, b in chsh.canonical_settings().pairs()]
        object.__setattr__(self, "chsh_pairs", () if None in found else tuple(found))
        key_pairs = tuple((alice[i], bob[j]) for i, j in matched)
        chsh_cells = tuple((alice[i], bob[j], first[i, j]) for i, j in self.chsh_pairs)
        cells = tuple(first[ij] + k for ij in matched for k in range(4))
        object.__setattr__(self, "_layout", (alice, bob, matched, key_pairs, chsh_cells, cells))
        object.__setattr__(self, "_plans", {label: tuple(
            (a, b, 2.0 * hwp_key(a.hwp_angle_deg, b.hwp_angle_deg)[0], wrong_outcomes(label, a.polarization_angle_rad))
            for a, b in key_pairs
        ) for label in BellLabel})
        object.__setattr__(self, "_codes", {label: tuple(
            c ^ bob_flip(label, key_pairs[n // 4][0].polarization_angle_rad) for n, c in enumerate(cells)
        ) for label in BellLabel})

    def alice_settings(self) -> tuple[AnalyzerSetting, ...]:
        return self._layout[0]

    def bob_settings(self) -> tuple[AnalyzerSetting, ...]:
        return self._layout[1]

    def matched_pairs(self) -> tuple[tuple[int, int], ...]:
        """Setting-index pairs with equal keys (key events)."""
        return self._layout[2]

    def key_pairs(self) -> tuple[tuple[AnalyzerSetting, AnalyzerSetting], ...]:
        """(Alice, Bob) settings of each matched basis, as ``matched_pairs``."""
        return self._layout[3]

    def key_plan(self, label: BellLabel) -> tuple[tuple[AnalyzerSetting, AnalyzerSetting, float, tuple[int, int]], ...]:
        """Per matched basis, as ``key_pairs``: its (Alice, Bob) settings, its
        polarization axis in degrees and the indices of its key errors under
        ``label`` (:func:`~ebqkd.measurement.wrong_outcomes`).  Derived when built."""
        return self._plans[label]

    def key_cells(self, label: BellLabel) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Each matched basis' four cells, as ``matched_pairs``, and their codes under ``label``."""
        return self._layout[5], self._codes[label]

    def chsh_cells(self) -> tuple[tuple[AnalyzerSetting, AnalyzerSetting, int], ...]:
        """(Alice, Bob) settings and first cell of each CHSH setting pair, as ``chsh_pairs``."""
        return self._layout[4]


#: Both parties measure in {H/V, D/A}.
BBM92 = ProtocolKind("bbm92", (0.0, 22.5), (0.0, 22.5))

#: Three bases per party; the outer combinations form the CHSH test at the
#: canonical polarization angles (0, 45) x (22.5, 67.5).
E91 = ProtocolKind("e91", (0.0, 11.25, 22.5), (11.25, 22.5, 33.75))

#: Every protocol variant, by name.
PROTOCOLS = {k.name: k for k in (BBM92, E91)}


def protocol_by_name(name: str) -> ProtocolKind:
    try:
        return PROTOCOLS[name.lower()]
    except KeyError:
        raise ValueError(f"unknown protocol {echo(name)!r}; expected one of {sorted(PROTOCOLS)}")


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
        check_draw(self.n_pairs, self.detector)
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {echo(repr(self.seed))}")
        if not 0.0 < self.qber_sample_fraction < 1.0:
            raise ValueError(
                f"qber_sample_fraction must be in (0, 1), got {self.qber_sample_fraction!r}"
            )


@dataclass(frozen=True)
class SessionRecord:
    """Outcome of one protocol session.

    ``per_basis_qber`` is keyed by the matched polarization axis in
    degrees (0.0 is H/V, 45.0 is D/A for BBM92).  Disclosed QBER-sample
    bits are removed from the keys, so
    ``disclosed_length + len(key_bits_alice) == sifted_length``.
    ``key_bits_alice`` may share the buffer of the session's sifted
    stream (a view past its disclosed cells), so it keeps that buffer alive.
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


def sift(kind: ProtocolKind, label: BellLabel, counts: list[int]) -> tuple[np.ndarray, list[int]]:
    """The codes of ``kind``'s key cells under ``label``, with Bob's bit aligned,
    and each cell's count in ``counts``, which holds one per cell (see the module
    docstring).  Sifting looks only at the announced setting pairs, never at outcomes."""
    cells, codes = kind.key_cells(label)
    return np.array(codes, dtype=np.uint8), [counts[cell] for cell in cells]


def _wilson_interval(errors: int, n: int, z: float = 1.96) -> tuple[float, float]:
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
        measurement.IncompleteTableError: if an E91 CHSH setting pair saw
            no coincidence.
    """
    rng = np.random.default_rng(cfg.seed)
    state = optics.apply_channel(optics.generate(cfg.source), cfg.channel)

    # Fixed draw order, part of the reproducibility contract: the cell
    # counts of all n_pairs pairs (sample_outcome_stream's own order), then
    # the arrangement of the sifted codes (arrange_cells' own order).
    joint = intercept_resend(state, cfg.kind.alice_settings(), cfg.kind.bob_settings(), cfg.channel.eve_fraction)
    every_pair = np.broadcast_to(np.uint8(0), (cfg.n_pairs,))  # read for its length
    counts = sample_outcome_stream(joint, every_pair, rng, cfg.detector)
    n_coincident = sum(counts)

    codes, sifted = sift(cfg.kind, cfg.source.label, counts)
    n_sifted = sum(sifted)
    if n_sifted == 0:
        raise NoSiftedBitsError(f"no sifted bits: {n_coincident} coincidences, none in matched bases")
    try:
        if n_sifted >= 2**63:  # no array has that many cells
            raise MemoryError
        stream = arrange_cells(codes, sifted, rng)
    except MemoryError:
        raise KeyMemoryError(
            f"n_pairs {cfg.n_pairs} at detector.dark_rate {cfg.detector.dark_rate:g}"
            f" give {n_sifted} sifted coincidences, which do not fit in memory"
        ) from None

    n_disclose = max(1, int(round(cfg.qber_sample_fraction * n_sifted)))
    disclosed = tally(stream[:n_disclose], codes.tolist())
    # Split the key codes into bits in place: Bob's bit first, then the
    # codes become Alice's bits, so no third key-sized array is made.
    key = stream[n_disclose:]
    key_bits_bob = key & 1
    key >>= 1
    key &= 1
    table = CoincidenceTable((
        *(CoincidenceRow(a, b, *disclosed[4 * m:4 * m + 4]) for m, (a, b) in enumerate(cfg.kind.key_pairs())),
        *(CoincidenceRow(a, b, *counts[cell:cell + 4]) for a, b, cell in cfg.kind.chsh_cells()),
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
        key_bits_alice=key,
        key_bits_bob=key_bits_bob,
        counts=table,
        report=est.report,
    )


@dataclass(frozen=True)
class Estimate:
    """Everything one count table says about a link.

    ``chsh`` is None when no CHSH settings were given; ``per_basis_qber``
    is keyed by the matched polarization axis in degrees, twice the basis'
    :func:`~ebqkd.measurement.hwp_key` (the lower key gives the report's
    bit errors, the other its phase errors); ``qber`` pools
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
    :func:`~ebqkd.measurement.wrong_outcomes`), as ``kind.key_plan(label)``
    lists them: each basis' setting pair, axis and error outcomes are
    derived once, when ``kind`` is built, and each row's total is read
    once.  With ``settings`` the table must also hold the four CHSH rows
    and Eve's bound uses the measured S; without, the linear disturbance
    law stands in.

    Raises:
        measurement.IncompleteTableError: a required row is missing, or a
            CHSH row is empty.
        EmptyBasisError: a matched basis holds no coincidences.
    """
    per_basis: dict[float, float] = {}
    n_wrong = n_total = 0
    for a, b, pol, (i, j) in kind.key_plan(label):
        row = table.row(a, b)
        total = row.total
        if total == 0:
            raise EmptyBasisError(f"zero coincidences in the compatible basis at {pol:g} deg polarization")
        counts = row.counts()
        wrong = counts[i] + counts[j]
        per_basis[pol] = wrong / total
        n_wrong += wrong
        n_total += total
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
