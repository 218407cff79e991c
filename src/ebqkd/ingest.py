"""Measured coincidence-count files and the calibration pipeline.

The on-disk format (``qkd-counts/1``) is a comment-tolerant, whitespace
delimited UTF-8 text table recording one analyzer projection combination
per row, the way a two-detector setup acquires them.  See
``docs/counts-format.md`` for the grammar.

Example::

    # any line content after '#' is ignored
    format: qkd-counts/1
    state: phi_plus
    seconds-per-row: 1.0
    # alice_hwp_deg  bob_hwp_deg  singles_a  singles_b  coincidences
    0       11.25   58934   59102   853

``analyze_counts`` assembles full outcome quadruples for each CHSH setting
pair and key basis from the projector rows (a, a+90) x (b, b+90) into one
:class:`~ebqkd.measurement.CoincidenceTable` and hands it to the shared
estimator :func:`ebqkd.protocol.estimate`.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable

from . import chsh, security
from .measurement import (
    AnalyzerSetting,
    CoincidenceRow,
    CoincidenceTable,
    DetectorModel,
    expected_table,
    hwp_key,
    sample_outcomes,
    spawn_rng,
)
from .protocol import BBM92, EmptyBasisError, ProtocolKind, estimate
from .qstate import BellLabel, TwoQubitState, echo

FORMAT_NAME = "qkd-counts"
FORMAT_VERSION = 1
_HEADER_KEYS = ("state", "seconds-per-row")


class CountFileError(ValueError):
    """A count file failed parsing or validation.

    ``line`` is the 1-based source line when the failure is localized.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class CountRow:
    """One projection combination: both analyzers fixed, coincidences counted."""

    alice_hwp_deg: float
    bob_hwp_deg: float
    singles_a: int
    singles_b: int
    coincidences: int
    line: int = 0


@dataclass(frozen=True)
class CountRecordFile:
    version: int
    state_label: BellLabel
    seconds_per_row: float
    rows: tuple[CountRow, ...]

    def __post_init__(self) -> None:
        # The one row index, in row order: a repeated angle pair is an error
        # whoever built the rows (a hand-built row has line 0).
        index: dict[tuple[float, float], CountRow] = {}
        for row in self.rows:
            key = hwp_key(row.alice_hwp_deg, row.bob_hwp_deg)
            if (first := index.get(key)) is not None:
                seen = f", first seen on line {first.line}" if first.line else ""
                pair = f"({row.alice_hwp_deg}, {row.bob_hwp_deg})"
                raise CountFileError(f"duplicate angle pair {pair}{seen}", row.line or None)
            index[key] = row
        object.__setattr__(self, "_index", index)

    def find(self, alice_hwp_deg: float, bob_hwp_deg: float) -> CountRow | None:
        return self._index.get(hwp_key(alice_hwp_deg, bob_hwp_deg))


def _iter_content_lines(text: str) -> Iterable[tuple[int, str]]:
    # Lines end at "\n", "\r\n" and "\r" only (universal newlines, as a
    # path source reads); str.splitlines would also end a comment at a form
    # feed, "\x1c"-"\x1e", NEL or U+2028/U+2029.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        content = raw.split("#", 1)[0].strip()
        if content:
            yield lineno, content


def parse_counts(source: str | Path | bytes | IO[str] | IO[bytes]) -> CountRecordFile:
    """Parse and strictly validate a count file.

    Accepts a path, raw bytes, or an open text/binary stream; a UTF-8
    byte-order mark at the start is skipped, whatever the source.

    Raises:
        CountFileError: naming the offending line for malformed rows,
            negative counts or counts above 2**63 - 1, duplicate angle
            pairs, unknown versions and empty files, and for input that is
            not valid UTF-8.
    """
    try:
        if isinstance(source, (str, Path)):
            text = Path(source).read_text(encoding="utf-8")
        elif isinstance(source, bytes):
            text = source.decode("utf-8")
        else:
            data = source.read()
            text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise CountFileError(f"not valid UTF-8: {exc.reason} at byte {exc.start}") from exc

    text = text.removeprefix("\ufeff")  # a UTF-8 byte-order mark, as some editors write one
    lines = list(_iter_content_lines(text))
    if not lines:
        raise CountFileError("no rows: file has no content")

    lineno, first = lines[0]
    if not first.startswith("format:"):
        raise CountFileError(f"expected 'format: {FORMAT_NAME}/{FORMAT_VERSION}' header", lineno)
    declared = first.split(":", 1)[1].strip()
    if declared != f"{FORMAT_NAME}/{FORMAT_VERSION}":
        raise CountFileError(f"unknown format version {echo(declared)!r}", lineno)

    header: dict[str, str] = {}
    rows: list[CountRow] = []
    for lineno, content in lines[1:]:
        if ":" in content and not rows:
            key, _, value = content.partition(":")
            key = key.strip().lower()
            if key not in _HEADER_KEYS:
                raise CountFileError(f"unknown header key {echo(key)!r}", lineno)
            if key in header:
                raise CountFileError(f"duplicate header key {key!r}", lineno)
            header[key] = value.strip()
            continue
        rows.append(_parse_row(content, lineno))

    for key in _HEADER_KEYS:
        if key not in header:
            raise CountFileError(f"missing required header {key!r}")
    try:
        label = BellLabel(header["state"])
    except ValueError:
        raise CountFileError(
            f"unknown state {echo(header['state'])!r}; expected one of "
            f"{[l.value for l in BellLabel]}"
        )
    try:
        seconds = _number(float, header["seconds-per-row"])
    except ValueError:
        raise CountFileError(f"seconds-per-row is not a number: {echo(header['seconds-per-row'])!r}")
    if not math.isfinite(seconds) or seconds <= 0.0:
        raise CountFileError(f"seconds-per-row must be positive and finite, got {seconds!r}")
    if not rows:
        raise CountFileError("no rows: file contains headers only")

    return CountRecordFile(
        version=FORMAT_VERSION,
        state_label=label,
        seconds_per_row=seconds,
        rows=tuple(rows),
    )


_COLUMNS = ("alice_hwp_deg", "bob_hwp_deg", "singles_a", "singles_b", "coincidences")
_MAX_COUNT = 2**63 - 1  # a 64-bit counter; larger counts overflow the float estimator


def _number(kind: type, token: str) -> float | int:
    """``kind(token)`` for an ASCII token without ``_``: Python also reads
    digit-group underscores and non-ASCII digits, which the grammar does not
    have."""
    if not token.isascii() or "_" in token:
        raise ValueError(token)
    return kind(token)


def _parse_row(content: str, lineno: int) -> CountRow:
    """One row line: one grammar check for the whole line, then the five
    conversions and every range check at once.  A line that fails any of
    them is read again token by token, which names the offending column."""
    tokens = content.split()
    if content.isascii() and "_" not in content:
        try:
            a, b, singles_a, singles_b, coincidences = tokens
            a, b = float(a), float(b)
            singles_a, singles_b, coincidences = int(singles_a), int(singles_b), int(coincidences)
        except ValueError:
            pass
        else:
            if (
                0.0 <= a < 180.0
                and 0.0 <= b < 180.0
                and 0 <= singles_a <= _MAX_COUNT
                and 0 <= singles_b <= _MAX_COUNT
                and 0 <= coincidences <= _MAX_COUNT
            ):
                return CountRow(a, b, singles_a, singles_b, coincidences, line=lineno)
    return _parse_row_by_token(tokens, lineno)


def _parse_row_by_token(tokens: list[str], lineno: int) -> CountRow:
    """A row read column by column; its errors name the first bad column."""
    if len(tokens) != 5:
        raise CountFileError(
            f"malformed row: expected 5 columns ({' '.join(_COLUMNS)}), got {len(tokens)}",
            lineno,
        )
    angles = []
    for col, token in enumerate(tokens[:2]):
        try:
            value = _number(float, token)
        except ValueError:
            raise CountFileError(
                f"malformed row: column {col + 1} ({_COLUMNS[col]}) must be decimal degrees,"
                f" got {echo(token)!r}",
                lineno,
            )
        if not math.isfinite(value):
            raise CountFileError(
                f"malformed row: column {col + 1} ({_COLUMNS[col]}) must be finite", lineno
            )
        if not 0.0 <= value < 180.0:
            raise CountFileError(
                f"HWP angles must be in [0, 180) degrees, got {value} in column {col + 1}",
                lineno,
            )
        angles.append(value)
    counts = []
    for col, token in enumerate(tokens[2:], start=2):
        try:
            value = _number(int, token)
        except ValueError:
            if not (token.isascii() and token.isdigit()):
                raise CountFileError(
                    f"malformed row: column {col + 1} ({_COLUMNS[col]}) count {echo(token)!r}"
                    f" is not an integer",
                    lineno,
                )
            digits = token.lstrip("0")  # past int()'s 4,300-digit limit
            value = int(digits or "0") if len(digits) <= 19 else 2**63
        if value < 0:
            raise CountFileError(
                f"negative count {echo(str(value))} in column {col + 1} ({_COLUMNS[col]})", lineno
            )
        if value > _MAX_COUNT:
            raise CountFileError(f"count in column {col + 1} ({_COLUMNS[col]}) is above 2**63 - 1", lineno)
        counts.append(value)
    return CountRow(*angles, *counts, line=lineno)


def write_counts(record: CountRecordFile, dest: str | Path | IO[str]) -> None:
    """Serialize a count file in the exact shape ``parse_counts`` reads.

    Numbers are written as Python's shortest round-tripping ``repr``, so
    ``parse_counts`` reads back the same record, line numbers aside.
    """
    buf = io.StringIO()
    buf.write(f"format: {FORMAT_NAME}/{FORMAT_VERSION}\n")
    buf.write(f"state: {record.state_label.value}\n")
    buf.write(f"seconds-per-row: {float(record.seconds_per_row)!r}\n")
    buf.write("# alice_hwp_deg bob_hwp_deg singles_a singles_b coincidences\n")
    for row in record.rows:
        buf.write(
            f"{float(row.alice_hwp_deg)!r} {float(row.bob_hwp_deg)!r} "
            f"{row.singles_a} {row.singles_b} {row.coincidences}\n"
        )
    if isinstance(dest, (str, Path)):
        Path(dest).write_text(buf.getvalue(), encoding="utf-8")
    else:
        dest.write(buf.getvalue())


def _projector_pairs(a: AnalyzerSetting, b: AnalyzerSetting) -> list[tuple[float, float]]:
    """HWP rows whose coincidences give the (++, +-, -+, --) outcomes of (a, b).

    The orthogonal polarization (+90 deg) sits 45 deg further on the plate.
    """
    a_hwp, b_hwp = a.hwp_angle_deg, b.hwp_angle_deg
    return [(ah, bh) for ah in (a_hwp, a_hwp + 45.0) for bh in (b_hwp, b_hwp + 45.0)]


def required_hwp_pairs(
    settings: chsh.ChshSettings, protocol: ProtocolKind = BBM92
) -> tuple[tuple[float, float], ...]:
    """All (alice_hwp, bob_hwp) rows a full analysis file must carry.

    16 projector combinations for the CHSH estimate (4 setting pairs, each
    expanded over both output ports per side) plus 4 per compatible basis
    for the QBER estimate.
    """
    expanded: dict[tuple[float, float], tuple[float, float]] = {}
    for a, b in settings.pairs() + protocol.key_pairs():
        for ah, bh in _projector_pairs(a, b):
            expanded.setdefault(hwp_key(ah, bh), (ah, bh))
    return tuple(expanded.values())


def synthesize_counts(
    state: TwoQubitState,
    label: BellLabel,
    n_pairs_per_row: int,
    seed: int,
    detector: DetectorModel | None = None,
    settings: chsh.ChshSettings | None = None,
    protocol: ProtocolKind = BBM92,
    seconds_per_row: float = 1.0,
) -> CountRecordFile:
    """Simulate the acquisition of a full analysis file from a known state.

    Each row is an independent acquisition of ``n_pairs_per_row`` emitted
    pairs with both analyzers fixed; only the doubly transmitted
    coincidences of that projection are recorded, as in hardware.  One
    generator draws every row's counts, then each row's singles, in order.
    """
    det = detector or DetectorModel(efficiency=1.0)
    settings = settings or chsh.canonical_settings(label)
    pairs = [(AnalyzerSetting(a), AnalyzerSetting(b)) for a, b in required_hwp_pairs(settings, protocol)]
    rng = spawn_rng(seed)
    sampled = sample_outcomes(state, pairs, det, n_pairs_per_row, rng)
    rows = []
    for row, expected in zip(sampled, expected_table(state, pairs).rows):
        # Singles are the marginals of the joint distribution.
        singles_a = int(rng.binomial(n_pairs_per_row, det.eff_alice * (expected.n_pp + expected.n_pm)))
        singles_b = int(rng.binomial(n_pairs_per_row, det.eff_bob * (expected.n_pp + expected.n_mp)))
        rows.append(CountRow(row.a.hwp_angle_deg, row.b.hwp_angle_deg, singles_a, singles_b, row.n_pp))
    return CountRecordFile(
        version=FORMAT_VERSION,
        state_label=label,
        seconds_per_row=seconds_per_row,
        rows=tuple(rows),
    )


def analyze_counts(
    record: CountRecordFile,
    settings: chsh.ChshSettings | None = None,
    protocol: ProtocolKind = BBM92,
    accidental_window: float | None = None,
) -> tuple[chsh.ChshEstimate, security.SecurityReport]:
    """Drive the shared estimator over a parsed count file.

    Builds outcome quadruples per CHSH setting pair and per compatible
    basis of ``protocol`` from the projector rows, then estimates S with
    Poisson uncertainty, the per-basis QBERs (bit errors counted against
    the file's state label) and the security report with Eve's bound at
    the measured S.

    Args:
        accidental_window: optional coincidence-window/duration ratio; when
            given, ``singles_a * singles_b * window / seconds_per_row`` is
            subtracted from each row's coincidences (clamped at zero).
            Off by default since the window is setup-specific.

    Raises:
        ValueError: if ``accidental_window`` is negative or not finite.
        CountFileError: listing any missing (alice, bob) HWP pairs, or
            naming a compatible basis with zero coincidences, and saying
            so when the accidental subtraction removed them all.
        measurement.IncompleteTableError: if a CHSH setting pair has zero
            coincidences.
    """
    if accidental_window is not None and not 0.0 <= accidental_window < math.inf:
        raise ValueError(f"accidental_window must be finite and >= 0, got {accidental_window!r}")
    settings = settings or chsh.canonical_settings(record.state_label)

    rows = []
    missing: list[tuple[float, float]] = []
    for a, b in settings.pairs() + protocol.key_pairs():
        combos = _projector_pairs(a, b)
        pp, pm, mp, mm = found = [record.find(ah, bh) for ah, bh in combos]
        if pp is None or pm is None or mp is None or mm is None:
            missing.extend(c for c, row in zip(combos, found) if row is None)
        elif accidental_window is None:
            rows.append(CoincidenceRow(a, b, pp.coincidences, pm.coincidences, mp.coincidences, mm.coincidences))
        else:
            counts = []
            for row in found:
                accidental = row.singles_a * row.singles_b * accidental_window / record.seconds_per_row
                counts.append(round(max(0.0, row.coincidences - accidental)))
            rows.append(CoincidenceRow(a, b, *counts))
    if missing:
        pretty = ", ".join(f"({a:g}, {b:g})" for a, b in dict.fromkeys(missing))
        raise CountFileError(f"missing required HWP angle pairs: {pretty}")

    table = CoincidenceTable(tuple(rows))
    try:
        est = estimate(table, record.state_label, protocol, settings)
    except EmptyBasisError as exc:
        # estimate names the first empty key basis; say whether the file or
        # the subtraction emptied it.
        a, b = next((a, b) for a, b in protocol.key_pairs() if table.row(a, b).total == 0)
        raw = sum(record.find(ah, bh).coincidences for ah, bh in _projector_pairs(a, b))
        if raw > 0:
            raise CountFileError(
                f"the accidental subtraction at window {accidental_window:g} removed every"
                f" coincidence of the compatible basis at {a.polarization_angle_deg:g} deg"
                f" polarization ({raw} before subtraction)"
            ) from exc
        raise CountFileError(str(exc)) from exc
    return est.chsh, est.report
