"""Command-line front end.

Subcommands: ``sweep`` (parameter scans with analytic and sampled S, QBER
and mutual-information columns), ``session`` (one protocol run from a JSON
config file), ``thresholds`` (safe-operation QBER limits) and ``analyze``
(coincidence-count file to CHSH + security report).

Exit codes: 0 success, 2 usage/configuration, 3 I/O, 4 data validation
(including an empty key basis or CHSH setting pair: no front end reports a
QBER or S it did not measure).
Sweeps write a versioned tab-delimited table; reports are versioned JSON.
All outputs are byte-identical across runs with the same seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import re
import sys
from pathlib import Path
from typing import Any, Callable, NoReturn, TextIO

import numpy as np

from . import chsh, ingest, optics, protocol, security
from .measurement import DetectorModel, check_draw, check_seed, sample_outcomes, spawn_rng
from .optics import ChannelKind, ChannelModel, SourceModel
from .qstate import BellLabel, born_table, checked_bloch, density, echo

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_VALIDATION = 4

SWEEP_FORMAT = "ebqkd-sweep/1"
REPORT_FORMAT = "ebqkd-report/1"
CONFIG_DIR_ENV = "EBQKD_CONFIG_DIR"

#: Stable sweep column order; parsers may rely on it.
SWEEP_COLUMNS = (
    "mechanism_param",
    "S_analytic",
    "S_sampled",
    "sigma_S",
    "qber",
    "I_AB",
    "I_AE",
    "r",
)

MECHANISMS = ("werner", "imbalance", "hom_visibility", "intercept_fraction")


class ConfigError(ValueError):
    """A sweep spec or session config is invalid (usage-class failure)."""


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """One parameter scan: a mechanism, its grid and the per-point budget.

    QBER columns always sample the H/V and D/A key bases (BBM92's), the
    reference frame in which the linear S-QBER law is exact for every
    mechanism.
    """

    mechanism: str
    grid: tuple[float, ...]
    n_pairs: int
    label: BellLabel = BellLabel.PHI_PLUS
    detector: DetectorModel = DetectorModel()
    qber_mode: str = "mean"  # or "worst"

    def __post_init__(self) -> None:
        if self.mechanism not in MECHANISMS:
            raise ConfigError(f"unknown mechanism {echo(self.mechanism)!r}; expected one of {MECHANISMS}")
        if not self.grid:
            raise ConfigError("sweep grid must not be empty")
        lo, hi = (0.0, math.pi / 2) if self.mechanism == "imbalance" else (0.0, 1.0)
        for value in self.grid:
            if not lo <= value <= hi:
                raise ConfigError(
                    f"grid value {value!r} outside [{lo:g}, {hi:g}] for {self.mechanism}"
                )
        try:
            check_draw(self.n_pairs, self.detector)
        except ValueError as exc:
            raise ConfigError(str(exc))
        if self.qber_mode not in ("mean", "worst"):
            raise ConfigError(f"qber mode must be 'mean' or 'worst', got {echo(self.qber_mode)!r}")


#: Most grid points a sweep evaluates as one stack; a block's temporaries are O(this).
SWEEP_BLOCK = 1024


def _grid_bloch(spec: SweepSpec, values: np.ndarray) -> np.ndarray:
    """``C`` of the state each grid point's pairs are drawn from, ``(k, 4,
    4)``.  Each distinct state is checked once, every stack in one call: a
    source shared by all points once, and the channel outputs and Eve's
    averages as stacks.  At Eve fraction 0 a point reads the source itself."""
    if spec.mechanism == "imbalance":
        return checked_bloch(optics.source_density(spec.label, values))
    if spec.mechanism == "hom_visibility":
        return checked_bloch(optics.source_density(spec.label, hom_visibility=values))
    source = checked_bloch(optics.source_density(spec.label))
    if spec.mechanism == "werner":  # Werner weight w is depolarizing strength 1 - w
        return checked_bloch(density(optics.depolarize(source, 1.0 - values)))
    bloch = np.repeat(source[None], len(values), axis=0)
    eve = values != 0.0
    bloch[eve] = checked_bloch(density(optics.intercept(source, values[eve])))
    return bloch


#: Per label, a sweep point's CHSH settings and its six setting pairs: the four CHSH pairs, then BBM92's key bases.
_SWEEP_PAIRS = {label: (settings, settings.pairs() + protocol.BBM92.key_pairs())
                for label, settings in zip(BellLabel, map(chsh.canonical_settings, BellLabel))}


def _sweep_block(spec: SweepSpec, seed: int, start: int, values: tuple[float, ...]) -> list[dict[str, float]]:
    """The rows of the grid points ``start, start + 1, ...`` at ``values``:
    one stack of states, one Born table of shape ``(k, 6, 4)``, then
    :func:`sweep_point` per point."""
    born = born_table(_grid_bloch(spec, np.array(values)), _SWEEP_PAIRS[spec.label][1])
    return [sweep_point(spec, start + i, value, seed, rows) for i, (value, rows) in enumerate(zip(values, born))]


def sweep_point(spec: SweepSpec, index: int, value: float, seed: int, born: np.ndarray) -> dict[str, float]:
    """Analytic and sampled quantities for one grid point.

    ``born`` is the point's Born table of its six setting pairs (four CHSH
    setting pairs, then one per key basis): its first four rows give the
    analytic S, and all six the sampling probabilities.  Sampling uses
    ``n_pairs`` emitted pairs per setting pair, drawn in that order from
    one generator, ``spawn_rng(seed, index)``, whatever the schedule; the
    six count lists go to :func:`~ebqkd.protocol.estimate_counts` in that
    order, and no row or table object is built.
    """
    settings, pairs = _SWEEP_PAIRS[spec.label]
    counts = sample_outcomes(born, pairs, spec.detector, spec.n_pairs, spawn_rng(seed, index))
    est = protocol.estimate_counts(counts, spec.label, protocol.BBM92, settings)
    qber = max(est.per_basis_qber.values()) if spec.qber_mode == "worst" else est.report.delta
    return {
        "mechanism_param": value,
        "S_analytic": chsh.s_from_born(born, settings).s,
        "S_sampled": est.chsh.s,
        "sigma_S": est.chsh.sigma_s,
        "qber": qber,
        "I_AB": est.report.i_ab,
        "I_AE": est.report.i_ae,
        "r": est.report.r,
    }


def run_sweep(spec: SweepSpec, seed: int, workers: int = 1) -> list[dict[str, float]]:
    """All grid points, in grid order regardless of worker scheduling.

    The grid is cut into near-equal blocks of at most :data:`SWEEP_BLOCK`
    points, at least one per worker; the pool maps whole blocks.  It never
    has more workers than grid points or CPUs.  A point's row depends only
    on ``(seed, index)`` and its own Born rows, so every schedule gives the
    same rows.  ``seed`` must be an integer >= 0 (:class:`ConfigError`).
    """
    try:
        check_seed(seed)
    except ValueError as exc:
        raise ConfigError(str(exc))
    if workers > 1:
        workers = min(workers, len(spec.grid), os.cpu_count() or 1)
    n = len(spec.grid)
    count = max(workers, -(-n // SWEEP_BLOCK))
    bounds = [n * i // count for i in range(count + 1)]
    blocks = (bounds[:-1], [spec.grid[lo:hi] for lo, hi in zip(bounds, bounds[1:])])
    evaluate = functools.partial(_sweep_block, spec, seed)
    if workers <= 1:
        return [row for rows in map(evaluate, *blocks) for row in rows]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; pools only
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return [row for rows in pool.map(evaluate, *blocks) for row in rows]


def write_sweep_table(
    rows: list[dict[str, float]], spec: SweepSpec, seed: int, out: TextIO,
    delimiter: str = "\t",
) -> None:
    out.write(f"# {SWEEP_FORMAT}\n")
    out.write(
        f"# mechanism: {spec.mechanism}  protocol: {protocol.BBM92.name}  "
        f"label: {spec.label.value}  n_pairs: {spec.n_pairs}  seed: {seed}  "
        f"qber: {spec.qber_mode}\n"
    )
    out.write(delimiter.join(SWEEP_COLUMNS) + "\n")
    for row in rows:
        out.write(delimiter.join(f"{row[c]:.10g}" for c in SWEEP_COLUMNS) + "\n")


def read_sweep_table(source: str | Path) -> dict[str, list[float]]:
    """Parse a sweep table back into columns (round-trip of the schema).

    Raises:
        ValueError: if the header is not :data:`SWEEP_COLUMNS`, or a data
            row does not hold one number per column (naming its line).
    """
    columns: list[str] | None = None
    data: dict[str, list[float]] = {}
    # read_text ends lines at "\n", "\r\n" and "\r" only; str.splitlines
    # would also end a comment at a form feed, NEL or U+2028.
    for number, raw in enumerate(Path(source).read_text(encoding="utf-8").split("\n"), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        delimiter = "\t" if "\t" in raw else ","
        tokens = raw.split(delimiter)
        if columns is None:
            columns = tokens
            if tuple(columns) != SWEEP_COLUMNS:
                raise ValueError(f"unexpected sweep columns: {echo(raw)!r}")
            data = {c: [] for c in columns}
            continue
        if len(tokens) != len(columns):
            raise ValueError(f"line {number}: {len(tokens)} values for {len(columns)} sweep columns: {echo(raw)!r}")
        for column, (c, token) in enumerate(zip(columns, tokens), start=1):
            try:
                data[c].append(float(token))
            except ValueError:
                raise ValueError(f"line {number}: column {column}: not a number: {echo(token)!r}") from None
    if columns is None:
        raise ValueError("no header row found")
    return data


def _parse_grid(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ConfigError(f"grid must be comma-separated numbers, got {echo(text)!r}")


def _resolve_config_path(path_arg: str) -> Path:
    path = Path(path_arg)
    if not path.is_absolute() and not path.exists():
        config_dir = os.environ.get(CONFIG_DIR_ENV)
        if config_dir and (Path(config_dir) / path).exists():
            return Path(config_dir) / path
    return path


def _integer(value: Any, field: str) -> int:
    """An integer config field: an int, or a float with no fractional part.

    Booleans, fractions, infinities and non-numbers are rejected rather
    than truncated by ``int()``.
    """
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ConfigError(f"invalid session config: field '{field}' must be an integer, got {echo(repr(value))}")


def _real(value: Any, field: str) -> float:
    """A real config field: an int or a float.

    Booleans, strings and integers beyond the float range are rejected
    rather than converted by ``float()``.
    """
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"invalid session config: field '{field}' is too large for a float")
    raise ConfigError(f"invalid session config: field '{field}' must be a number, got {echo(repr(value))}")


def _string(value: Any, field: str) -> str:
    if isinstance(value, str):
        return value
    raise ConfigError(f"invalid session config: field '{field}' must be a string, got {echo(repr(value))}")


def _named(parse: Callable[[str], Any], names: list[str]) -> Callable[[Any, str], Any]:
    """A reader for a field given by name, one of ``names`` in any letter case."""

    def read(value: Any, field: str) -> Any:
        if isinstance(value, str):
            try:
                return parse(value.lower())
            except ValueError:
                pass
        raise ConfigError(f"config field '{field}' must be one of {names}")

    return read


#: JSON keys that differ from their model field's name.
_JSON_KEYS = {(protocol.SessionConfig, "kind"): "protocol"}

#: The value of a key given twice in one JSON object: no JSON value decodes to it.
_REPEATED = Ellipsis


def _json_object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """A config JSON object, with :data:`_REPEATED` for a key given twice."""
    doc: dict[str, Any] = {}
    for key, value in pairs:
        doc[key] = _REPEATED if key in doc else value
    return doc


def _model(cls: type, doc: Any, section: str) -> Any:
    """Read one config section into the model dataclass ``cls``.

    Every key must name a field of ``cls``; a present field is read
    by its annotation's entry in :data:`_READERS`, an absent one takes the
    dataclass default or, without one, is a missing required field.
    """
    if not isinstance(doc, dict):
        raise ConfigError(f"config field '{section}' must be a JSON object")
    prefix = f"{section}." if section else ""
    fields = {_JSON_KEYS.get((cls, f.name), f.name): f for f in dataclasses.fields(cls)}
    for key, value in doc.items():
        if value is _REPEATED:
            raise ConfigError(f"duplicate config field '{prefix}{echo(key)}'")
        if key not in fields:
            raise ConfigError(f"unknown config field '{prefix}{echo(key)}'")
    values = {}
    for key, f in fields.items():
        if key in doc:
            values[f.name] = _READERS[f.type](doc[key], prefix + key)
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"missing required config field '{prefix}{key}'")
    try:
        return cls(**values)
    except ValueError as exc:  # a model's range check, whose message opens with the field name
        raise ConfigError(f"invalid session config: {prefix}{exc}")


#: Config readers by field annotation: every field of ``SessionConfig`` and
#: of its model sections has one.
_READERS: dict[str, Callable[[Any, str], Any]] = {
    "int": _integer,
    "float": _real,
    "float | None": _real,
    "str": _string,
    "BellLabel": _named(BellLabel, [l.value for l in BellLabel]),
    "ChannelKind": _named(ChannelKind, [k.value for k in ChannelKind]),
    "ProtocolKind": _named(protocol.protocol_by_name, sorted(protocol.PROTOCOLS)),
    "SourceModel": functools.partial(_model, SourceModel),
    "ChannelModel": functools.partial(_model, ChannelModel),
    "DetectorModel": functools.partial(_model, DetectorModel),
}


def _session_config(doc: Any, args: argparse.Namespace) -> protocol.SessionConfig:
    """The session a config document describes, ``--n-pairs``/``--seed``
    overriding it; a field the document repeats stays an error."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    flags = {"n_pairs": args.n_pairs, "seed": args.seed}
    flags = {key: value for key, value in flags.items() if value is not None and doc.get(key) is not _REPEATED}
    return _model(protocol.SessionConfig, {**doc, **flags}, "")


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _write_report(doc: dict, out_path: str | None) -> None:
    _emit(json.dumps(doc, sort_keys=True, indent=2) + "\n", out_path)


def _chsh_report(est: chsh.ChshEstimate | None) -> dict[str, Any] | None:
    """The report's CHSH block, ``None`` where no S was estimated."""
    return None if est is None else {"S": est.s, "sigma_S": est.sigma_s, "correlators": list(est.correlators)}


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        detector = DetectorModel(efficiency=args.efficiency)
    except ValueError as exc:
        raise ConfigError(f"--efficiency: {exc}")
    spec = SweepSpec(
        mechanism=args.mechanism,
        grid=_parse_grid(args.grid),
        n_pairs=args.n_pairs,
        label=BellLabel(args.label),
        detector=detector,
        qber_mode=args.qber,
    )
    if args.seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {echo(str(args.seed))}")
    if args.workers < 1:
        raise ConfigError(f"--workers must be >= 1, got {echo(str(args.workers))}")
    rows = run_sweep(spec, args.seed, workers=args.workers)
    table = io.StringIO()
    write_sweep_table(rows, spec, args.seed, table, "," if args.format == "csv" else "\t")
    _emit(table.getvalue(), args.out)
    return EXIT_OK


def cmd_session(args: argparse.Namespace) -> int:
    path = _resolve_config_path(args.config)
    try:
        doc = json.loads(path.read_text(encoding="utf-8"), object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except ValueError as exc:  # not UTF-8, or an integer past Python's digit limit
        raise ConfigError(f"config {path} cannot be read: {exc}")
    cfg = _session_config(doc, args)
    try:
        record = protocol.run_session(cfg)
    except protocol.KeyMemoryError as exc:
        raise ConfigError(f"invalid session config: {exc}")
    except MemoryError:
        raise ConfigError(f"config field 'n_pairs': {cfg.n_pairs} pairs do not fit in memory")
    report = protocol.security_report(cfg, record)

    out: dict[str, Any] = {
        "format": REPORT_FORMAT,
        "kind": "session",
        "protocol": cfg.kind.name,
        "label": cfg.source.label.value,
        "seed": cfg.seed,
        "record": {
            "n_pairs": record.n_pairs,
            "n_coincident": record.n_coincident,
            "sifted_length": record.sifted_length,
            "disclosed_length": record.disclosed_length,
            "retained_length": int(record.key_bits_alice.size),
            "qber_hat": record.qber_hat,
            "qber_ci95": list(record.qber_ci),
            "per_basis_qber": {f"{k:g}": v for k, v in sorted(record.per_basis_qber.items())},
            "chsh": _chsh_report(record.chsh_subset),
        },
        "security": dataclasses.asdict(report),
    }
    if args.emit_keys:
        out["record"]["key_alice"] = (record.key_bits_alice + ord("0")).tobytes().decode("ascii")
        out["record"]["key_bob"] = (record.key_bits_bob + ord("0")).tobytes().decode("ascii")
    _write_report(out, args.out)
    return EXIT_OK


def cmd_thresholds(args: argparse.Namespace) -> int:
    thr = security.thresholds()
    if args.format == "json":
        _write_report(
            {"format": REPORT_FORMAT, "kind": "thresholds", **dataclasses.asdict(thr)},
            args.out,
        )
        return EXIT_OK
    lines = [
        f"delta_individual  {thr.delta_individual:.6f}   S(delta) = 2 on the linear law (analytic)",
        f"delta_collective  {thr.delta_collective:.6f}   root of 1 - 2 H(delta), bisection to 1e-6",
        f"delta_mi_zero     {thr.delta_mi_zero:.6f}   I(A:B) = I(A:E) crossing, bisection to 1e-6",
        f"S_at_individual   {thr.s_at_individual:.6f}   classical bound",
        f"S_at_collective   {thr.s_at_collective:.6f}   linear law at delta_collective",
        f"S_at_mi_zero      {thr.s_at_mi_zero:.6f}   linear law at delta_mi_zero",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def cmd_analyze(args: argparse.Namespace) -> int:
    window = args.accidental_window
    if window is not None and not 0.0 <= window < math.inf:
        raise ConfigError(f"--accidental-window must be finite and >= 0, got {window!r}")
    record = ingest.parse_counts(args.counts)
    estimate, report = ingest.analyze_counts(
        record,
        protocol=protocol.protocol_by_name(args.protocol),
        accidental_window=window,
    )
    _write_report(
        {
            "format": REPORT_FORMAT,
            "kind": "analysis",
            "counts_file": str(args.counts),
            "state": record.state_label.value,
            "chsh": _chsh_report(estimate),
            "security": dataclasses.asdict(report),
        },
        args.out,
    )
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """argparse's parser; each value it echoes in an error, quoted or unrecognized, is cut by :func:`echo`."""

    def error(self, message: str) -> NoReturn:
        quoted = r"""(['"])((?:\\.|(?!\1).)*)\1"""  # a value as repr() prints it
        super().error(re.sub(quoted, lambda m: m[1] + echo(m[2]) + m[1], message))

    def parse_args(self, args=None, namespace=None):
        parsed, extra = self.parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(map(echo, extra))}")
        return parsed


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="ebqkd",
        description="Entanglement-based QKD simulator and security analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="scan a disturbance mechanism over a grid")
    p_sweep.add_argument("--mechanism", required=True, choices=MECHANISMS)
    p_sweep.add_argument("--grid", required=True, help="comma-separated parameter values")
    p_sweep.add_argument("--n-pairs", type=int, default=100_000, dest="n_pairs")
    # Named values are read in any case, as a session config reads them.
    p_sweep.add_argument("--label", default="phi_plus", type=str.lower, choices=[l.value for l in BellLabel])
    p_sweep.add_argument("--efficiency", type=float, default=DetectorModel.efficiency)
    p_sweep.add_argument("--qber", default="mean", choices=("mean", "worst"),
                         help="basis-averaged or worst-basis QBER column")
    p_sweep.add_argument("--format", default="tsv", choices=("tsv", "csv"))
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_session = sub.add_parser("session", help="run one protocol session from a config file")
    p_session.add_argument("config", help=f"JSON config path (searched in ${CONFIG_DIR_ENV})")
    p_session.add_argument("--n-pairs", type=int, default=None, dest="n_pairs")
    p_session.add_argument("--seed", type=int, default=None)
    p_session.add_argument("--emit-keys", action="store_true",
                           help="include raw key bits in the report (off by default)")
    p_session.add_argument("--out", default=None)
    p_session.set_defaults(func=cmd_session)

    p_thr = sub.add_parser("thresholds", help="print safe-operation QBER thresholds")
    p_thr.add_argument("--format", default="text", choices=("text", "json"))
    p_thr.add_argument("--out", default=None)
    p_thr.set_defaults(func=cmd_thresholds)

    p_an = sub.add_parser("analyze", help="analyze a coincidence-count file")
    p_an.add_argument("counts", help="qkd-counts file path")
    p_an.add_argument("--protocol", default="bbm92", type=str.lower, choices=sorted(protocol.PROTOCOLS))
    p_an.add_argument("--accidental-window", type=float, default=None,
                      dest="accidental_window",
                      help="coincidence window / acquisition time; enables accidental subtraction")
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:  # CountFileError, empty bases and CHSH rows
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
