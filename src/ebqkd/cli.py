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

from . import chsh, ingest, optics, protocol, security
from .measurement import (
    CoincidenceTable,
    DetectorModel,
    intercept_average_state,
    sample_outcomes,
    spawn_rng,
)
from .optics import ChannelKind, ChannelModel, SourceModel
from .qstate import BellLabel, echo

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
        if not 1 <= self.n_pairs < 2**63:  # numpy's binomial takes a 64-bit n
            raise ConfigError(f"n_pairs must be in [1, 2**63), got {echo(repr(self.n_pairs))}")
        if self.qber_mode not in ("mean", "worst"):
            raise ConfigError(f"qber mode must be 'mean' or 'worst', got {echo(self.qber_mode)!r}")


def _point_models(spec: SweepSpec, value: float) -> tuple[SourceModel, ChannelModel]:
    if spec.mechanism == "werner":
        return SourceModel(spec.label), ChannelModel.werner(value)
    if spec.mechanism == "imbalance":
        return SourceModel(spec.label, epsilon_rad=value), ChannelModel.identity()
    if spec.mechanism == "hom_visibility":
        return SourceModel(spec.label, hom_visibility=value), ChannelModel.identity()
    return SourceModel(spec.label), ChannelModel.intercept_resend(value)


def sweep_point(spec: SweepSpec, index: int, value: float, seed: int) -> dict[str, float]:
    """Analytic and sampled quantities for one grid point.

    Sampling uses ``n_pairs`` emitted pairs per analyzer configuration
    (four CHSH setting pairs plus one per key basis), drawn in that order
    from one generator, ``spawn_rng(seed, index)``, whatever the schedule.
    """
    source, channel = _point_models(spec, value)
    state = optics.apply_channel(optics.generate(source), channel)
    state = intercept_average_state(state, channel.eve_fraction)
    settings = chsh.canonical_settings(spec.label)
    s_analytic = chsh.s_analytic(state, settings).s

    pairs = settings.pairs() + protocol.BBM92.key_pairs()
    rows = sample_outcomes(state, pairs, spec.detector, spec.n_pairs, spawn_rng(seed, index))
    est = protocol.estimate(CoincidenceTable(rows), spec.label, protocol.BBM92, settings)
    qber = max(est.per_basis_qber.values()) if spec.qber_mode == "worst" else est.report.delta
    return {
        "mechanism_param": value,
        "S_analytic": s_analytic,
        "S_sampled": est.chsh.s,
        "sigma_S": est.chsh.sigma_s,
        "qber": qber,
        "I_AB": est.report.i_ab,
        "I_AE": est.report.i_ae,
        "r": est.report.r,
    }


def run_sweep(spec: SweepSpec, seed: int, workers: int = 1) -> list[dict[str, float]]:
    """All grid points, in grid order regardless of worker scheduling.

    The pool never has more workers than grid points or CPUs.
    """
    workers = min(workers, len(spec.grid), os.cpu_count() or 1)
    if workers <= 1:
        return [sweep_point(spec, i, v, seed) for i, v in enumerate(spec.grid)]
    from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing; pools only
    point = functools.partial(sweep_point, spec, seed=seed)
    chunk = math.ceil(len(spec.grid) / workers)  # one task per worker, not per point
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(point, range(len(spec.grid)), spec.grid, chunksize=chunk))


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
    p_sweep.add_argument("--label", default="phi_plus", choices=[l.value for l in BellLabel])
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
    p_an.add_argument("--protocol", default="bbm92", choices=sorted(protocol.PROTOCOLS))
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
