"""Outside-in layer tracing for the benchmark.

The program has no tracing of its own, so the benchmark times each layer
from outside: for the traced run it rebinds the public functions listed in
:data:`TARGETS` to timing wrappers, in every ``ebqkd`` module that holds a
reference to them (``protocol.intercept_resend``, ``chsh.joint_probabilities``
and so on), and puts the originals back afterwards.  No file of the program
changes.

A wrapper records one span per call made while an op is running: name,
start, end, parent span and op id, plus the counts listed in
:data:`_COUNTERS`.  Spans stay in memory; :meth:`Tracer.dump` writes them
once, at the end.  Wrappers only read the clock, so they consume none of
the program's randomness.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import sys
import time
from pathlib import Path

#: (module, attribute) of every traced function; ``Class.method`` wraps a
#: method on the class.  The span name is the module's last component plus
#: the attribute's first, e.g. ``qstate.TwoQubitState`` for the constructor
#: validation in ``TwoQubitState.__post_init__``.
TARGETS = (
    ("ebqkd.qstate", "joint_probabilities"),
    ("ebqkd.qstate", "TwoQubitState.__post_init__"),
    ("ebqkd.optics", "generate"),
    ("ebqkd.optics", "apply_channel"),
    ("ebqkd.measurement", "sample_outcome_stream"),
    ("ebqkd.measurement", "intercept_resend"),
    ("ebqkd.measurement", "intercept_strata"),
    ("ebqkd.measurement", "sample_outcomes"),
    ("ebqkd.measurement", "bob_flip"),
    ("ebqkd.protocol", "run_session"),
    ("ebqkd.protocol", "sift"),
    ("ebqkd.protocol", "security_report"),
    ("ebqkd.chsh", "s_from_counts"),
    ("ebqkd.chsh", "s_analytic"),
    ("ebqkd.security", "evaluate"),
    ("ebqkd.ingest", "parse_counts"),
    ("ebqkd.ingest", "analyze_counts"),
    ("ebqkd.cli", "sweep_point"),
)


def span_name(module: str, attr: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{attr.split('.', 1)[0]}"


LAYERS = tuple(span_name(m, a) for m, a in TARGETS)


def _pairs(bound, result) -> dict:
    return {"pairs": len(bound.arguments["stratum_idx"])}


def _bytes(bound, result) -> dict:
    source = bound.arguments["source"]
    return {"bytes": len(source)} if isinstance(source, (bytes, bytearray)) else {}


def _funnel(bound, result) -> dict:
    return {
        "pairs": result.n_pairs,
        "coincident": result.n_coincident,
        "sifted": result.sifted_length,
        "retained": len(result.key_bits_alice),
    }


#: Counts recorded on a span from the call's arguments and result.
_COUNTERS = {
    "measurement.sample_outcome_stream": _pairs,
    "ingest.parse_counts": _bytes,
    "protocol.run_session": _funnel,
}

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_METRICS = tuple(
    (f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in (("calls", "count"), ("self_s", "s"))
) + (
    ("measurement.sample_outcome_stream.pairs", "count"),
    ("ingest.parse_counts.bytes", "B"),
)

#: Shares the traced run reports apart from the metrics: they have no
#: better direction.  ``ingest.rejected_ratio`` is the share of ops
#: rejected with ``CountFileError``; it is fixed by the inputs, and the
#: traced run requires it to equal the share of malformed inputs.  The
#: funnel is fixed by the physics; each op's check holds it to the model.
INVARIANTS = (
    "ingest.rejected_ratio",
    "protocol.funnel.coincident_per_pair",
    "protocol.funnel.sifted_per_coincident",
    "protocol.funnel.retained_per_pair",
)


class Tracer:
    """In-memory span recorder for one traced pass.

    Wrappers record only between :meth:`begin_op` and :meth:`end_op`, so
    calls the benchmark makes to set up inputs or check outputs are not
    counted.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op_id: int | None = None
        self._stack: list[list] = []
        self._next_id = 0

    def _enter(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else None
        frame = [self._next_id, parent, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, attrs: dict | None) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, parent, name, start, child_s = frame
        duration = end - start
        if self._stack:
            self._stack[-1][4] += duration
        self.spans.append((span_id, parent, self.op_id, name, start, end, duration - child_s, attrs or {}))

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._enter("op")

    def end_op(self) -> None:
        self._exit(self._stack[-1], None)
        self.op_id = None

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            frame = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._exit(frame, {"error": type(exc).__name__})
                raise
            attrs = counter(signature.bind(*args, **kwargs), result) if counter else None
            self._exit(frame, attrs)
            return result

        traced.bench_traced = True
        return traced

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """Per-op means of calls, self time and counts, keyed as
        PER_LAYER_METRICS, and the shares named in INVARIANTS."""
        totals: dict[str, float] = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("calls", "self_s")}
        counts = {"pairs": 0, "bytes": 0, "coincident": 0, "sifted": 0, "retained": 0, "session_pairs": 0}
        rejected_ops = set()
        for _, _, op_id, name, _, _, self_s, attrs in self.spans:
            if name == "op":
                continue
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += self_s
            if name == "measurement.sample_outcome_stream":
                counts["pairs"] += attrs["pairs"]
            elif name == "ingest.parse_counts":
                counts["bytes"] += attrs.get("bytes", 0)
            elif name == "protocol.run_session" and "error" not in attrs:
                counts["session_pairs"] += attrs["pairs"]
                for key in ("coincident", "sifted", "retained"):
                    counts[key] += attrs[key]
            if name.startswith("ingest.") and attrs.get("error") == "CountFileError":
                rejected_ops.add(op_id)
        metrics = {key: value / n_ops for key, value in totals.items()}
        metrics.update({
            "measurement.sample_outcome_stream.pairs": counts["pairs"] / n_ops,
            "ingest.parse_counts.bytes": counts["bytes"] / n_ops,
            "ingest.rejected_ratio": len(rejected_ops) / n_ops,
            "protocol.funnel.coincident_per_pair": _ratio(counts["coincident"], counts["session_pairs"]),
            "protocol.funnel.sifted_per_coincident": _ratio(counts["sifted"], counts["coincident"]),
            "protocol.funnel.retained_per_pair": _ratio(counts["retained"], counts["session_pairs"]),
        })
        return metrics

    def dump(self, path: Path) -> None:
        """Write every recorded span as JSON, once."""
        fields = ("id", "parent", "op", "name", "start", "end", "self_s", "attrs")
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": fields, "spans": self.spans}, fh)


def _ratio(num: float, den: float) -> float:
    """A funnel ratio; 0 on workloads where no session runs."""
    return num / den if den else 0.0


def program_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items()) if name == "ebqkd" or name.startswith("ebqkd.")]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Rebind every target to its wrapper for the duration of the block.

    Yields the list of ``(owner, name, original)`` rebindings; all of them
    are restored on exit, also when the block raises.
    """
    rebound: list[tuple] = []
    try:
        for module_name, attr in TARGETS:
            name = span_name(module_name, attr)
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                rebound.append((cls, method, original))
                setattr(cls, method, tracer.wrap(name, original))
                continue
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original)
            for module in program_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        rebound.append((module, key, original))
                        setattr(module, key, wrapper)
        yield rebound
    finally:
        for owner, key, original in reversed(rebound):
            setattr(owner, key, original)
