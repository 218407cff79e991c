"""ebqkd benchmark: session, sweep and analyze workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload session --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all      # every workload in turn

The program is imported from ``src/`` of the same checkout; nothing is
installed.  All load comes from this one process and thread, as a closed
loop with a single client.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: import ``ebqkd`` (with numpy and scipy), generate the
  inputs from the seed and run one untimed warm-up op; median of
  :data:`SETUP_REPS` repetitions, each in a fresh interpreter, spread
  over the timed pass (see :func:`timed_pass`).
* ``peak_alloc_mb``: largest ``tracemalloc`` peak over a single op, in its
  own untimed pass over one block of ops.
* ``throughput``, ``latency_p50_s``, ``latency_tail_s``: whole blocks of ops
  run until ``--seconds`` have passed.  Throughput is work (pairs, grid
  points or files) per second spent in ops; it and the median count the
  fastest op of each cost class (see :meth:`Pass.metrics`).  The tail
  counts every op: it is the 95th percentile of the run, or a lower one
  where that leaves fewer than ten ops beyond it.

Every op's output is checked; an op that raises something unexpected or
fails its check counts as failed.  ``failed_ratio`` (failed over attempted
ops) is printed with the metrics; it is not in ``BENCHMARK.json`` because
it is 0 on a correct run; the result line carries ``failed`` and
``attempted`` instead.

``--trace 1`` runs a fixed number of ops twice, untraced and then with the
layer wrappers of ``tracing.py`` installed, and reports the per-layer
metrics, and apart from them the rejected and funnel shares of
``tracing.INVARIANTS``.  It fails the run if any output of the traced pass
differs from the untraced one, if the rejected share differs from the
share of malformed inputs, or if a wrapper is left bound afterwards.
Spans are written to ``bench/out/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import tracing  # noqa: E402
from workloads import WORKLOADS, digest  # noqa: E402

SETUP_REPS = 5
#: Highest percentile the tail is taken at.
TAIL_PERCENTILE = 95.0
PROGRAM_MODULES = ("qstate", "optics", "measurement", "chsh", "protocol", "security", "ingest", "cli")


class ProgramMissing(RuntimeError):
    """The checkout has no ``src/ebqkd`` to benchmark."""


def load_program() -> SimpleNamespace:
    """Import ``ebqkd`` afresh from this checkout's ``src/``.

    Previously imported ``ebqkd`` modules are dropped first, so every call
    returns unwrapped functions.
    """
    if not (SRC / "ebqkd" / "__init__.py").is_file():
        raise ProgramMissing(f"no ebqkd package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules if n == "ebqkd" or n.startswith("ebqkd.")]:
        del sys.modules[name]
    package = importlib.import_module("ebqkd")
    if Path(package.__file__).resolve().parent != SRC / "ebqkd":
        raise ProgramMissing(f"ebqkd was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"ebqkd.{m}") for m in PROGRAM_MODULES})


#: One set-up in a fresh interpreter: argv is the bench directory, the
#: workload and the seed; prints the seconds it took.
SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import run
workload = run.WORKLOADS[sys.argv[2]](run.load_program(), int(sys.argv[3]))
workload.run(workload.op_input(0))
print(time.perf_counter() - start)
"""


def setup_once(name: str, seed: int) -> float:
    """One set-up in its own interpreter, so it pays for importing numpy,
    scipy and ``ebqkd``."""
    child = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD, str(BENCH_DIR), name, str(seed)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(child.stdout.split()[-1])


def call(workload, inp):
    try:
        return workload.run(inp)
    except Exception as exc:  # an unexpected error is a failed op, judged by check()
        return exc


class Pass:
    """Latencies, work, failures and output digests of one pass over ops."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.works: list[int] = []
        self.failures: list[tuple[int, str]] = []
        self.digests: list[str] = []

    def record(self, workload, index: int, inp, latency: float, out) -> None:
        self.latencies.append(latency)
        self.works.append(workload.work(inp))
        self.digests.append(digest(out))
        problem = workload.check(inp, out)
        if problem is not None:
            self.failures.append((index, problem))

    def metrics(self, block: int) -> dict[str, float]:
        """End-to-end figures of the pass, whose ops come in blocks of ``block``.

        Throughput and the median count only the fastest op of each cost
        class, that is of each position in the block: throughput is the
        work of one block over the sum of those latencies, and the median
        is taken over the classes.  On a shared 2-vCPU host the CPU runs
        at full speed or up to about 2x slower, in phases of a second to
        minutes, and the share of slow time varies from run to run between
        none and all of it.  The median of all ops follows that share from
        seed to seed, and so does the median of the ten fastest ops of a
        class once slow phases fill most of a run.  Of the statistics
        tried, the fastest op of each class varied least across seeds.
        The price is that a slowdown that builds up late in a run (a leak,
        a growing cache, more GC work) does not move these two.

        The tail counts every op of the run, so it is the gated metric that
        such a slowdown moves: it is the latency with a share of
        1 - TAIL_PERCENTILE/100 of the ops beyond it, and at least ten.

        ``plain_throughput``, all work over all op time, is printed but not
        gated: over ten seeds it spread by a fifth to a quarter of its
        median on ``sweep`` and ``analyze``, as much as the bound.
        """
        lat = self.latencies
        n = len(lat)
        fastest = [min(range(c, n, block), key=lat.__getitem__) for c in range(block)]
        beyond = max(10, math.ceil(n * (1.0 - TAIL_PERCENTILE / 100.0)))
        return {
            "throughput": sum(self.works[i] for i in fastest) / sum(lat[i] for i in fastest),
            "latency_p50_s": statistics.median(lat[i] for i in fastest),
            "latency_tail_s": sorted(lat)[max(0, n - beyond - 1)],
            "latency_tail_percentile": 100.0 * max(0.0, 1.0 - beyond / n),
            "plain_throughput": sum(self.works) / sum(lat),
            "failed_ratio": len(self.failures) / n,
        }


def run_op(workload, index: int, result: Pass, tracer: tracing.Tracer | None = None) -> None:
    inp = workload.op_input(index)
    if tracer is not None:
        tracer.begin_op(index)
    start = time.perf_counter()
    out = call(workload, inp)
    latency = time.perf_counter() - start
    if tracer is not None:
        tracer.end_op()
    result.record(workload, index, inp, latency, out)


def run_ops(workload, indices, tracer: tracing.Tracer | None = None) -> Pass:
    result = Pass()
    for index in indices:
        run_op(workload, index, result, tracer)
    return result


def timed_pass(workload, seconds: float) -> tuple[Pass, list[float]]:
    """Whole blocks of ops until ``seconds`` of them have passed, and the
    SETUP_REPS set-up times.

    One set-up runs before the first block and one after each further
    share of 1/SETUP_REPS of ``seconds``, so the set-ups sample the host's
    speed across the run rather than in one burst.  Their time is not
    counted in ``seconds``.
    """
    result, setups = Pass(), []
    index, paused = 0, 0.0
    start = time.perf_counter()
    while True:
        if len(setups) < SETUP_REPS and time.perf_counter() - start - paused >= len(setups) * seconds / SETUP_REPS:
            before = time.perf_counter()
            setups.append(setup_once(workload.name, workload.seed))
            paused += time.perf_counter() - before
        for _ in range(workload.block):
            run_op(workload, index, result)
            index += 1
        if len(setups) == SETUP_REPS and time.perf_counter() - start - paused >= seconds:
            return result, setups


def peak_alloc_mb(workload) -> float:
    """Largest tracemalloc peak of a single op over one block, in MiB.

    Each peak counts from the start of the pass, so memory an earlier op
    left behind (a leak, a growing cache) adds to the peaks of later ops.
    """
    peak = 0
    tracemalloc.start()
    try:
        for index in range(workload.block):
            inp = workload.op_input(index)
            gc.collect()  # start each op without garbage left by the last one
            tracemalloc.reset_peak()
            call(workload, inp)
            peak = max(peak, tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    return peak / 2**20


E2E_UNITS = {
    "throughput": "work/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "peak_alloc_mb": "MiB",
    "setup_s": "s",
}


def measure(name: str, seed: int, seconds: float) -> dict:
    """The untraced run: allocation pass, then the timed pass with its set-ups."""
    workload = WORKLOADS[name](load_program(), seed)
    workload.run(workload.op_input(0))
    peak = peak_alloc_mb(workload)
    timed, setups = timed_pass(workload, seconds)
    stats = timed.metrics(workload.block)
    values = {**stats, "peak_alloc_mb": peak, "setup_s": statistics.median(setups)}
    return {
        "correct": not timed.failures,
        "attempted": len(timed.latencies),
        "failed": len(timed.failures),
        "metrics": {k: {"value": values[k], "unit": u} for k, u in E2E_UNITS.items()},
        "info": {
            "work_unit": workload.work_unit,
            "latency_tail_percentile": stats["latency_tail_percentile"],
            "plain_throughput": stats["plain_throughput"],
        },
        "failures": timed.failures,
    }


def traced_run(name: str, seed: int, spans_path: Path | None = None) -> dict:
    """Per-layer metrics from a traced pass, checked against an untraced one."""
    workload = WORKLOADS[name](load_program(), seed)
    workload.run(workload.op_input(0))
    indices = range(workload.trace_ops)
    plain = run_ops(workload, indices)
    tracer = tracing.Tracer()
    with tracing.installed(tracer) as rebound:
        traced = run_ops(workload, indices, tracer)
    leftovers = [
        f"{getattr(owner, '__name__', owner)}.{key}"
        for owner, key, original in rebound
        if getattr(owner, key) is not original
    ]
    mismatched = [i for i, (a, b) in enumerate(zip(plain.digests, traced.digests)) if a != b]
    if spans_path is not None:
        tracer.dump(spans_path)
    layers = tracer.layer_metrics(len(indices))
    units = dict(tracing.PER_LAYER_METRICS)
    failures = plain.failures + traced.failures + [(i, "traced output differs from untraced") for i in mismatched]
    malformed = sum(workload.malformed(workload.op_input(i)) for i in indices) / len(indices)
    if layers["ingest.rejected_ratio"] != malformed:
        failures.append((-1, f"rejected share {layers['ingest.rejected_ratio']} vs malformed share {malformed}"))
    plain_stats, traced_stats = plain.metrics(workload.block), traced.metrics(workload.block)
    return {
        "correct": not failures and not leftovers,
        "attempted": len(indices),
        "failed": len({i for i, _ in failures}),
        "metrics": {k: {"value": layers[k], "unit": u} for k, u in units.items()},
        "info": {
            "rebound_names": len(rebound),
            "invariants": {k: layers[k] for k in tracing.INVARIANTS},
            "outputs_identical": not mismatched,
            "still_wrapped": leftovers,
            "tracing_overhead": {
                k: traced_stats[k] - plain_stats[k]
                for k in ("throughput", "latency_p50_s", "latency_tail_s", "failed_ratio")
            },
        },
        "failures": failures,
    }


def git_commit() -> str | None:
    """The checkout's commit, or None outside a git repository."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return head.stdout.strip() if head.returncode == 0 else None


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "seed": seed,
        # Tracked as metadata only, never gated.
        "src_ebqkd_lines": sum(len(p.read_bytes().splitlines()) for p in sorted((SRC / "ebqkd").glob("*.py"))),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]

    try:
        results = {}
        for name in names:
            if args.trace:
                spans = BENCH_DIR / "out" / f"spans-{name}-seed{args.seed}.json"
                results[name] = traced_run(name, args.seed, spans_path=spans)
            else:
                results[name] = measure(name, args.seed, args.seconds)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("provenance " + json.dumps(provenance(args.seed), sort_keys=True))
    for name, result in results.items():
        print(f"{name}: attempted {result['attempted']}, failed {result['failed']}, " + json.dumps(result["info"]))
        for metric, m in result["metrics"].items():
            print(f"  {name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"  {name} failed_ratio = {result['failed'] / result['attempted']:.6g} 1")
        for index, problem in result["failures"][:5]:
            print(f"  {name} op {index} FAILED: {problem}", file=sys.stderr)
    if len(results) == 1:
        final = {k: result[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
