"""Output digests of the benchmark's ops, per source tree, and their differences.

Usage, from anywhere::

    python tools/bench_digests.py TREE [TREE]

Each ``TREE`` is the root of a checkout.  For each tree, in its own
interpreter, that tree's ``bench/run.load_program`` and ``bench/workloads``
run the first :data:`OPS` ops of every workload at :data:`SEED`; the tool
prints each op's output digest (``workloads.digest``), the ops that fail
their check and the ``src/ebqkd`` line count.  Given two trees it also
lists the ops whose digests differ.

Exit status: 1 if an op of either tree fails its check, 2 if a tree cannot
be run, else 0.  A digest that moves is reported, not failed: a change may
move an output by an ulp on purpose, and it says so.

Nothing is written into either tree: the interpreters run with ``-B``, so
no bytecode is cached, and the bench writes no file when it is only
imported and its ops are called.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

#: Ops run per workload, from op 0.
OPS = {"session": 16, "sweep": 64, "analyze": 96}

#: The workloads' seed.
SEED = 11

#: One tree's run: argv is the tree, the seed and OPS as JSON; prints one
#: JSON object, per workload the digests and the failed ops.
CHILD = """
import json, sys
sys.path.insert(0, sys.argv[1] + "/bench")
import run, workloads
prog = run.load_program()
result = {}
for name, n_ops in json.loads(sys.argv[3]).items():
    workload = workloads.WORKLOADS[name](prog, int(sys.argv[2]))
    digests, failed = [], []
    for index in range(n_ops):
        inp = workload.op_input(index)
        out = run.call(workload, inp)
        digests.append(workloads.digest(out))
        problem = workload.check(inp, out)
        if problem is not None:
            failed.append([index, problem])
    result[name] = {"digests": digests, "failed": failed}
print(json.dumps(result))
"""


def src_lines(tree: Path) -> int:
    """Lines of ``src/ebqkd/*.py``, counted as the bench's provenance counts them."""
    return sum(len(p.read_bytes().splitlines()) for p in sorted((tree / "src" / "ebqkd").glob("*.py")))


def run_tree(
    tree: Path, child: str = CHILD, args: tuple[str, ...] = (str(SEED), json.dumps(OPS)), needs: str = "bench/run.py"
) -> dict:
    """The JSON object that ``child`` prints last, run in a fresh
    interpreter of ``tree`` (``-B``, no ``PYTHONPATH``, working directory
    ``tree``) with argv ``[tree, *args]``; by default, this tool's ops.
    ``needs`` is a file the tree must hold."""
    if not (tree / needs).is_file():
        raise RuntimeError(f"{tree}: no {needs}")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    run = subprocess.run(
        [sys.executable, "-B", "-c", child, str(tree), *args],
        capture_output=True, text=True, cwd=tree, env=env,
    )
    if run.returncode != 0:
        raise RuntimeError(f"{tree}: the child did not run:\n{run.stderr.strip()}")
    return json.loads(run.stdout.splitlines()[-1])


def compare(a: dict, b: dict) -> list[str]:
    """The ops whose digests differ between two results, as ``workload op
    index``, in workload and op order; a workload or op that only one
    result has counts as differing."""
    moved = []
    for name in dict.fromkeys([*a, *b]):
        da, db = a.get(name, {}).get("digests", []), b.get(name, {}).get("digests", [])
        moved += [f"{name} op {i}" for i in range(max(len(da), len(db))) if da[i:i + 1] != db[i:i + 1]]
    return moved


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    results = []
    for tree in args.trees:
        try:
            result = run_tree(tree.resolve())
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results.append(result)
        print(f"tree {tree}: src/ebqkd {src_lines(tree)} lines, seed {SEED}")
        for name, r in result.items():
            print(f"  {name}: {len(r['digests'])} ops, {len(r['failed'])} failed")
            for index, problem in r["failed"]:
                print(f"    op {index} FAILED: {problem}")
            for index, d in enumerate(r["digests"]):
                print(f"    {name} op {index} {d}")
    if len(results) == 2:
        moved = compare(*results)
        print(f"digests that differ: {len(moved)}")
        for op in moved:
            print(f"  {op}")
    return 1 if any(r["failed"] for result in results for r in result.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
