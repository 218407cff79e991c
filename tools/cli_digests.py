"""Output digests of a fixed set of ``ebqkd`` commands, per source tree, and their differences.

Usage, from anywhere::

    python tools/cli_digests.py TREE [TREE]

Each ``TREE`` is the root of a checkout.  For each tree, in its own
interpreter (``-B``, no ``PYTHONPATH``), that tree's ``src/ebqkd`` runs
every command of :func:`commands` through ``cli.main``, in a temporary
directory outside both trees that holds the session configs of
:data:`SESSIONS` and a copy of the tree's ``tests/fixtures/counts``.  The
tool prints one digest per command, covering its exit code, standard
output, standard error and ``--out`` file.  Given two trees it also lists
the commands whose digests differ.

The commands are ``sweep`` (every mechanism and Bell label on grids with
their edge values, each mechanism once more with ``--qber worst --format
csv`` and once with ``--workers 2``, and one run whose key basis is empty),
``session`` (BBM92 and E91, every label, three channels, with
``--emit-keys``), ``analyze`` (every count fixture with each protocol, one
with ``--accidental-window``) and ``thresholds`` (text and json).

Exit status: 2 if a tree cannot be run, 1 if two trees' digests differ,
else 0.  The tree runner and the comparison are those of
``tools/bench_digests.py``.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import json
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
sys.path.insert(0, str(TOOLS))
# Importing the bench tool caches no bytecode in this tree.
writes_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True
from bench_digests import compare, run_tree  # noqa: E402

sys.dont_write_bytecode = writes_bytecode

#: Sweep grids, each with its mechanism's edge values.
GRIDS = {
    "werner": "0,0.5,0.9,1",
    "imbalance": "0,0.3,0.7853981633974483,1.5707963267948966",
    "hom_visibility": "0,0.5,0.9,1",
    "intercept_fraction": "0,0.3,0.7,1",
}

LABELS = ("phi_plus", "phi_minus", "psi_plus", "psi_minus")

CHANNELS = {
    "identity": {"kind": "identity"},
    "depolarizing": {"kind": "depolarizing", "parameter": 0.1},
    "intercept": {"kind": "intercept_resend", "parameter": 0.3},
}

#: Session configs by file name.
SESSIONS = {
    f"{protocol}-{label}-{channel}.json": {
        "protocol": protocol,
        "source": {"label": label, "epsilon_rad": 0.7},
        "channel": CHANNELS[channel],
        "detector": {"efficiency": 0.8},
        "n_pairs": 20_000,
        "seed": 5,
    }
    for protocol, label, channel in itertools.product(("bbm92", "e91"), LABELS, CHANNELS)
}

#: The count fixtures, by file name, as this tool's own tree holds them.
FIXTURES = sorted(p.name for p in (TOOLS.parent / "tests" / "fixtures" / "counts").glob("*.txt"))

#: One tree's run: argv is the tree, the commands and the session configs
#: as JSON; prints one JSON object, per command group the digests.
CHILD = """
import contextlib, hashlib, io, json, os, shutil, sys, tempfile
tree = sys.argv[1]
sys.path.insert(0, tree + "/src")
from ebqkd import cli
commands, sessions = json.loads(sys.argv[2]), json.loads(sys.argv[3])
result = {}
with tempfile.TemporaryDirectory() as tmp:
    os.chdir(tmp)
    shutil.copytree(tree + "/tests/fixtures/counts", "fixtures")
    for name, doc in sessions.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    for group, argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        digest = hashlib.sha256(json.dumps([code, out.getvalue(), err.getvalue()]).encode())
        if "--out" in argv and os.path.exists(path := argv[argv.index("--out") + 1]):
            with open(path, "rb") as fh:
                digest.update(b"out" + fh.read())
            os.remove(path)
        result.setdefault(group, {"digests": []})["digests"].append(digest.hexdigest())
    os.chdir(tree)
print(json.dumps(result))
"""


def commands() -> list[tuple[str, list[str]]]:
    """Every command, as ``(group, argv)``, in the order the digests are listed."""
    sweep = ["sweep", "--n-pairs", "100000", "--seed", "7"]
    runs = []
    for mechanism, grid in GRIDS.items():
        point = [*sweep, "--mechanism", mechanism, "--grid", grid]
        runs += [("sweep", [*point, "--label", label]) for label in LABELS]
        runs.append(("sweep", [*point, "--qber", "worst", "--format", "csv", "--out", "sweep.csv"]))
        runs.append(("sweep", [*point, "--workers", "2"]))
    runs.append(("sweep", ["sweep", "--mechanism", "werner", "--grid", "0.9", "--n-pairs", "2",
                           "--efficiency", "1e-6", "--seed", "7"]))
    runs += [("session", ["session", name, "--emit-keys", "--out", "report.json"]) for name in SESSIONS]
    runs += [("analyze", ["analyze", f"fixtures/{name}", "--protocol", protocol])
             for name in FIXTURES for protocol in ("bbm92", "e91")]
    runs.append(("analyze", ["analyze", "fixtures/paper_point.txt", "--accidental-window", "1e-9"]))
    runs += [("thresholds", ["thresholds"]), ("thresholds", ["thresholds", "--format", "json"])]
    return runs


def op_names(runs: list[tuple[str, list[str]]]) -> dict[str, str]:
    """Each command's text, keyed as :func:`compare` names it: ``group op index``."""
    names, seen = {}, collections.Counter()
    for group, argv in runs:
        names[f"{group} op {seen[group]}"] = "ebqkd " + " ".join(argv)
        seen[group] += 1
    return names


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("trees", nargs="+", type=Path, metavar="TREE")
    args = parser.parse_args(argv)
    if len(args.trees) > 2:
        parser.error("give one or two trees")
    runs = commands()
    named = op_names(runs)
    results = []
    for tree in args.trees:
        try:
            result = run_tree(tree.resolve(), CHILD, (json.dumps(runs), json.dumps(SESSIONS)), "src/ebqkd/cli.py")
        except RuntimeError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        results.append(result)
        print(f"tree {tree}: {len(runs)} commands")
        for group, r in result.items():
            for index, d in enumerate(r["digests"]):
                print(f"  {d}  {named[f'{group} op {index}']}")
    if len(results) == 2:
        moved = compare(*results)
        print(f"commands whose digests differ: {len(moved)}")
        for op in moved:
            print(f"  {named[op]}")
        return 1 if moved else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
