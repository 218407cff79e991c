"""The comparison steps of ``tools/bench_digests.py`` and ``tools/cli_digests.py``.

The tools run whole benchmark workloads and command sets in fresh
interpreters, so they stay outside this suite; their comparisons are
checked here on hand-made results.
"""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name="bench_digests"):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_lists_the_ops_whose_digests_differ():
    compare = _tool().compare
    parent = {
        "session": {"digests": ["a0", "a1", "a2"], "failed": []},
        "sweep": {"digests": ["b0"], "failed": []},
    }
    change = {
        "session": {"digests": ["a0", "A1", "a2"], "failed": [[1, "raised"]]},
        "sweep": {"digests": ["b0", "b1"], "failed": []},
        "analyze": {"digests": ["c0"], "failed": []},
    }
    assert compare(parent, parent) == []
    assert compare(parent, change) == ["session op 1", "sweep op 1", "analyze op 0"]


def test_cli_comparison_names_the_commands_whose_digests_differ():
    tool = _tool("cli_digests")
    runs = tool.commands()
    groups = [group for group, _ in runs]
    assert {group: groups.count(group) for group in dict.fromkeys(groups)} == {
        "sweep": 25, "session": 24, "analyze": 2 * len(tool.FIXTURES) + 1, "thresholds": 2,
    }
    assert len(tool.FIXTURES) == 18
    parent = {}
    for k, group in enumerate(groups):
        parent.setdefault(group, {"digests": []})["digests"].append(f"d{k}")
    change = {group: {"digests": list(r["digests"])} for group, r in parent.items()}
    change["session"]["digests"][3] = "moved"
    change["thresholds"]["digests"][1] = "moved"
    names = tool.op_names(runs)
    assert [names[op] for op in tool.compare(parent, parent)] == []
    assert [names[op] for op in tool.compare(parent, change)] == [
        f"ebqkd session {list(tool.SESSIONS)[3]} --emit-keys --out report.json",
        "ebqkd thresholds --format json",
    ]
