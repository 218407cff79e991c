"""The comparison step of ``tools/bench_digests.py``.

The tool runs whole benchmark workloads in fresh interpreters, so it stays
outside this suite; its comparison is checked here on hand-made results.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_digests.py"


def _tool():
    spec = importlib.util.spec_from_file_location("bench_digests", TOOL)
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
