"""The program surface the benchmark's layer tracing relies on.

``bench/run.py --trace 1`` rebinds every ``(module, attribute)`` in
``bench/tracing.py``'s ``TARGETS`` and counts pairs from the
``stratum_idx`` argument of ``sample_outcome_stream``; the bench's own
tests also expect the wrappers in named importing modules.  These tests
read those files as text (nothing under ``bench/`` is imported or
written) so a rename or deletion that would break the traced run fails
here first.
"""

import ast
import functools
import importlib
import inspect
import re
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"
TRACING = BENCH / "tracing.py"


def _traced_targets() -> tuple[tuple[str, str], ...]:
    for node in ast.parse(TRACING.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "TARGETS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACING}")


@pytest.mark.parametrize("module,attr", _traced_targets())
def test_traced_target_resolves(module, attr):
    obj = functools.reduce(getattr, attr.split("."), importlib.import_module(module))
    assert callable(obj)


def _wrapped_importers() -> list[tuple[str, str]]:
    text = (BENCH / "tests" / "test_bench.py").read_text(encoding="utf-8")
    return sorted(set(re.findall(r"prog\.(\w+)\.(\w+)\.bench_traced", text)))


@pytest.mark.parametrize("module,attr", _wrapped_importers())
def test_bench_test_importers_resolve(module, attr):
    assert callable(getattr(importlib.import_module(f"ebqkd.{module}"), attr))


def test_sample_outcome_stream_keeps_stratum_idx():
    from ebqkd.measurement import sample_outcome_stream

    assert "stratum_idx" in inspect.signature(sample_outcome_stream).parameters
