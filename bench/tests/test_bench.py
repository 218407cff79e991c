"""Tests of the benchmark itself: its inputs, its traced run and its wrappers.

Run from the root of a checkout: ``python3 -m pytest -q bench/tests``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

@pytest.fixture(scope="module")
def traced():
    """Two traced runs of every workload at its real size."""
    return {name: [run.traced_run(name, 5) for _ in range(2)] for name in workloads.WORKLOADS}


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_inputs_are_deterministic_given_the_seed(name):
    prog = run.load_program()

    def inputs(seed):
        workload = workloads.WORKLOADS[name](prog, seed)
        return [workloads.canonical(workload.op_input(i)) for i in range(32)]

    assert inputs(7) == inputs(7)
    assert inputs(7) != inputs(8)


def test_counts_files_follow_the_program_layout_and_the_closed_form():
    prog = run.load_program()
    for layout in ("bbm92", "e91"):
        kind = prog.protocol.protocol_by_name(layout)
        required = prog.ingest.required_hwp_pairs(prog.chsh.canonical_settings(), kind)
        assert set(workloads.hwp_rows(layout)) == set(required)
    for label in workloads.LABELS:
        state = prog.optics.werner_state(prog.qstate.BellLabel(label), 0.9)
        settings = prog.chsh.canonical_settings(prog.qstate.BellLabel(label))
        assert prog.chsh.s_analytic(state, settings).s == pytest.approx(2 * math.sqrt(2) * 0.9, abs=1e-12)
        for a_hwp, b_hwp in workloads.hwp_rows("e91"):
            a, b = prog.measurement.AnalyzerSetting(a_hwp), prog.measurement.AnalyzerSetting(b_hwp)
            p_pp = prog.qstate.joint_probabilities(state, a, b).p_pp
            closed = 0.9 * workloads.malus(label, math.radians(2 * a_hwp), math.radians(2 * b_hwp)) + 0.025
            assert p_pp == pytest.approx(closed, abs=1e-12)


def test_every_counts_file_passes_its_check():
    workload = workloads.Analyze(run.load_program(), 3)
    assert sum(f.expected_s is None for f in workload.files) == workload.POOL // 8
    for f in workload.files:
        assert workload.check(f, run.call(workload, f)) is None


def test_traced_run_reports_every_per_layer_metric_and_counts_repeat(traced):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    assert [(m["name"], m["unit"]) for m in declared] == list(tracing.PER_LAYER_METRICS)
    for name, (first, second) in traced.items():
        assert first["correct"] and first["failed"] == 0, first["info"]
        assert first["info"]["outputs_identical"]
        assert list(first["metrics"]) == [m["name"] for m in declared]
        for metric, unit in tracing.PER_LAYER_METRICS:
            if unit != "s":
                assert first["metrics"][metric] == second["metrics"][metric], (name, metric)
        assert list(first["info"]["invariants"]) == list(tracing.INVARIANTS)
        assert first["info"]["invariants"] == second["info"]["invariants"], name
    values = {name: {k: m["value"] for k, m in runs[0]["metrics"].items()} for name, runs in traced.items()}
    assert values["session"]["measurement.sample_outcome_stream.pairs"] == workloads.Session.N_PAIRS
    assert 0 < traced["session"][0]["info"]["invariants"]["protocol.funnel.retained_per_pair"] < 1
    assert values["sweep"]["cli.sweep_point.calls"] == workloads.Sweep.GRID_POINTS
    assert values["analyze"]["ingest.parse_counts.calls"] == 1
    assert traced["analyze"][0]["info"]["invariants"]["ingest.rejected_ratio"] == 1 / 8


def test_traced_run_restores_every_rebound_name(traced):
    for first, _ in traced.values():
        assert first["info"]["still_wrapped"] == []
        assert first["info"]["rebound_names"] > len(tracing.TARGETS)
    for module in tracing.program_modules():
        for key, value in vars(module).items():
            assert not getattr(value, "bench_traced", False), f"{module.__name__}.{key}"


def test_installed_rebinds_every_importer_and_restores_on_error():
    prog = run.load_program()
    before = {(m.__name__, k): v for m in tracing.program_modules() for k, v in vars(m).items()}
    post_init = prog.qstate.TwoQubitState.__dict__["__post_init__"]
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert prog.protocol.intercept_resend.bench_traced
            assert prog.measurement.joint_probabilities.bench_traced
            assert prog.chsh.joint_probabilities.bench_traced
            assert prog.qstate.TwoQubitState.__dict__["__post_init__"].bench_traced
            raise RuntimeError("the traced block failed")
    after = {(m.__name__, k): v for m in tracing.program_modules() for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert prog.qstate.TwoQubitState.__dict__["__post_init__"] is post_init
