"""Every count the package samples comes from one draw, and every
arrangement of cells from another.

``measurement.sample_outcome_stream`` is the only function that calls
``multinomial`` or ``poisson``: sweeps, synthetic count files and
sessions all go through it, so its draw order is the one reproducibility
contract for counts.  ``measurement.arrange_cells`` is the only function
that draws positions (``shuffle``, ``permutation``, ``permuted``,
``choice``, ``bytes``, ``integers``, ``random_raw``), itself or through
its two repair steps, which nothing else calls: a session's key is laid
out by it alone, so no second shuffle of the sifted stream can creep
back.
Generators are built (``spawn_rng``, ``default_rng``, ``SeedSequence``)
in ``measurement.spawn_rng`` and at one site per front end: a session,
a sweep point and a synthetic count file each draw from one generator.
The package is read as text with ``ast``, so a second sampler or
generator fails here however it is reached; two behavioural tests count
the generators a sweep and a count file build.
"""

import ast
from pathlib import Path

import ebqkd
from ebqkd import cli, ingest
from ebqkd.optics import bell_state
from ebqkd.qstate import BellLabel

PACKAGE = Path(ebqkd.__file__).resolve().parent
COUNT_DRAWS = {"multinomial", "poisson"}
ARRANGEMENT_DRAWS = {"shuffle", "permutation", "permuted", "choice", "bytes", "integers", "random_raw"}
REPAIR_STEPS = {"_sampled_positions", "_scanned_positions"}
GENERATORS = {"spawn_rng", "default_rng", "SeedSequence"}


def _draw_sites(draws: set[str]) -> set[tuple[str, str, str]]:
    """``(module, enclosing function, draw)`` of every call of one of ``draws``."""
    sites = set()

    def visit(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in draws:
                    sites.add((module, scope, name))
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return sites


def test_only_sample_outcome_stream_draws_counts():
    assert _draw_sites(COUNT_DRAWS) == {
        ("measurement", "sample_outcome_stream", "multinomial"),
        ("measurement", "sample_outcome_stream", "poisson"),
    }


def test_only_arrange_cells_draws_positions():
    assert _draw_sites(ARRANGEMENT_DRAWS) == {
        ("measurement", "arrange_cells", "random_raw"),
        ("measurement", "_sampled_positions", "integers"),
        ("measurement", "_scanned_positions", "choice"),
        ("measurement", "arrange_cells", "shuffle"),
    }
    assert _draw_sites(REPAIR_STEPS) == {
        ("measurement", "arrange_cells", "_sampled_positions"),
        ("measurement", "arrange_cells", "_scanned_positions"),
    }


def test_generators_are_built_once_per_front_end():
    assert _draw_sites(GENERATORS) == {
        ("measurement", "spawn_rng", "default_rng"),
        ("measurement", "spawn_rng", "SeedSequence"),
        ("protocol", "run_session", "default_rng"),
        ("cli", "sweep_point", "spawn_rng"),
        ("ingest", "synthesize_counts", "spawn_rng"),
    }


def _counting(monkeypatch, module):
    """Count the calls of ``module.spawn_rng`` from now on."""
    calls = []
    spawn = module.spawn_rng

    def counted(*args):
        calls.append(args)
        return spawn(*args)

    monkeypatch.setattr(module, "spawn_rng", counted)
    return calls


def test_a_sweep_builds_one_generator_per_grid_point(monkeypatch):
    calls = _counting(monkeypatch, cli)
    grid = (1.0, 0.9, 0.8, 0.7, 0.6)
    cli.run_sweep(cli.SweepSpec("werner", grid, n_pairs=1000), seed=3)
    assert calls == [(3, index) for index in range(len(grid))]


def test_a_count_file_builds_one_generator(monkeypatch):
    calls = _counting(monkeypatch, ingest)
    ingest.synthesize_counts(bell_state(BellLabel.PHI_PLUS), BellLabel.PHI_PLUS, n_pairs_per_row=1000, seed=7)
    assert calls == [(7,)]
