"""Every count the package samples comes from one draw.

``measurement.sample_outcome_stream`` is the only function that calls
``multinomial`` or ``poisson``: sweeps, synthetic count files and
sessions all go through it, so its draw order is the one reproducibility
contract.  The package is read as text with ``ast`` (nothing is
imported), so a second sampler fails here however it is reached.
"""

import ast
from pathlib import Path

import ebqkd

PACKAGE = Path(ebqkd.__file__).resolve().parent
COUNT_DRAWS = {"multinomial", "poisson"}


def _count_draw_sites() -> set[tuple[str, str, str]]:
    """``(module, enclosing function, draw)`` of every call of a count draw."""
    sites = set()

    def visit(node: ast.AST, module: str, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, module, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in COUNT_DRAWS:
                    sites.add((module, scope, name))
            visit(child, module, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return sites


def test_only_sample_outcome_stream_draws_counts():
    assert _count_draw_sites() == {
        ("measurement", "sample_outcome_stream", "multinomial"),
        ("measurement", "sample_outcome_stream", "poisson"),
    }
