"""Each Bell label is defined once.

``qstate.BELL_TERMS`` is the only table in the package keyed by
``BellLabel`` members: the source reads it, and Bob's key flip and the
CHSH signs derive from it through ``qstate.ideal_correlator``.  The
package is read as text with ``ast`` (nothing is imported), so a second
per-label table fails here wherever it is written.
"""

import ast
from pathlib import Path

import ebqkd

PACKAGE = Path(ebqkd.__file__).resolve().parent


def _is_label(key: ast.AST | None) -> bool:
    """Whether a dict key is written ``BellLabel.X`` (or ``module.BellLabel.X``)."""
    if not isinstance(key, ast.Attribute):
        return False
    owner = key.value
    return (owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)) == "BellLabel"


def _label_tables() -> list[tuple[str, str]]:
    """``(module, assigned name)`` of every dict literal with a ``BellLabel`` key."""
    tables = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        named = {
            id(node.value): ast.unparse(node.target if isinstance(node, ast.AnnAssign) else node.targets[0])
            for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict) and any(map(_is_label, node.keys)):
                tables.append((path.stem, named.get(id(node), f"<dict at line {node.lineno}>")))
    return tables


def test_bell_terms_is_the_only_per_label_table():
    assert _label_tables() == [("qstate", "BELL_TERMS")]
