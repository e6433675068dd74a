"""Source-level rules for the package."""

import ast
from pathlib import Path

import braidedforms

PACKAGE = Path(braidedforms.__file__).parent


def _trees(skip=()):
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name not in skip:
            yield path.name, ast.parse(path.read_text(encoding="utf-8"))


def test_no_assert_statements():
    # invariants raise exceptions: `python -O` strips assert statements
    found = [f"{name}:{node.lineno}" for name, tree in _trees()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_matrix_layout_stays_in_matrix_module():
    # only matrix.py knows that entries are a flat row-major list; other
    # modules use m[r, c], m.nonzeros(), hstack/vstack and the constructors
    found = [f"{name}:{node.lineno}" for name, tree in _trees(skip=("matrix.py",))
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("entries", "_raw")]
    assert found == []
