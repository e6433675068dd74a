"""Source-level rules for the package."""

import ast
from pathlib import Path

import braidedforms

PACKAGE = Path(braidedforms.__file__).parent


def test_no_assert_statements():
    # invariants raise exceptions: `python -O` strips assert statements
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
