"""Source-level checks on the rankpit package."""

import ast
from pathlib import Path

import rankpit

SRC = Path(rankpit.__file__).parent


def test_no_assert_statements():
    # `python -O` strips assert statements, so every internal check must be
    # an explicit raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
