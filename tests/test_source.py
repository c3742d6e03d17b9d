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


def _bound_names(node):
    for alias in node.names:
        # `import a.b` binds `a`
        yield alias.asname or alias.name.split(".")[0]


def test_no_unused_imports():
    # a top-level import whose name the module never reads; __init__.py
    # imports are the public re-exports
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                found += [f"{path.name}:{node.lineno} {name}"
                          for name in _bound_names(node) if name not in used]
    assert found == []
