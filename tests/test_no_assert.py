"""Soundness checks in the package must survive ``python -O``, which strips
``assert`` statements, so none may be written as one."""

import ast
from pathlib import Path

import toruslift

PACKAGE = Path(toruslift.__file__).resolve().parent


def test_package_has_no_assert_statements():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
