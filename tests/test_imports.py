"""The package imports only the standard library and mpmath.

Every third-party import is paid for in start-up time and resident memory
by each CLI run: importing numpy alone adds about 11 MB.
"""

import ast
import sys
from pathlib import Path

import toruslift

PACKAGE = Path(toruslift.__file__).resolve().parent
ALLOWED = set(sys.stdlib_module_names) | {"mpmath"}


def test_package_imports_only_the_standard_library_and_mpmath():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno}: {name}" for name in names
                      if name.split(".")[0] not in ALLOWED]
    assert found == []


def _unused_imports(tree):
    """Names a module imports and never reads, in import order."""
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported += [(alias.asname or alias.name.split(".")[0],
                          node.lineno) for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):  # names listed in __all__ are exported
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            used |= {elt.value for elt in node.value.elts}
    return [(name, line) for name, line in imported if name not in used]


def test_package_has_no_unused_imports():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{line}: {name}"
                  for name, line in _unused_imports(tree)]
    assert found == []
