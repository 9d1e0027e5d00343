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
