"""Every name a module of the package imports is used in that module.  The
package ``__init__`` exists to re-export names and is exempt.  No linter is
assumed to be installed, so the check walks the syntax tree itself."""

import ast
from pathlib import Path

import pytest

import jmult

MODULES = sorted(p for p in Path(jmult.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


def unused_imports(source: str):
    """Names bound by an import statement and never read as a name."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(bound) - used)


def test_check_sees_an_unused_import():
    assert unused_imports("import os\nfrom re import sub, match\nsub\n") \
        == ["match", "os"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
