"""Every name a module of the package imports is used in that module, and
every module-level private function is read somewhere in the package.  The
package ``__init__`` exists to re-export names and is exempt from the first
check.  No linter is assumed to be installed, so the checks walk the syntax
tree themselves."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import jmult

SOURCES = sorted(Path(jmult.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


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


def unread_private_functions(sources: dict):
    """``module.name`` of each module-level function with a private name that
    no module of ``sources`` (module name -> text) reads outside the
    function's own body."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = Counter(node.id if isinstance(node, ast.Name) else node.attr
                    for tree in trees.values() for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute)))
    unread = []
    for mod, tree in trees.items():
        for fn in tree.body:
            if (isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
                    and not fn.name.startswith("__")):
                own = sum(1 for node in ast.walk(fn)
                          if isinstance(node, ast.Name) and node.id == fn.name)
                if reads[fn.name] == own:
                    unread.append(f"{mod}.{fn.name}")
    return sorted(unread)


def test_check_sees_an_unread_private_function():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _left(n):\n    return _left(n - 1)\n",
        "b": "from a import _used\n\n\ndef run():\n    return _used()\n",
    }
    assert unread_private_functions(sources) == ["a._left"]


def test_every_private_function_has_a_reader():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unread_private_functions(sources) == []
