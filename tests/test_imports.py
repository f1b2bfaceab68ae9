"""Every name a module of the package imports is used in that module, no
module imports a private name from another module of the package, every
module-level private function is read somewhere in the package, and so is
every public function, class and method, but for a listed few.  No linter
is assumed to be installed, so the checks walk the syntax tree themselves.
Each name has one home: the package root imports nothing, the oracle imports
no module of the package, a fresh interpreter loads only what it imports,
and every m-torsion comes from ``lengths.torsion``: outside ``ideals`` and
``lengths`` no module saturates by m, and omega neither saturates nor builds
m.  The package defines one error class per outcome."""

import ast
import fnmatch
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import jmult

SOURCES = sorted(Path(jmult.__file__).parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def private_imports(source: str):
    """Private names imported from a module of the package, which is named
    by a relative import or by its full ``jmult.`` path."""
    return sorted(
        f"{node.module}.{a.name}" for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("jmult"))
        for a in node.names if a.name.startswith("_"))


def test_check_sees_a_private_import():
    source = ("from os import _exit\nfrom .a import _x, y\n"
              "from jmult.b import _z\nfrom . import c\n")
    assert private_imports(source) == ["a._x", "jmult.b._z"]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def _reads(node):
    """The names a syntax tree reads, as names or as attributes."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr


def unread_definitions(sources: dict, private: bool):
    """``module.name`` of each module-level function, or, when ``private`` is
    false, each public module-level function, class and method, that no
    module of ``sources`` (module name -> text) reads outside the
    definition's own body.  A private function's name starts with one
    underscore; a public one's with none."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = Counter(name for tree in trees.values() for name in _reads(tree))
    unread = []
    for mod, tree in trees.items():
        found = [(node.name, node) for node in tree.body
                 if isinstance(node, ast.FunctionDef)]
        if not private:
            for cls in tree.body:
                if isinstance(cls, ast.ClassDef):
                    found += [(cls.name, cls)] + [
                        (f"{cls.name}.{fn.name}", fn) for fn in cls.body
                        if isinstance(fn, ast.FunctionDef)]
        for qual, fn in found:
            name = fn.name
            if name.startswith("_") != private or name.startswith("__"):
                continue
            if reads[name] == sum(1 for read in _reads(fn) if read == name):
                unread.append(f"{mod}.{qual}")
    return sorted(unread)


def test_check_sees_an_unread_private_function():
    sources = {
        "a": "def _used():\n    pass\n\n\ndef _left(n):\n    return _left(n - 1)\n",
        "b": "from a import _used\n\n\ndef run():\n    return _used()\n",
    }
    assert unread_definitions(sources, private=True) == ["a._left"]


def test_every_private_function_has_a_reader():
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert unread_definitions(sources, private=True) == []


# public definitions that nothing in the package reads, each with the reason
# it stays
UNREAD_PUBLIC = {
    "lengths.truncated_dim": "the benchmark's span lengths.truncated_dim",
    "groebner.GroebnerBasis.certify": "the tests' brute-force basis check",
    "runner.Pipeline.cmd_*": "Pipeline.run dispatches them by name",
    "oracle.*": "the independent reference, whole whatever the runner reads",
}


def test_check_sees_an_unread_public_definition():
    sources = {
        "a": ("class Box:\n    def open(self):\n        return self.open()\n"
              "\n    def close(self):\n        pass\n\n\n"
              "def run(n):\n    return run(n - 1)\n"),
        "b": "from a import Box\n\n\ndef go():\n    Box().close()\n",
    }
    assert unread_definitions(sources, private=False) \
        == ["a.Box.open", "a.run", "b.go"]


def test_every_public_definition_has_a_reader():
    sources = {p.stem: p.read_text() for p in SOURCES}
    unread = unread_definitions(sources, private=False)
    assert [q for q in unread if not any(fnmatch.fnmatchcase(q, pattern)
                                         for pattern in UNREAD_PUBLIC)] == []
    # an entry that matches nothing has gained a reader or lost its definition
    assert [pattern for pattern in UNREAD_PUBLIC
            if not fnmatch.filter(unread, pattern)] == []


def saturations(source: str):
    """The ``.saturate(...)`` and ``Ideal.maximal(...)`` calls of a source,
    by the name they call."""
    return sorted(
        ast.unparse(node.func) for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and (node.func.attr == "saturate"
             or ast.unparse(node.func) == "Ideal.maximal"))


def saturations_by_m(source: str):
    """The ``.saturate(...)`` calls of a source that saturate by m: those
    whose argument is an ``Ideal.maximal(...)`` call, or a name or attribute
    that an assignment of the source binds to one."""
    tree = ast.parse(source)

    def maximal(node):
        return (isinstance(node, ast.Call)
                and ast.unparse(node.func) == "Ideal.maximal")

    m_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and maximal(node.value):
            m_names.update(ast.unparse(t) for t in node.targets)
        elif isinstance(node, ast.AnnAssign) and maximal(node.value):
            m_names.add(ast.unparse(node.target))
    return sorted(
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr == "saturate" and node.args
        and (maximal(node.args[0]) or ast.unparse(node.args[0]) in m_names))


def test_check_sees_a_saturation():
    source = ("m = Ideal.maximal(ctx)\nc = (a + b).saturate(m).intersect(x)\n"
              "t = torsion(x, a + b)\n")
    assert saturations(source) == ["(a + b).saturate", "Ideal.maximal"]
    source += ("d = a.saturate(Ideal.maximal(a.ctx))\ne = a.saturate(i)\n"
               "mi = m * i\nself.m: Ideal = Ideal.maximal(ctx)\n"
               "f = b.saturate(self.m)\n")
    assert saturations_by_m(source) == ["(a + b).saturate(m)",
                                        "a.saturate(Ideal.maximal(a.ctx))",
                                        "b.saturate(self.m)"]


def test_omega_takes_its_relative_colons_from_torsion():
    """Every m-torsion comes from ``lengths.torsion``, which serves every
    pair length, the correction terms' relative colons (A :_X m^inf) and the
    Northcott residual.  Omega neither saturates nor builds m itself; no
    other module but ``ideals``, which saturates, and ``lengths``, which owns
    ``torsion``, saturates by m (``reductions`` saturates by I, and
    ``northcott`` builds m for mI)."""
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert saturations(sources.pop("omega")) == []
    found = {stem: saturations_by_m(source)
             for stem, source in sources.items()
             if stem not in ("ideals", "lengths")}
    assert {stem: calls for stem, calls in found.items() if calls} == {}


def exception_classes(sources: dict):
    """``module.Name(Base, ...)`` of each module-level class of ``sources``
    (module name -> text) whose name or some base's name ends in Error,
    Warning or Exception."""
    ends = ("Error", "Warning", "Exception")
    found = []
    for mod, text in sources.items():
        for node in ast.parse(text).body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = [ast.unparse(b) for b in node.bases]
            if any(n.endswith(ends) for n in [node.name, *bases]):
                found.append(f"{mod}.{node.name}({', '.join(bases)})")
    return sorted(found)


def test_one_error_class_per_outcome():
    """The engine has one class for a resource cap (exit 4) and one for a
    broken construction guarantee (exit 5); a bad argument is a built-in
    ValueError.  The oracle keeps its own error, since it imports nothing of
    the engine, and the parser its line-and-column family."""
    sources = {p.stem: p.read_text() for p in SOURCES}
    assert exception_classes(sources) == sorted([
        "groebner.ComputationLimitError(RuntimeError)",
        "ideals.InternalInconsistencyError(RuntimeError)",
        "ideals.AlgebraWarning(UserWarning)",
        "oracle.OracleError(ValueError)",
        "parser.ProblemError(ValueError)",
        "parser.ProblemSyntaxError(ProblemError)",
        "parser.ProblemSemanticError(ProblemError)",
    ])


# the modules that hold the mathematics, and the front end that parses
# problems, holds the run's options and prints reports
ALGEBRA = ("ring", "groebner", "ideals", "lengths", "hilbert", "reductions",
           "omega", "northcott", "oracle")
FRONT_END = {"parser", "runner", "cli"}


def imported_names(source: str):
    """The dotted name each import statement binds, with a relative import
    read inside the package: ``from .parser import Options`` binds
    ``jmult.parser.Options``."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["jmult" if node.level else "",
                                          node.module]))
            names += [f"{base}.{a.name}" for a in node.names]
    return names


def test_check_sees_every_import_form():
    source = ("import os\nimport jmult.cli\nfrom .parser import Options\n"
              "from jmult.runner import run_command\nfrom . import ring\n")
    assert imported_names(source) == ["os", "jmult.cli", "jmult.parser.Options",
                                      "jmult.runner.run_command", "jmult.ring"]


@pytest.mark.parametrize("name", ALGEBRA)
def test_algebra_does_not_import_the_front_end(name):
    """An algebra module takes what it needs of the run's configuration as
    arguments, so it imports none of the front end."""
    source = (Path(jmult.__file__).parent / f"{name}.py").read_text()
    assert {n.split(".")[1] for n in imported_names(source)
            if n.startswith("jmult.")} & FRONT_END == set()


def test_oracle_imports_no_module_of_the_package():
    """The oracle is the independent reference: it reads nothing of the
    engine, not even inside a function."""
    source = (Path(jmult.__file__).parent / "oracle.py").read_text()
    assert [n for n in imported_names(source) if n.startswith("jmult.")] == []


def loaded_modules(statement: str):
    """The modules of the package that a fresh interpreter holds after
    running ``statement``."""
    src = str(Path(jmult.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    probe = (f"{statement}\nimport sys\n"
             "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'jmult'))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, env=env, timeout=60, check=True)
    return proc.stdout.split()


def test_an_import_loads_only_what_it_names():
    """The package root re-exports nothing, so importing one module loads
    that module and what it imports, and the CLI still loads every module,
    as the benchmark's spans need."""
    assert loaded_modules("import jmult") == ["jmult"]
    assert loaded_modules("import jmult.oracle") == ["jmult", "jmult.oracle"]
    assert loaded_modules("import jmult.cli") == sorted(
        "jmult" if p.stem == "__init__" else f"jmult.{p.stem}" for p in SOURCES)
