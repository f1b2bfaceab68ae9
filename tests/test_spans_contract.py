"""The benchmark's traced pass (``bench/spans.py``) patches every function
named in its ``TARGETS`` after importing ``jmult.cli``.  A target that moves,
is renamed, or becomes a closure or a wrapped object would break that pass,
which the tier-1 suite does not otherwise run."""

import importlib.util
import sys
import types
from pathlib import Path

import jmult.cli  # noqa: F401  the benchmark imports this before patching

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def test_span_targets_are_plain_functions():
    for name, (modname, path) in _targets().items():
        owner = sys.modules[modname]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        fn = owner.__dict__[attr]
        assert isinstance(fn, types.FunctionType), name
        assert fn.__closure__ is None, name
