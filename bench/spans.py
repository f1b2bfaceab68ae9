"""Spans around the calls into each layer's public functions, recorded from
the benchmark's own code: jmult itself is not changed.

``Tracer.install`` replaces every binding of each function in ``TARGETS``,
in every loaded ``jmult`` module (``from .x import y`` makes one binding per
importing module), with a wrapper that records a span.  It also reroutes the
function's own code object through a counter, so every call is counted
directly whatever name it was reached by; ``escapes`` compares the two
counts.  Spans stay in memory until ``layer_metrics`` reads them.
"""

from __future__ import annotations

import contextlib
import sys
import time
import types
from collections import Counter

# span name -> (module, attribute path) of the function it wraps
TARGETS = {
    "groebner.buchberger_raw": ("jmult.groebner", "buchberger_raw"),
    "groebner.normal_form": ("jmult.groebner", "GroebnerBasis.normal_form"),
    "lengths.pair_length": ("jmult.lengths", "pair_length"),
    "lengths.truncated_dim": ("jmult.lengths", "truncated_dim"),
    "ideals.saturate": ("jmult.ideals", "Ideal.saturate"),
    "ideals.colon": ("jmult.ideals", "Ideal.colon"),
    "ideals.colon_element": ("jmult.ideals", "Ideal.colon_element"),
    "ideals.intersect": ("jmult.ideals", "Ideal.intersect"),
    "hilbert.fit": ("jmult.hilbert", "fit_hilbert_polynomial"),
    "omega.omega": ("jmult.omega", "OmegaEvaluator.omega"),
    "omega.j_via_sums": ("jmult.omega", "j_via_sums"),
    "reductions.analytic_spread": ("jmult.reductions", "analytic_spread"),
    "reductions.general_minimal_reduction":
        ("jmult.reductions", "general_minimal_reduction"),
    "reductions.j_zero": ("jmult.reductions", "j_zero"),
    "reductions.e_one_bar": ("jmult.reductions", "e_one_bar"),
    "northcott.assemble": ("jmult.northcott", "assemble_northcott"),
    "oracle.quotient_length": ("jmult.oracle", "mon_quotient_length"),
    "oracle.coefficients": ("jmult.oracle", "oracle_hilbert_coefficients"),
    "parser.parse_problem": ("jmult.parser", "parse_problem"),
    "runner.run": ("jmult.runner", "Pipeline.run"),
    "runner.emit": ("jmult.runner", "emit_report"),
}
ROOT = "runner.main"  # one per job, opened by the benchmark around cli.main

IDEAL_OPS = ("ideals.saturate", "ideals.colon", "ideals.colon_element",
             "ideals.intersect")

# time metric -> the spans it covers; a span nested in another span of the
# same group is not counted twice
TIME_GROUPS = {
    "groebner.s": ("groebner.buchberger_raw",),
    "groebner.normal_form_s": ("groebner.normal_form",),
    "lengths.truncation_s": ("lengths.truncated_dim",),
    "ideals.saturate_s": ("ideals.saturate",),
    "ideals.colon_s": ("ideals.colon", "ideals.colon_element"),
    "ideals.intersect_s": ("ideals.intersect",),
    "hilbert.fit_s": ("hilbert.fit",),
    "omega.omega_s": ("omega.omega",),
    "omega.sums_s": ("omega.j_via_sums",),
    "reductions.spread_s": ("reductions.analytic_spread",),
    "reductions.search_s": ("reductions.general_minimal_reduction",),
    "reductions.ring_s": ("reductions.j_zero", "reductions.e_one_bar"),
    "northcott.s": ("northcott.assemble",),
    "oracle.s": ("oracle.quotient_length", "oracle.coefficients"),
    "parser.s": ("parser.parse_problem",),
    "runner.emit_s": ("runner.emit",),
}
SELF_LAYERS = ("lengths", "ideals", "hilbert", "omega", "reductions", "runner")

# the code of ``def _direct(*args, **kwargs): return hook(*args, **kwargs)``,
# with the string constant "hook" replaced by the hook when it is used
_DIRECT = next(c for c in compile(
    "def _direct(*args, **kwargs):\n    return ['hook'][0](*args, **kwargs)\n",
    "<bench-direct-count>", "exec").co_consts if isinstance(c, types.CodeType))


class Span:
    __slots__ = ("name", "job", "parent", "via", "start", "end", "child_s",
                 "bases", "attrs")

    def __init__(self, name, job, parent, via=None):
        self.name = name
        self.job = job
        self.parent = parent
        self.via = via            # the module whose binding was called
        self.child_s = 0.0        # time covered by direct child spans
        self.bases = 0            # buchberger_raw spans in this subtree
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.direct = Counter()   # calls counted by the function's own code
        self.job = None
        self._undo = []

    # -- recording ------------------------------------------------------------

    def _open(self, name, via=None) -> Span:
        span = Span(name, self.job, self.stack[-1] if self.stack else None, via)
        self.stack.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span):
        span.end = time.perf_counter()
        self.stack.pop()
        self.spans.append(span)
        if span.name == "groebner.buchberger_raw":
            span.bases += 1
        if span.parent is not None:
            span.parent.child_s += span.duration
            span.parent.bases += span.bases

    @contextlib.contextmanager
    def job_span(self, job: str):
        self.job = job
        span = self._open(ROOT)
        try:
            yield
        finally:
            self._close(span)
            self.job = None

    def _wrapper(self, name, fn, via):
        def traced(*args, **kwargs):
            span = self._open(name, via)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            span.attrs = _attrs(name, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # -- patching ---------------------------------------------------------------

    def install(self):
        import jmult.cli  # noqa: F401  load every module the CLI binds into
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "jmult" or n.startswith("jmult.")]
        for name, (modname, path) in TARGETS.items():
            owner = sys.modules[modname]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = owner.__dict__[attr]
            self._count_directly(name, fn)
            if outer:  # a method: its class holds the only binding
                self._patch(owner, attr, self._wrapper(name, fn, modname))
                continue
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, binding,
                                    self._wrapper(name, fn, mod.__name__))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _patch(self, owner, attr, value):
        old = owner.__dict__[attr]
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def _count_directly(self, name, fn):
        """Give ``fn`` code that counts the call and then runs its original
        code.  The function object keeps its identity, so a call reaches the
        counter through any reference to it, patched or not."""
        if fn.__closure__:
            raise TypeError(f"{name}: cannot reroute a closure")
        original = fn.__code__
        body = types.FunctionType(original, fn.__globals__, fn.__name__,
                                  fn.__defaults__)
        body.__kwdefaults__ = fn.__kwdefaults__
        counts = self.direct

        def hook(*args, **kwargs):
            counts[name] += 1
            return body(*args, **kwargs)

        fn.__code__ = _DIRECT.replace(
            co_consts=tuple(hook if c == "hook" else c for c in _DIRECT.co_consts),
            co_name=original.co_name, co_qualname=original.co_qualname)
        self._undo.append(lambda: setattr(fn, "__code__", original))

    # -- checks and metrics ----------------------------------------------------------

    def escapes(self) -> dict:
        """Functions whose direct call count differs from their span count:
        some call reached the function without passing through a span."""
        spans = Counter(s.name for s in self.spans)
        return {name: {"spans": spans[name], "direct": self.direct[name]}
                for name in TARGETS if spans[name] != self.direct[name]}

    def counts(self) -> dict:
        """Span counts per job and span name."""
        out = {}
        for s in self.spans:
            out.setdefault(s.job, Counter())[s.name] += 1
        return {job: dict(sorted(c.items())) for job, c in out.items()}


def _attrs(name, args, result):
    if name == "groebner.buchberger_raw":
        return {"rows_in": len(args[0]), "rows_out": len(result)}
    if name == "lengths.truncated_dim":
        return {"m": args[1]}
    if name == "hilbert.fit":
        return {"degrees": len(result.values)}
    return None


def _outermost(span: Span, group) -> bool:
    node = span.parent
    while node is not None:
        if node.name in group:
            return False
        node = node.parent
    return True


def layer_metrics(spans) -> dict:
    """Per-layer metric name -> (value, unit) over every recorded span."""
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def n(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()) if s.attrs)

    out = {}
    for metric, group in TIME_GROUPS.items():
        out[metric] = (sum(s.duration for g in group for s in by_name.get(g, ())
                           if _outermost(s, group)), "s")
    bases = by_name.get("groebner.buchberger_raw", ())
    truncations = sum(1 for s in bases if s.via == "jmult.lengths")
    ops = [s for name in IDEAL_OPS for s in by_name.get(name, ())]
    out.update({
        "groebner.bases": (len(bases), "count"),
        "groebner.rows_in": (attr_sum("groebner.buchberger_raw", "rows_in"), "count"),
        "groebner.rows_out": (attr_sum("groebner.buchberger_raw", "rows_out"), "count"),
        "groebner.normal_forms": (n("groebner.normal_form"), "count"),
        "lengths.pair_lengths": (n("lengths.pair_length"), "count"),
        "lengths.truncations": (truncations, "count"),
        "lengths.max_m": (max((s.attrs["m"] for s in by_name.get("lengths.truncated_dim", ())
                               if s.attrs), default=0), "degree"),
        "lengths.samples_per_length":
            (truncations / max(n("lengths.pair_length"), 1), "ratio"),
        "ideals.saturate_calls": (n("ideals.saturate"), "count"),
        "ideals.colon_calls": (n("ideals.colon") + n("ideals.colon_element"), "count"),
        "ideals.intersect_calls": (n("ideals.intersect"), "count"),
        "ideals.memo_hit_frac":
            (sum(1 for s in ops if s.bases == 0) / max(len(ops), 1), "ratio"),
        "hilbert.degrees": (attr_sum("hilbert.fit", "degrees"), "count"),
        "omega.rows": (n("omega.omega"), "count"),
        "oracle.calls": (n("oracle.quotient_length") + n("oracle.coefficients"), "count"),
        "trace.spans": (len(spans), "count"),
    })
    for layer in SELF_LAYERS:
        out[f"{layer}.self_s"] = (sum(s.duration - s.child_s for s in spans
                                      if s.name.split(".")[0] == layer), "s")
    return out
