"""Command dispatch and report assembly.

One pipeline instance per problem and run: expensive artifacts (analytic
spread, the fitted record, the sampled reduction, correction evaluators) are
computed at most once and shared by whichever command is running.  The run's
``Options`` are passed beside the parsed problem, never inside it.  Reports
are plain dicts with a fixed key order, so identical (input, seed, config)
runs emit byte-identical JSON.

Exit codes: 0 clean, 2 input error (parse error, zero ideal, an ideal or a
relation outside the maximal ideal m at the origin, ring of dimension 0), 3
hypothesis-surrogate failure (results are still printed, marked), 4 a
resource cap, or a compared value that is infinite, 5 internal cross-check
violation: a compared value that is finite and wrong, or an internal
inconsistency such as an exact division that failed, a length display whose
smaller ideal is not contained in the larger one, or any other stray
built-in error, reported instead of a traceback.
"""

from __future__ import annotations

import json
from functools import cached_property

from .groebner import ComputationLimitError
from .hilbert import FitError, fit_hilbert_polynomial
from .ideals import ring_dimension
from .lengths import INFINITE, loc_quotient_length
from .northcott import assemble_northcott
from .omega import (OmegaEvaluator, combined_verdict, j_one_depth_formula,
                    j_via_sums, master_identity_check)
from .oracle import MonomialIdeal, OracleError, mon_quotient_length, oracle_hilbert_coefficients
from .parser import Options, ProblemSpec, print_problem
from .reductions import (GeneralReduction, ReductionSearchError,
                         analytic_spread, general_minimal_reduction, j_zero,
                         residual_height_check, sample_general_elements,
                         valabrega_valla_check, e_one_bar)

COMMANDS = ("hilbert", "coeffs", "jmult", "reduction", "depthcheck", "omega",
            "northcott", "oracle")

OK, PARSE_ERROR, HYPOTHESIS_FAIL, CAP_OR_INFINITE, CROSS_CHECK = 0, 2, 3, 4, 5


class _piece(cached_property):
    """A ``cached_property`` that keeps the exception it raised too, so a
    failing piece costs its time once, though both report sections read it."""

    def __get__(self, pipeline, owner=None):
        if pipeline is not None and self.attrname in pipeline.failed:
            raise pipeline.failed[self.attrname]
        try:
            return super().__get__(pipeline, owner)
        except Exception as exc:
            pipeline.failed[self.attrname] = exc
            raise


class Pipeline:
    """Shared lazy state for one parsed problem under one run's options."""

    def __init__(self, spec: ProblemSpec, options: Options):
        self.spec = spec
        self.ctx = spec.ring
        self.ideal = spec.ideal
        self.opt = options
        self.diagnostics: list[str] = []
        self.severity = OK
        self.failed: dict[str, Exception] = {}  # lazy piece -> its error

    # -- severity ----------------------------------------------------------

    def flag(self, severity: int, note: str | None = None):
        """Raise the exit code to ``severity`` and record ``note`` once."""
        self.severity = max(self.severity, severity)
        if note and note not in self.diagnostics:
            self.diagnostics.append(note)

    def verdict(self, value, expected: int, mismatch: str, undecided: str):
        """A route value (an int, or INFINITE) against the fitted
        ``expected``: True when they agree; False for a finite mismatch, a
        cross-check violation (exit 5, ``mismatch`` noted); None for
        INFINITE, which leaves the comparison undecided (exit 4,
        ``undecided`` noted)."""
        agrees = _agrees(value, expected)
        if agrees is False:
            self.flag(CROSS_CHECK, mismatch)
        elif agrees is None:
            self.flag(CAP_OR_INFINITE, undecided)
        return agrees

    # -- lazy shared pieces -------------------------------------------------

    @_piece
    def dim(self) -> int:
        return ring_dimension(self.ctx)

    @_piece
    def spread(self) -> int:
        return analytic_spread(self.ideal)

    @_piece
    def reduction(self) -> GeneralReduction:
        """The general minimal reduction.  When the spread falls short of the
        dimension or the search fails, d elements are still sampled for the
        surrogate, and their ``r`` is None."""
        if self.spread == self.dim:
            try:
                return general_minimal_reduction(self.ideal, self.opt.seed)
            except ReductionSearchError as exc:
                self.flag(CAP_OR_INFINITE, str(exc))
        else:
            # hypotheses_json sets the exit code for this fact
            self.flag(OK, f"analytic spread {self.spread} is below the ring "
                          f"dimension {self.dim}; reduction-based routes are "
                          f"unavailable")
        return sample_general_elements(self.ideal, self.dim, self.opt.seed)

    @property
    def nmax(self) -> int:
        r = self.reduction.r
        if self.opt.nmax is not None:
            return self.opt.nmax
        return (r if r is not None else 0) + self.dim + 2

    @_piece
    def record(self):
        return fit_hilbert_polynomial(self.ideal, window=self.opt.window,
                                      extend_to=self.nmax + self.dim + 1)

    @_piece
    def surrogate(self):
        return residual_height_check(self.reduction)

    @_piece
    def m_primary(self) -> bool:
        """Whether I is primary to m in the local ring at the origin, that
        is whether R/I has finite length there.  Components of I away from
        the origin do not count; run() has already checked that I is
        nonzero and inside m."""
        return loc_quotient_length(self.ideal) != INFINITE

    @property
    def hypotheses_effective(self) -> bool:
        asserted = self.opt.gd_asserted and self.opt.an_asserted
        return (self.spread == self.dim and self.surrogate["passed"]
                and (self.m_primary or asserted))

    @_piece
    def evaluator(self) -> OmegaEvaluator:
        return OmegaEvaluator(self.reduction, self.record)

    # -- envelope -------------------------------------------------------------

    def hypotheses_json(self):
        if not self.surrogate["passed"]:
            self.flag(HYPOTHESIS_FAIL,
                      "residual-height surrogate failed; the identity and "
                      "verdict hypotheses do not hold for this input")
        if self.spread != self.dim:
            self.flag(HYPOTHESIS_FAIL)  # noted by ``reduction``
        return {
            "dim": self.dim,
            "analytic_spread": self.spread,
            "spread_equals_dim": self.spread == self.dim,
            "m_primary": self.m_primary,
            "residual_surrogate": self.surrogate,
            "flags": self.opt.flags_json(),
            "effective": self.hypotheses_effective,
        }

    def envelope(self, results: dict, hypotheses: dict | None) -> dict:
        return {
            "input": print_problem(self.spec),
            "seed": self.opt.seed,
            "char": self.ctx.char,
            "hypotheses": hypotheses,
            "results": results,
            "diagnostics": list(self.diagnostics),
        }

    def run(self, command: str) -> dict:
        if command not in COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        if command != "oracle":
            # a polynomial lies in m exactly when its constant term is zero
            origin = (0,) * self.ctx.nvars
            msg = None
            if any(origin in f.terms for f in self.ctx.relation_polys()):
                msg = ("a relation has a nonzero constant term, so the local "
                       "ring at the origin is zero")
            elif any(origin in g.terms for g in self.ideal.gens):
                msg = ("a generator has a nonzero constant term, so the ideal "
                       "is the unit ideal at the origin")
            elif self.ideal.is_zero():
                msg = "the ideal must be nonzero"
            elif self.dim == 0:
                msg = "the working ring must have positive dimension"
            if msg:
                self.flag(PARSE_ERROR, msg)
                return self.envelope({"error": msg}, None)
        results = self._captured(getattr(self, f"cmd_{command}"))
        hypotheses = (None if command == "oracle"
                      else self._captured(self.hypotheses_json))
        return self.envelope(results, hypotheses)

    def _captured(self, section):
        """``section()``, or ``{"error": message}`` with exit 4 for a cap or
        a failed fit and 5 for a bug, so it erases no other section."""
        try:
            return section()
        except (ComputationLimitError, FitError) as exc:
            self.flag(CAP_OR_INFINITE, str(exc))
            return {"error": str(exc)}
        except (ArithmeticError, LookupError, RuntimeError, TypeError,
                ValueError) as exc:
            self.flag(CROSS_CHECK, f"internal inconsistency: {exc}")
            return {"error": str(exc)}

    # -- commands ----------------------------------------------------------------

    def cmd_hilbert(self) -> dict:
        rec = self.record
        return {
            "values": list(rec.values),
            "j": list(rec.coefficients),
            "window": list(rec.window),
            "postulation": rec.postulation,
        }

    def cmd_coeffs(self) -> dict:
        rec = self.record
        d = self.dim
        red = self.reduction
        j_fit = list(rec.coefficients)
        record_sums = [rec.sum_route_coefficient(i) for i in range(1, d + 1)]

        routes = {"fit": j_fit, "record_sums": record_sums}
        agreement = {
            "fit_vs_record_sums": j_fit[1:] == record_sums,
        }
        if not agreement["fit_vs_record_sums"]:
            self.flag(CROSS_CHECK, "difference-sum identity disagrees with the "
                                   "fitted coefficients")

        table = {"omega": [], "master_identity": None}
        if red.r is not None:
            ev = self.evaluator
            routes["jzero"] = j_zero(red)
            routes["e1_reduction_ring"] = e_one_bar(red)
            routes["sums"] = [j_via_sums(ev, i) for i in range(1, d + 1)]
            routes["depth_formula"] = j_one_depth_formula(red)

            agreement["j0_vs_jzero"] = self._jzero_verdict(routes["jzero"],
                                                           j_fit[0])
            sums = zip(routes["sums"], j_fit[1:])
            if self.hypotheses_effective:
                agreement["fit_vs_sums"] = combined_verdict(
                    self.verdict(v, j, "summation route disagrees with the "
                                       "fitted coefficients under passing "
                                       "hypotheses", f"not-applicable: {v}")
                    for v, j in sums)
            else:
                word = {True: "agrees", False: "differs",
                        None: "not-applicable"}[
                    combined_verdict(_agrees(v, j) for v, j in sums)]
                agreement["fit_vs_sums"] = (f"diagnostic: {word} "
                                            "(hypotheses not in force)")
            table = self._omega_table()
        else:
            routes["jzero"] = "not-applicable (analytic spread below dim)"

        results = {
            "j": j_fit,
            "routes": routes,
            "agreement": agreement,
            "reduction": self._reduction_json(),
            "northcott": self.cmd_northcott(),
            "postulation": rec.postulation,
            "hilbert_values": list(rec.values),
            "window": list(rec.window),
            **table,
        }
        if self.opt.oracle:
            results["oracle"] = self._oracle_cross_check(j_fit)
        return results

    def _jzero_verdict(self, jz, j0: int):
        """The reduction-ring multiplicity against the fitted j_0."""
        return self.verdict(jz, j0,
                            "fitted leading coefficient disagrees with the "
                            "reduction-ring multiplicity",
                            "reduction-ring multiplicity did not come out "
                            "finite despite matching analytic spread")

    def _reduction_json(self):
        red = self.reduction
        return {
            "r": red.r,
            "seed": red.seed,
            "elements": [str(e) for e in red.elements],
        }

    def cmd_jmult(self) -> dict:
        rec = self.record
        red = self.reduction
        out = {
            "j0": rec.coefficients[0],
            "analytic_spread": self.spread,
            "dim": self.dim,
            "positivity_consistent":
                (rec.coefficients[0] != 0) == (self.spread == self.dim),
        }
        if not out["positivity_consistent"]:
            self.flag(CROSS_CHECK, "leading coefficient positivity disagrees "
                                   "with the analytic spread criterion")
        if red.r is not None:
            out["jzero_route"] = j_zero(red)
            out["agrees"] = self._jzero_verdict(out["jzero_route"],
                                                rec.coefficients[0])
        return out

    def cmd_reduction(self) -> dict:
        out = self._reduction_json()
        out["analytic_spread"] = self.spread
        if out["r"] is None and self.spread == self.dim:
            self.flag(CAP_OR_INFINITE, "no reduction found below the cap")
        return out

    def cmd_depthcheck(self) -> dict:
        red = self.reduction
        if red.r is None:
            return {"error": "depth check needs a general minimal reduction "
                             "(analytic spread must equal the dimension)"}
        rep = valabrega_valla_check(red, self.nmax,
                                    an_asserted=self.opt.an_asserted
                                    or self.m_primary)
        if rep["equivalent"] is False:
            self.flag(CROSS_CHECK, "summation and intersection conditions "
                                   "disagree; bug or hypothesis failure")
        return rep

    def cmd_omega(self) -> dict:
        if self.reduction.r is None:
            return {"error": "correction terms need a general minimal reduction"}
        return self._omega_table()

    def _omega_table(self) -> dict:
        """The omega rows for n = 0 .. nmax and the master identity over
        them, checked."""
        ev = self.evaluator
        rows = [ev.omega(n) for n in range(self.nmax + 1)]
        master = master_identity_check(ev, self.nmax)
        if self.hypotheses_effective:
            for row in master["rows"]:
                self.verdict(row["lhs"], row["rhs"],
                             "master identity failed under passing "
                             "hypotheses", f"not-applicable: {row['lhs']}")
        return {"omega": rows, "master_identity": master}

    def cmd_northcott(self) -> dict:
        rec = self.record
        red = self.reduction
        j1 = rec.coefficients[1]
        notes = []
        if red.r is not None and self.hypotheses_effective:
            cross = j_via_sums(self.evaluator, 1)
            if self.verdict(cross, j1, "summation route for the first "
                                       "coefficient disagrees with the fit",
                            f"not-applicable: {cross}") is False:
                notes.append("route disagreement: fitted value kept, see "
                             "diagnostics")
        report = assemble_northcott(
            red, j1,
            effective=self.hypotheses_effective,
            m_primary=self.m_primary, flags=self.opt.flags_json(),
            extra_notes=notes)
        if report["equality_case"] == "violated":
            self.flag(CROSS_CHECK, "equality case and reduction number "
                                   "disagree under passing hypotheses")
        return report

    def _monomial_ideal(self) -> MonomialIdeal:
        """The ideal for the oracle, which reads generators in a free ring."""
        if self.ctx.relations:
            raise OracleError("oracle only handles monomial ideals in a free ring")
        return MonomialIdeal.from_ideal(self.ideal)

    def cmd_oracle(self) -> dict:
        try:
            mono = self._monomial_ideal()
        except OracleError as exc:
            self.flag(PARSE_ERROR, str(exc))
            return {"error": str(exc)}
        out = {"monomial_generators": [list(g) for g in mono.gens]}
        colength = mon_quotient_length(mono)
        out["colength"] = colength if colength is not None else INFINITE
        if mono.is_m_primary():
            out["classical_coefficients"] = list(oracle_hilbert_coefficients(mono))
        else:
            out["classical_coefficients"] = "not-applicable (not m-primary)"
        return out

    def _oracle_cross_check(self, j_fit):
        try:
            mono = self._monomial_ideal()
        except OracleError as exc:
            return f"not-applicable ({exc})"
        if not mono.is_m_primary():
            return "not-applicable (not m-primary)"
        coeffs = list(oracle_hilbert_coefficients(mono))
        ok = coeffs == list(j_fit)
        if not ok:
            self.flag(CROSS_CHECK, "oracle classical coefficients disagree "
                                   "with the fitted route")
        return {"classical_coefficients": coeffs, "agrees": ok}


def _agrees(value, expected: int):
    """True or False for a route value that is an int; None for INFINITE,
    which leaves the comparison undecided."""
    return None if value == INFINITE else value == expected


# --------------------------------------------------------------------------
# emission


def run_command(command: str, spec: ProblemSpec, options: Options):
    """Returns (report dict, exit code)."""
    pipe = Pipeline(spec, options)
    report = pipe.run(command)
    return report, pipe.severity


def emit_report(report: dict, fmt: str = "json") -> str:
    if fmt == "json":
        return json.dumps(report, indent=2) + "\n"
    if fmt == "table":
        lines = []
        _render_table(report, lines, 0)
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _render_table(value, lines, depth, label=None):
    pad = "  " * depth
    head = f"{pad}{label}: " if label is not None else pad
    if isinstance(value, dict):
        if label is not None:
            lines.append(f"{pad}{label}:")
        width = max((len(str(k)) for k in value), default=0)
        for k, v in value.items():
            if isinstance(v, (dict, list)):
                _render_table(v, lines, depth + 1, k)
            else:
                lines.append(f"{'  ' * (depth + 1)}{str(k).ljust(width)}  {_cell(v)}")
    elif isinstance(value, list):
        if value and all(isinstance(x, dict) for x in value):
            keys = []
            for row in value:
                for k in row:
                    if k not in keys:
                        keys.append(k)
            table = [[_cell(row.get(k, "")) for k in keys] for row in value]
            widths = [max(len(keys[i]), *(len(r[i]) for r in table))
                      for i in range(len(keys))]
            if label is not None:
                lines.append(f"{pad}{label}:")
            inner = "  " * (depth + 1)
            lines.append(inner + "  ".join(k.ljust(w) for k, w in zip(keys, widths)))
            for r in table:
                lines.append(inner + "  ".join(c.ljust(w) for c, w in zip(r, widths)))
        else:
            lines.append(f"{head}{', '.join(_cell(v) for v in value)}")
    else:
        lines.append(f"{head}{_cell(value)}")


def _cell(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, str):
        return v.replace("\n", "\\n")
    return str(v)
