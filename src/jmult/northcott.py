"""Lower bound for the first generalized coefficient, its equality analysis,
and the positivity corollaries.

The bound is lambda(I/J) plus a residual correction colength.  Equality
forces the reduction number to be at most one; the converse holds for
m-primary ideals (Huneke, Ooishi) and is not claimed otherwise.  On inputs
whose hypotheses hold, equality with r > 1, or an m-primary ideal with
r <= 1 and no equality, is a red flag (a bug or an undetected hypothesis
failure) and is labelled "violated" rather than being silently accepted;
every other case is "consistent".  The fitted coefficient is authoritative;
the summation route is a cross-check and disagreement is a hard report-level
error, never averaged away.
"""

from __future__ import annotations

from typing import NamedTuple

from .ideals import Ideal, ring_dimension
from .lengths import (LengthValue, gamma_length, loc_quotient_length,
                      pair_length)
from .parser import Options
from .reductions import GeneralReduction, fiber_length_sum


def northcott_bound(ideal: Ideal, red: GeneralReduction):
    """(lambda(I/J), residual colength) for dimension at least two.

    The second term is the colength of (J_{d-1}:I) + ((J_{d-2}:I + I)
    saturated by m); an infinite lambda(I/J) signals analytic spread below d
    or a failed sample.
    """
    ctx = ideal.ctx
    d = ring_dimension(ctx)
    if d < 2:
        raise ValueError("the bound is defined for dimension at least two")
    m = Ideal.maximal(ctx)
    lam = pair_length(ideal, red.full)
    resid = red.j(d - 1).colon(ideal) + (red.j(d - 2).colon(ideal) + ideal).saturate(m)
    second = loc_quotient_length(resid)
    return lam, second


class NorthcottReport(NamedTuple):
    """Inequality verdicts for one ideal; ``bound = lambda_ij + second_term``
    whenever both are finite, and equality forces the inequality."""

    dim: int
    j1: int | None
    j1_route: str
    lambda_ij: object            # LengthValue
    second_term: object          # LengthValue or None in dimension one
    bound: int | None
    inequality_holds: bool | None
    equality: bool | None
    reduction_number: int | None
    equality_case_verdict: str   # consistent | violated | not-applicable
    j1_nonnegative: bool | None
    m_primary_implication: bool | None
    complete_intersection_implication: bool | None
    options: Options             # its asserted hypotheses are echoed
    hypotheses_effective: bool
    notes: tuple
    decomposition: tuple         # d = 1 only: named (label, value) pairs

    def to_json(self):
        return {
            "dim": self.dim,
            "j1": self.j1,
            "j1_route": self.j1_route,
            "lambda_I_over_J": _lv_json(self.lambda_ij),
            "second_term": _lv_json(self.second_term),
            "bound": self.bound,
            "inequality_holds": self.inequality_holds,
            "equality": self.equality,
            "reduction_number": self.reduction_number,
            "equality_case": self.equality_case_verdict,
            "j1_nonnegative": self.j1_nonnegative,
            "m_primary_implication": self.m_primary_implication,
            "complete_intersection_implication": self.complete_intersection_implication,
            "hypotheses_effective": self.hypotheses_effective,
            "flags": self.options.flags_json(),
            "notes": list(self.notes),
            "decomposition": {k: v for k, v in self.decomposition},
        }


def _lv_json(v):
    if v is None:
        return None
    if isinstance(v, LengthValue):
        return v.to_json()
    return v


def minimal_generator_count(ideal: Ideal) -> LengthValue:
    """mu(I) as the length of I/mI."""
    m = Ideal.maximal(ideal.ctx)
    return pair_length(ideal, m * ideal)


def assemble_northcott(ideal: Ideal, red: GeneralReduction, r: int | None,
                       j1: int | None, j1_route: str,
                       effective: bool, m_primary: bool,
                       options: Options, extra_notes=()) -> NorthcottReport:
    """Build the report from precomputed pieces; the coefficient routes and
    whether the hypotheses are in force are resolved by the caller, which
    also owns the cross-route comparison."""
    ctx = ideal.ctx
    d = ring_dimension(ctx)
    notes = list(extra_notes)
    if m_primary and not (options.gd_asserted and options.an_asserted):
        notes.append("ideal is primary to the maximal ideal, so the residual "
                     "hypotheses hold automatically")

    decomposition = ()
    if d == 1:
        notes.append("dimension one: the second bound term involves J_{d-2} "
                     "and is undefined; reporting the summation decomposition "
                     "of j_1 instead of a bound")
        lam = pair_length(ideal, red.full)
        zero_colon = Ideal.zero(ctx).colon(ideal)
        parts = (
            ("fiber_length_sum",
             fiber_length_sum(ideal, red.full, r).to_json() if r is not None
             else "not-applicable (no general minimal reduction)"),
            ("colength(0:I + I)", loc_quotient_length(zero_colon + ideal).to_json()),
            ("torsion(R/I)", gamma_length(ideal).to_json()),
        )
        return NorthcottReport(
            dim=d, j1=j1, j1_route=j1_route, lambda_ij=lam, second_term=None,
            bound=None, inequality_holds=None, equality=None,
            reduction_number=r, equality_case_verdict="not-applicable",
            j1_nonnegative=None if j1 is None else j1 >= 0,
            m_primary_implication=None, complete_intersection_implication=None,
            options=options, hypotheses_effective=effective,
            notes=tuple(notes), decomposition=parts)

    lam, second = northcott_bound(ideal, red)
    bound = None
    inequality = None
    equality = None
    if lam.is_finite and second.is_finite:
        bound = lam.value + second.value
        if j1 is not None:
            inequality = j1 >= bound
            equality = j1 == bound
    else:
        notes.append("bound terms did not come out finite; analytic spread "
                     "below d or a failed sample")

    if not effective or equality is None or r is None:
        verdict = "not-applicable"
    elif (equality and r > 1) or (m_primary and not equality and r <= 1):
        verdict = "violated"
        notes.append("equality case disagrees with the reduction number under "
                     "passing hypotheses: bug or undetected hypothesis failure")
    else:
        verdict = "consistent"

    m_primary_impl = None
    if j1 is not None and lam.is_finite and j1 == lam.value:
        m_primary_impl = ideal.codimension() == d
    ci_impl = None
    if j1 is not None and j1 == 0:
        mu = minimal_generator_count(ideal)
        ci_impl = (r == 0) and mu.is_finite and mu.value == d

    return NorthcottReport(
        dim=d, j1=j1, j1_route=j1_route, lambda_ij=lam, second_term=second,
        bound=bound, inequality_holds=inequality, equality=equality,
        reduction_number=r, equality_case_verdict=verdict,
        j1_nonnegative=None if j1 is None else j1 >= 0,
        m_primary_implication=m_primary_impl,
        complete_intersection_implication=ci_impl,
        options=options, hypotheses_effective=effective, notes=tuple(notes),
        decomposition=decomposition)
