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
error, never averaged away.  ``assemble_northcott`` returns the report as the
JSON dict the CLI prints, with a fixed key order.
"""

from __future__ import annotations

from .ideals import Ideal, ring_dimension
from .lengths import (INFINITE, gamma_length, loc_quotient_length,
                      pair_length, torsion)
from .reductions import GeneralReduction, fiber_length_sum


def northcott_bound(red: GeneralReduction):
    """(lambda(I/J), residual colength) for dimension at least two.

    The second term is the colength of (J_{d-1}:I) + ((J_{d-2}:I + I)
    saturated by m); an infinite lambda(I/J) signals analytic spread below d
    or a failed sample.
    """
    ideal = red.ideal
    d = ring_dimension(ideal.ctx)
    if d < 2:
        raise ValueError("the bound is defined for dimension at least two")
    lam = pair_length(ideal, red.full)
    resid = red.residual(d - 1) + torsion(Ideal.unit(ideal.ctx),
                                          red.residual(d - 2) + ideal)
    second = loc_quotient_length(resid)
    return lam, second


def minimal_generator_count(ideal: Ideal):
    """mu(I) as the length of I/mI."""
    m = Ideal.maximal(ideal.ctx)
    return pair_length(ideal, m * ideal)


def assemble_northcott(red: GeneralReduction, j1: int | None,
                       effective: bool, m_primary: bool, flags: dict,
                       extra_notes=()) -> dict:
    """The report's JSON from precomputed pieces.  ``j1`` is the fitted
    coefficient, and ``red.r`` is None when no general minimal reduction was
    verified.  The caller resolves whether the hypotheses are in force
    and whether the ideal is m-primary at the origin, passes the run's
    asserted hypotheses as ``flags`` (``Options.flags_json``), and owns the
    cross-check of ``j1`` by the summation route.  ``bound`` is lambda(I/J)
    plus the second term whenever both are finite, and equality forces the
    inequality."""
    ideal, r = red.ideal, red.r
    d = ring_dimension(ideal.ctx)
    notes = list(extra_notes)
    if m_primary and not (flags["gd_asserted"] and flags["an_asserted"]):
        notes.append("ideal is primary to the maximal ideal, so the residual "
                     "hypotheses hold automatically")
    report = {
        "dim": d,
        "j1": j1,
        "j1_route": "fit",
        "lambda_I_over_J": None,
        "second_term": None,
        "bound": None,
        "inequality_holds": None,
        "equality": None,
        "reduction_number": r,
        "equality_case": "not-applicable",
        "j1_nonnegative": None if j1 is None else j1 >= 0,
        "m_primary_implication": None,
        "complete_intersection_implication": None,
        "hypotheses_effective": effective,
        "flags": flags,
        "notes": notes,
        "decomposition": {},
    }

    if d == 1:
        notes.append("dimension one: the second bound term involves J_{d-2} "
                     "and is undefined; reporting the summation decomposition "
                     "of j_1 instead of a bound")
        report["lambda_I_over_J"] = pair_length(ideal, red.full)
        report["decomposition"] = {
            "fiber_length_sum":
                fiber_length_sum(red) if r is not None
                else "not-applicable (no general minimal reduction)",
            "colength(0:I + I)":
                loc_quotient_length(red.residual(0) + ideal),
            "torsion(R/I)": gamma_length(ideal),
        }
        return report

    lam, second = northcott_bound(red)
    report["lambda_I_over_J"] = lam
    report["second_term"] = second
    equality = None
    if INFINITE not in (lam, second):
        report["bound"] = bound = lam + second
        if j1 is not None:
            report["inequality_holds"] = j1 >= bound
            report["equality"] = equality = j1 == bound
    else:
        notes.append("bound terms did not come out finite; analytic spread "
                     "below d or a failed sample")

    if effective and equality is not None and r is not None:
        if (equality and r > 1) or (m_primary and not equality and r <= 1):
            report["equality_case"] = "violated"
            notes.append("equality case disagrees with the reduction number "
                         "under passing hypotheses: bug or undetected "
                         "hypothesis failure")
        else:
            report["equality_case"] = "consistent"

    if j1 == lam:
        report["m_primary_implication"] = m_primary
    if j1 == 0:
        mu = minimal_generator_count(ideal)
        report["complete_intersection_implication"] = r == 0 and mu == d
    return report
