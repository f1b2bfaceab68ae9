"""General elements, minimal reductions, analytic spread, residual-height
surrogates, and the one-dimensional reduction ring R/K with
K = J_{d-1} : I^infinity.  The ring is represented by K alone: j_0 and e_1
of the image of I are lengths modulo K, so K is the only thing computed.

The reduction is one value, a :class:`GeneralReduction`: the ideal I, the
elements x_1 .. x_s and their seed, and r = r_J(I) once verified.  The
residuals J_i : I and the kernel K are its methods, and every route takes
the reduction alone.

r is the first vanishing fiber term λ(I^(n+1)/J I^n): the terms are nonzero
below r by definition, and zero from r on since J I^r = I^(r+1).

Random coefficients are drawn from the whole prime field, so "general" holds
with probability 1 - O(deg/p); every sample is deterministic in (generator
order, seed) and the random stream is split by element index rather than call
order.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .ideals import Ideal, fiber_dimension, ring_dimension
from .lengths import (INFINITE, loc_quotient_length, pair_length,
                      signed_sum)

REDUCTION_NUMBER_CAP = 30
RETRY_CAP = 8


class GeneralReduction(NamedTuple):
    """A sampled sequence of general elements of I, with ``r`` the reduction
    number r_J(I) of J = (x_1, ..., x_s) when ``general_minimal_reduction``
    verified J as a reduction, and None otherwise.  ``j(i)`` is the partial
    reduction J_i = (x_1, ..., x_i), the one ideal object of that generator
    list, so J_0 is the ring's zero ideal."""

    ideal: Ideal
    elements: tuple
    seed: int
    r: int | None = None

    @property
    def count(self) -> int:
        return len(self.elements)

    def j(self, i: int) -> Ideal:
        if not 0 <= i <= self.count:
            raise IndexError("partial reduction index out of range")
        return Ideal(self.ideal.ctx, self.elements[:i])

    @property
    def full(self) -> Ideal:
        return self.j(self.count)

    def residual(self, i: int) -> Ideal:
        """The residual ideal J_i : I."""
        return self.j(i).colon(self.ideal)

    def kernel(self) -> Ideal:
        """K = J_{d-1} : I^infinity.  For a general reduction R/K is
        one-dimensional and I is primary to its maximal ideal; j_0 and e_1
        of the image of I are read from it."""
        d = ring_dimension(self.ideal.ctx)
        if d < 1:
            raise ValueError("reduction ring needs dimension at least one")
        return self.j(d - 1).saturate(self.ideal)


def sample_general_elements(ideal: Ideal, s: int, seed: int) -> GeneralReduction:
    """s field-random combinations of the listed generators of the ideal."""
    if ideal.is_zero() or s < 1:
        raise ValueError("need a nonzero ideal and at least one element")
    ctx = ideal.ctx
    p = ctx.char
    elements = []
    for i in range(s):
        rng = random.Random(seed * 1_000_003 + i)
        x = ctx.zero
        for g in ideal.gens:
            x = x + g.scale(rng.randrange(p))
        elements.append(x)
    return GeneralReduction(ideal=ideal, elements=tuple(elements), seed=seed)


# --------------------------------------------------------------------------
# analytic spread via the special fiber presentation


def analytic_spread(ideal: Ideal) -> int:
    """Krull dimension of the special fiber, read from the Rees presentation
    (:func:`~jmult.ideals.fiber_dimension`) once per ideal."""
    if ideal.is_unit() or ideal.is_zero():
        raise ValueError("analytic spread needs a proper nonzero ideal")
    return ideal.ctx.memo(("spread", ideal),
                          lambda: fiber_dimension(ideal))


# --------------------------------------------------------------------------
# reductions and reduction numbers


def fiber_length_term(red: GeneralReduction, n: int):
    """Length of I^(n+1) / J I^n at the origin; r_J(I) is the first n where
    it vanishes.  General elements may differ from I away from the origin,
    so comparing the global bases would be too strict.  At n = 0 the length
    checks J ⊆ I, raising pair_length's built-in ValueError otherwise."""
    ideal = red.ideal
    return pair_length(ideal ** (n + 1), red.full * (ideal ** n))


def general_minimal_reduction(ideal: Ideal, seed: int = 0):
    """Sample analytic-spread many general elements and verify they reduce the
    ideal: some fiber term with n <= REDUCTION_NUMBER_CAP vanishes.  Retries
    with fresh seeds are reported through the returned seed.

    Returns the reduction with ``r`` the n of its first vanishing fiber term.
    A failed search is a value, not an exception: after RETRY_CAP draws it
    returns the last draw with ``r`` None, for the caller to report.
    """
    spread = analytic_spread(ideal)
    for attempt in range(RETRY_CAP):
        red = sample_general_elements(ideal, spread, seed + attempt)
        r = next((n for n in range(REDUCTION_NUMBER_CAP + 1)
                  if fiber_length_term(red, n) == 0), None)
        if r is not None:
            return red._replace(r=r)
    return red


# --------------------------------------------------------------------------
# residual-height surrogate for the G_d condition


def residual_height_check(red: GeneralReduction) -> dict:
    """The report of the computable residual-intersection surrogate: per
    index i, whether codim(J_i : I) >= i and codim((J_i : I) + I) >= i + 1,
    and whether every index passed."""
    ideal = red.ideal
    d = ring_dimension(ideal.ctx)
    entries = []
    for i in range(d):
        colon = red.residual(i)
        # J_i : I is the unit ideal when x_1 .. x_i already generate I; the
        # convention dim R + 1 for its codimension lets that entry pass
        c1 = colon.codimension()
        c2 = (colon + ideal).codimension()
        entries.append({"i": i, "codim_residual": c1,
                        "codim_residual_plus_ideal": c2,
                        "passed": c1 >= i and c2 >= i + 1})
    return {"entries": entries,
            "passed": all(e["passed"] for e in entries)}


# --------------------------------------------------------------------------
# the one-dimensional reduction ring R/(J_{d-1} : I^infinity)


def j_zero(red: GeneralReduction):
    """Multiplicity of the reduction ring modulo the last general element;
    infinite signals analytic spread below d or a bad sample."""
    ctx = red.ideal.ctx
    x_last = red.elements[ring_dimension(ctx) - 1]
    return loc_quotient_length(red.kernel() + Ideal(ctx, [x_last]))


def fiber_length_sum(red: GeneralReduction):
    """Sum of the lengths of I^(n+1)/J I^n over n = 0 .. r - 1, where r is
    the first n whose term vanishes."""
    return signed_sum((1, fiber_length_term(red, n))
                      for n in range(red.r))


def e_one_bar(red: GeneralReduction):
    """First Hilbert coefficient of the image of I in the reduction ring,
    computed as the sum of lengths of Ibar^(n+1)/xbar Ibar^n over n < r; the
    image of J I^r = I^(r+1) is xbar Ibar^r = Ibar^(r+1), so the later terms
    vanish."""
    ideal, kernel = red.ideal, red.kernel()
    x_last = Ideal(ideal.ctx, [red.elements[ring_dimension(ideal.ctx) - 1]])

    def pairs():
        for n in range(red.r):
            yield 1, loc_quotient_length(x_last * (ideal ** n) + kernel)
            yield -1, loc_quotient_length(ideal ** (n + 1) + kernel)

    return signed_sum(pairs())


# --------------------------------------------------------------------------
# intersection-condition check (regular-sequence criterion on partial ideals)


def valabrega_valla_check(red: GeneralReduction, nmax: int,
                          an_asserted: bool = False) -> dict:
    """Bounded-n report on the intersection condition
    J_{d-1} ∩ I^(n+1) = J_{d-1} I^n (condition b) and the equivalent
    summation condition, fiber length sum = e_1 of the reduction ring
    (condition a); the depth conclusion is only reported when the user
    asserts the Artin-Nagata hypothesis."""
    ideal = red.ideal
    d = ring_dimension(ideal.ctx)
    j_small = red.j(d - 1)
    per_n = [pair_length(j_small.intersect(ideal ** (n + 1)),
                         j_small * (ideal ** n)) == 0
             for n in range(nmax + 1)]
    total = fiber_length_sum(red)
    e1 = e_one_bar(red)
    cond_b = all(per_n)
    if INFINITE in (total, e1):
        cond_a = equivalent = None
    else:
        cond_a = total == e1
        equivalent = cond_a == cond_b
    if an_asserted and equivalent:
        holds = "holds" if cond_b else "fails"
        depth = (f"depth of the associated graded ring is >= {d - 1}: {holds} "
                 f"(verified up to n = {nmax})")
    elif an_asserted:
        depth = "conditions disagree; no depth conclusion"
    else:
        depth = None
    return {
        "nmax": nmax,
        "intersection_condition_per_n": per_n,
        "fiber_length_sum": total,
        "e1_reduction_ring": e1,
        "condition_a": cond_a,
        "condition_b": cond_b,
        "equivalent": equivalent,
        "depth_verdict": depth,
    }
