"""General elements, minimal reductions, analytic spread, residual-height
surrogates, and the one-dimensional reduction ring R/K with
K = J_{d-1} : I^infinity.  The ring is represented by K alone: j_0 and e_1
of the image of I are lengths modulo K, so K is the only thing computed.

The reduction is one value, a :class:`GeneralReduction`: the ideal I, the
elements x_1 .. x_s and their seed, and r = r_J(I) once verified.  The
residuals J_i : I and the kernel K are its methods, and every route takes
the reduction alone.

Random coefficients are drawn from the whole prime field, so "general" holds
with probability 1 - O(deg/p); every sample is deterministic in (generator
order, seed) and the random stream is split by element index rather than call
order.
"""

from __future__ import annotations

import random
import warnings
from typing import NamedTuple

from .ideals import AlgebraWarning, Ideal, eliminate, ring_dimension
from .lengths import (INFINITE, loc_quotient_length, pair_length,
                      signed_sum)
from .ring import extend_context, lift_poly

REDUCTION_NUMBER_CAP = 30
RETRY_CAP = 8


class ReductionSearchError(RuntimeError):
    """No sampled candidate was a reduction within the retry cap; either very
    bad luck over a large field, or the analytic spread is misreported."""


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
    """Krull dimension of the special fiber: present the blowup algebra with
    one T-variable per generator and an auxiliary u, eliminate u, then set
    the ambient variables to zero.  The graph ideal (T_k - u g_k) presents
    R[u], on which u is a nonzerodivisor, so it needs no saturation by u;
    adding the ambient variables to the presentation L of the Rees algebra
    leaves k[x, T]/(L + (x)), the special fiber itself."""
    if ideal.is_unit() or ideal.is_zero():
        raise ValueError("analytic spread needs a proper nonzero ideal")
    return ideal.ctx.memo(("spread", ideal.key()),
                          lambda: _fiber_dimension(ideal))


def _fiber_dimension(ideal: Ideal) -> int:
    ctx = ideal.ctx
    t = len(ideal.gens)
    t_names = tuple(f"@T{k}" for k in range(t))
    ext = extend_context(ctx, t_names + ("@u",))
    u = ext.var(ext.nvars - 1)
    rows = []
    for k, g in enumerate(ideal.gens):
        rows.append(ext.var(ctx.nvars + k) - u * lift_poly(g, ext))
    rees = eliminate(Ideal(ext, rows))
    x_vars = tuple(rees.ctx.var(k) for k in range(ctx.nvars))
    return Ideal(rees.ctx, rees.gens + x_vars).dimension()


# --------------------------------------------------------------------------
# reductions and reduction numbers


def is_reduction(ideal: Ideal, j: Ideal) -> bool:
    return reduction_number(ideal, j) is not None


def local_ideal_equal(a: Ideal, b: Ideal) -> bool:
    """Equality of ideals in the local ring at the origin, for b ⊆ a: the
    m-local length of a/b vanishes.  General elements of an ideal may differ
    from it at points away from the origin, so the global basis comparison
    would be too strict here."""
    return a == b or pair_length(a, b) == 0


def reduction_number(ideal: Ideal, j: Ideal):
    """Least r with J I^r = I^(r+1) locally at the origin, or None when no
    r <= REDUCTION_NUMBER_CAP works."""
    if not ideal.contains_ideal(j):
        raise ValueError("candidate reduction is not contained in the ideal")
    for r in range(REDUCTION_NUMBER_CAP + 1):
        if local_ideal_equal(ideal ** (r + 1), j * (ideal ** r)):
            return r
    return None


def general_minimal_reduction(ideal: Ideal, seed: int = 0):
    """Sample analytic-spread many general elements and verify they reduce the
    ideal; retries with fresh seeds are reported through the returned seed.

    Returns the reduction with its ``r`` set.  A retry indicates either bad
    luck or a bug, so exhaustion raises rather than returning a wrong answer.
    """
    spread = analytic_spread(ideal)
    last = None
    for attempt in range(RETRY_CAP):
        red = sample_general_elements(ideal, spread, seed + attempt)
        r = reduction_number(ideal, red.full)
        if r is not None:
            return red._replace(r=r)
        last = red
    raise ReductionSearchError(
        f"no general {spread}-element reduction found in {RETRY_CAP} attempts "
        f"from seed {seed} (last candidate {[str(e) for e in last.elements]})")


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
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", AlgebraWarning)
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


def fiber_length_term(ideal: Ideal, j: Ideal, n: int):
    """Length of I^(n+1) / J I^n."""
    return pair_length(ideal ** (n + 1), j * (ideal ** n))


def fiber_length_sum(red: GeneralReduction):
    """Sum of the lengths of I^(n+1)/J I^n over n = 0 .. r - 1, where r is
    the reduction number of I with respect to J: the terms are nonzero below
    r and vanish from r on."""
    return signed_sum((1, fiber_length_term(red.ideal, red.full, n))
                      for n in range(red.r))


def kernel_corrected_fiber_sum(red: GeneralReduction):
    """Sum over n < r of length(I^(n+1)/J I^n) minus the part meeting
    K = J_{d-1} : I^infinity; the difference quotient embeds into the plain
    fiber quotient, which vanishes from the reduction number r on."""
    ideal, kernel, j_full = red.ideal, red.kernel(), red.full

    def pairs():
        for n in range(red.r):
            yield 1, fiber_length_term(ideal, j_full, n)
            yield -1, pair_length(kernel.intersect(ideal ** (n + 1)),
                                  kernel.intersect(j_full * (ideal ** n)))

    return signed_sum(pairs())


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
    per_n = [
        local_ideal_equal(j_small.intersect(ideal ** (n + 1)),
                          j_small * (ideal ** n))
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
