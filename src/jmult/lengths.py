"""The universal length primitive: exact local lengths of subquotients A/B
of the working ring, read off one saturation.

For B contained in A let C = (B : m^∞) ∩ A, with m the ideal of all
variables.  Then C/B = H⁰_m(A/B), the m-torsion of A/B.  It is supported at
the origin only, so its length is its dimension over k: the number of
monomials in LT(C) outside LT(B).  The count slices on the first exponent
and multiplies run lengths, so it needs no degree bound and lists no
monomial; an unbounded run that still counts means infinitely many.

A/C has no m-torsion, so the localization of A/B at m has finite length
exactly when that of A/C vanishes.  By Nakayama's lemma that holds exactly
when A = C + mA, and the test is global: A/(C + mA) is killed by m, so it is
supported at the origin alone.  The length is then dim_k C/B; otherwise it
is infinite.  Components of A/B supported away from the origin are
invisible, which is exactly the localization the working ring demands; that
behaviour is deliberate and tested.

Every length is one memoized ``pair_length``, checked and counted once; the
m-torsion length of A/B is that of (C, B), C being its own torsion.

A length has the one form the report prints: an ``int``, or the string
``INFINITE``.  The paper's formulas are signed sums of lengths, and
``signed_sum`` evaluates them so that the first infinite term makes the sum
infinite.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .groebner import count_monomials_between, groebner_basis
from .ideals import Ideal, InternalInconsistencyError


INFINITE = "infinite"


def signed_sum(pairs):
    """Σ c·v over (coefficient, length) pairs, each length an int or
    INFINITE.  The first INFINITE wins, and the pairs after it are not
    drawn, so a generator of pairs evaluates no length past it."""
    total = 0
    for c, v in pairs:
        if v == INFINITE:
            return INFINITE
        total += c * v
    return total


def truncated_dim(ideal_: Ideal, m: int) -> int:
    """dim_k of R/(ideal + m^M), from a Groebner basis of the generators
    together with every monomial of degree M."""
    ctx = ideal_.ctx
    power = []
    for combo in combinations_with_replacement(range(ctx.nvars), m):
        e = [0] * ctx.nvars
        for k in combo:
            e[k] += 1
        power.append(ctx.monomial(e))
    gb = groebner_basis(ctx, list(ideal_.gens) + power)
    return count_monomials_between([(0,) * ctx.nvars], gb.leads, ctx.nvars)


def torsion(a: Ideal, b: Ideal) -> Ideal:
    """C = (B : m^∞) ∩ A, for any A and B: when B ⊆ A, C/B is the m-torsion
    of A/B; otherwise C is the relative colon (B :_A m^∞) of the displays."""
    return b.saturate(Ideal.maximal(b.ctx)).intersect(a)


def _gap(c: Ideal, b: Ideal) -> int:
    """dim_k C/B for B ⊆ C with C/B supported at the origin: the monomials
    in LT(C) outside LT(B)."""
    count = count_monomials_between(c.gb().leads, b.gb().leads, b.ctx.nvars)
    if count is None:
        raise InternalInconsistencyError(
            "m-torsion quotient is not of finite length")
    return count


def pair_length(a: Ideal, b: Ideal):
    """m-local length of A/B for B contained in A.  Containment is verified
    once per pair, when the length is first computed; a pair that fails it
    raises ValueError on every call."""
    return a.ctx.memo(("pairlen", a, b),
                      lambda: _pair_length(a, b))


def _pair_length(a: Ideal, b: Ideal):
    if not a.contains_ideal(b):
        raise ValueError(f"{b} is not contained in {a}")
    if a == b:
        return 0
    c = torsion(a, b)
    if c != a and not (c + Ideal.maximal(a.ctx) * a).contains_ideal(a):
        return INFINITE
    return _gap(c, b)


def loc_quotient_length(l: Ideal):
    """m-local length of R/L; infinite when R/L has positive dimension at the
    origin.  Components of R/L supported away from the origin do not count."""
    return pair_length(Ideal.unit(l.ctx), l)


def gamma_length(l: Ideal) -> int:
    """Length of the m-torsion submodule of R/L; always finite."""
    return pair_length(torsion(Ideal.unit(l.ctx), l), l)
