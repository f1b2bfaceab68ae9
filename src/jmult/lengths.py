"""The universal length primitive: exact local lengths of subquotients A/B
of the working ring, read off one saturation.

For B contained in A let C = (B : m^∞) ∩ A, with m the ideal of all
variables.  Then C/B = H⁰_m(A/B), the m-torsion of A/B.  It is supported at
the origin only, so its length is its dimension over k: the number of
monomials in LT(C) outside LT(B).  Every such monomial is v u for a lead v
of C and a monomial u outside (LT(B) : v), which holds a pure power x_i^s_i
of each variable; so its degree is at most deg v + Σ_i (s_i - 1), and the
count runs over the staircases below that degree.

A/C has no m-torsion, so the localization of A/B at m has finite length
exactly when that of A/C vanishes.  By Nakayama's lemma that holds exactly
when A = C + mA, and the test is global: A/(C + mA) is killed by m, so it is
supported at the origin alone.  The length is then dim_k C/B; otherwise it
is infinite.  Components of A/B supported away from the origin are
invisible, which is exactly the localization the working ring demands; that
behaviour is deliberate and tested.

A length has the one form the report prints: an ``int``, or the string
``INFINITE``.  The paper's formulas are signed sums of lengths, and
``signed_sum`` evaluates them so that the first infinite term makes the sum
infinite.
"""

from __future__ import annotations

from itertools import combinations_with_replacement

from .groebner import count_standard_monomials, groebner_basis
from .ideals import Ideal, InternalInconsistencyError
from .ring import mono_divides


class ContainmentError(ValueError):
    """pair_length(A, B) requires B to be contained in A."""


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
    return count_standard_monomials(gb.leads, ctx.nvars, m)


def torsion(a: Ideal, b: Ideal) -> Ideal:
    """C = (B : m^∞) ∩ A, for any A and B: when B ⊆ A, C/B is the m-torsion
    of A/B; otherwise C is the relative colon (B :_A m^∞) of the displays."""
    return b.saturate(Ideal.maximal(b.ctx)).intersect(a)


def torsion_length(a: Ideal, b: Ideal) -> int:
    """Length of the m-torsion of A/B, for B contained in A."""
    return _gap(torsion(a, b), b)


def _gap(c: Ideal, b: Ideal) -> int:
    """dim_k C/B for B ⊆ C with C/B supported at the origin: the monomials
    in LT(C) outside LT(B), all of degree at most the bound read off the
    leads (module docstring)."""
    lb, lc = b.gb().leads, c.gb().leads
    n = b.ctx.nvars
    top = -1
    for v in lc:
        if any(mono_divides(u, v) for u in lb):
            continue
        bound = sum(v)
        for i in range(n):
            # x_i^s lies in (LT(B) : v) when a lead u divides v off x_i
            off = v[:i] + v[i + 1:]
            s = min((u[i] - v[i] for u in lb
                     if mono_divides(u[:i] + u[i + 1:], off)), default=None)
            if s is None:
                raise InternalInconsistencyError(
                    "m-torsion quotient is not of finite length")
            bound += s - 1
        top = max(top, bound)
    return (count_standard_monomials(lb, n, top + 1)
            - count_standard_monomials(lc, n, top + 1))


def pair_length(a: Ideal, b: Ideal):
    """m-local length of A/B for B contained in A.  Containment is verified
    once per pair, when the length is first computed; a pair that fails it
    raises ContainmentError on every call."""
    return a.ctx.memo(("pairlen", a, b),
                      lambda: _pair_length(a, b))


def _pair_length(a: Ideal, b: Ideal):
    if not a.contains_ideal(b):
        raise ContainmentError(f"{b} is not contained in {a}")
    if b.contains_ideal(a):
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
    return torsion_length(Ideal.unit(l.ctx), l)
