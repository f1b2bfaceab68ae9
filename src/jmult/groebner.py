"""Buchberger's algorithm, normal forms and staircase combinatorics.

The engine takes raw term dicts ``{exponent_tuple: residue}`` and keeps each
basis row as one monic record ``(lead, tail)``: the leading exponent and a
tuple of the other ``(exponent, residue)`` terms, built once by
:func:`_monic_row`.  :class:`GroebnerBasis` wraps the rows at the boundary
and stores nothing else.

A monomial order is its sort-key function (:mod:`jmult.ring`): the raw
engine runs under any order, and every basis it stores is grevlex.  Input
generators join the basis by increasing lead, each first reduced by the rows
before it, so a redundant generator adds no row and no pairs.  Pairs are
judged in one place, the Gebauer-Moller update run when a row joins the basis
(Gebauer & Moller, JSC 6, 1988).  The new lead drops each pending pair whose
lcm it divides unless that lcm equals its lcm with one side (criterion B_k).
Among the new pairs, one is kept for each minimal lcm, one that no other new
lcm properly divides (criteria M and F); then pairs with coprime leads
(product criterion) and pairs of two monomials are dropped, since their
S-polynomials reduce to zero.  The heap hands out the rest by the normal
strategy (smallest lcm in the order) and every pair it hands out is reduced;
the pair cap counts those reductions.  The test suite checks the criteria
against a Buchberger that reduces every pair, and by brute-force S-pair
reduction.

The raw engine knows no relations.  :func:`groebner_basis` adjoins the
context relations to the generators, and the ideal layer adjoins them
itself where it calls :func:`buchberger_raw` directly, so a single code
path serves both the polynomial ring and its quotients.
"""

from __future__ import annotations

import heapq
from itertools import combinations, compress

from .ring import (Polynomial, RingContext, add_shifted, grevlex, mono_div,
                   mono_divides, mono_lcm, mono_mul)

DEFAULT_PAIR_CAP = 200_000
TERM_CAP = 100_000


class ComputationLimitError(RuntimeError):
    """A configurable resource cap was exceeded; never a silent truncation."""


# --------------------------------------------------------------------------
# raw engine


def _monic_row(f: dict, keyf, p: int):
    """The monic record (lead, tail) of a nonzero term dict: its leading
    exponent and its other terms divided by the lead coefficient."""
    le = max(f, key=keyf)
    inv = pow(f[le], -1, p)
    return le, tuple((e, c * inv % p) for e, c in f.items() if e != le)


def _reduce_raw(f, rows, keyf, p: int) -> dict:
    """Full normal form of the terms f (a dict or (exponent, residue) pairs)
    against monic rows (lead, tail).  No term of the result is divisible by
    any row lead."""
    out = {}
    work = dict(f)
    while work:
        e = max(work, key=keyf)
        c = work.pop(e)
        row = next((r for r in rows if mono_divides(r[0], e)), None)
        if row is None:
            out[e] = c
            continue
        add_shifted(work, row[1], -c, mono_div(e, row[0]), p)
        if len(work) > TERM_CAP:
            raise ComputationLimitError(
                f"support exceeded {TERM_CAP} terms during reduction")
    return out


def _spoly(f, g, lcm, p: int) -> dict:
    """(lcm / lead f) f - (lcm / lead g) g for monic rows f and g: the leads
    cancel, so only the shifted tails remain."""
    out = {}
    add_shifted(out, f[1], 1, mono_div(lcm, f[0]), p)
    add_shifted(out, g[1], -1, mono_div(lcm, g[0]), p)
    return out


def buchberger_raw(gens, nvars: int, p: int, order,
                   pair_cap: int = DEFAULT_PAIR_CAP):
    """Reduced monic Groebner basis of the term dicts in ``gens`` under the
    monomial order with sort key ``order``.

    Returns monic rows (lead, tail) sorted descending by lead; the unit
    ideal comes back as ``[(0-exponent, ())]`` and the zero ideal as ``[]``.
    Raises :class:`ComputationLimitError` once more than ``pair_cap``
    S-polynomials have been reduced.
    """
    one = (0,) * nvars
    rows = []
    heap = []  # pending pairs (order(lcm), i, j, lcm), i < j

    def add_row(row):
        le, tail = row
        t = len(rows)
        # B_k: a pending pair whose lcm the new lead divides, and which equals
        # neither lcm of the new lead with a side, is covered by those pairs
        pending = [q for q in heap
                   if not mono_divides(le, q[3])
                   or q[3] in (mono_lcm(rows[q[1]][0], le),
                               mono_lcm(rows[q[2]][0], le))]
        if len(pending) < len(heap):
            heap[:] = pending
            heapq.heapify(heap)
        # M and F: drop a new pair when another new pair has an lcm dividing
        # its lcm; a divisor has lower degree or is equal, so judging by
        # degree only the kept pairs need checking, and of equal lcms the
        # first is kept
        kept = []
        for lcm, i in sorted(((mono_lcm(li, le), i)
                              for i, (li, _) in enumerate(rows)),
                             key=lambda q: sum(q[0])):
            if not any(mono_divides(m, lcm) for m, _ in kept):
                kept.append((lcm, i))
        for lcm, i in kept:
            li, ti = rows[i]
            # coprime leads and two monomials give S-polynomials reducing to 0
            if lcm != mono_mul(li, le) and (ti or tail):
                heapq.heappush(heap, (order(lcm), i, t, lcm))
        rows.append(row)

    def reduce_and_add(f) -> bool:
        """Add the nonzero normal form of f as a row; True for a unit."""
        r = _reduce_raw(f, rows, order, p)
        if r:
            row = _monic_row(r, order, p)
            if row[0] == one:
                return True
            add_row(row)
        return False

    inputs = [g for g in ({e: c % p for e, c in g.items() if c % p}
                          for g in gens) if g]
    for g in sorted(inputs, key=lambda g: order(max(g, key=order))):
        if reduce_and_add(g):
            return [(one, ())]
    reduced = 0
    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        reduced += 1
        if reduced > pair_cap:
            raise ComputationLimitError(
                f"S-polynomial reductions exceeded {pair_cap}")
        if reduce_and_add(_spoly(rows[i], rows[j], lcm, p)):
            return [(one, ())]

    return _interreduce(rows, order, p)


def _interreduce(rows, keyf, p):
    """The reduced basis of monic rows that form a Groebner basis: drop each
    row whose lead another lead divides, then reduce each tail by the rows of
    smaller lead: a lead dividing a tail term is at most that term."""
    kept = []
    for row in sorted(rows, key=lambda r: keyf(r[0])):
        if not any(mono_divides(k[0], row[0]) for k in kept):
            kept.append(row)
    return [(le, tuple(_reduce_raw(tail, kept[:i], keyf, p).items()))
            for i, (le, tail) in enumerate(kept)][::-1]


# --------------------------------------------------------------------------
# staircase combinatorics on leading monomials


def count_monomials_between(upper, lower, nvars: int):
    """Number of monomials in the ideal generated by ``upper`` outside the
    one generated by ``lower``; None when there are infinitely many."""
    if not upper:
        return 0
    if nvars == 1:
        # (x^a) outside (x^b) holds x^a .. x^(b-1)
        return max(min(lower)[0] - min(upper)[0], 0) if lower else None
    # x0^a times a monomial r: on each run lo <= a < hi the leads that can
    # divide are those with first exponent at most lo; the last run is endless
    cuts = sorted({0} | {e[0] for e in upper} | {e[0] for e in lower})
    total = 0
    for lo, hi in zip(cuts, cuts[1:] + [None]):
        part = count_monomials_between([e[1:] for e in upper if e[0] <= lo],
                                       [e[1:] for e in lower if e[0] <= lo],
                                       nvars - 1)
        if part == 0:
            continue
        if part is None or hi is None:
            return None
        total += (hi - lo) * part
    return total


def monomial_quotient_dimension(leads, nvars: int) -> int:
    """Krull dimension of k[x]/(monomial ideal): the size of the largest
    variable subset meeting no generator's support.  -1 for the unit ideal."""
    if any(not any(e) for e in leads):
        return -1
    supports = [frozenset(compress(range(nvars), e)) for e in leads]
    for size in range(nvars, 0, -1):
        for combo in combinations(range(nvars), size):
            s = set(combo)
            if all(not sup <= s for sup in supports):
                return size
    return 0


# --------------------------------------------------------------------------
# wrapper


class GroebnerBasis:
    """Reduced monic grevlex Groebner basis with its context, kept as its
    rows alone: the ideal layer builds the basis polynomials once, as the
    generators of the reduced ideal.

    Auto-reduced: no leading monomial divides another, every S-polynomial
    reduces to zero (checked by :meth:`certify` in the tests).
    """

    __slots__ = ("ctx", "rows", "leads")

    def __init__(self, ctx: RingContext, rows):
        """``rows`` are monic (lead, tail) records as :func:`buchberger_raw`
        returns them under grevlex, sorted descending by lead."""
        self.ctx = ctx
        self.rows = tuple(rows)
        self.leads = tuple(le for le, _ in self.rows)

    def is_unit(self) -> bool:
        zero = (0,) * self.ctx.nvars
        return any(l == zero for l in self.leads)

    def is_zero(self) -> bool:
        return not self.rows

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ctx != self.ctx:
            raise ValueError("polynomial from a different context")
        if not self.rows:
            return f
        r = _reduce_raw(f.terms, self.rows, grevlex, self.ctx.char)
        return Polynomial(self.ctx, r)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def dimension(self) -> int:
        """Krull dimension of the quotient (global; -1 for the unit ideal)."""
        return monomial_quotient_dimension(self.leads, self.ctx.nvars)

    def certify(self) -> bool:
        """Brute-force check that every S-pair reduces to zero."""
        p = self.ctx.char
        for f, g in combinations(self.rows, 2):
            s = _spoly(f, g, mono_lcm(f[0], g[0]), p)
            if s and _reduce_raw(s, self.rows, grevlex, p):
                return False
        return True


def groebner_basis(ctx: RingContext, polys,
                   pair_cap: int = DEFAULT_PAIR_CAP) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the ideal generated by ``polys`` and
    the context relations."""
    rows = [f.terms for f in polys if not f.is_zero()]
    rows.extend(dict(data) for data in ctx.relations)
    raw = buchberger_raw(rows, ctx.nvars, ctx.char, grevlex, pair_cap=pair_cap)
    return GroebnerBasis(ctx, raw)
