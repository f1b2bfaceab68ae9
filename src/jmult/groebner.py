"""Buchberger's algorithm, normal forms and staircase combinatorics.

The engine works on raw term dicts ``{exponent_tuple: residue}`` for speed and
is wrapped by :class:`GroebnerBasis` at the boundary.  Pair selection uses the
normal strategy (smallest lcm in the active order); pairs are discarded by the
product criterion and by the classical chain criterion, both of which are
re-certified in the test suite by brute-force S-pair reduction.

Quotient rings are handled one level up: the ideal layer adjoins the context
relations to every basis computation, so a single code path serves both the
polynomial ring and its quotients.
"""

from __future__ import annotations

import heapq
from itertools import combinations, combinations_with_replacement
from math import comb

from .ring import (GREVLEX, MonomialOrder, Polynomial, RingContext,
                   mono_degree, mono_div, mono_divides, mono_lcm, mono_mul)

DEFAULT_PAIR_CAP = 200_000
DEFAULT_TERM_CAP = 100_000


class ComputationLimitError(RuntimeError):
    """A configurable resource cap was exceeded; never a silent truncation."""


# --------------------------------------------------------------------------
# raw engine


def _reduce_raw(f: dict, basis, keyf, p: int, term_cap: int) -> dict:
    """Full normal form of the term dict f against prepared basis rows
    (lead_exp, lead_inv, items). No term of the result is divisible by any
    basis lead."""
    out = {}
    work = dict(f)
    while work:
        e = max(work, key=keyf)
        c = work.pop(e)
        deg_e = mono_degree(e)
        hit = None
        for le, linv, items in basis:
            if mono_degree(le) <= deg_e and mono_divides(le, e):
                hit = (le, linv, items)
                break
        if hit is None:
            out[e] = c
            continue
        le, linv, items = hit
        shift = mono_div(e, le)
        coef = c * linv % p
        for ge, gc in items:
            ne = mono_mul(ge, shift)
            nc = (work.get(ne, 0) - coef * gc) % p
            if nc:
                work[ne] = nc
            else:
                work.pop(ne, None)
        if len(work) > term_cap:
            raise ComputationLimitError(
                f"support exceeded {term_cap} terms during reduction")
    return out


def _prepare(rows, order, p):
    prepped = []
    for g in rows:
        le = max(g, key=order.key)
        linv = pow(g[le], -1, p)
        items = [(e, c) for e, c in g.items() if e != le]
        prepped.append((le, linv, items))
    return prepped


def _spoly(f: dict, g: dict, order, p: int) -> dict:
    lf = max(f, key=order.key)
    lg = max(g, key=order.key)
    l = mono_lcm(lf, lg)
    cf = pow(f[lf], -1, p)
    cg = pow(g[lg], -1, p)
    sf, sg = mono_div(l, lf), mono_div(l, lg)
    out = {}
    for e, c in f.items():
        out[mono_mul(e, sf)] = c * cf % p
    for e, c in g.items():
        ne = mono_mul(e, sg)
        nc = (out.get(ne, 0) - c * cg) % p
        if nc:
            out[ne] = nc
        else:
            out.pop(ne, None)
    return out


def buchberger_raw(gens, nvars: int, p: int, order: MonomialOrder,
                   pair_cap: int = DEFAULT_PAIR_CAP,
                   term_cap: int = DEFAULT_TERM_CAP,
                   below: int | None = None):
    """Reduced monic Groebner basis of the term dicts in ``gens``.

    With ``below = M`` the basis is taken in k[x]/m^M: input rows and
    S-polynomials drop every term of degree >= M, and each row with a term
    below its lead degree is also paired with every degree-M multiple u of
    its lead (S-polynomial (u / lead) * row, truncated).  The rows returned
    together with the degree-M monomials then form a Groebner basis of
    (gens) + m^M.  This needs a degree-compatible order.

    Returns a list of term dicts sorted descending by leading monomial; the
    unit ideal comes back as ``[{0-exponent: 1}]`` and the zero ideal as
    ``[]``.
    """
    keyf = order.key
    basis = []
    for g in gens:
        g = _truncate({e: c % p for e, c in g.items() if c % p}, below)
        if g:
            basis.append(g)
    one = (0,) * nvars

    def is_unit(b):
        return any(max(g, key=keyf) == one for g in b)

    if is_unit(basis):
        return [{one: 1}]
    if all(len(g) == 1 for g in basis):
        # a monomial set is its own reduced basis after minimalization
        exps = sorted({next(iter(g)) for g in basis}, key=mono_degree)
        kept = []
        for e in exps:
            if not any(mono_divides(k, e) for k in kept):
                kept.append(e)
        kept.sort(key=keyf, reverse=True)
        return [{e: 1} for e in kept]

    heap = []
    done = set()
    treated = set()  # boundary pairs (row, u) already popped
    leads, low, prepped = [], [], []

    def add_row(g):
        t = len(leads)
        prepped.extend(_prepare([g], order, p))
        le = prepped[t][0]
        leads.append(le)
        for i in range(t):
            _push_pair(heap, keyf, leads, i, t)
        # only terms below the lead degree survive a boundary S-polynomial
        low.append(below is not None
                   and min(map(mono_degree, g)) < mono_degree(le))
        if low[t]:
            # boundary pairs (row t, u); the -1 sorts them apart from row pairs
            for u in _degree_multiples(le, below):
                heapq.heappush(heap, (keyf(u), t, -1, u))

    for g in basis:
        add_row(g)
    processed = 0
    while heap:
        _, i, j, *bound = heapq.heappop(heap)
        processed += 1
        if processed > pair_cap:
            raise ComputationLimitError(f"pair count exceeded {pair_cap}")
        if bound:
            u = bound[0]
            treated.add((i, u))
            if _boundary_chain_skip(leads, low, done, treated, i, u):
                continue
            shift = mono_div(u, leads[i])
            s = {mono_mul(e, shift): c for e, c in basis[i].items()}
        else:
            done.add((i, j))
            li, lj = leads[i], leads[j]
            lcm = mono_lcm(li, lj)
            # product criterion: coprime leads reduce to zero
            if lcm == mono_mul(li, lj):
                continue
            # two monomials have a vanishing S-polynomial
            if len(basis[i]) == 1 and len(basis[j]) == 1:
                continue
            # chain criterion over pairs already considered
            if _chain_skip(leads, done, i, j, lcm):
                continue
            s = _spoly(basis[i], basis[j], order, p)
        r = _reduce_raw(_truncate(s, below), prepped, keyf, p, term_cap)
        if not r:
            continue
        if max(r, key=keyf) == one:
            return [{one: 1}]
        basis.append(r)
        add_row(r)

    return _interreduce(basis, order, p, term_cap)


def _truncate(f: dict, below) -> dict:
    if below is None:
        return f
    return {e: c for e, c in f.items() if mono_degree(e) < below}


def _degree_multiples(le, m: int):
    """Every monomial of total degree m divisible by ``le``."""
    n = len(le)
    for combo in combinations_with_replacement(range(n), m - mono_degree(le)):
        e = list(le)
        for k in combo:
            e[k] += 1
        yield tuple(e)


def _push_pair(heap, keyf, leads, i, j):
    heapq.heappush(heap, (keyf(mono_lcm(leads[i], leads[j])), i, j))


def _chain_skip(leads, done, i, j, lcm) -> bool:
    for k in range(len(leads)):
        if k in (i, j):
            continue
        if mono_divides(leads[k], lcm):
            a = (min(i, k), max(i, k))
            b = (min(j, k), max(j, k))
            if a in done and b in done:
                return True
    return False


def _boundary_chain_skip(leads, low, done, treated, i, u) -> bool:
    """Chain criterion for the boundary pair (row i, monomial u): some row k
    with lead dividing u has had (k, u) treated (trivially so when k has no
    term below its lead degree) and (i, k) is done."""
    for k in range(len(leads)):
        if k == i or not mono_divides(leads[k], u):
            continue
        if (not low[k] or (k, u) in treated) and (min(i, k), max(i, k)) in done:
            return True
    return False


def _interreduce(basis, order, p, term_cap):
    keyf = order.key
    # minimalize: drop rows whose lead is divisible by another lead
    rows = sorted(basis, key=lambda g: keyf(max(g, key=keyf)))
    kept = []
    for g in rows:
        lg = max(g, key=keyf)
        if not any(mono_divides(max(h, key=keyf), lg) for h in kept):
            kept.append(g)
    # tail-reduce each against the others and normalize monic
    out = []
    for idx, g in enumerate(kept):
        others = kept[:idx] + kept[idx + 1:]
        if others:
            g = _reduce_raw(g, _prepare(others, order, p), keyf, p, term_cap)
        if not g:
            continue
        le = max(g, key=keyf)
        inv = pow(g[le], -1, p)
        out.append({e: c * inv % p for e, c in g.items()})
    out.sort(key=lambda g: keyf(max(g, key=keyf)), reverse=True)
    return out


# --------------------------------------------------------------------------
# staircase combinatorics on leading monomials


def count_standard_monomials(leads, nvars: int, below: int) -> int:
    """Number of monomials of degree below ``below`` outside the monomial
    ideal generated by ``leads``."""
    if below <= 0 or any(not any(e) for e in leads):
        return 0
    if not leads:
        return comb(below - 1 + nvars, nvars)
    # x0^a times a monomial r: on each run lo <= a < hi the leads that can
    # divide are fixed, and a slack last variable sums over a
    cuts = sorted({0, below} | {e[0] for e in leads if e[0] < below})
    total = 0
    for lo, hi in zip(cuts, cuts[1:]):
        rest = [e[1:] + (0,) for e in leads if e[0] <= lo]
        total += (count_standard_monomials(rest, nvars, below - lo)
                  - count_standard_monomials(rest, nvars, below - hi))
    return total


def monomial_quotient_dimension(leads, nvars: int) -> int:
    """Krull dimension of k[x]/(monomial ideal): the size of the largest
    variable subset meeting no generator's support.  -1 for the unit ideal."""
    if any(not any(e) for e in leads):
        return -1
    supports = [frozenset(i for i, x in enumerate(e) if x) for e in leads]
    for size in range(nvars, 0, -1):
        for combo in combinations(range(nvars), size):
            s = set(combo)
            if all(not sup <= s for sup in supports):
                return size
    return 0


# --------------------------------------------------------------------------
# wrapper


class GroebnerBasis:
    """Reduced monic Groebner basis with its context and order.

    Auto-reduced: no leading monomial divides another, every S-polynomial
    reduces to zero (checked by :meth:`certify` in the tests).
    """

    __slots__ = ("ctx", "order", "polys", "leads", "_prepped", "_key")

    def __init__(self, ctx: RingContext, order: MonomialOrder, raw_rows):
        self.ctx = ctx
        self.order = order
        self.polys = tuple(Polynomial(ctx, g) for g in raw_rows)
        self.leads = tuple(max(g, key=order.key) for g in raw_rows)
        self._prepped = _prepare(raw_rows, order, ctx.char) if raw_rows else []
        self._key = None

    def __len__(self):
        return len(self.polys)

    def __iter__(self):
        return iter(self.polys)

    def is_unit(self) -> bool:
        zero = (0,) * self.ctx.nvars
        return any(l == zero for l in self.leads)

    def is_zero(self) -> bool:
        return not self.polys

    def cache_key(self):
        if self._key is None:
            self._key = tuple(p.canonical() for p in self.polys)
        return self._key

    def normal_form(self, f: Polynomial) -> Polynomial:
        if f.ctx != self.ctx:
            raise ValueError("polynomial from a different context")
        if not self._prepped:
            return f
        r = _reduce_raw(f.terms, self._prepped, self.order.key, self.ctx.char,
                        DEFAULT_TERM_CAP)
        return Polynomial(self.ctx, r)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def dimension(self) -> int:
        """Krull dimension of the quotient (global; -1 for the unit ideal)."""
        if self.is_unit():
            return -1
        return monomial_quotient_dimension(self.leads, self.ctx.nvars)

    def certify(self) -> bool:
        """Brute-force check that every S-pair reduces to zero."""
        p = self.ctx.char
        rows = [g.terms for g in self.polys]
        for f, g in combinations(rows, 2):
            s = _spoly(f, g, self.order, p)
            if s and _reduce_raw(s, self._prepped, self.order.key, p,
                                 DEFAULT_TERM_CAP):
                return False
        return True


def groebner_basis(ctx: RingContext, polys, order: MonomialOrder = GREVLEX,
                   include_relations: bool = True,
                   pair_cap: int = DEFAULT_PAIR_CAP,
                   term_cap: int = DEFAULT_TERM_CAP) -> GroebnerBasis:
    """Reduced Groebner basis of the ideal generated by ``polys`` plus, by
    default, the context relations."""
    rows = [f.terms for f in polys if not f.is_zero()]
    if include_relations:
        rows.extend(dict(data) for data in ctx.relations)
    raw = buchberger_raw(rows, ctx.nvars, ctx.char, order,
                         pair_cap=pair_cap, term_cap=term_cap)
    return GroebnerBasis(ctx, order, raw)
