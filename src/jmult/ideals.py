"""Ideal-level operator algebra: sum, product, power, intersection, colon,
saturation, the Rees presentation, equality, membership, dimension and
codimension.

Every :class:`Ideal` lives over a :class:`~jmult.ring.RingContext` and
implicitly contains the context relations, so all operations take place in the
quotient ring.  Ideals are immutable, and there is one object per context and
normalized generator list, which holds its reduced grevlex basis and powers;
lists holding the same generators in another order share that basis.
An ideal is its own memo key: equal ideals hash and compare alike by their
reduced basis rows, which are canonical, so the same ideal reached through
different generators shares every memoized result.  A computed basis is also
recorded as the basis of its own rows, since a reduced basis is its own.

Intersection, colon and saturation adjoin an auxiliary variable t and
eliminate it (Cox, Little & O'Shea, *Ideals, Varieties, and Algorithms*,
4.3-4.4).  t is one exponent slot appended to the raw term dicts of the
generators and relations, not a ring of its own: the rows go straight to
:func:`~jmult.groebner.buchberger_raw` under one order
(:func:`~jmult.ring.elimination_order`), one helper drops t, and the only
ideal built is the result in the working ring.  The Rees presentation behind
the analytic spread (:func:`fiber_dimension`) is the same elimination, with
one more slot per generator appended before the auxiliary one.

A containment decides the trivial cases with no elimination; the operation
memos hash both ideals by their reduced basis rows, so once those bases are
known it costs normal forms only.
"""

from __future__ import annotations

import warnings
from functools import reduce
from itertools import compress

from .groebner import (GroebnerBasis, buchberger_raw, groebner_basis,
                       monomial_quotient_dimension)
from .ring import (ContextMismatchError, Polynomial, RingContext,
                   elimination_order, grevlex, mono_div, mono_divides,
                   mono_mul)


class AlgebraWarning(UserWarning):
    """Flagged conventions, e.g. colon by the zero ideal."""


class InternalInconsistencyError(RuntimeError):
    """An exact division that is guaranteed by theory failed; a bug."""


class Ideal:
    """Finitely generated ideal of the working ring: one object per context
    and normalized, ordered generator list, alive as long as the context.
    Two ideals are equal exactly when the rows of their reduced grevlex
    bases coincide; ``==`` compares those rows and ``hash`` hashes them.
    """

    __slots__ = ("ctx", "gens", "_canon", "_gb", "_powers", "_hash")

    def __new__(cls, ctx: RingContext, gens=()):
        seen = {}  # canonical terms -> the first generator with them
        for g in gens:
            if g.ctx != ctx:
                raise ContextMismatchError("generator from a different context")
            if g.is_zero():
                continue
            g = g.monic()
            seen.setdefault(g.canonical(), g)
        kept = _prune_monomial_multiples(seen.items())
        clean = tuple(g for _, g in kept)
        canon = tuple(c for c, _ in kept)

        def build():
            ideal = object.__new__(cls)
            ideal.ctx, ideal.gens, ideal._canon = ctx, clean, canon
            ideal._gb = ideal._hash = None
            ideal._powers = {}
            return ideal

        return ctx.memo(("ideal",) + canon, build)

    # -- constructors ----------------------------------------------------------

    @staticmethod
    def zero(ctx: RingContext) -> "Ideal":
        return Ideal(ctx, ())

    @staticmethod
    def unit(ctx: RingContext) -> "Ideal":
        return Ideal(ctx, (ctx.one,))

    @staticmethod
    def maximal(ctx: RingContext) -> "Ideal":
        return Ideal(ctx, tuple(ctx.var(i) for i in range(ctx.nvars)))

    # -- bases and identity ----------------------------------------------------

    def gb(self) -> GroebnerBasis:
        """The reduced grevlex basis, memoized under the generator set in
        any order: lists that differ only in order share one basis."""
        if self._gb is None:
            self._gb = self.ctx.memo(
                _basis_key(self._canon),
                lambda: _recorded(groebner_basis(self.ctx, self.gens)))
        return self._gb

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        return self.gens == other.gens or self.gb().rows == other.gb().rows

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx._sig, self.gb().rows))
        return self._hash

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inner})"

    # -- predicates -------------------------------------------------------------

    def is_zero(self) -> bool:
        """True when every generator vanishes in the working ring."""
        return Ideal.zero(self.ctx).contains_ideal(self)

    def is_unit(self) -> bool:
        return self.gb().is_unit()

    def contains(self, f: Polynomial) -> bool:
        return self.gb().contains(f)

    def contains_ideal(self, other: "Ideal") -> bool:
        gb = self.gb()
        return all(gb.contains(g) for g in other.gens)

    # -- generator-level operations ----------------------------------------------

    def _check(self, other: "Ideal"):
        if self.ctx != other.ctx:
            raise ContextMismatchError("ideals from different ring contexts")

    def __add__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(self.ctx, self.gens + other.gens)

    def __mul__(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return Ideal(self.ctx, [a * b for a in self.gens for b in other.gens])

    def __pow__(self, n: int) -> "Ideal":
        if n < 0:
            raise ValueError("negative ideal power")
        got = self._powers.get(n)
        if got is not None:
            return got
        if n == 0:
            out = Ideal.unit(self.ctx)
        elif n == 1:
            out = self
        else:
            out = (self ** (n - 1)) * self
        self._powers[n] = out
        return out

    # -- Groebner-backed operations -------------------------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return self.ctx.memo(("intersect", frozenset((self, other))),
                             lambda: _intersect(self, other))

    def colon(self, other: "Ideal") -> "Ideal":
        """self : other, the transporter of other into self."""
        self._check(other)
        return self.ctx.memo(("colon", self, other),
                             lambda: _colon(self, other))

    def colon_element(self, f: Polynomial) -> "Ideal":
        """self : f via (self ∩ (f)) / f; R when f lies in self."""
        ctx = self.ctx
        if f.is_zero():
            warnings.warn("colon by zero yields the unit ideal", AlgebraWarning,
                          stacklevel=2)
            return Ideal.unit(ctx)
        if self.contains(f):
            return Ideal.unit(ctx)
        if f.degree() == 0:
            return self
        meet = _eliminated(ctx, _meet(self.gens + tuple(ctx.relation_polys()),
                                      [f]))
        return Ideal(ctx, [_exact_divide(g, f) for g in meet.gens])

    def saturate(self, other: "Ideal") -> "Ideal":
        """self : other^∞, the intersection over the generators f of other
        of self : f^∞.  A variable saturates by one Groebner basis of the
        homogenization (Bayer's method), a monomial one variable of its
        support at a time, and any other f as ((self, t - f) : t^∞) ∩ R
        with t a new variable."""
        self._check(other)
        return self.ctx.memo(("saturate", self, other),
                             lambda: _saturate(self, other))

    def dimension(self) -> int:
        """Krull dimension of (ambient)/self; -1 for the unit ideal."""
        return self.gb().dimension()

    def codimension(self) -> int:
        """Height of this ideal in the working ring; the unit ideal, of
        dimension -1, gets the convention dim R + 1."""
        return ring_dimension(self.ctx) - self.dimension()


# --------------------------------------------------------------------------
# ring-level data


def ring_dimension(ctx: RingContext) -> int:
    """Krull dimension of the working ring itself."""
    return ctx.memo("ring_dim", lambda: Ideal.zero(ctx).dimension())


def fiber_dimension(ideal: Ideal) -> int:
    """Krull dimension of the special fiber of the ideal, from its Rees
    presentation (Nishida & Ulrich, *Computing j-multiplicities*, JPAA 214,
    2010).  One T-variable per generator g_k and an auxiliary u are exponent
    slots appended to the working ring's.  The rows T_k - u g_k and the
    relations present R[u], on which u is a nonzerodivisor, so eliminating u
    needs no saturation and leaves the presentation L of the Rees algebra;
    k[x, T]/(L + (x)) is the special fiber itself."""
    ctx = ideal.ctx
    n, g, p = ctx.nvars, len(ideal.gens), ctx.char
    w = n + g  # the variables x, then T_0 .. T_{g-1}

    def var(i, k=w):
        return tuple(int(j == i) for j in range(k))

    # T_k - u g_k and the relations, the exponents of T and u appended
    rows = [_padded(f.terms.items(), var(g, g + 1), -1) | {var(n + k, w + 1): 1}
            for k, f in enumerate(ideal.gens)]
    rows += [_padded(r, (0,) * (g + 1)) for r in ctx.relations]
    rees = [dict(((le, 1),) + t) for le, t in _eliminate_last(rows, w, p)]
    fiber = buchberger_raw(rees + [{var(i): 1} for i in range(n)], w, p, grevlex)
    return monomial_quotient_dimension([le for le, _ in fiber], w)


# --------------------------------------------------------------------------
# internals


def _prune_monomial_multiples(pairs):
    """The (canonical terms, generator) pairs without the monomial generators
    divisible by another monomial generator: the other generators in their
    order, then the kept monomials by degree."""
    monos = [(g.lead_exp(), (c, g)) for c, g in pairs if g.is_monomial()]
    out = [(c, g) for c, g in pairs if not g.is_monomial()]
    kept = []
    for e, pair in sorted(monos, key=lambda t: sum(t[0])):
        if not any(mono_divides(k, e) for k, _ in kept):
            kept.append((e, pair))
    out.extend(pair for _, pair in kept)
    return out


def _padded(terms, tail=(0,), scale=1):
    """The term dict of the (exponent, residue) pairs ``terms`` times
    ``scale`` and the monomial ``tail`` in auxiliary variables appended."""
    return {e + tail: scale * c for e, c in terms}


def _eliminate_last(rows, nvars: int, p: int):
    """The reduced grevlex basis rows of (rows) ∩ k[x_1 .. x_nvars], for term
    dicts with one auxiliary exponent appended last.  An elimination basis
    row whose lead lacks that variable lacks it in every term, and the order
    is grevlex on the rest, so the kept rows are that basis, monic, sorted."""
    raw = buchberger_raw(rows, nvars + 1, p, elimination_order)
    return [(le[:-1], tuple((e[:-1], c) for e, c in tail))
            for le, tail in raw if not le[-1]]


def _basis_key(canon):
    """The basis memo key of the canonical generators ``canon``, in any
    order; an ideal's shares the terms of its interning key."""
    return ("gb",) + tuple(sorted(canon))


def _recorded(gb: GroebnerBasis) -> GroebnerBasis:
    """The basis, recorded as the basis of its own rows: a reduced basis
    generates its ideal and is its own basis."""
    key = _basis_key(tuple(sorted(((le, 1),) + tail)) for le, tail in gb.rows)
    return gb.ctx.memo(key, lambda: gb)


def _eliminated(ctx: RingContext, rows) -> Ideal:
    """(rows) ∩ R as the ideal of its recorded reduced basis rows."""
    gb = _recorded(GroebnerBasis(ctx, _eliminate_last(rows, ctx.nvars,
                                                      ctx.char)))
    return Ideal(ctx, [Polynomial(ctx, dict(((le, 1),) + tail))
                       for le, tail in gb.rows])


def _meet(left, right):
    """The rows t*left + (1 - t)*right of polynomials, whose elimination of
    t leaves (left) ∩ (right)."""
    return ([_padded(g.terms.items(), (1,)) for g in left]
            + [_padded(g.terms.items()) | _padded(g.terms.items(), (1,), -1)
               for g in right])


def _intersect(a: Ideal, b: Ideal) -> Ideal:
    if b.contains_ideal(a):
        return a
    if a.contains_ideal(b):
        return b
    # the relations belong to both sides, so they are adjoined whole
    rows = _meet(a.gens, b.gens) + [_padded(r) for r in a.ctx.relations]
    return _eliminated(a.ctx, rows)


def _exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient g/f for g a multiple of f; failure is an internal bug."""
    ctx = g.ctx
    p = ctx.char
    lf = f.lead_exp()
    inv = pow(f.lead_coef(), -1, p)
    work = dict(g.terms)
    quo = {}
    while work:
        e = max(work, key=grevlex)
        if not mono_divides(lf, e):
            raise InternalInconsistencyError("inexact division in colon computation")
        q = mono_div(e, lf)
        c = work[e] * inv % p
        quo[q] = c
        for fe, fc in f.terms.items():
            ne = mono_mul(fe, q)
            nc = (work.get(ne, 0) - c * fc) % p
            if nc:
                work[ne] = nc
            else:
                work.pop(ne, None)
    return Polynomial(ctx, quo)


def _colon(a: Ideal, b: Ideal) -> Ideal:
    if b.is_zero():
        warnings.warn("colon by the zero ideal yields the unit ideal",
                      AlgebraWarning, stacklevel=2)
        return Ideal.unit(a.ctx)
    return reduce(Ideal.intersect, (a.colon_element(f) for f in b.gens))


def _saturate_rows(rows, i: int, p: int):
    """Term dicts generating (rows) : x_i^∞ for the reduced grevlex basis
    rows of a nonzero ideal, relations included (Bayer-Stillman 1987;
    Eisenbud, Prop. 15.12).  Homogenized with h, the rows generate the
    homogenization.  In grevlex on the variables ordered (others, h, x_i),
    x_i divides a homogeneous basis row exactly when it divides its lead, so
    dividing each row by the x_i-power of its lead saturates; then h = 1."""
    hom = [{e[:i] + e[i + 1:] + (sum(le) - sum(e), e[i]): c
            for e, c in ((le, 1),) + tail} for le, tail in rows]
    return [{e[:i] + (e[-1] - le[-1],) + e[i:-2]: c for e, c in ((le, 1),) + tail}
            for le, tail in buchberger_raw(hom, len(rows[0][0]) + 1, p, grevlex)]


def _saturate_element(a: Ideal, f: Polynomial) -> Ideal:
    """a : f^∞.  A monomial saturates by each variable of its support.
    Otherwise R[t]/(t - f) = R with t acting as f, so a : f^∞ is
    ((a, t - f) : t^∞) ∩ R."""
    ctx = a.ctx
    if f.is_monomial():
        for i in compress(range(ctx.nvars), f.lead_exp()):
            a = ctx.memo(("saturate_var", a, i),
                         lambda: _saturate_variable(a, i))
        return a
    n, p = ctx.nvars, ctx.char
    rows = [_padded(g.terms.items()) for g in a.gens]
    rows.append(_padded(f.terms.items(), (0,), -1) | {(0,) * n + (1,): 1})
    rows += [_padded(r) for r in ctx.relations]
    gb = buchberger_raw(rows, n + 1, p, grevlex)
    return _eliminated(ctx, _saturate_rows(gb, n, p))


def _saturate_variable(a: Ideal, i: int) -> Ideal:
    """a : x_i^∞ from the grevlex basis of a."""
    gb = a.gb()
    if gb.is_unit() or gb.is_zero():
        return a
    ctx = a.ctx
    return Ideal(ctx, [Polynomial(ctx, terms)
                       for terms in _saturate_rows(gb.rows, i, ctx.char)])


def _saturate(a: Ideal, b: Ideal) -> Ideal:
    gens = [f for f in b.gens if not a.contains(f)]  # a : f^∞ = R for f in a
    if not gens:
        return Ideal.unit(a.ctx)
    return reduce(Ideal.intersect, (_saturate_element(a, f) for f in gens))
