"""Ideal-level operator algebra: sum, product, power, intersection, colon,
saturation, equality, membership, dimension and codimension.

Every :class:`Ideal` lives over a :class:`~jmult.ring.RingContext` and
implicitly contains the context relations, so all operations take place in the
quotient ring.  Ideals are immutable, and there is one object per context and
normalized generator list, which holds its reduced grevlex basis and powers;
lists holding the same generators in another order share that basis.
The heavier binary operations are memoized on the context keyed by the
operands' reduced bases, which lets the same mathematical ideal reached
through different generators share work.
"""

from __future__ import annotations

import warnings

from .groebner import GroebnerBasis, buchberger_raw, groebner_basis
from .ring import (ContextMismatchError, Polynomial, RingContext,
                   elimination_order, extend_context, grevlex, lift_poly,
                   mono_degree, mono_div, mono_divides)


class AlgebraWarning(UserWarning):
    """Flagged conventions, e.g. colon by the zero ideal."""


class InternalInconsistencyError(RuntimeError):
    """An exact division that is guaranteed by theory failed; a bug."""


class Ideal:
    """Finitely generated ideal of the working ring: one object per context
    and normalized, ordered generator list, alive as long as the context.
    Two ideals are equal exactly when their reduced grevlex bases coincide;
    ``==`` performs that mathematical comparison.
    """

    __slots__ = ("ctx", "gens", "_canon", "_gb", "_powers", "_hash")

    def __new__(cls, ctx: RingContext, gens=()):
        clean = []
        seen = set()
        for g in gens:
            if isinstance(g, dict):
                g = Polynomial(ctx, g)
            if g.ctx != ctx:
                raise ContextMismatchError("generator from a different context")
            if g.is_zero():
                continue
            g = g.monic()
            c = g.canonical()
            if c not in seen:
                seen.add(c)
                clean.append(g)
        clean = tuple(_prune_monomial_multiples(clean))
        canon = tuple(g.canonical() for g in clean)

        def build():
            ideal = object.__new__(cls)
            ideal.ctx, ideal.gens, ideal._canon = ctx, clean, canon
            ideal._gb, ideal._powers, ideal._hash = None, {}, None
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

    @classmethod
    def _with_gb(cls, ctx: RingContext, gb: GroebnerBasis) -> "Ideal":
        ideal = cls(ctx, gb.polys)
        if ideal._gb is None:
            ideal._gb = ctx.memo(ideal._gens_key(), lambda: gb)
        return ideal

    # -- bases and identity ----------------------------------------------------

    def _gens_key(self):
        """The generator set, in any order: lists that differ only in order
        share one basis.  It reuses the canonical generators of the
        interning key, so the two keys hold one copy of them."""
        return ("gb",) + tuple(sorted(self._canon))

    def gb(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = self.ctx.memo(
                self._gens_key(),
                lambda: groebner_basis(self.ctx, self.gens))
        return self._gb

    def key(self):
        return self.gb().cache_key()

    def __eq__(self, other):
        if not isinstance(other, Ideal):
            return NotImplemented
        if self.ctx != other.ctx:
            return False
        if self.gens == other.gens:
            return True
        return self.key() == other.key()

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx._sig, self.key()))
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
        if not self.gens or not other.gens:
            return Ideal.zero(self.ctx)
        prods = [a * b for a in self.gens for b in other.gens]
        return Ideal(self.ctx, prods)

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

    def scaled_by(self, f: Polynomial) -> "Ideal":
        """The ideal f * self."""
        if f.is_zero():
            return Ideal.zero(self.ctx)
        return Ideal(self.ctx, tuple(f * g for g in self.gens))

    # -- Groebner-backed operations -------------------------------------------------

    def intersect(self, other: "Ideal") -> "Ideal":
        self._check(other)
        return self.ctx.memo(
            ("intersect",) + tuple(sorted((self.key(), other.key()))),
            lambda: _intersect(self, other))

    def colon(self, other: "Ideal") -> "Ideal":
        """self : other, the transporter of other into self."""
        self._check(other)
        return self.ctx.memo(("colon", self.key(), other.key()),
                             lambda: _colon(self, other))

    def colon_element(self, f: Polynomial) -> "Ideal":
        return self.ctx.memo(("colon_el", self.key(), f.canonical()),
                             lambda: _colon_element(self, f))

    def saturate(self, other: "Ideal") -> "Ideal":
        """self : other^∞, the intersection over the generators f of other
        of self : f^∞.  A variable saturates by one Groebner basis of the
        homogenization (Bayer's method), a monomial one variable of its
        support at a time, and any other f as ((self, t - f) : t^∞) ∩ R
        with t a new variable."""
        self._check(other)
        return self.ctx.memo(("saturate", self.key(), other.key()),
                             lambda: _saturate(self, other))

    def dimension(self) -> int:
        """Krull dimension of (ambient)/self; -1 for the unit ideal."""
        return self.gb().dimension()

    def codimension(self) -> int:
        """Height of this ideal in the working ring; the unit ideal gets the
        flagged convention dim R + 1."""
        d = ring_dimension(self.ctx)
        if self.is_unit():
            warnings.warn("codimension of the unit ideal uses the convention dim R + 1",
                          AlgebraWarning, stacklevel=2)
            return d + 1
        return d - self.dimension()


# --------------------------------------------------------------------------
# ring-level data


def ring_dimension(ctx: RingContext) -> int:
    """Krull dimension of the working ring itself."""
    return ctx.memo("ring_dim", lambda: Ideal.zero(ctx).dimension())


def eliminate(a: Ideal, drop_names) -> Ideal:
    """Generators of a ∩ k[remaining variables], computed with a block order.
    The dropped variables must be the trailing ones; others raise ValueError.

    The result lives in a fresh context on the remaining variables with an
    empty relation list; the image of the original relations is already
    carried by the returned generators.
    """
    ctx = a.ctx
    drop = {ctx.var_index(v) if isinstance(v, str) else v for v in drop_names}
    keep = ctx.nvars - len(drop)
    if drop != set(range(keep, ctx.nvars)):
        raise ValueError("only the trailing variables can be eliminated")
    sub_ctx = RingContext(ctx.var_names[:keep], ctx.char)
    return _eliminate_trailing(ctx, sub_ctx, a.gens, len(drop),
                               include_relations=True)


# --------------------------------------------------------------------------
# internals


def _prune_monomial_multiples(gens):
    """Drop monomial generators divisible by another monomial generator."""
    monos = [(g.lead_exp(), g) for g in gens if g.is_monomial()]
    out = [g for g in gens if not g.is_monomial()]
    kept = []
    for e, g in sorted(monos, key=lambda t: mono_degree(t[0])):
        if not any(mono_divides(k, e) for k, _ in kept):
            kept.append((e, g))
    out.extend(g for _, g in kept)
    return out


def _aux_context(ctx: RingContext):
    return extend_context(ctx, ("@t",))


def _eliminate_trailing(ext_ctx: RingContext, base_ctx: RingContext, rows,
                        n_aux: int, include_relations: bool) -> Ideal:
    """Groebner-eliminate the trailing n_aux variables, with the context
    relations adjoined when asked, and return the result as an ideal of the
    base context, seeding its grevlex basis from the restricted block-order
    basis."""
    terms = [f.terms for f in rows]
    if include_relations:
        terms.extend(dict(data) for data in ext_ctx.relations)
    raw = buchberger_raw(terms, ext_ctx.nvars, ext_ctx.char,
                         elimination_order(n_aux))
    # a row whose block lead has no auxiliary variable has none at all, and
    # the block order on the base variables is grevlex, so the kept rows are
    # the reduced grevlex basis, already monic and sorted
    nbase = base_ctx.nvars
    kept = [(le[:nbase], tuple((e[:nbase], c) for e, c in tail))
            for le, tail in raw if not any(le[nbase:])]
    return Ideal._with_gb(base_ctx, GroebnerBasis(base_ctx, grevlex, kept))


def _intersect(a: Ideal, b: Ideal) -> Ideal:
    if a.is_unit():
        return b
    if b.is_unit():
        return a
    ctx = a.ctx
    ext = _aux_context(ctx)
    t = ext.var(ext.nvars - 1)
    one = ext.one
    rows = [t * lift_poly(g, ext) for g in a.gens]
    rows += [(one - t) * lift_poly(g, ext) for g in b.gens]
    # context relations lift into the extended ring and are adjoined whole;
    # they belong to both sides, so the sum is unchanged
    return _eliminate_trailing(ext, ctx, rows, 1, include_relations=True)


def _exact_divide(g: Polynomial, f: Polynomial) -> Polynomial:
    """Quotient g/f for g a multiple of f; failure is an internal bug."""
    ctx = g.ctx
    p = ctx.char
    lf = f.lead_exp()
    inv = ctx.field.inv(f.lead_coef())
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
            ne = tuple(x + y for x, y in zip(fe, q))
            nc = (work.get(ne, 0) - c * fc) % p
            if nc:
                work[ne] = nc
            else:
                work.pop(ne, None)
    return Polynomial(ctx, quo)


def _colon_element(a: Ideal, f: Polynomial) -> Ideal:
    """a : f via (a ∩ (f)) / f, with the intersection taken at ambient level."""
    if f.is_zero():
        warnings.warn("colon by zero yields the unit ideal", AlgebraWarning,
                      stacklevel=2)
        return Ideal.unit(a.ctx)
    if Ideal.zero(a.ctx).contains(f):
        # f is zero in the working ring, so a : f is everything
        return Ideal.unit(a.ctx)
    if a.is_unit() or f.degree() == 0:
        return a
    ctx = a.ctx
    ext = _aux_context(ctx)
    t = ext.var(ext.nvars - 1)
    one = ext.one
    rows = [t * lift_poly(g, ext) for g in a.gens]
    rows += [t * lift_poly(r, ext) for r in ctx.relation_polys()]
    rows.append((one - t) * lift_poly(f, ext))
    meet = _eliminate_trailing(ext, ctx, rows, 1, include_relations=False)
    quots = [_exact_divide(g, f) for g in meet.gens]
    return Ideal(ctx, quots)


def _nonzero_image_gens(b: Ideal):
    zero = Ideal.zero(b.ctx)
    return [g for g in b.gens if not zero.contains(g)]


def _colon(a: Ideal, b: Ideal) -> Ideal:
    gens = _nonzero_image_gens(b)
    if not gens:
        warnings.warn("colon by the zero ideal yields the unit ideal",
                      AlgebraWarning, stacklevel=2)
        return Ideal.unit(a.ctx)
    out = None
    for f in gens:
        part = a.colon_element(f)
        out = part if out is None else out.intersect(part)
    return out


def _saturate_variable(a: Ideal, i: int) -> Ideal:
    """a : x_i^∞ from one Groebner basis (Bayer-Stillman 1987; Eisenbud,
    Prop. 15.12).  The grevlex basis of a, relations included, homogenized
    with h, generates the homogenization of a.  In grevlex on the variables
    ordered (others, h, x_i), x_i divides a homogeneous basis row exactly
    when it divides its lead, so dividing each row by the x_i-power of its
    lead saturates by x_i; h = 1 then gives generators of a : x_i^∞."""
    gb = a.gb()
    if gb.is_unit() or gb.is_zero():
        return a
    ctx = a.ctx
    others = [j for j in range(ctx.nvars) if j != i]

    def lift(e, top):
        return tuple(e[j] for j in others) + (top - mono_degree(e), e[i])

    rows = [{lift(e, mono_degree(le)): c for e, c in ((le, 1),) + tail}
            for le, tail in gb.rows]
    gens = []
    for le, tail in buchberger_raw(rows, ctx.nvars + 1, ctx.char, grevlex):
        k = le[-1]
        terms = {}
        for e, c in ((le, 1),) + tail:
            x = list(e[:-2])
            x.insert(i, e[-1] - k)
            terms[tuple(x)] = c
        gens.append(Polynomial(ctx, terms))
    return Ideal(ctx, gens)


def _saturate_element(a: Ideal, f: Polynomial) -> Ideal:
    """a : f^∞.  A monomial saturates by each variable of its support.
    Otherwise R[t]/(t - f) = R with t acting as f, so a : f^∞ is
    ((a, t - f) : t^∞) ∩ R."""
    ctx = a.ctx
    if f.is_monomial():
        for i, k in enumerate(f.lead_exp()):
            if k:
                a = ctx.memo(("saturate_var", a.key(), i),
                             lambda: _saturate_variable(a, i))
        return a
    ext = _aux_context(ctx)
    t = ext.var(ext.nvars - 1)
    rows = [lift_poly(g, ext) for g in a.gens] + [t - lift_poly(f, ext)]
    sat = _saturate_variable(Ideal(ext, rows), ext.nvars - 1)
    return _eliminate_trailing(ext, ctx, sat.gens, 1, include_relations=False)


def _saturate(a: Ideal, b: Ideal) -> Ideal:
    gens = _nonzero_image_gens(b)
    if not gens:
        return Ideal.unit(a.ctx)
    out = None
    for f in gens:
        part = _saturate_element(a, f)
        out = part if out is None else out.intersect(part)
    return out
