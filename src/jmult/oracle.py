"""Independent combinatorial oracle for monomial inputs.

Lengths are lattice-point counts over staircase regions, colons are
componentwise truncated subtraction, intersections are componentwise max, and
saturations drop exponents of the saturating variables.  Nothing here touches
the Groebner engine, which is the point: every shared operation can be
cross-checked against this module on monomial instances.
"""

from __future__ import annotations

from itertools import product as iter_product


class OracleError(ValueError):
    pass


def _minimalize(exps):
    """Antichain of exponent vectors under componentwise <=, sorted."""
    out = []
    for e in sorted(set(map(tuple, exps)), key=lambda v: (sum(v), v)):
        if not any(_divides(k, e) for k in out):
            out.append(e)
    return tuple(out)


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


class MonomialIdeal:
    """Monomial ideal given by its minimal generating exponent vectors."""

    __slots__ = ("nvars", "gens")

    def __init__(self, nvars: int, exps=()):
        self.nvars = nvars
        for e in exps:
            if len(e) != nvars:
                raise OracleError("exponent vector length mismatch")
        self.gens = _minimalize(exps)

    @classmethod
    def from_ideal(cls, ideal) -> "MonomialIdeal":
        """Convert an engine ideal whose generators are all monomials."""
        exps = []
        for g in ideal.gens:
            if not g.is_monomial():
                raise OracleError("oracle only handles monomial ideals")
            exps.append(next(iter(g.terms)))
        return cls(ideal.ctx.nvars, exps)

    # -- membership ----------------------------------------------------------

    def contains_exp(self, e) -> bool:
        return any(_divides(g, e) for g in self.gens)

    def contains(self, other: "MonomialIdeal") -> bool:
        return all(self.contains_exp(g) for g in other.gens)

    def is_zero(self) -> bool:
        return not self.gens

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.nvars,)

    def __eq__(self, other):
        return (isinstance(other, MonomialIdeal) and self.nvars == other.nvars
                and self.gens == other.gens)

    def __hash__(self):
        return hash((self.nvars, self.gens))

    def __repr__(self):
        return f"MonomialIdeal{self.gens}"

    # -- exponent-vector algebra ----------------------------------------------

    def plus(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal(self.nvars, self.gens + other.gens)

    def times(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if self.is_zero() or other.is_zero():
            return MonomialIdeal(self.nvars)
        return MonomialIdeal(self.nvars,
                             [tuple(a + b for a, b in zip(g, h))
                              for g in self.gens for h in other.gens])

    def power(self, n: int) -> "MonomialIdeal":
        if n == 0:
            return MonomialIdeal(self.nvars, [(0,) * self.nvars])
        out = self
        for _ in range(n - 1):
            out = out.times(self)
        return out

    def intersect(self, other: "MonomialIdeal") -> "MonomialIdeal":
        return MonomialIdeal(self.nvars,
                             [tuple(max(a, b) for a, b in zip(g, h))
                              for g in self.gens for h in other.gens])

    def colon_exp(self, b) -> "MonomialIdeal":
        return MonomialIdeal(self.nvars,
                             [tuple(max(a - x, 0) for a, x in zip(g, b))
                              for g in self.gens])

    def colon(self, other: "MonomialIdeal") -> "MonomialIdeal":
        if other.is_zero():
            return MonomialIdeal(self.nvars, [(0,) * self.nvars])
        out = None
        for b in other.gens:
            part = self.colon_exp(b)
            out = part if out is None else out.intersect(part)
        return out

    def saturate_exp(self, b) -> "MonomialIdeal":
        """Stable tail of the colon chain by a single monomial: exponents on
        the support of b drop to zero."""
        supp = {i for i, x in enumerate(b) if x}
        return MonomialIdeal(self.nvars,
                             [tuple(0 if i in supp else x for i, x in enumerate(g))
                              for g in self.gens])

    def saturate_vars(self, positions) -> "MonomialIdeal":
        """Saturation with respect to the ideal of the listed variables."""
        out = None
        for i in positions:
            e = tuple(1 if j == i else 0 for j in range(self.nvars))
            part = self.saturate_exp(e)
            out = part if out is None else out.intersect(part)
        return out if out is not None else self

    def saturate(self, other: "MonomialIdeal") -> "MonomialIdeal":
        """Saturation by a monomial ideal, generator by generator."""
        if other.is_zero():
            return MonomialIdeal(self.nvars, [(0,) * self.nvars])
        out = None
        for b in other.gens:
            part = self.saturate_exp(b)
            out = part if out is None else out.intersect(part)
        return out

    # -- pure-power data --------------------------------------------------------

    def pure_power(self, i: int):
        vals = [g[i] for g in self.gens
                if all(x == 0 for j, x in enumerate(g) if j != i)]
        return min(vals) if vals else None

    def is_m_primary(self) -> bool:
        if self.is_unit():
            return False
        return all(self.pure_power(i) is not None for i in range(self.nvars))


# --------------------------------------------------------------------------
# lattice-point counting


def mon_pair_length(a: MonomialIdeal, b: MonomialIdeal):
    """Exact count of monomials in a but not in b when finite, else None.
    Requires b contained in a."""
    if not a.contains(b):
        raise OracleError("second ideal is not contained in the first")
    if a.is_zero():
        return 0
    caps = [0] * a.nvars
    for g in a.gens:
        quot = b.colon_exp(g)
        for i in range(a.nvars):
            s = quot.pure_power(i)
            if s is None:
                return None
            caps[i] = max(caps[i], g[i] + s)
    count = 0
    for e in iter_product(*(range(c) for c in caps)):
        if a.contains_exp(e) and not b.contains_exp(e):
            count += 1
    return count


def mon_quotient_length(a: MonomialIdeal):
    """Length of R/a at the origin: None when the staircase complement is
    infinite."""
    unit = MonomialIdeal(a.nvars, [(0,) * a.nvars])
    return mon_pair_length(unit, a)


# --------------------------------------------------------------------------
# classical Hilbert-Samuel route for m-primary monomial ideals


def oracle_hilbert_coefficients(a: MonomialIdeal):
    """Classical coefficients of n -> length(R/a^(n+1)), for m-primary a.

    Counts colengths directly, locates the region where the d-th difference
    is constant and converts to the signed binomial basis.  This is the
    anti-hallucination cross-check for the fitted route of the main engine.
    """
    from .hilbert import binomial_basis_convert, detect_polynomial_window

    if not a.is_m_primary():
        raise OracleError("classical coefficients need an m-primary ideal")
    d = a.nvars
    values = []
    n_cap = 64
    region = None
    while region is None:
        n = len(values)
        if n > n_cap:
            raise OracleError("colength counts did not become polynomial")
        values.append(mon_quotient_length(a.power(n + 1)))
        region = detect_polynomial_window(values, d, d + 2)
    s, e = region
    return binomial_basis_convert(values[s:e + 1], d, start=s)
