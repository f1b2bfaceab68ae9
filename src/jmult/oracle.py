"""Independent combinatorial oracle for monomial inputs.

Lengths are lattice-point counts over staircase regions, colons are
componentwise truncated subtraction, intersections are componentwise max,
saturations drop exponents of the saturating variables, and the classical
Hilbert coefficients are read from counted colengths with this module's own
difference operator.  The module imports no other module of the package, so
it shares no code with the Groebner engine or the Hilbert fit, which is the
point: every shared operation can be cross-checked against it on monomial
instances.
"""

from __future__ import annotations

from itertools import product as iter_product
from math import comb


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


def _difference(values, k: int, n: int) -> int:
    """k-th backward difference at index n of a list of integers."""
    return sum((-1) ** j * comb(k, j) * values[n - j] for j in range(k + 1))


def oracle_hilbert_coefficients(a: MonomialIdeal):
    """Classical coefficients (j_0 .. j_d) of P, the polynomial that
    n -> length(R/a^(n+1)) eventually agrees with, for m-primary a.

    Counts colengths until the d-th backward difference is constant at d + 4
    consecutive n, steps P back from its last d + 1 values to n = -1 - d by
    the vanishing (d + 1)-th difference, and reads j_i = (-1)^i times the
    (d - i)-th backward difference of P at -1.  This is the
    anti-hallucination cross-check for the fitted route of the main engine,
    and shares no code with it.
    """
    if not a.is_m_primary():
        raise OracleError("classical coefficients need an m-primary ideal")
    d = a.nvars
    values = []
    n_cap = 64
    run, prev = 0, None
    while run < d + 4:
        if len(values) > n_cap:
            raise OracleError("colength counts did not become polynomial")
        values.append(mon_quotient_length(a.power(len(values) + 1)))
        if len(values) > d:
            cur = _difference(values, d, len(values) - 1)
            run = run + 1 if cur == prev else 1
            prev = cur
    p = values[-d - 1:]
    for _ in values:
        p.insert(0, sum((-1) ** (j + 1) * comb(d + 1, j) * p[j - 1]
                        for j in range(1, d + 2)))
    return tuple((-1) ** i * _difference(p, d - i, d) for i in range(d + 1))
