"""Exact arithmetic layer: the characteristic check, exponent-vector
monomials, monomial orders and sparse multivariate polynomials.

There are two orders, each a sort-key function: grevlex, in which every
stored basis is kept, and the elimination order of the last variable, which
removes the one auxiliary variable the ideal operations append.

Scalars, monomials and polynomials are immutable and their operations are
pure functions.  A :class:`RingContext` is immutable in its ring data but
holds a mutable memo of computed results (:meth:`RingContext.memo`), so a
context shared between threads needs a lock around its use.  The working
ring's memo is the only mutable state of a computation: an auxiliary
variable is an exponent slot the ideal layer appends to raw term dicts, not
a context of its own, so no other context is built.  The field is its
modulus: coefficients are plain integer residues in ``[0, p)``, an inverse is
``pow(c, -1, p)``, and :func:`check_char` admits an odd prime p below 2**31,
so that intermediate products fit comfortably in 64 bits.
"""

from __future__ import annotations

import operator
from math import isqrt
from typing import Iterable, Mapping

DEFAULT_CHAR = 32003
MAX_CHAR = 1 << 31

Exponents = tuple  # tuple[int, ...], one slot per ambient variable


class ContextMismatchError(ValueError):
    """Operands built over different ring contexts."""


# --------------------------------------------------------------------------
# characteristic


def is_prime(n: int) -> bool:
    """Trial division by 2 and the odd numbers up to isqrt(n): exact, and at
    most 23169 odd divisions for a modulus below 2**31."""
    if n < 2 or n % 2 == 0:
        return n == 2
    return all(n % q for q in range(3, isqrt(n) + 1, 2))


def check_char(p: int) -> int:
    """The characteristic p, once checked to be an odd prime below 2**31."""
    if not (2 < p < MAX_CHAR):
        raise ValueError(f"characteristic must be an odd prime below 2^31, got {p}")
    if not is_prime(p):
        raise ValueError(f"characteristic {p} is not prime")
    return p


# --------------------------------------------------------------------------
# monomials (bare exponent tuples) and orders as sort keys; the engine's only
# exponent arithmetic, each operation one builtin call over the tuples


def mono_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(operator.add, a, b))


def mono_divides(a: Exponents, b: Exponents) -> bool:
    """True when the monomial with exponents a divides the one with b."""
    return all(map(operator.le, a, b))


def mono_div(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(operator.sub, a, b))


def mono_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


def grevlex(e: Exponents):
    """Sort key of the graded reverse lexicographic order: total degree
    first, then the monomial with the smaller exponent in the last variable
    where the two differ is the larger."""
    return (sum(e), tuple(map(operator.neg, reversed(e))))


def elimination_order(e: Exponents):
    """Sort key of the order that eliminates the last variable: its exponent
    first, then grevlex.  An auxiliary variable is always one variable
    appended last.  At equal last exponents grevlex on the whole vector
    agrees with grevlex on the other variables, so this is the block order
    with the last variable as one block."""
    return (e[-1], grevlex(e))


# --------------------------------------------------------------------------
# ring context


class RingContext:
    """Ambient data shared by every algebraic value: variable names, the odd
    prime characteristic, and the quotient relations defining the working
    ring.

    The ring under study is k[vars]/(relations) localized at the ideal
    generated by all the variables; ideals built over this context implicitly
    contain the relations.  Relations are kept as canonical term data so that
    contexts compare and hash by value.
    """

    __slots__ = ("var_names", "char", "relations", "_sig", "_memo")

    def __init__(self, var_names: Iterable[str], char: int = DEFAULT_CHAR,
                 relations: Iterable = ()):
        names = tuple(var_names)
        if len(set(names)) != len(names) or not names:
            raise ValueError("variable names must be nonempty and distinct")
        self.var_names = names
        self.char = check_char(char)
        rel = []
        for r in relations:
            terms = r.terms if isinstance(r, Polynomial) else dict(r)
            data = tuple(sorted((tuple(e), c % char) for e, c in terms.items() if c % char))
            if data:
                rel.append(data)
        self.relations = tuple(rel)
        self._sig = (self.var_names, self.char, self.relations)
        self._memo = {}

    @property
    def nvars(self) -> int:
        return len(self.var_names)

    def __eq__(self, other):
        return isinstance(other, RingContext) and self._sig == other._sig

    def __hash__(self):
        return hash(self._sig)

    def __repr__(self):
        rel = f", {len(self.relations)} relations" if self.relations else ""
        return f"RingContext(vars={','.join(self.var_names)}, char={self.char}{rel})"

    def memo(self, key, build):
        """``build()``, computed once per key over this context; ``build``
        never returns None."""
        got = self._memo.get(key)
        if got is None:
            got = self._memo[key] = build()
        return got

    # -- constructors ------------------------------------------------------

    @property
    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    @property
    def one(self) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: 1})

    def constant(self, c: int) -> "Polynomial":
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name_or_index) -> "Polynomial":
        i = name_or_index if isinstance(name_or_index, int) else self.var_index(name_or_index)
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): 1})

    def var_index(self, name: str) -> int:
        try:
            return self.var_names.index(name)
        except ValueError:
            raise KeyError(f"unknown variable {name!r}") from None

    def monomial(self, exps: Iterable[int], coef: int = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exps): coef})

    def relation_polys(self) -> list:
        return [Polynomial(self, dict(data)) for data in self.relations]


class Polynomial:
    """Sparse multivariate polynomial over the context's prime field.

    Terms are a mapping from exponent tuples to nonzero residues; the zero
    polynomial has no terms.  Instances are immutable and hashable.
    """

    __slots__ = ("ctx", "terms", "_hash")

    def __init__(self, ctx: RingContext, terms: Mapping):
        p = ctx.char
        clean = {}
        for e, c in terms.items():
            c %= p
            if c:
                e = tuple(e)
                if len(e) != ctx.nvars:
                    raise ValueError("exponent vector length does not match context")
                clean[e] = c
        self.ctx = ctx
        self.terms = clean
        self._hash = None

    # -- predicates --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_monomial(self) -> bool:
        return len(self.terms) == 1

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other: "Polynomial"):
        if self.ctx != other.ctx:
            raise ContextMismatchError("polynomials from different ring contexts")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.ctx.char
        out = dict(self.terms)
        for e, c in other.terms.items():
            nc = (out.get(e, 0) + c) % p
            if nc:
                out[e] = nc
            else:
                out.pop(e, None)
        return Polynomial(self.ctx, out)

    def __neg__(self) -> "Polynomial":
        p = self.ctx.char
        return Polynomial(self.ctx, {e: p - c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check(other)
        p = self.ctx.char
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                nc = (out.get(e, 0) + c1 * c2) % p
                if nc:
                    out[e] = nc
                else:
                    out.pop(e, None)
        return Polynomial(self.ctx, out)

    def scale(self, c: int) -> "Polynomial":
        p = self.ctx.char
        c %= p
        return Polynomial(self.ctx, {e: c * v % p for e, v in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative polynomial power")
        out = self.ctx.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base if n > 1 else base
            n >>= 1
        return out

    # -- grevlex views --------------------------------------------------------

    def lead_exp(self) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        return max(self.terms, key=grevlex)

    def lead_coef(self) -> int:
        return self.terms[self.lead_exp()]

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: grevlex(t[0]), reverse=True)

    def monic(self) -> "Polynomial":
        c = self.lead_coef() if self.terms else 1
        return self if c == 1 else self.scale(pow(c, -1, self.ctx.char))

    # -- structural helpers --------------------------------------------------

    def canonical(self):
        return tuple(sorted(self.terms.items()))

    def __eq__(self, other):
        return (isinstance(other, Polynomial) and self.ctx._sig == other.ctx._sig
                and self.terms == other.terms)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.ctx._sig, self.canonical()))
        return self._hash

    def __repr__(self):
        return f"Polynomial({self})"

    def __str__(self):
        return format_polynomial(self)


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form: grevlex-descending terms, explicit * and ^,
    coefficients balanced around zero so -1 prints as a minus sign."""
    if f.is_zero():
        return "0"
    p = f.ctx.char
    names = f.ctx.var_names
    parts = []
    for e, c in f.sorted_terms():
        if c > p // 2:
            sign, mag = "-", p - c
        else:
            sign, mag = "+", c
        factors = [f"{names[i]}^{x}" if x > 1 else names[i]
                   for i, x in enumerate(e) if x]
        if not factors or mag != 1:
            factors.insert(0, str(mag))
        term = "*".join(factors)
        if not parts:
            parts.append(term if sign == "+" else "-" + term)
        else:
            parts.append(f"{sign}{term}")
    return "".join(parts)
