"""The universal length primitive: finite local lengths of subquotients A/B
of the working ring, computed by truncation stabilization.

``pair_length(A, B)`` measures the length of A/B supported at the ideal m of
all variables.  It compares Artinian snapshots dim_k R/(B + m^M) and
dim_k R/(A + m^M) for growing M and declares the difference stable once it is
constant across a window of samples; for M large enough the difference equals
the m-local length whenever that length is finite.  Components of A/B
supported away from the origin are invisible to the truncation, which is
exactly the localization the working ring demands; that behaviour is
deliberate and tested.

Each snapshot is one Groebner basis in k[x]/m^M: ``buchberger_raw(...,
below=M)`` drops every term of degree >= M and pairs each row that has a term
below its lead degree with the degree-M multiples of its lead (the boundary
pairs).  Dropping terms alone is not exact on non-homogeneous rows: for
(x - y^2) at M = 3 it would leave 5 standard monomials instead of 3.  The
snapshot is the number of monomials of degree < M outside the leads.

The sampling schedule lives here and nowhere else.  M starts at
2 (d + the largest generator or relation degree of the operands), past every
generator's own scale, and steps by ``STEP_M``; the difference is stable
once ``WINDOW`` consecutive samples agree.  The cap is the context's
``cap_m`` (``--cap-m``), raised to at least start + 8 so that a length is
sampled five times before it is declared infinite or non-stabilized.

No a-priori stopping bound is available, so stabilization is a heuristic
backed by the cross-route identity checks higher up the stack: a premature
answer surfaces as a cross-check failure, never silently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groebner import buchberger_raw, count_standard_monomials
from .ideals import Ideal, ring_dimension

STEP_M = 2
WINDOW = 2


class ContainmentError(ValueError):
    """pair_length(A, B) requires B to be contained in A."""


@dataclass(frozen=True)
class LengthValue:
    """A length: an exact integer, an explicit infinite marker, or a
    non-stabilizing marker carrying the truncation trace."""

    kind: str  # "finite" | "infinite" | "non_stabilized"
    value: int | None = None
    reason: str | None = None

    @staticmethod
    def finite(n: int) -> "LengthValue":
        return LengthValue("finite", int(n))

    @staticmethod
    def infinite(reason: str | None = None) -> "LengthValue":
        return LengthValue("infinite", None, reason)

    @staticmethod
    def non_stabilized(reason: str) -> "LengthValue":
        return LengthValue("non_stabilized", None, reason)

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    def as_int(self) -> int:
        if not self.is_finite:
            raise ValueError(f"length is not finite: {self}")
        return self.value

    def to_json(self):
        if self.is_finite:
            return self.value
        if self.kind == "infinite":
            return "infinite"
        return f"non-stabilized: {self.reason}" if self.reason else "non-stabilized"

    def __repr__(self):
        if self.is_finite:
            return f"LengthValue({self.value})"
        return f"LengthValue({self.kind}{':' + self.reason if self.reason else ''})"


def lv_sub(a: LengthValue, b: LengthValue) -> LengthValue:
    for x in (a, b):
        if x.kind == "non_stabilized":
            return x
    if a.is_finite and b.is_finite:
        return LengthValue.finite(a.value - b.value)
    if a.kind == "infinite" and b.is_finite:
        return LengthValue.infinite()
    return LengthValue.non_stabilized("indeterminate difference of lengths")


def truncated_dim(ideal_: Ideal, m: int) -> int:
    """dim_k of R/(ideal + m^M): the Artinian snapshot, always finite."""
    return ideal_.ctx.memo(("truncdim", ideal_.key(), m),
                           lambda: _artinian_dim(ideal_, m))


def _artinian_dim(ideal_: Ideal, m: int) -> int:
    gb = ideal_.gb()
    if gb.is_unit():
        return 0
    ctx = ideal_.ctx
    rows = buchberger_raw([g.terms for g in gb.polys], ctx.nvars, ctx.char,
                          gb.order, below=m)
    return count_standard_monomials([le for le, _ in rows], ctx.nvars, m)


def pair_length(a: Ideal, b: Ideal) -> LengthValue:
    """m-local length of A/B for B contained in A (containment is verified)."""
    gb_a = a.gb()
    for g in b.gens:
        if not gb_a.contains(g):
            raise ContainmentError(
                f"generator {g} of the submodule side is not in the larger ideal")
    ctx = a.ctx
    deg = max(ctx.max_relation_degree(), a.max_gen_degree(), b.max_gen_degree())
    start = max(1, 2 * (ring_dimension(ctx) + deg))
    # the start degree depends on the generators, not only on the bases
    return ctx.memo(("pairlen", a.key(), b.key(), start),
                    lambda: _stabilize(a, b, start))


def _stabilize(a: Ideal, b: Ideal, start: int) -> LengthValue:
    cap = max(a.ctx.cap_m, start + 4 * STEP_M)
    trace = []
    for m in range(start, cap + 1, STEP_M):
        trace.append(truncated_dim(b, m) - truncated_dim(a, m))
        if len(trace) >= WINDOW and len(set(trace[-WINDOW:])) == 1:
            return LengthValue.finite(trace[-1])
    if all(x <= y for x, y in zip(trace, trace[1:])) and trace[-1] > trace[0]:
        return LengthValue.infinite(f"D(M) still growing at M={cap}")
    return LengthValue.non_stabilized(
        f"truncation trace {trace} did not stabilize by M={cap}")


def loc_quotient_length(l: Ideal) -> LengthValue:
    """m-local length of R/L; infinite when R/L has positive dimension at the
    origin.  Components of R/L supported away from the origin do not count."""
    return pair_length(Ideal.unit(l.ctx), l)


def gamma_length(l: Ideal) -> LengthValue:
    """Length of the m-torsion submodule of R/L; always finite."""
    sat = l.saturate(Ideal.maximal(l.ctx))
    return pair_length(sat, l)
