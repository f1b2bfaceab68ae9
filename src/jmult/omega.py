"""Correction terms omega_n and the summation routes to the generalized
Hilbert coefficients.

Every displayed module is evaluated literally in the working ring as a length
of a quotient of ideal expressions built from sums, products, intersections,
colons and m-saturations; a relative colon (A :_X m^infinity) is read as
(A : m^infinity) ∩ X.  The colon element of Ktilde^i is the general element
x_{i+1}, and its display is ((J_i : I) + I^(n+1)) : x_{i+1} over
(J_i : I) + I^n, which is well-formed by construction.  In dimension up to two
only i = 0 occurs.

A display method returns only its (numerator, denominator) pair.  One step,
``OmegaEvaluator.length``, turns any display into its length sequence: zero
at n <= 0, memoized on the ring context, and ``pair_length`` otherwise.

The summation route stops at N = max(r, postulation + d): past N the d-th
difference of P - H is zero, so a wrong term shows up as a finite
disagreement with the fit.

Every display is contained by construction: J_i ⊆ J_(i+1), x_(i+1) ∈ I and
x_(i+1) (J_i : I) ⊆ J_i : I.  A containment failure is therefore a bug, and
``pair_length`` raises it as such.

Every value has the form the report prints.  A length or a signed sum of
lengths is an ``int`` or ``INFINITE``; ``omega`` returns the row
{"n", "terms", "total"} and ``master_identity_check`` the report
{"rows", "holds"}.
"""

from __future__ import annotations

from .hilbert import HilbertRecord, backward_difference, binomial
from .ideals import Ideal, ring_dimension
from .lengths import (INFINITE, gamma_length, loc_quotient_length,
                      pair_length, signed_sum)
from .reductions import GeneralReduction, fiber_length_sum, fiber_length_term


class OmegaEvaluator:
    """Shared-state evaluator for the correction terms of one reduction: the
    ideal I, the general elements and r all come from ``red``, and the
    residuals J_i : I from ``red.residual``.

    Each display method returns the (numerator, denominator) pair of its
    module at index i and degree n, and :meth:`length` takes its length.
    Only display lengths are memoized here, under keys naming the ideal and
    the reduction; fiber, beta and omega_0 lengths hit the pair-length memo.
    The fitted Hilbert record of the ideal bounds the summation route.
    """

    def __init__(self, red: GeneralReduction, record: HilbertRecord):
        self.red = red
        self.ideal = red.ideal
        self.record = record
        self.ctx = red.ideal.ctx
        self.d = ring_dimension(self.ctx)
        self.key = ("omega", self.ideal.key(),
                    tuple(e.canonical() for e in red.elements))

    # -- building blocks -----------------------------------------------------

    def last_sum_degree(self) -> int:
        """N = max(r, postulation + d): the fiber lengths vanish from r on and
        the d-th difference of P - H past postulation + d."""
        return max(self.red.r, self.record.postulation + self.d)

    def fiber(self, n: int):
        return fiber_length_term(self.ideal, self.red.full, n)

    def length(self, display, i: int, n: int):
        """The length of the module ``display(i, n)``.  Sequences are
        extended by zero at n <= 0, which matches the literal displays: the
        zeroth power of I is the unit ideal, so those quotients vanish."""
        if n <= 0:
            return 0
        return self.ctx.memo((self.key, display.__name__, i, n),
                             lambda: pair_length(*display(i, n)))

    # -- displayed modules ------------------------------------------------------

    def ktilde(self, i: int, n: int):
        jci = self.red.residual(i)
        num = (jci + self.ideal ** (n + 1)).colon_element(self.red.elements[i])
        return num, jci + self.ideal ** n

    def ltilde(self, i: int, n: int):
        I = self.ideal
        ji, ji1 = self.red.j(i), self.red.j(i + 1)
        num = ji1.intersect(I ** n)
        den = (ji.intersect(I ** n) + ji1.intersect(I ** (n + 1))
               + I ** (n - 1) * Ideal(self.ctx, (self.red.elements[i],)))
        return num, den

    def l_term(self, i: int, n: int):
        I, m = self.ideal, Ideal.maximal(self.ctx)
        jci, jci1 = self.red.residual(i), self.red.residual(i + 1)
        num = (jci.intersect(I ** n) + I ** (n + 1)).saturate(m) \
            .intersect(jci1.intersect(I ** n))
        inner = (jci.intersect(I ** (n - 1)) + I ** n).saturate(m) \
            .intersect(I ** (n - 1))
        den = (jci.intersect(I ** n) + jci1.intersect(I ** (n + 1))
               + inner * Ideal(self.ctx, (self.red.elements[i],)))
        return num, den

    def n_term(self, i: int, n: int):
        I, m = self.ideal, Ideal.maximal(self.ctx)
        jci, jci1 = self.red.residual(i), self.red.residual(i + 1)
        num = (jci1.intersect(I ** n) + I ** (n + 1)).saturate(m) \
            .intersect(I ** n)
        den = jci1.intersect(I ** n) \
            + (jci.intersect(I ** n) + I ** (n + 1)).saturate(m) \
            .intersect(I ** n)
        return num, den

    def colon_intersection(self, i: int, n: int):
        I, J = self.ideal, self.red.full
        jci = self.red.residual(i)
        num = jci.intersect(I ** (n + 1))
        den = jci.intersect(J * (I ** n))
        if i >= 2:
            prev = self.red.residual(i - 1)
            num = num + prev
            den = den + prev
        return num, den

    def lln(self, i: int, n: int):
        """Ltilde - L + N at one index."""
        return signed_sum(((1, self.length(self.ltilde, i, n)),
                           (-1, self.length(self.l_term, i, n)),
                           (1, self.length(self.n_term, i, n))))

    def beta(self):
        return signed_sum(((1, gamma_length(self.ideal)),
                           (-1, gamma_length(self.red.residual(0)
                                             + self.ideal))))

    # -- the correction itself -----------------------------------------------

    def omega(self, n: int) -> dict:
        """The row {"n", "terms", "total"} of omega_n: each term is a named
        signed contribution in display order, and the total is their sum,
        INFINITE when some term is."""
        d = self.d
        parts = []  # (name, coefficient, length)
        if n == 0:
            parts.append(("colength(J[d-1]:I + I)", 1,
                          loc_quotient_length(self.red.residual(d - 1)
                                              + self.ideal)))
            parts.append(("-torsion(R/I)", -1, gamma_length(self.ideal)))
        else:
            for i in range(d - 1):
                ktilde = backward_difference(
                    lambda t, i=i: self.length(self.ktilde, i, t),
                    d - 1 - i, n)
                parts.append((f"delta^{d - 1 - i}[Ktilde^{i}]", 1, ktilde))
            for i in range(d - 1):
                lln = backward_difference(lambda t, i=i: self.lln(i, t),
                                          d - 2 - i, n)
                parts.append((f"delta^{d - 2 - i}[Ltilde^{i}-L^{i}+N^{i}]", 1,
                              lln))
            for i in range(1, d):
                parts.append((f"-colon_intersection^{i}", -1,
                              self.length(self.colon_intersection, i, n)))
            coeff = binomial(d - 1, n) if n < d else 0
            if coeff:
                parts.append(("beta_term", -((-1) ** n) * coeff, self.beta()))

        terms = {name: signed_sum([(c, v)]) for name, c, v in parts}
        return {"n": n, "terms": terms,
                "total": signed_sum((1, v) for v in terms.values())}


# --------------------------------------------------------------------------
# identity checks and coefficient routes


def combined_verdict(verdicts):
    """False when some verdict is False; otherwise None when some is None
    (undecided), else True."""
    verdicts = list(verdicts)
    if False in verdicts:
        return False
    return None if None in verdicts else True


def master_identity_check(ev: OmegaEvaluator, nmax: int) -> dict:
    """Per degree n, lhs = fiber length + omega_n against rhs = the d-th
    difference of P - H.  A row holds when both sides agree, and is
    undecided (None) when lhs is INFINITE; the report holds per
    ``combined_verdict`` of its rows."""
    rows = []
    for n in range(nmax + 1):
        lhs = signed_sum(((1, ev.fiber(n)), (1, ev.omega(n)["total"])))
        rhs = ev.record.delta_p_minus_h(n)
        rows.append({"n": n, "lhs": lhs, "rhs": rhs,
                     "holds": None if lhs == INFINITE else lhs == rhs})
    return {"rows": rows, "holds": combined_verdict(r["holds"] for r in rows)}


def j_via_sums(ev: OmegaEvaluator, i: int):
    """j_i as the sum over n = i-1 .. N of binom(n, i-1) (fiber length +
    omega_n), with N = ``ev.last_sum_degree()``."""
    if not 1 <= i <= ev.d:
        raise ValueError("coefficient index must be between 1 and d")

    def pairs():
        for n in range(i - 1, ev.last_sum_degree() + 1):
            yield binomial(n, i - 1), ev.fiber(n)
            yield binomial(n, i - 1), ev.omega(n)["total"]

    return signed_sum(pairs())


def j_one_depth_formula(red: GeneralReduction):
    """Three-term value for j_1 under the user-asserted depth hypotheses:
    sum of fiber lengths + colength of (J_{d-1}:I + I) - torsion of R/(H+I),
    where H = 0 in dimension one and H = 0:I otherwise, and r is the
    reduction number that bounds the fiber sum."""
    ideal = red.ideal
    d = ring_dimension(ideal.ctx)
    h = Ideal.zero(ideal.ctx) if d == 1 else red.residual(0)
    return signed_sum((
        (1, fiber_length_sum(red)),
        (1, loc_quotient_length(red.residual(d - 1) + ideal)),
        (-1, gamma_length(h + ideal))))
