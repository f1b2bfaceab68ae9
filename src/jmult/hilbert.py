"""Generalized Hilbert-Samuel function, its polynomial, and the coefficients
in the signed binomial basis.

The function value at n is the partial sum through i = n of the lengths of
the m-torsion of the graded pieces I^i/I^(i+1).  Its series is read exactly
from one Rees presentation (:func:`~jmult.ideals.graded_torsion_series`):
with g generators it is N(t)/(1 - t)^(g+1), and since H is eventually a
polynomial of degree at most d the pole reduces to Q(t)/(1 - t)^(d+1).
Then H(n) = sum_{k <= n} q_k binom(n - k + d, d), and the polynomial is

    P(n) = sum_i (-1)^i j_i binom(n + d - i, d - i),
    j_i = sum_k binom(k, i) q_k.

H and P agree from n = len(Q) - d on, so the postulation number, the first
n from which they agree, is exact.  The reported window is the postulation
through postulation + 2d + 3.  One backward difference operator serves the
record's difference-sum route and the correction terms of ``omega``.
"""

from __future__ import annotations

from itertools import accumulate
from math import comb
from typing import NamedTuple

from .ideals import (Ideal, InternalInconsistencyError, graded_torsion_series,
                     ring_dimension)
from .lengths import signed_sum

# the longest Hilbert table a run may ask for, which bounds --nmax
FIT_N_CAP = 40


def binomial(n: int, k: int) -> int:
    """binom(n, k) for any integer n and k >= 0 (zero when k < 0)."""
    if k < 0:
        return 0
    if n >= 0:
        return comb(n, k)
    # generalized: binom(n, k) = (-1)^k binom(k - n - 1, k) for n < 0
    return (-1) ** k * comb(k - n - 1, k)


def backward_difference(fn, k: int, n: int):
    """k-th backward difference of a function of the integers, whose values
    may be lengths: an INFINITE value makes the difference INFINITE."""
    return signed_sum(((-1) ** j * comb(k, j), fn(n - j))
                      for j in range(k + 1))


def _binomial_form(coeffs, n: int) -> int:
    """sum_i (-1)^i j_i binom(n + d - i, d - i) for coeffs = (j_0 .. j_d)."""
    d = len(coeffs) - 1
    return sum((-1) ** i * j * binomial(n + d - i, d - i)
               for i, j in enumerate(coeffs))


class HilbertRecord(NamedTuple):
    """Generalized Hilbert-Samuel data for one ideal."""

    dim: int
    values: tuple            # H(0), H(1), ...
    coefficients: tuple      # j_0 .. j_d
    window: tuple            # inclusive polynomial region inside values
    postulation: int

    def polynomial_value(self, n: int) -> int:
        return _binomial_form(self.coefficients, n)

    def h_value(self, n: int) -> int:
        """H(n), with H(n) := 0 for n < 0; beyond the computed table the
        polynomial continues the function."""
        if n < 0:
            return 0
        if n < len(self.values):
            return self.values[n]
        return self.polynomial_value(n)

    def delta_p_minus_h(self, n: int) -> int:
        """The d-th backward difference of P - H, with P evaluated as a
        polynomial at every integer and H vanishing at negative
        arguments."""
        return backward_difference(
            lambda t: self.polynomial_value(t) - self.h_value(t), self.dim, n)

    def sum_route_coefficient(self, i: int) -> int:
        """j_i recovered as sum_{n >= i-1} binom(n, i-1) d^th-difference of
        P - H; the terms vanish past the postulation point."""
        if not 1 <= i <= self.dim:
            raise ValueError("index out of range for the sum route")
        stop = self.postulation + self.dim
        return sum(binomial(n, i - 1) * self.delta_p_minus_h(n)
                   for n in range(i - 1, stop + 1))


def fit_hilbert_polynomial(ideal: Ideal, extend_to: int = 0) -> HilbertRecord:
    """H, its polynomial and its postulation number, from the series of the
    ideal's Rees presentation.  The table of H values reaches the end of
    the window, and at least index ``extend_to``, which the
    difference-operator consumers upstream rely on."""
    d = ring_dimension(ideal.ctx)
    q = graded_torsion_series(ideal)
    for _ in range(d - len(ideal.gens)):  # times 1 - t
        q = [a - b for a, b in zip(q + [0], [0] + q)]
    for _ in range(len(ideal.gens) - d):  # over 1 - t
        if sum(q):
            raise InternalInconsistencyError(
                f"the Hilbert series has a pole of order above d + 1 = {d + 1}")
        q = list(accumulate(q))[:-1]
    coeffs = tuple(sum(comb(k, i) * c for k, c in enumerate(q))
                   for i in range(d + 1))

    def h(n: int) -> int:
        return sum(c * comb(n - k + d, d) for k, c in enumerate(q[:n + 1]))

    postulation = 1 + max((n for n in range(len(q))
                           if h(n) != _binomial_form(coeffs, n)), default=-1)
    end = postulation + 2 * d + 3
    values = tuple(h(n) for n in range(max(end, extend_to) + 1))
    return HilbertRecord(dim=d, values=values, coefficients=coeffs,
                         window=(postulation, end), postulation=postulation)
