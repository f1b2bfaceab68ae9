"""Generalized Hilbert-Samuel function, polynomial fit, and coefficient
extraction in the signed binomial basis.

The function value at n is the partial sum through i = n of the lengths of
the m-torsion of the graded pieces I^i/I^(i+1).  It eventually agrees with a
polynomial of degree at most d written as

    P(n) = sum_i (-1)^i j_i binom(n + d - i, d - i),

and the coefficients are read off with exact integer arithmetic: one
backward difference operator serves the window search, the Newton form
through the window, j_i = (-1)^i (backward difference of order d - i of
P at -1), and the correction terms of ``omega``.  No a-priori postulation
bound exists, so the fit looks for a constant d-th difference over a window
and then confirms with two extra points; the coefficients must reproduce
every window value, and the detected postulation point is reported so a user
can rerun with a larger window.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple

from .groebner import ComputationLimitError
from .ideals import Ideal, ring_dimension
from .lengths import pair_length, signed_sum, torsion

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


def detect_polynomial_window(values, d: int, window: int):
    """Earliest region where the d-th backward difference of ``values`` is
    constant over ``window`` points plus two confirmation points.

    Returns (start, end) indices of the polynomial region (inclusive), or
    None when no such run has appeared yet.
    """
    need = window + 2
    n = len(values)
    run = 0
    prev = None
    for a in range(d, n):
        cur = backward_difference(values.__getitem__, d, a)
        if prev is not None and cur == prev:
            run += 1
        else:
            run = 1
        prev = cur
        if run >= need:
            return (a - need + 1 - d, a)
    return None


def binomial_basis_convert(values, d: int, start: int = 0):
    """Coefficients (j_0 .. j_d) of the degree-<= d integer polynomial through
    ``values`` at consecutive arguments start, start+1, ...

    With P the Newton form through the first d + 1 values, the backward
    difference of P(n) = sum_i (-1)^i j_i binom(n + d - i, d - i) of order
    d - i at n = -1 is (-1)^i j_i.  Raises ValueError when the coefficients
    do not reproduce every value, so the input lies on no such polynomial;
    a window from ``detect_polynomial_window`` never does, since its d-th
    difference is constant.
    """
    values = list(values)
    if len(values) < d + 1:
        raise ValueError(f"need at least {d + 1} values to fit degree {d}")
    newton = [backward_difference(values.__getitem__, j, j) for j in range(d + 1)]

    def poly(n: int) -> int:
        return sum(c * binomial(n - start, j) for j, c in enumerate(newton))

    coeffs = tuple((-1) ** i * backward_difference(poly, d - i, -1)
                   for i in range(d + 1))
    if any(_binomial_form(coeffs, start + t) != v for t, v in enumerate(values)):
        raise ValueError("values do not lie on a polynomial of the expected degree")
    return coeffs


def _binomial_form(coeffs, n: int) -> int:
    """sum_i (-1)^i j_i binom(n + d - i, d - i) for coeffs = (j_0 .. j_d)."""
    d = len(coeffs) - 1
    return sum((-1) ** i * j * binomial(n + d - i, d - i)
               for i, j in enumerate(coeffs))


class HilbertRecord(NamedTuple):
    """Fitted generalized Hilbert-Samuel data for one ideal."""

    dim: int
    values: tuple            # H(0), H(1), ...
    coefficients: tuple      # j_0 .. j_d
    window: tuple            # inclusive polynomial region inside values
    postulation: int

    def polynomial_value(self, n: int) -> int:
        return _binomial_form(self.coefficients, n)

    def h_value(self, n: int) -> int:
        """H(n), with H(n) := 0 for n < 0; beyond the computed table the
        confirmed polynomial continues the function."""
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


def graded_torsion_length(ideal: Ideal, i: int) -> int:
    """Length of the m-torsion of I^i / I^(i+1); always finite."""
    return pair_length(torsion(ideal ** i, ideal ** (i + 1)), ideal ** (i + 1))


def fit_hilbert_polynomial(ideal: Ideal, window: int | None = None,
                           extend_to: int = 0) -> HilbertRecord:
    """Compute H until its d-th difference is constant over the window (plus
    two confirmation points), then read off the coefficients.

    ``extend_to`` forces the table of true H values to reach at least that
    index, which the difference-operator consumers upstream rely on.
    """
    ctx = ideal.ctx
    d = ring_dimension(ctx)
    window = window if window is not None else d + 2
    if window < d + 2:
        raise ValueError("window must be at least d + 2")
    values = []
    total = 0
    region = None
    n = 0
    while True:
        total += graded_torsion_length(ideal, n)
        values.append(total)
        region = detect_polynomial_window(values, d, window)
        if region is not None and n >= extend_to:
            break
        n += 1
        if n > FIT_N_CAP:
            if region is not None:
                raise ComputationLimitError(
                    f"the table of H was asked to reach n = {extend_to}, "
                    f"past the cap n = {FIT_N_CAP}")
            raise ComputationLimitError(f"no polynomial window of size "
                                        f"{window} found up to n = {FIT_N_CAP}")
    s, e = region
    coeffs = binomial_basis_convert(values[s:e + 1], d, start=s)
    return HilbertRecord(dim=d, values=tuple(values), coefficients=coeffs,
                         window=(s, e), postulation=s)
