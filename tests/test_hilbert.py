import random

import pytest

from jmult.hilbert import (FitError, backward_difference, binomial,
                           binomial_basis_convert, detect_polynomial_window,
                           fit_hilbert_polynomial, graded_torsion_length)
from jmult.ideals import Ideal

from conftest import monomial_ideal


def test_binomial_generalized():
    assert binomial(5, 2) == 10
    assert binomial(1, 2) == 0
    assert binomial(-1, 1) == -1
    assert binomial(-2, 2) == 3
    assert binomial(7, 0) == 1


def test_backward_difference_basics():
    assert backward_difference(lambda n: 7, 1, 5) == 0
    assert backward_difference(lambda n: n * n, 2, 5) == 2
    assert backward_difference(lambda n: n * n * n, 0, 4) == 64


def test_basis_convert_examples():
    vals = [3 * binomial(n + 2, 2) - 2 * binomial(n + 1, 1) + 5 for n in range(8)]
    assert binomial_basis_convert(vals, 2) == (3, 2, 5)
    assert binomial_basis_convert([7] * 5, 0) == (7,)
    assert binomial_basis_convert([binomial(n + 2, 2) for n in range(6)], 2) == (1, 0, 0)
    with pytest.raises(FitError):
        binomial_basis_convert([0, 0, 1, 0, 0, 0], 2)
    # round trips j -> values -> j from a nonzero start
    rng = random.Random(11)
    for _ in range(200):
        d, start = rng.randrange(5), rng.randrange(1, 6)
        j = tuple(rng.randrange(-20, 21) for _ in range(d + 1))
        vals = [sum((-1) ** i * j[i] * binomial(n + d - i, d - i)
                    for i in range(d + 1))
                for n in range(start, start + d + 1 + rng.randrange(4))]
        assert binomial_basis_convert(vals, d, start=start) == j


def test_basis_convert_with_offset():
    vals = [4 * binomial(n + 2, 2) - binomial(n + 1, 1) for n in range(3, 10)]
    assert binomial_basis_convert(vals, 2, start=3) == (4, 1, 0)


def test_window_detection():
    # linear from index 2 on
    vals = [0, 0, 1, 2, 3, 4, 5, 6, 7]
    assert detect_polynomial_window(vals, 1, 3) == (1, 6)
    assert detect_polynomial_window([0, 0, 1], 1, 3) is None


def test_graded_torsion_examples(ctx2, xy):
    x, y = xy
    m = Ideal.maximal(ctx2)
    for i in range(3):
        assert graded_torsion_length(m, i) == i + 1
        assert graded_torsion_length(Ideal(ctx2, [x]), i) == 0


def hilbert_function(ideal, n):
    """H(n), the partial sum of graded torsion lengths through i = n."""
    return sum(graded_torsion_length(ideal, i) for i in range(n + 1))


def test_hilbert_function_examples(ctx2, xy):
    x, y = xy
    m = Ideal.maximal(ctx2)
    for n in range(4):
        assert hilbert_function(m, n) == (n + 1) * (n + 2) // 2
    assert hilbert_function(Ideal(ctx2, [x]), 3) == 0
    assert hilbert_function(Ideal.unit(ctx2), 3) == 0


def test_fit_classical(ctx2, xy):
    x, y = xy
    assert fit_hilbert_polynomial(Ideal.maximal(ctx2)).coefficients == (1, 0, 0)
    assert fit_hilbert_polynomial(Ideal(ctx2, [x])).coefficients == (0, 0, 0)
    rec = fit_hilbert_polynomial(monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2)))
    assert rec.coefficients == (4, 1, 0)
    # fitted polynomial reproduces every value on the window
    s, e = rec.window
    for n in range(s, e + 1):
        assert rec.polynomial_value(n) == rec.values[n]


def test_fit_past_the_cap_names_the_table_length(ctx2):
    """A window is found, but the table asked for is longer than the cap:
    the error says so rather than that no window exists."""
    with pytest.raises(FitError, match="reach n = 41"):
        fit_hilbert_polynomial(Ideal.maximal(ctx2), extend_to=41)


def test_fit_quotient_family(ctx_family):
    x, y = ctx_family.var("x"), ctx_family.var("y")
    rec = fit_hilbert_polynomial(Ideal(ctx_family, [x * y]))
    assert rec.coefficients == (2, 1)
    assert rec.postulation >= 0


def test_record_conventions(ctx2):
    rec = fit_hilbert_polynomial(monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2)))
    assert rec.h_value(-1) == 0
    assert rec.h_value(-5) == 0
    # beyond the table the confirmed polynomial continues the function
    big = len(rec.values) + 3
    assert rec.h_value(big) == rec.polynomial_value(big)


def test_sum_route_matches_fit(ctx2):
    for exps in [((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2)), ((2, 0), (0, 2)),
                 ((3, 0), (1, 1), (0, 3))]:
        rec = fit_hilbert_polynomial(monomial_ideal(ctx2, *exps))
        for i in range(1, rec.dim + 1):
            assert rec.sum_route_coefficient(i) == rec.coefficients[i]


def test_classical_coincidence_with_colengths(ctx2):
    """For an ideal primary to m the function equals the plain colength."""
    from jmult.lengths import loc_quotient_length
    ideal = monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    for n in range(4):
        assert (hilbert_function(ideal, n)
                == loc_quotient_length(ideal ** (n + 1)))


def test_values_non_decreasing(ctx2, ctx_family):
    X, Y = ctx_family.var("x"), ctx_family.var("y")
    for rec in (fit_hilbert_polynomial(monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))),
                fit_hilbert_polynomial(Ideal(ctx_family, [X * Y ** 2]))):
        assert all(a <= b for a, b in zip(rec.values, rec.values[1:]))


def test_degree_detects_analytic_spread(ctx2, ctx_family):
    """The leading coefficient is nonzero exactly when the analytic spread
    has the maximal value."""
    from jmult.ideals import ring_dimension
    from jmult.reductions import analytic_spread
    X, Y = ctx_family.var("x"), ctx_family.var("y")
    cases = [
        (monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2)), ctx2),
        (Ideal(ctx2, [ctx2.var("x")]), ctx2),
        (Ideal(ctx_family, [X * Y]), ctx_family),
    ]
    for ideal, c in cases:
        rec = fit_hilbert_polynomial(ideal)
        spread = analytic_spread(ideal)
        assert (rec.coefficients[0] != 0) == (spread == ring_dimension(c))
