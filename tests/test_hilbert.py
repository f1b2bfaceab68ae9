import math

import pytest

from jmult.hilbert import backward_difference, binomial, fit_hilbert_polynomial
from jmult.ideals import Ideal
from jmult.parser import Options, parse_problem
from jmult.runner import Pipeline, run_command

from conftest import graded_torsion_length, monomial_ideal
from test_golden import CASES


def test_binomial_generalized():
    assert binomial(5, 2) == 10
    assert binomial(1, 2) == 0
    assert binomial(-1, 1) == -1
    assert binomial(-2, 2) == 3
    assert binomial(7, 0) == 1
    for n in range(-10, 11):
        for k in range(9):
            falling = 1
            for t in range(k):
                falling *= n - t
            assert binomial(n, k) == falling // math.factorial(k), (n, k)
    assert binomial(-3, -1) == 0


def test_backward_difference_basics():
    assert backward_difference(lambda n: 7, 1, 5) == 0
    assert backward_difference(lambda n: n * n, 2, 5) == 2
    assert backward_difference(lambda n: n * n * n, 0, 4) == 64


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
    for ideal in (Ideal.zero(ctx2), Ideal.unit(ctx2)):  # no torsion at all
        rec = fit_hilbert_polynomial(ideal)
        assert (rec.coefficients, set(rec.values)) == ((0, 0, 0), {0})
    rec =fit_hilbert_polynomial(monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2)))
    assert rec.coefficients == (4, 1, 0)
    # fitted polynomial reproduces every value on the window
    s, e = rec.window
    for n in range(s, e + 1):
        assert rec.polynomial_value(n) == rec.values[n]


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


# each golden input once, named by its first case
GOLDEN_INPUTS = {problem: name for name, (_, problem) in sorted(CASES.items(),
                                                                reverse=True)}


@pytest.mark.parametrize("problem", sorted(GOLDEN_INPUTS),
                         ids=lambda p: GOLDEN_INPUTS[p])
def test_series_matches_the_per_power_route(problem):
    """On every golden input the table that the series gives equals the
    partial sums of the graded torsion lengths, taken one power at a time,
    for n <= nmax + d + 1, as far as the reports read; the polynomial
    agrees with H exactly from the postulation number on."""
    pipe = Pipeline(parse_problem(problem), Options())
    rec, last = pipe.record, pipe.nmax + pipe.dim + 1
    assert len(rec.values) > last
    total = 0
    for n in range(last + 1):
        total += graded_torsion_length(pipe.ideal, n)
        assert rec.values[n] == total, n
        if n >= rec.postulation:
            assert rec.polynomial_value(n) == total, n
    if rec.postulation:
        n = rec.postulation - 1
        assert rec.polynomial_value(n) != rec.values[n]
    assert rec.window == (rec.postulation, rec.postulation + 2 * rec.dim + 3)


@pytest.mark.parametrize("problem,j", [
    ("ring char=32003 vars=x,y,z,w\nideal x*y,x*z,x*w,y*z,y*w,z*w\n",
     (8, 12, 1, -6, -3)),
    ("ring char=32003 vars=x,y,z\n"
     "ideal x^3,y^3,z^3,x^2*y,x*y^2,x^2*z,y^2*z,x*z^2\n", (27, 18, 1, -2)),
], ids=["4-axes", "8-generators"])
def test_series_reaches_four_variables(problem, j):
    """``hilbert`` on the 4-axes ideal in k[x,y,z,w] and on an 8-generator
    m-primary ideal in k[x,y,z] exits 0 with the coefficients that a fit of
    the per-power table found."""
    report, code = run_command("hilbert", parse_problem(problem), Options())
    assert report["results"]["j"] == list(j)
    assert code == 0
