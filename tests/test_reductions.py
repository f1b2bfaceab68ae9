import random

import pytest

import jmult.reductions
from jmult.ideals import Ideal, ring_dimension
from jmult.lengths import INFINITE, loc_quotient_length, pair_length
from jmult.parser import Options, parse_problem
from jmult.reductions import (GeneralReduction, analytic_spread, e_one_bar,
                              fiber_length_sum, fiber_length_term,
                              general_minimal_reduction, j_zero,
                              residual_height_check, sample_general_elements,
                              valabrega_valla_check)
from jmult.ring import RingContext

from conftest import monomial_ideal


@pytest.fixture(scope="module")
def m2_setup(ctx2):
    ideal = monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    red = general_minimal_reduction(ideal, seed=0)
    r = red.r
    return ideal, red, r


def test_sampling_contract(ctx2):
    ideal = monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    a = sample_general_elements(ideal, 2, seed=9)
    b = sample_general_elements(ideal, 2, seed=9)
    assert [str(e) for e in a.elements] == [str(e) for e in b.elements]
    assert all(ideal.contains(e) for e in a.elements)
    c = sample_general_elements(ideal, 2, seed=10)
    assert [str(e) for e in a.elements] != [str(e) for e in c.elements]
    m = Ideal.maximal(ctx2)
    lin = sample_general_elements(m, 1, seed=0)
    assert not lin.elements[0].is_zero()
    assert lin.elements[0].degree() == 1


def test_partial_reductions_are_shared(ctx2, m2_setup):
    _, red, _ = m2_setup
    for i in range(red.count + 1):
        assert red.j(i) is red.j(i)
    assert red.full is red.j(red.count)
    assert red.j(0) is Ideal.zero(ctx2)


def test_reduction_carries_r_and_its_residuals(ctx2, m2_setup):
    """A verified reduction carries r = r_J(I), the first vanishing fiber
    term, and the terms past it vanish too; J_i : I and
    K = J_(d-1) : I^infinity are the ideal's own colon and saturation."""
    ideal, red, _ = m2_setup
    terms = [fiber_length_term(red, n) for n in range(red.r + 3)]
    assert all(t != 0 for t in terms[:red.r])
    assert terms[red.r:] == [0, 0, 0]
    assert sample_general_elements(ideal, 2, seed=0).r is None
    for i in range(red.count + 1):
        assert red.residual(i) is red.j(i).colon(ideal)
    d = ring_dimension(ctx2)
    assert red.kernel() == red.j(d - 1).saturate(ideal)


def test_analytic_spread_examples(ctx2, ctx_family, xy):
    x, y = xy
    assert analytic_spread(Ideal(ctx2, [x])) == 1
    assert analytic_spread(Ideal.maximal(ctx2)) == 2
    assert analytic_spread(monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))) == 2
    X, Y = ctx_family.var("x"), ctx_family.var("y")
    for t in range(3):
        assert analytic_spread(Ideal(ctx_family, [X * Y ** t])) == 1


@pytest.mark.parametrize("text", [
    "ring char=32003 vars=x,y,z\nideal x^4,x^3*y,x*y^3,y^4,z\n",
    "ring char=32003 vars=x,y,z,w\nideal x*y,y*z,z*w,w*x\n",
], ids=["staircase-z", "four-cycle"])
def test_analytic_spread_three(text):
    """Both special fibers are three-dimensional: k[x,y]-staircase fiber
    plus z, and the toric ring k[T]/(T_1 T_3 - T_2 T_4) of the 4-cycle."""
    assert analytic_spread(parse_problem(text, Options()).ideal) == 3


def test_analytic_spread_quotient_ring():
    base = RingContext(("x", "y", "z"), 32003)
    x, y, z = (base.var(v) for v in "xyz")
    cone = RingContext(("x", "y", "z"), 32003, relations=[x * z - y * y])
    assert analytic_spread(Ideal(cone, [cone.var("x"), cone.var("y")])) == 2


def test_reduction_number_examples(ctx2):
    """Hand-picked J: r_J(I) is the first n with a zero fiber term, and a J
    not inside I is refused."""
    def fiber_terms(ideal, j):
        red = GeneralReduction(ideal, j.gens, 0)
        return [fiber_length_term(red, n) for n in range(3)]

    m = Ideal.maximal(ctx2)
    assert fiber_terms(m, m) == [0, 0, 0]
    m2 = monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    param = monomial_ideal(ctx2, (2, 0), (0, 2))
    assert fiber_terms(m2, param) == [1, 0, 0]
    assert fiber_terms(m2, m2) == [0, 0, 0]
    with pytest.raises(ValueError):
        fiber_length_term(GeneralReduction(param, m2.gens, 0), 0)


def test_local_equality_vs_global(ctx2, xy):
    x, y = xy
    one = ctx2.one
    # equal at the origin, different globally
    a = Ideal(ctx2, [x])
    b = Ideal(ctx2, [x * (y - one), x * x])
    assert a != b
    assert pair_length(a, b) == 0


def test_general_minimal_reduction(ctx2, ctx_family, m2_setup):
    ideal, red, r = m2_setup
    assert red.count == 2
    assert r == 1
    m = Ideal.maximal(ctx2)
    redm = general_minimal_reduction(m, seed=0)
    rm = redm.r
    assert rm == 0
    X = ctx_family.var("x")
    Y = ctx_family.var("y")
    principal = Ideal(ctx_family, [X * Y])
    redp = general_minimal_reduction(principal, seed=0)
    rp = redp.r
    assert rp == 0 and redp.count == 1


def test_a_failed_search_returns_its_last_draw(ctx2, monkeypatch):
    """With no fiber term ever vanishing, the search does not raise: it
    returns its last draw, at seed 0 + RETRY_CAP - 1, with r None."""
    monkeypatch.setattr(jmult.reductions, "fiber_length_term",
                        lambda red, n: 1)
    ideal = monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    red = general_minimal_reduction(ideal, seed=0)
    assert red.r is None
    assert red.seed == 7
    assert red.elements == sample_general_elements(ideal, 2, 7).elements


def test_reduction_number_seed_stable(ctx2):
    for exps in [((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2)),
                 ((3, 0), (1, 1), (0, 3))]:
        ideal = monomial_ideal(ctx2, *exps)
        rs = {general_minimal_reduction(ideal, seed=s).r for s in (0, 1, 2)}
        assert len(rs) == 1


def test_residual_height_surrogate(ctx2, ctx_family, m2_setup):
    ideal, red, _ = m2_setup
    assert residual_height_check(red)["passed"]
    X, Y = ctx_family.var("x"), ctx_family.var("y")
    for t in (0, 1, 2, 3):
        principal = Ideal(ctx_family, [X * Y ** t])
        redp = general_minimal_reduction(principal, seed=0)
        assert not residual_height_check(redp)["passed"]


def test_reduction_ring(ctx2, m2_setup):
    ideal, red, _ = m2_setup
    kernel = red.kernel()
    assert kernel.dimension() == 1
    assert (kernel + ideal).dimension() <= 0
    m = Ideal.maximal(ctx2)
    redm = general_minimal_reduction(m, seed=0)
    kernelm = redm.kernel()
    assert kernelm.dimension() == 1
    assert (kernelm + m).dimension() <= 0


def test_j_zero_examples(ctx2, ctx_family, m2_setup):
    ideal, red, _ = m2_setup
    assert j_zero(red) == 4
    m = Ideal.maximal(ctx2)
    redm = general_minimal_reduction(m, seed=0)
    assert j_zero(redm) == 1
    X, Y = ctx_family.var("x"), ctx_family.var("y")
    for t in (0, 1, 2):
        principal = Ideal(ctx_family, [X * Y ** t])
        redp = general_minimal_reduction(principal, seed=0)
        assert j_zero(redp) == t + 1


def test_e_one_bar_examples(ctx2, m2_setup):
    _, red, _ = m2_setup
    assert e_one_bar(red) == 1
    m = Ideal.maximal(ctx2)
    redm = general_minimal_reduction(m, seed=0)
    assert e_one_bar(redm) == 0
    param = monomial_ideal(ctx2, (1, 0), (0, 1))
    redpar = general_minimal_reduction(param, seed=3)
    assert e_one_bar(redpar) == 0


def test_valabrega_valla_good_case(ctx2, m2_setup):
    _, red, _ = m2_setup
    rep = valabrega_valla_check(red, nmax=4, an_asserted=True)
    assert all(rep["intersection_condition_per_n"])
    assert rep["fiber_length_sum"] == 1
    assert rep["e1_reduction_ring"] == 1
    assert rep["condition_a"] and rep["condition_b"] and rep["equivalent"]
    assert "holds" in rep["depth_verdict"]


def test_valabrega_valla_failing_case(ctx2):
    """The depth-zero staircase: the summation exceeds e1 and the
    intersection condition fails at the matching degree."""
    ideal = monomial_ideal(ctx2, (4, 0), (3, 1), (1, 3), (0, 4))
    red = general_minimal_reduction(ideal, seed=0)
    r = red.r
    rep = valabrega_valla_check(red, nmax=r + 4, an_asserted=True)
    assert rep["condition_a"] is False
    assert rep["condition_b"] is False
    assert rep["equivalent"] is True
    assert rep["fiber_length_sum"] > rep["e1_reduction_ring"]
    assert "fails" in rep["depth_verdict"]


def test_failing_case_located_by_search(ctx2):
    """Randomized search over equigenerated m-primary staircases with gaps
    must turn up at least one ideal violating the summation condition; the
    oracle confirms e1 on every candidate along the way."""
    from jmult.oracle import MonomialIdeal, oracle_hilbert_coefficients
    rng = random.Random(2024)
    found = None
    for _ in range(40):
        a = rng.randrange(3, 6)
        diag = [(a - i, i) for i in range(a + 1)]
        keep = [diag[0], diag[-1]] + [e for e in diag[1:-1] if rng.random() < 0.5]
        cand = monomial_ideal(ctx2, *sorted(set(keep)))
        red = general_minimal_reduction(cand, seed=1)
        r = red.r
        if r is None:
            continue
        total = fiber_length_sum(red)
        e1 = e_one_bar(red)
        if INFINITE in (total, e1):
            continue
        e_oracle = oracle_hilbert_coefficients(MonomialIdeal.from_ideal(cand))
        assert e1 == e_oracle[1]
        if total > e1:
            found = (cand, total, e1)
            break
    assert found is not None, "search produced no failing instance"


@pytest.mark.parametrize("text", [
    "ring char=32003 vars=x,y\nideal x^2,x*y,y^2\n",
    "ring char=32003 vars=x,y\nideal x^3,x^2*y,y^3\n",
    "ring char=32003 vars=x,y\nideal x^4,x^3*y,x*y^3,y^4\n",
    "ring char=32003 vars=x,y\nideal x-x^2,y\n",
    "ring char=32003 vars=x,y,z\nmod x*z-y^2\nideal x,y\n",
], ids=["x2-xy-y2", "x3-x2y-y3", "x4-x3y-xy3-y4", "x-x2-y", "cone-xy"])
def test_sum_terms_vanish_from_the_reduction_number(text):
    """The fiber, kernel-corrected and reduction-ring sums stop at r: the
    fiber term length(I^(n+1)/J I^n) is nonzero below r and 0 at r, and the
    reduction-ring term length(Ibar^(r+1)/xbar Ibar^r) is 0."""
    ideal = parse_problem(text, Options()).ideal
    red = general_minimal_reduction(ideal, seed=0)
    r = red.r
    for n in range(r):
        assert fiber_length_term(red, n) != 0
    assert fiber_length_term(red, r) == 0
    kernel = red.kernel()
    x_last = Ideal(ideal.ctx, [red.elements[ring_dimension(ideal.ctx) - 1]])
    upper = loc_quotient_length(x_last * ideal ** r + kernel)
    lower = loc_quotient_length(ideal ** (r + 1) + kernel)
    assert upper - lower == 0
