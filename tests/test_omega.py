import pytest

import jmult.ideals

from jmult import (INFINITE, Ideal, OmegaEvaluator, RingContext, fit_hilbert_polynomial,
                   general_minimal_reduction, j_one_depth_formula, j_via_sums,
                   master_identity_check, pair_length)

from conftest import monomial_ideal


@pytest.fixture(scope="module")
def m2_pipeline(ctx2):
    ideal = monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    red = general_minimal_reduction(ideal, seed=0)
    r = red.r
    rec = fit_hilbert_polynomial(ideal, extend_to=r + 7)
    ev = OmegaEvaluator(red, rec)
    return ideal, red, r, rec, ev


def test_omega_zero_dimension_one(ctx_family):
    """For a primary ideal in the one-dimensional ring the two pieces of the
    degree-zero correction cancel."""
    X = ctx_family.var("x")
    m = Ideal.maximal(ctx_family)
    red = general_minimal_reduction(m, seed=0)
    ev = OmegaEvaluator(red, fit_hilbert_polynomial(m))
    om = ev.omega(0)
    assert om["total"] == 0
    assert ev.omega(1)["total"] == 0
    assert ev.omega(3)["total"] == 0


def test_repeated_omega_zero_computes_no_basis(monkeypatch):
    """J_(d-1) : I + I is one ideal object per context, so a repeated
    omega(0) finds its basis, and its length, already computed."""
    ctx = RingContext(("x", "y"), 32003)
    ideal = monomial_ideal(ctx, (2, 0), (1, 1), (0, 2))
    red = general_minimal_reduction(ideal, seed=0)
    r = red.r
    ev = OmegaEvaluator(red, fit_hilbert_polynomial(ideal, extend_to=r + 2))
    first = ev.omega(0)
    real = jmult.ideals.groebner_basis
    bases = []

    def counting(*args, **kwargs):
        bases.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(jmult.ideals, "groebner_basis", counting)
    assert [ev.omega(0) for _ in range(3)] == [first] * 3
    assert bases == []


def test_omega_zero_m_primary_2d(m2_pipeline):
    ideal, red, r, rec, ev = m2_pipeline
    # identity-derived expected value at degree zero
    lam = pair_length(ideal, red.full)
    assert ev.omega(0)["total"] == rec.delta_p_minus_h(0) - lam
    breakdown = ev.omega(1)
    assert breakdown["total"] != INFINITE
    assert dict(breakdown["terms"])  # named sub-terms serialize


def test_breakdown_total_is_sum_of_terms(m2_pipeline):
    ideal, red, r, rec, ev = m2_pipeline
    for n in range(4):
        b = ev.omega(n)
        vals = list(b["terms"].values())
        if all(isinstance(v, int) for v in vals):
            assert b["total"] == sum(vals)


def test_master_identity_m_primary_suite(ctx2):
    for exps in [((1, 0), (0, 1)), ((2, 0), (1, 1), (0, 2)), ((2, 0), (0, 2)),
                 ((3, 0), (1, 1), (0, 3)),
                 ((4, 0), (3, 1), (1, 3), (0, 4))]:
        ideal = monomial_ideal(ctx2, *exps)
        red = general_minimal_reduction(ideal, seed=0)
        r = red.r
        nmax = r + 4
        rec = fit_hilbert_polynomial(ideal, extend_to=nmax + 3)
        ev = OmegaEvaluator(red, rec)
        rep = master_identity_check(ev, nmax)
        assert rep["holds"], (exps, rep["rows"])


def test_master_identity_failure_visible_without_hypotheses(ctx_family):
    """On the principal family the residual hypotheses fail and the identity
    degrades to non-evaluable rows rather than lying."""
    X, Y = ctx_family.var("x"), ctx_family.var("y")
    ideal = Ideal(ctx_family, [X * Y])
    red = general_minimal_reduction(ideal, seed=0)
    r = red.r
    rec = fit_hilbert_polynomial(ideal, extend_to=r + 5)
    ev = OmegaEvaluator(red, rec)
    rep = master_identity_check(ev, r + 3)
    assert not rep["holds"]


def test_j_via_sums_routes(ctx2, m2_pipeline):
    ideal, red, r, rec, ev = m2_pipeline
    assert j_via_sums(ev, 1) == 1 == rec.coefficients[1]
    assert j_via_sums(ev, 2) == 0 == rec.coefficients[2]
    param = monomial_ideal(ctx2, (1, 0), (0, 1))
    redp = general_minimal_reduction(param, seed=0)
    evp = OmegaEvaluator(redp, fit_hilbert_polynomial(param))
    assert j_via_sums(evp, 1) == 0


def test_j_one_depth_formula(ctx2, m2_pipeline):
    ideal, red, r, rec, ev = m2_pipeline
    assert j_one_depth_formula(red) == 1
    m = Ideal.maximal(ctx2)
    redm = general_minimal_reduction(m, seed=0)
    assert j_one_depth_formula(redm) == 0


@pytest.mark.parametrize("gens", [((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                  ((2, 0, 0), (0, 1, 0), (0, 0, 1))],
                         ids=["x,y,z", "x^2,y,z"])
def test_sums_and_master_identity_dimension_three(gens):
    """In k[x,y,z] every Ktilde^i term is well-formed, the summation route
    gives every fitted coefficient and the master identity holds."""
    ctx3 = RingContext(("x", "y", "z"), 32003)
    ideal = monomial_ideal(ctx3, *gens)
    red = general_minimal_reduction(ideal, seed=0)
    r = red.r
    nmax = r + 5
    rec = fit_hilbert_polynomial(ideal, extend_to=nmax + 4)
    ev = OmegaEvaluator(red, rec)
    assert [j_via_sums(ev, i) for i in (1, 2, 3)] \
        == list(rec.coefficients[1:])
    rep = master_identity_check(ev, nmax)
    assert rep["holds"] is True, rep["rows"]
