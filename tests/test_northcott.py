import pytest

from jmult import (Ideal, general_minimal_reduction,
                   minimal_generator_count, northcott_bound)
from jmult.parser import Options, parse_problem
from jmult.runner import run_command

from conftest import monomial_ideal


def _report(text, **opts):
    return run_command("northcott", parse_problem(text), Options(**opts))


def test_bound_m_primary(ctx2):
    ideal = monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    red = general_minimal_reduction(ideal, seed=0)
    lam, second = northcott_bound(red)
    assert lam == 1 and second == 0
    m = Ideal.maximal(ctx2)
    redm = general_minimal_reduction(m, seed=0)
    lam, second = northcott_bound(redm)
    assert lam == 0 and second == 0


def test_bound_requires_dimension_two(ctx_family):
    X = ctx_family.var("x")
    m = Ideal.maximal(ctx_family)
    red = general_minimal_reduction(m, seed=0)
    with pytest.raises(ValueError):
        northcott_bound(red)


def test_report_m2():
    rep, code = _report("ring char=32003 vars=x,y\nideal x^2,x*y,y^2\n")
    r = rep["results"]
    assert (r["j1"], r["bound"], r["reduction_number"]) == (1, 1, 1)
    assert r["equality"] is True
    assert r["equality_case"] == "consistent"
    assert r["j1_nonnegative"] is True
    assert code == 0


def test_report_maximal_ideal_complete_intersection():
    rep, code = _report("ring char=32003 vars=x,y\nideal x,y\n")
    r = rep["results"]
    assert (r["j1"], r["bound"], r["reduction_number"]) == (0, 0, 0)
    assert r["equality"] is True
    assert r["complete_intersection_implication"] is True
    assert code == 0


def test_report_parameter_ideal():
    rep, code = _report("ring char=32003 vars=x,y\nideal x^2,y^2\n")
    r = rep["results"]
    assert (r["j1"], r["bound"], r["reduction_number"]) == (0, 0, 0)
    assert r["equality_case"] == "consistent"
    assert code == 0


def test_report_family_negative_j1():
    rep, code = _report(
        "ring char=32003 vars=x,y\nmod x^3-x^2*y\nideal x*y^3\n")
    r = rep["results"]
    assert r["j1"] == -1
    assert r["j1_nonnegative"] is False
    assert r["equality_case"] == "not-applicable"
    assert rep["hypotheses"]["residual_surrogate"]["passed"] is False
    assert code == 3
    assert r["decomposition"]  # dimension-one summation decomposition present


def test_report_no_equality_with_small_r_outside_m_primary():
    """Equality forces r <= 1, but r <= 1 forces equality only for m-primary
    ideals: the coordinate axes in k[x,y,z] have r = 0 and j_1 above the
    bound, which is consistent under asserted hypotheses."""
    rep, code = _report("ring char=32003 vars=x,y,z\nideal x*y,x*z,y*z\n",
                        gd_asserted=True, an_asserted=True)
    r = rep["results"]
    assert (r["j1"], r["bound"], r["reduction_number"]) == (4, 2, 0)
    assert r["hypotheses_effective"] is True
    assert r["equality"] is False
    assert r["equality_case"] == "consistent"
    assert code == 0


def test_classical_northcott_comparison(ctx2):
    """For m-primary ideals the bound is lambda(I/J) and matches the classical
    difference of multiplicity and colength, computed independently."""
    from jmult import (MonomialIdeal, loc_quotient_length,
                       oracle_hilbert_coefficients)
    for exps in [((2, 0), (1, 1), (0, 2)), ((3, 0), (1, 1), (0, 3)),
                 ((2, 0), (0, 2))]:
        ideal = monomial_ideal(ctx2, *exps)
        red = general_minimal_reduction(ideal, seed=0)
        lam, second = northcott_bound(red)
        assert second == 0
        e = oracle_hilbert_coefficients(MonomialIdeal.from_ideal(ideal))
        colength = loc_quotient_length(ideal)
        assert lam == e[0] - colength


def test_minimal_generator_count(ctx2):
    assert minimal_generator_count(Ideal.maximal(ctx2)) == 2
    assert minimal_generator_count(
        monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))) == 3
