import pytest

from jmult.oracle import (MonomialIdeal, OracleError, mon_pair_length,
                          mon_quotient_length, oracle_hilbert_coefficients)


def test_pair_length_examples():
    a = MonomialIdeal(2, [(1, 0), (0, 1)])
    b = MonomialIdeal(2, [(2, 0), (0, 1)])
    assert mon_pair_length(a, b) == 1
    unit = MonomialIdeal(2, [(0, 0)])
    assert mon_pair_length(unit, MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])) == 3
    assert mon_pair_length(MonomialIdeal(2, [(1, 0)]),
                           MonomialIdeal(2, [(2, 0)])) is None
    with pytest.raises(OracleError):
        mon_pair_length(MonomialIdeal(2, [(2, 0)]), MonomialIdeal(2, [(1, 0)]))


def test_exponent_algebra():
    a = MonomialIdeal(2, [(2, 0), (1, 1)])
    assert a.saturate_vars([0, 1]).gens == ((1, 0),)
    assert MonomialIdeal(2, [(1, 0)]).intersect(
        MonomialIdeal(2, [(0, 1)])).gens == ((1, 1),)
    assert a.colon_exp((1, 0)).gens == ((0, 1), (1, 0))
    sq = MonomialIdeal(2, [(1, 0), (0, 1)]).power(2)
    assert sq.gens == ((0, 2), (1, 1), (2, 0))


def test_antichain_normalization():
    a = MonomialIdeal(2, [(1, 0), (2, 0), (1, 1), (0, 2)])
    assert a.gens == ((1, 0), (0, 2))


def test_classical_coefficients():
    m = MonomialIdeal(2, [(1, 0), (0, 1)])
    assert oracle_hilbert_coefficients(m) == (1, 0, 0)
    m2 = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    assert oracle_hilbert_coefficients(m2) == (4, 1, 0)
    # parameter-like staircase: colength counts fit a zero first coefficient
    ci = MonomialIdeal(2, [(2, 0), (0, 2)])
    assert mon_quotient_length(ci) == 4
    assert mon_quotient_length(ci.power(2)) == 12
    assert mon_quotient_length(ci.power(3)) == 24
    assert oracle_hilbert_coefficients(ci) == (4, 0, 0)
    with pytest.raises(OracleError):
        oracle_hilbert_coefficients(MonomialIdeal(2, [(1, 0)]))


def test_direct_colength_counts():
    m2 = MonomialIdeal(2, [(2, 0), (1, 1), (0, 2)])
    assert [mon_quotient_length(m2.power(k)) for k in (1, 2, 3, 4)] == [3, 10, 21, 36]
