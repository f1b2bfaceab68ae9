import random

import pytest

from jmult import AlgebraWarning, Ideal, MonomialIdeal

from conftest import monomial_ideal, random_monomial_ideal


def test_sum_product_power(ctx2, xy):
    x, y = xy
    m = Ideal.maximal(ctx2)
    assert m ** 2 == monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    assert (Ideal(ctx2, [x]) * Ideal(ctx2, [y])) == Ideal(ctx2, [x * y])
    a = Ideal(ctx2, [x * x, y])
    assert a * Ideal.unit(ctx2) == a
    assert a ** 0 == Ideal.unit(ctx2)


def test_intersect_examples(ctx2, xy):
    x, y = xy
    assert Ideal(ctx2, [x]).intersect(Ideal(ctx2, [y])) == Ideal(ctx2, [x * y])
    got = Ideal(ctx2, [x * x, y]).intersect(Ideal(ctx2, [x]))
    assert got == monomial_ideal(ctx2, (2, 0), (1, 1))
    a = Ideal(ctx2, [x + y ** 2])
    assert a.intersect(Ideal.unit(ctx2)) == a


def test_colon_examples(ctx2, xy):
    x, y = xy
    got = monomial_ideal(ctx2, (2, 0), (1, 1)).colon(Ideal(ctx2, [x]))
    assert got == Ideal.maximal(ctx2)
    assert Ideal(ctx2, [x]).colon(Ideal(ctx2, [y])) == Ideal(ctx2, [x])
    a = monomial_ideal(ctx2, (3, 0), (0, 2))
    assert a.colon(Ideal.unit(ctx2)) == a
    with pytest.warns(AlgebraWarning):
        assert a.colon(Ideal.zero(ctx2)).is_unit()


def test_saturate_examples(ctx2, xy):
    x, y = xy
    m = Ideal.maximal(ctx2)
    assert monomial_ideal(ctx2, (2, 0), (1, 1)).saturate(m) == Ideal(ctx2, [x])
    assert m.saturate(m).is_unit()
    a = monomial_ideal(ctx2, (2, 0), (0, 3))
    assert a.saturate(Ideal.unit(ctx2)) == a


def test_equality_and_membership(ctx2, xy):
    x, y = xy
    assert Ideal(ctx2, [x, y]) == Ideal(ctx2, [y, x])
    assert Ideal(ctx2, [x]).contains(x * x)
    assert not Ideal(ctx2, [x * x]).contains(x)


def test_codimension(ctx2, ctx_family, xy):
    x, y = xy
    assert Ideal(ctx2, [x]).codimension() == 1
    assert monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2)).codimension() == 2
    assert Ideal.maximal(ctx_family).codimension() == 1
    with pytest.warns(AlgebraWarning):
        assert Ideal.unit(ctx2).codimension() == 3


def test_colon_times_divisor_contained(ctx2):
    rng = random.Random(31)
    for _ in range(25):
        a = random_monomial_ideal(ctx2, rng)
        b = random_monomial_ideal(ctx2, rng)
        if not b.gens:
            continue
        q = a.colon(b)
        for f in (q * b).gens:
            assert a.contains(f)


def test_saturation_idempotent_and_consistent(ctx2):
    rng = random.Random(37)
    m = Ideal.maximal(ctx2)
    for _ in range(10):
        a = random_monomial_ideal(ctx2, rng)
        s = a.saturate(m)
        assert s.saturate(m) == s
        assert s.colon(m) == s


def test_intersect_matches_oracle(ctx2):
    rng = random.Random(41)
    for _ in range(50):
        a = random_monomial_ideal(ctx2, rng)
        b = random_monomial_ideal(ctx2, rng)
        if not a.gens or not b.gens:
            continue
        got = a.intersect(b)
        want = MonomialIdeal.from_ideal(a).intersect(MonomialIdeal.from_ideal(b))
        assert MonomialIdeal.from_ideal(got) == want


def test_quotient_ring_ideals_contain_relations(ctx_family):
    x = ctx_family.var("x")
    rel = ctx_family.relation_polys()[0]
    assert Ideal(ctx_family, [x]).contains(rel)
    assert Ideal.zero(ctx_family).contains(rel)
