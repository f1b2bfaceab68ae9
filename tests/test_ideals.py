import gc
import random

import pytest

import jmult.groebner
import jmult.ideals
from jmult.ideals import AlgebraWarning, Ideal
from jmult.lengths import pair_length
from jmult.oracle import MonomialIdeal
from jmult.parser import Options, parse_problem
from jmult.ring import Polynomial, RingContext
from jmult.runner import run_command

from conftest import eliminate_last, monomial_ideal, random_monomial_ideal


def test_sum_product_power(ctx2, xy):
    x, y = xy
    m = Ideal.maximal(ctx2)
    assert m ** 2 == monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    assert (Ideal(ctx2, [x]) * Ideal(ctx2, [y])) == Ideal(ctx2, [x * y])
    a = Ideal(ctx2, [x * x, y])
    assert a * Ideal.unit(ctx2) == a
    assert a ** 0 == Ideal.unit(ctx2)


def test_shared_ideals_are_one_object_per_context(ctx2, xy):
    for make in (Ideal.zero, Ideal.unit, Ideal.maximal):
        assert make(ctx2) is make(ctx2)
    x, y = xy
    f, g = y ** 2 + x, x ** 3 - y
    a = Ideal(ctx2, [f, g])
    assert Ideal(ctx2, [f, g]) is a
    # normalization drops a zero, a duplicate and a scalar multiple
    assert Ideal(ctx2, [ctx2.zero, f, f, g, g.scale(5)]) is a
    assert Ideal(ctx2, [x, ctx2.zero]) is Ideal(ctx2, [x.scale(7)])
    rev = Ideal(ctx2, [g, f])
    assert rev is not a
    assert rev.gens == (g, f)
    assert a.gens == (f, g)
    assert rev == a
    # a separately built context with the same signature shares no object
    twin = RingContext(("x", "y"), 32003)
    assert twin == ctx2
    other = Ideal(twin, [twin.var("x") + twin.var("y") ** 2,
                         twin.var("x") ** 3 - twin.var("y")])
    assert other is not a
    assert other == a
    assert Ideal.maximal(twin) is not Ideal.maximal(ctx2)
    assert Ideal.maximal(twin) == Ideal.maximal(ctx2)


def test_equal_ideals_share_one_memo_entry(monkeypatch):
    """An ideal is its own memo key: equal ideals with different generators
    hash alike, share one reduced ideal, and so one memoized saturation."""
    ctx = RingContext(("x", "y"), 32003)
    x, y = ctx.var("x"), ctx.var("y")
    a = Ideal(ctx, [x * x, x * y, y * y])
    b = Ideal(ctx, [x * x + x * y, x * y, y * y])
    assert a.gens != b.gens
    assert a == b
    assert hash(a) == hash(b)
    assert a.reduced() is b.reduced()
    m = Ideal.maximal(ctx)
    sat = a.saturate(m)
    b.gb()
    calls = []
    real = jmult.groebner.buchberger_raw

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (jmult.groebner, jmult.ideals):
        monkeypatch.setattr(module, "buchberger_raw", counting)
    assert b.saturate(m) is sat
    assert calls == []


def test_a_containment_decides_with_no_basis(monkeypatch):
    """Intersection, saturation, colon and an equal pair's length that one
    side's containment in the other decides compute no Groebner basis once
    the ideals' own bases are known."""
    ctx = RingContext(("x", "y"), 32003)
    x, y = ctx.var("x"), ctx.var("y")
    a = Ideal(ctx, [x * x, x * y])
    c = Ideal(ctx, [y ** 3 - x])
    b, ac = a + c, a * c
    for ideal in (a, b, ac, Ideal.zero(ctx), Ideal.unit(ctx)):
        ideal.reduced()
    calls = []
    real = jmult.groebner.buchberger_raw

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for module in (jmult.groebner, jmult.ideals):
        monkeypatch.setattr(module, "buchberger_raw", counting)
    assert a.intersect(b) is a
    assert b.saturate(a).is_unit()
    assert a.colon(ac).is_unit()
    assert pair_length(b, b.reduced()) == 0
    assert calls == []


@pytest.mark.parametrize("text", [
    "ring char=32003 vars=x,y,z\nideal x,y,z\n",
    "ring char=32003 vars=x,y,z\nmod x*z-y^2\nideal x,y\n",
], ids=["m-xyz", "cone-xy"])
def test_a_run_builds_no_ring_but_the_parsers(monkeypatch, text):
    """An auxiliary variable is an exponent slot, not a ring: coeffs builds
    no context beyond the parser's two, and with the cyclic collector off it
    leaves nothing for it to free."""
    built = []
    init = RingContext.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0] if args else kwargs["var_names"])
        init(self, *args, **kwargs)

    monkeypatch.setattr(RingContext, "__init__", counting)
    gc.collect()
    gc.disable()
    try:
        spec = parse_problem(text)
        parsed = list(built)
        _, code = run_command("coeffs", spec, Options(seed=1))
        garbage = gc.collect()
    finally:
        gc.enable()
    assert code == 0
    assert len(parsed) == 2
    assert built == parsed
    assert garbage == 0


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


def _random_poly(ctx, rng, max_terms, max_deg):
    f = ctx.zero
    for _ in range(rng.randrange(1, max_terms + 1)):
        e = [0] * ctx.nvars
        for _ in range(rng.randrange(1, max_deg + 1)):
            e[rng.randrange(ctx.nvars)] += 1
        f = f + ctx.monomial(e, rng.randrange(1, ctx.char))
    return f


def _rabinowitsch(a, f):
    """a : f^infinity as (a + (1 - s f)) ∩ R, with the exponent of s
    appended last to the generators and relations of a."""
    ctx = a.ctx
    n, p = ctx.nvars, ctx.char
    rows = [{e + (0,): c for e, c in g.terms.items()} for g in a.gens]
    rows += [{e + (0,): c for e, c in r} for r in ctx.relations]
    rows.append({(0,) * (n + 1): 1}
                | {e + (1,): -c % p for e, c in f.terms.items()})
    return Ideal(ctx, [Polynomial(ctx, terms)
                       for terms in eliminate_last(rows, n + 1, p)])


def test_saturate_matches_rabinowitsch(ctx2, xy):
    """Saturation by one element against the Rabinowitsch elimination, on
    random non-homogeneous ideals, some in a quotient ring."""
    x, y = xy
    # the chain (x^9 y) : x^k needs ten colon steps to reach (y)
    assert Ideal(ctx2, [x ** 9 * y]).saturate(Ideal(ctx2, [x])) == Ideal(ctx2, [y])
    rng = random.Random(43)
    for _ in range(150):
        names = ("x", "y", "z")[:rng.randrange(2, 4)]
        ctx = RingContext(names, 32003)
        if rng.random() < 0.3:
            v = ctx.var
            rel = v("x") * v(names[-1]) - v("y") ** 2
            ctx = RingContext(names, 32003, relations=[rel])
        a = Ideal(ctx, [_random_poly(ctx, rng, 3, 3)
                        for _ in range(rng.randrange(1, 4))])
        f = _random_poly(ctx, rng, 2, 2)
        while Ideal.zero(ctx).contains(f):
            f = _random_poly(ctx, rng, 2, 2)
        assert a.saturate(Ideal(ctx, [f])) == _rabinowitsch(a, f), (ctx, a, f)


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
