import random

import pytest

from jmult import (ContainmentError, Ideal, LengthValue, MonomialIdeal,
                   Options, RingContext, gamma_length, groebner_basis,
                   loc_quotient_length, mon_pair_length, mon_quotient_length,
                   pair_length, parse_problem, truncated_dim)
from jmult.ring import extend_context

from conftest import monomial_ideal, random_monomial_ideal


def test_truncated_dim_examples(ctx2, xy):
    x, y = xy
    assert truncated_dim(Ideal(ctx2, [x]), 3) == 3
    assert truncated_dim(Ideal.unit(ctx2), 7) == 0
    assert truncated_dim(Ideal.zero(ctx2), 2) == 3


def _random_poly(ctx, rng, max_deg=3):
    f = ctx.zero
    for _ in range(rng.randrange(2, 4)):
        e = [0] * ctx.nvars
        for _ in range(rng.randrange(1, max_deg + 1)):
            e[rng.randrange(ctx.nvars)] += 1
        f = f + ctx.monomial(e, rng.randrange(1, ctx.char))
    return f


def _degree_exponents(n, m):
    if n == 1:
        return [(m,)]
    return [(a,) + e for a in range(m + 1) for e in _degree_exponents(n - 1, m - a)]


def test_truncated_dim_matches_definition(ctx2, xy):
    """dim_k R/(I + m^M) from the truncated basis equals the literal
    definition: a Groebner basis of I plus every degree-M monomial, its
    staircase counted by the oracle.  Random non-homogeneous ideals, some in
    a quotient ring."""
    x, y = xy
    # dropping terms alone would leave 1, x, y, x^2, x*y
    assert truncated_dim(Ideal(ctx2, [x - y * y]), 3) == 3
    rng = random.Random(71)
    for _ in range(200):
        names = ("x", "y", "z")[:rng.randrange(2, 4)]
        ctx = RingContext(names, 32003)
        if rng.random() < 0.3:
            ctx = RingContext(names, 32003, relations=[_random_poly(ctx, rng)])
        gens = [_random_poly(ctx, rng) for _ in range(rng.randrange(1, 4))]
        ideal = Ideal(ctx, gens)
        for m in rng.sample(range(1, 10), 2):
            power = [ctx.monomial(e) for e in _degree_exponents(ctx.nvars, m)]
            gb = groebner_basis(ctx, gens + power)
            want = mon_quotient_length(MonomialIdeal(ctx.nvars, gb.leads))
            assert truncated_dim(ideal, m) == want, (ctx, gens, m)


def test_pair_length_examples(ctx2, xy):
    x, y = xy
    m = Ideal.maximal(ctx2)
    assert pair_length(m, m) == LengthValue.finite(0)
    assert pair_length(m, monomial_ideal(ctx2, (2, 0), (0, 1))).value == 1
    art = monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    assert pair_length(Ideal.unit(ctx2), art).value == 3


def test_pair_length_containment_checked(ctx2, xy):
    x, y = xy
    with pytest.raises(ContainmentError):
        pair_length(Ideal(ctx2, [x * x]), Ideal(ctx2, [x]))


def test_loc_quotient_examples(ctx2, xy):
    x, y = xy
    assert loc_quotient_length(monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))).value == 3
    assert loc_quotient_length(Ideal(ctx2, [x])).kind == "infinite"
    # a component away from the origin does not count
    one = ctx2.one
    away = Ideal(ctx2, [x * (y - one), y * (y - one)])
    assert loc_quotient_length(away).value == 1


def test_gamma_examples(ctx2, xy):
    x, y = xy
    assert gamma_length(Ideal(ctx2, [x])).value == 0
    assert gamma_length(monomial_ideal(ctx2, (2, 0), (1, 1))).value == 1
    assert gamma_length(monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))).value == 3


def test_cap_m_reaches_every_length():
    """The parsed cap bounds the truncation degree of a length computed
    straight after parsing, and of contexts derived from the parsed ring; it
    never drops below start + 8 (start = 2 (d + 1) = 6 for the ideal (x))."""
    text = "ring char=32003 vars=x,y\nideal x\n"
    for cap, last in ((30, 30), (1, 14)):
        spec = parse_problem(text, Options(cap_m=cap))
        x = spec.ring.var("x")
        v = loc_quotient_length(Ideal(spec.ring, [x]))
        assert v.kind == "infinite"
        assert v.reason == f"D(M) still growing at M={last}"
        assert extend_context(spec.ring, ("t",)).cap_m == cap


def _abcd_quadruple(ctx, rng):
    """D ⊆ B ⊆ A and D ⊆ C ⊆ A with A/B and C/D of finite length."""
    m = Ideal.maximal(ctx)
    a = random_monomial_ideal(ctx, rng)
    if not a.gens:
        a = Ideal.maximal(ctx)
    b = a * m ** rng.randrange(0, 3)
    c = a * m ** rng.randrange(0, 3)
    d = b.intersect(c) * m ** rng.randrange(0, 3)
    return a, b, c, d


def test_abcd_identity_engine_and_oracle(ctx2):
    rng = random.Random(53)
    for _ in range(30):
        a, b, c, d = _abcd_quadruple(ctx2, rng)
        bc = b.intersect(c)
        lab = pair_length(a, b).as_int()
        lbc = pair_length(bc, d).as_int()
        lcd = pair_length(c, d).as_int()
        labc = pair_length(a, b + c).as_int()
        assert lab + lbc == lcd + labc
        # the oracle agrees with the engine on each of the four lengths
        ma, mb, mc, md = (MonomialIdeal.from_ideal(i) for i in (a, b, c, d))
        assert mon_pair_length(ma, mb) == lab
        assert mon_pair_length(mb.intersect(mc), md) == lbc
        assert mon_pair_length(mc, md) == lcd
        assert mon_pair_length(ma, mb.plus(mc)) == labc


def test_additivity(ctx2):
    rng = random.Random(59)
    m = Ideal.maximal(ctx2)
    for _ in range(15):
        a = random_monomial_ideal(ctx2, rng)
        if not a.gens:
            continue
        c = a * m
        b = c * m
        lab = pair_length(a, b).as_int()
        lac = pair_length(a, c).as_int()
        lcb = pair_length(c, b).as_int()
        assert lab == lac + lcb


def test_engine_matches_oracle_on_finite_pairs(ctx2):
    rng = random.Random(61)
    m = Ideal.maximal(ctx2)
    checked = 0
    for _ in range(40):
        a = random_monomial_ideal(ctx2, rng)
        if not a.gens:
            continue
        b = a * m ** rng.randrange(1, 3)
        got = pair_length(a, b).as_int()
        want = mon_pair_length(MonomialIdeal.from_ideal(a),
                               MonomialIdeal.from_ideal(b))
        assert got == want
        checked += 1
    assert checked >= 30


def test_monotone_stabilization_diagnostic(ctx2, xy):
    """D(M) should be non-decreasing up to stabilization; report violations."""
    x, y = xy
    m = Ideal.maximal(ctx2)
    rng = random.Random(67)
    violations = []
    for _ in range(10):
        a = random_monomial_ideal(ctx2, rng)
        if not a.gens:
            continue
        b = a * m
        start = 2 * (2 + b.max_gen_degree())
        trace = [truncated_dim(b, mm) - truncated_dim(a, mm)
                 for mm in range(start, start + 12, 2)]
        if any(u > v for u, v in zip(trace, trace[1:])):
            violations.append((a, trace))
    if violations:  # diagnostic only, never a failure
        print("monotonicity violations:", violations)
