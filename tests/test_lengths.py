import random
from collections import Counter

import pytest

import jmult.lengths
from jmult.groebner import GroebnerBasis
from jmult.ideals import Ideal, InternalInconsistencyError
from jmult.lengths import (INFINITE, gamma_length, loc_quotient_length,
                           pair_length, signed_sum, truncated_dim)
from jmult.oracle import MonomialIdeal, mon_pair_length
from jmult.parser import Options, parse_problem
from jmult.ring import RingContext
from jmult.runner import run_command

from conftest import monomial_ideal, random_monomial_ideal


def test_signed_sum_of_finite_lengths():
    assert signed_sum([(1, 3), (-2, 1), (5, 0)]) == 1
    assert signed_sum([]) == 0
    assert signed_sum(iter(())) == 0


def test_signed_sum_first_infinite_wins():
    assert signed_sum([(1, 3), (-1, INFINITE), (1, 2)]) == INFINITE
    assert signed_sum([(0, INFINITE)]) == INFINITE


def test_signed_sum_draws_no_pair_after_an_infinite_one():
    def pairs():
        yield 1, 4
        yield -1, INFINITE
        raise AssertionError("pair drawn after an infinite length")

    assert signed_sum(pairs()) == INFINITE


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


def _check_against_truncation(v, a, b, ms):
    """A finite length equals dim_k (A + m^M)/(B + m^M) at every sampled M;
    an infinite one makes that difference strictly increase over them."""
    trace = [truncated_dim(b, m) - truncated_dim(a, m) for m in ms]
    if v == INFINITE:
        assert all(s < t for s, t in zip(trace, trace[1:])), trace
    else:
        assert trace == [v] * len(ms), (v, trace)


def test_pair_length_matches_truncation():
    """Exact lengths against the literal truncation at two consecutive large
    M, on seeded random non-homogeneous ideals A in 2-3 variables, about 30%
    of them in a quotient ring: the length of A/(A g + A m^k) and the
    colength of A."""
    rng = random.Random(73)
    infinite = []
    for _ in range(40):
        names = ("x", "y", "z")[:rng.randrange(2, 4)]
        ctx = RingContext(names, 32003)
        if rng.random() < 0.3:
            ctx = RingContext(names, 32003, relations=[_random_poly(ctx, rng)])
        a = Ideal(ctx, [_random_poly(ctx, rng)
                        for _ in range(rng.randrange(1, 3))])
        if a.is_zero() or a.is_unit():
            continue
        g = _random_poly(ctx, rng, max_deg=2)
        b = a * Ideal(ctx, (g,)) + a * Ideal.maximal(ctx) ** rng.randrange(1, 3)
        ms = (10, 11) if ctx.nvars == 2 else (8, 9)
        for num, den in ((a, b), (Ideal.unit(ctx), a)):
            v = pair_length(num, den)
            _check_against_truncation(v, num, den, ms)
            infinite.append(v == INFINITE)
    assert infinite.count(False) >= 20 and infinite.count(True) >= 10


def test_pair_length_examples(ctx2, xy):
    x, y = xy
    m = Ideal.maximal(ctx2)
    assert pair_length(m, m) == 0
    assert pair_length(m, monomial_ideal(ctx2, (2, 0), (0, 1))) == 1
    art = monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    assert pair_length(Ideal.unit(ctx2), art) == 3


def test_pair_length_containment_checked(ctx2, xy):
    """A failed containment check leaves no memo entry, so a repeated call
    raises again."""
    x, y = xy
    a, b = Ideal(ctx2, [x * x]), Ideal(ctx2, [x])
    for _ in range(2):
        with pytest.raises(ValueError, match="is not contained in"):
            pair_length(a, b)


def test_loc_quotient_examples(ctx2, xy):
    x, y = xy
    assert loc_quotient_length(monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))) == 3
    assert loc_quotient_length(Ideal(ctx2, [x])) == INFINITE
    # a component away from the origin does not count
    one = ctx2.one
    away = Ideal(ctx2, [x * (y - one), y * (y - one)])
    assert loc_quotient_length(away) == 1


def test_pair_length_below_a_proper_ideal(ctx2, xy):
    """A ≠ R and C ≠ A, with y - 1 a unit at the origin: locally B is
    (x, y^2), then (x, y), then (x^2)."""
    x, y = xy
    one = ctx2.one
    a = Ideal(ctx2, [x, y])
    b = Ideal(ctx2, [x * (y - one), y ** 2 * (y - one), x * x, x * y])
    assert pair_length(a, b) == 1
    b = Ideal(ctx2, [x * (y - one), y * (y - one), x * x, x * y])
    assert pair_length(a, b) == 0
    assert pair_length(Ideal(ctx2, [x]), Ideal(ctx2, [x * x * (y - one)])) \
        == INFINITE


def test_infinite_length_needs_no_truncation(ctx2, xy, monkeypatch):
    def refuse(ideal, m):
        raise AssertionError("truncated_dim called")

    monkeypatch.setattr(jmult.lengths, "truncated_dim", refuse)
    x, y = xy
    assert loc_quotient_length(Ideal(ctx2, [x])) == INFINITE
    assert loc_quotient_length(Ideal(ctx2, [x * x, x * y])) == INFINITE


def test_gap_refuses_a_quotient_of_infinite_length(ctx2, xy):
    """(x)/(x^2) holds x y^k for every k, so the staircase count is
    infinite."""
    x, y = xy
    with pytest.raises(InternalInconsistencyError,
                       match="not of finite length"):
        jmult.lengths._gap(Ideal(ctx2, [x]), Ideal(ctx2, [x * x]))


def test_an_equal_pair_takes_only_the_containment_check(monkeypatch):
    """The same ideal from two generator lists (xy = y(x + y^2) - y^3):
    once B ⊆ A holds, A = B is read off the reduced bases, so the pair takes
    one normal form per generator of B and no more."""
    ctx = RingContext(("x", "y"), 32003)
    x, y = ctx.var("x"), ctx.var("y")
    a = Ideal(ctx, [x + y * y, y ** 3])
    b = Ideal(ctx, [x * y, x + y * y])
    assert a is not b and a == b
    forms = []
    normal_form = GroebnerBasis.normal_form

    def counted(gb, f):
        forms.append(f)
        return normal_form(gb, f)

    monkeypatch.setattr(GroebnerBasis, "normal_form", counted)
    assert pair_length(a, b) == 0
    assert len(forms) == len(b.gens) == 2


def test_every_staircase_count_is_taken_once(monkeypatch):
    """Every length of a coeffs run, the Hilbert fit's torsion terms
    included, goes through the pair-length memo, so the staircase count runs
    once per (C, B) pair."""
    runs = Counter()
    gap = jmult.lengths._gap

    def counted(c, b):
        runs[c, b] += 1
        return gap(c, b)

    monkeypatch.setattr(jmult.lengths, "_gap", counted)
    text = "ring char=32003 vars=x,y\nideal x^2,x*y,y^2\n"
    report, code = run_command("coeffs", parse_problem(text), Options())
    assert code == 0
    assert report["results"]["j"] == [4, 1, 0]
    assert runs and set(runs.values()) == {1}, runs


def test_gamma_examples(ctx2, xy):
    x, y = xy
    assert gamma_length(Ideal(ctx2, [x])) == 0
    assert gamma_length(monomial_ideal(ctx2, (2, 0), (1, 1))) == 1
    assert gamma_length(monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))) == 3


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
        lab = pair_length(a, b)
        lbc = pair_length(bc, d)
        lcd = pair_length(c, d)
        labc = pair_length(a, b + c)
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
        lab = pair_length(a, b)
        lac = pair_length(a, c)
        lcb = pair_length(c, b)
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
        got = pair_length(a, b)
        want = mon_pair_length(MonomialIdeal.from_ideal(a),
                               MonomialIdeal.from_ideal(b))
        assert got == want
        checked += 1
    assert checked >= 30
