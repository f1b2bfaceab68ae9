import heapq
import itertools
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from jmult.groebner import (ComputationLimitError, _monic_row, _spoly,
                            buchberger_raw, count_monomials_between,
                            groebner_basis)
from jmult.ideals import Ideal
from jmult.lengths import INFINITE, loc_quotient_length, truncated_dim
from jmult.ring import (Polynomial, RingContext, elimination_order, grevlex,
                        mono_div, mono_divides, mono_lcm)

from conftest import (block_order, eliminate_last, monomial_ideal,
                      random_monomial_ideal)

# the literal cache hypothesis writes while collecting stays out of the tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "jmult-hypothesis")

STAIRCASES = settings(derandomize=True, database=None, deadline=None,
                      max_examples=200)


def test_normal_form_examples(ctx2, xy):
    x, y = xy
    gbx = groebner_basis(ctx2, [x])
    assert gbx.normal_form(x * x).is_zero()
    assert gbx.normal_form(y) == y
    gb = groebner_basis(ctx2, [x - y])
    assert gb.normal_form(x + y) == y.scale(2)


def test_normal_form_idempotent(ctx2, xy):
    x, y = xy
    gb = groebner_basis(ctx2, [x * x - y, x * y ** 2 - x])
    rng = random.Random(3)
    for _ in range(20):
        f = ctx2.zero
        for _ in range(5):
            f = f + ctx2.monomial((rng.randrange(4), rng.randrange(4)),
                                  rng.randrange(32003))
        r = gb.normal_form(f)
        assert gb.normal_form(r) == r


def test_foreign_polynomial_raises_context_mismatch(ctx2, xy):
    x, y = xy
    g = RingContext(("u", "v"), 32003).var("u")
    with pytest.raises(ValueError, match="polynomial from a different context"):
        groebner_basis(ctx2, [x]).normal_form(g)
    with pytest.raises(ValueError, match="polynomial from a different context"):
        Ideal(ctx2, [x, y * y]).contains(g)


@st.composite
def staircase_pairs(draw):
    """Two lists of lead exponents in 1 to 4 variables with entries 0 to 3,
    the zero vector (a unit lead) included."""
    n = draw(st.integers(1, 4))
    leads = st.lists(st.tuples(*[st.integers(0, 3)] * n), max_size=4)
    return draw(leads), draw(leads), n


@STAIRCASES
@given(staircase_pairs())
@example(([], [], 3))
@example(([(0, 0)], [], 2))
@example(([(0, 0)], [(2, 0), (1, 1), (0, 2)], 2))
@example(([(1, 2)], [(0, 0)], 2))
@example(([(1,)], [(3,)], 1))
def test_count_monomials_between_enumerates(case):
    """The sliced count equals the monomials in (upper) outside (lower),
    enumerated one by one in a box one past the largest exponent.  Beyond
    that exponent membership no longer changes, so a counted monomial on the
    box's far face means infinitely many."""
    upper, lower, n = case
    top = 1 + max((max(e) for e in upper + lower), default=0)
    counted = [e for e in itertools.product(range(top + 1), repeat=n)
               if any(mono_divides(u, e) for u in upper)
               and not any(mono_divides(u, e) for u in lower)]
    brute = None if any(top in e for e in counted) else len(counted)
    assert count_monomials_between(upper, lower, n) == brute


def test_buchberger_examples(ctx2, xy):
    x, y = xy
    gb = groebner_basis(ctx2, [x + y, x - y])
    assert set(gb.rows) == {((1, 0), ()), ((0, 1), ())}
    assert groebner_basis(ctx2, [ctx2.zero]).is_zero()
    assert groebner_basis(ctx2, [ctx2.one]).is_unit()
    # S-pair closure certifies itself
    gb2 = groebner_basis(ctx2, [y - x * x, x * y - y])
    assert gb2.certify()


def test_certify_on_random_bases(ctx2, xy):
    x, y = xy
    rng = random.Random(17)
    for _ in range(15):
        gens = []
        for _ in range(rng.randrange(1, 4)):
            f = ctx2.zero
            for _ in range(rng.randrange(1, 4)):
                f = f + ctx2.monomial((rng.randrange(4), rng.randrange(4)),
                                      rng.randrange(1, 32003))
            gens.append(f)
        assert groebner_basis(ctx2, gens).certify()


def test_standard_count_examples(ctx2, xy):
    x, y = xy
    art = monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2))
    assert truncated_dim(art, 3) == 3
    assert truncated_dim(Ideal.unit(ctx2), 3) == 0
    assert loc_quotient_length(Ideal(ctx2, [x])) == INFINITE


def test_krull_dimension(ctx2, ctx_family, xy):
    x, y = xy
    assert Ideal(ctx2, [x]).dimension() == 1
    assert monomial_ideal(ctx2, (2, 0), (1, 1), (0, 2)).dimension() == 0
    assert Ideal.zero(ctx_family).dimension() == 1
    assert Ideal.unit(ctx2).dimension() == -1


def test_eliminate_examples():
    ctx = RingContext(("x", "y", "t"), 32003)
    base = RingContext(("x", "y"), 32003)
    x, y, t = (ctx.var(v) for v in "xyt")

    def eliminate(*gens):
        rows = eliminate_last([g.terms for g in gens], 3, ctx.char)
        return {str(Polynomial(base, terms)) for terms in rows}

    assert eliminate(x - t, y - t * t) == {"x^2-y"}
    assert eliminate(t * x) == set()
    assert eliminate(t * x, (ctx.one - t) * y) == {"x*y"}


def test_membership_against_monomial_oracle(ctx2):
    rng = random.Random(23)
    for _ in range(30):
        ideal = random_monomial_ideal(ctx2, rng)
        if not ideal.gens:
            continue
        gb = ideal.gb()
        exps = {next(iter(g.terms)) for g in ideal.gens}
        for _ in range(10):
            e = tuple(rng.randrange(7) for _ in range(2))
            in_oracle = any(all(a <= b for a, b in zip(g, e)) for g in exps)
            assert gb.contains(ctx2.monomial(e)) == in_oracle


def test_pair_cap_is_error(ctx2, xy):
    x, y = xy
    with pytest.raises(ComputationLimitError):
        groebner_basis(ctx2, [x ** 3 - y, x * y - x - y, y ** 3 - x],
                       pair_cap=1)


def test_standard_count_matches_oracle_lattice(ctx2):
    """Counted staircase complements agree with the oracle on 50 random
    monomial ideals in up to three variables: a finite colength through the
    truncation at a degree past the staircase (every exponent of a standard
    monomial is below 6), an infinite one through the local length."""
    from jmult.oracle import MonomialIdeal, mon_quotient_length
    from jmult.ring import RingContext
    ctx3 = RingContext(("x", "y", "z"), 32003)
    rng = random.Random(47)
    checked = 0
    while checked < 50:
        ctx = ctx2 if rng.random() < 0.5 else ctx3
        ideal = random_monomial_ideal(ctx, rng, max_gens=5, max_deg=6)
        if not ideal.gens:
            continue
        want = mon_quotient_length(MonomialIdeal.from_ideal(ideal))
        if want is None:
            assert loc_quotient_length(ideal) == INFINITE
        else:
            assert truncated_dim(ideal, 6 * ctx.nvars) == want
        checked += 1


P = 32003


def _ref_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _ref_add_multiple(out, f, coef, shift):
    """out += coef * x^shift * f, on term dicts mod P."""
    for e, c in f.items():
        ne = tuple(x + y for x, y in zip(e, shift))
        nc = (out.get(ne, 0) + coef * c) % P
        if nc:
            out[ne] = nc
        else:
            out.pop(ne, None)


def _ref_normal_form(f, basis, key):
    """Remainder of f on division by the monic (lead, poly) pairs in basis."""
    work, out = dict(f), {}
    while work:
        e = max(work, key=key)
        hit = next(((l, g) for l, g in basis if _ref_divides(l, e)), None)
        if hit is None:
            out[e] = work.pop(e)
        else:
            _ref_add_multiple(work, hit[1], -work[e],
                              tuple(x - y for x, y in zip(e, hit[0])))
    return out


def _ref_buchberger(gens, key):
    """Reduced Groebner basis by Buchberger's algorithm with no criterion:
    every S-polynomial is reduced, smallest lcm first.  Returned as a set
    of frozen term sets."""
    basis, pairs = [], []

    def add(f):
        lf = max(f, key=key)
        inv = pow(f[lf], -1, P)
        for i, (lg, _) in enumerate(basis):
            lcm = tuple(max(x, y) for x, y in zip(lf, lg))
            heapq.heappush(pairs, (key(lcm), i, len(basis), lcm))
        basis.append((lf, {e: c * inv % P for e, c in f.items()}))

    for g in gens:
        add(g)
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        s = {}
        for k, sign in ((i, 1), (j, -1)):
            lead, g = basis[k]
            _ref_add_multiple(s, g, sign, tuple(x - y for x, y in zip(lcm, lead)))
        r = _ref_normal_form(s, basis, key)
        if r:
            add(r)
    minimal = [(l, g) for i, (l, g) in enumerate(basis)
               if not any(_ref_divides(h, l) and (h != l or k < i)
                          for k, (h, _) in enumerate(basis) if k != i)]
    return {frozenset(_ref_normal_form(g, [b for b in minimal if b[0] != l],
                                       key).items()) | {(l, 1)}
            for l, g in minimal}


def _random_terms(rng, nvars):
    """At most three terms of degree at most 3 with nonzero coefficients."""
    f = {}
    for _ in range(rng.randrange(1, 4)):
        e = [0] * nvars
        for _ in range(rng.randrange(4)):
            e[rng.randrange(nvars)] += 1
        f[tuple(e)] = rng.randrange(1, P)
    return f


def _engine_basis(gens, nvars, order):
    rows = buchberger_raw(gens, nvars, P, order)
    return {frozenset(((le, 1),) + tail) for le, tail in rows}


def test_buchberger_matches_reference():
    """The engine's reduced basis, built with its pair criteria, equals that
    of a Buchberger that reduces every pair, on 300 random inputs in two or
    three variables with up to three generators and 200 in four variables
    with up to five, under grevlex, the elimination order and a two-block
    order."""
    rng = random.Random(5)
    for draw in range(500):
        if draw < 300:
            nvars, ngens = rng.randrange(2, 4), rng.randrange(1, 4)
        else:
            nvars, ngens = 4, rng.randrange(1, 6)
        gens = [_random_terms(rng, nvars) for _ in range(ngens)]
        for order in (grevlex, elimination_order, block_order(2)):
            assert (_engine_basis(gens, nvars, order)
                    == _ref_buchberger(gens, order)), (draw, order, gens)


def test_spoly_is_the_difference_of_the_shifted_rows():
    """The S-polynomial of two monic rows equals (lcm/lf) f - (lcm/lg) g
    computed with polynomial operations, and has no lcm term and no zero
    residue, on 200 random pairs in two to four variables."""
    rng = random.Random(41)
    for _ in range(200):
        ctx = RingContext(("x", "y", "z", "w")[:rng.randrange(2, 5)], P)
        f, g = (Polynomial(ctx, _random_terms(rng, ctx.nvars)).monic()
                for _ in range(2))
        lf, lg = f.lead_exp(), g.lead_exp()
        lcm = mono_lcm(lf, lg)
        s = _spoly(_monic_row(f.terms, grevlex, P),
                   _monic_row(g.terms, grevlex, P), lcm, P)
        assert Polynomial(ctx, s) == (ctx.monomial(mono_div(lcm, lf)) * f
                                      - ctx.monomial(mono_div(lcm, lg)) * g)
        assert lcm not in s and 0 not in s.values()
