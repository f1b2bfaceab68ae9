import itertools
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from jmult.ring import (RingContext, add_shifted, check_char,
                        elimination_order, format_polynomial, grevlex,
                        mono_div, mono_divides, mono_lcm, mono_mul)

from conftest import block_order

# the literal cache hypothesis writes while collecting stays out of the tree
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "jmult-hypothesis")

KERNELS = settings(derandomize=True, database=None, deadline=None,
                   max_examples=200)


@st.composite
def exponent_pairs(draw):
    """Two exponent vectors of one length, 1 to 5, with entries 0 to 6."""
    n = draw(st.integers(1, 5))
    vec = st.tuples(*[st.integers(0, 6)] * n)
    return draw(vec), draw(vec)


def test_prime_validation():
    check_char(32003)
    with pytest.raises(ValueError):
        check_char(32004)
    with pytest.raises(ValueError):
        check_char(2)
    with pytest.raises(ValueError):
        check_char(1 << 32)


@pytest.mark.parametrize("n", [561, 2047, 1373653, 25326001, 46337 ** 2])
def test_composites_that_fool_a_weak_test_are_rejected(n):
    """The Carmichael number 561, strong pseudoprimes to the smallest bases,
    and the square of the largest prime below sqrt(2**31), whose only
    divisor is the last one trial division reaches."""
    with pytest.raises(ValueError, match="not prime"):
        check_char(n)


def test_largest_prime_characteristic_is_accepted():
    assert check_char((1 << 31) - 1) == (1 << 31) - 1


def test_field_axioms_random(ctx2):
    p = ctx2.char
    rng = random.Random(11)
    for _ in range(300):
        a, b, c = (ctx2.constant(rng.randrange(p)) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * ctx2.constant(pow(a.lead_coef(), -1, p)) == ctx2.one


def test_poly_additive_inverse(ctx2, xy):
    x, y = xy
    assert (x + (-x)).is_zero()
    assert (x + y) + (x - y) == x.scale(2)
    f = x * y + y ** 3
    assert f + ctx2.zero == f


def test_poly_products(ctx2, xy):
    x, y = xy
    assert (x + y) * (x - y) == x * x - y * y
    f = x ** 2 + y
    assert f * ctx2.one == f
    t = 4
    assert x * y ** t == ctx2.monomial((1, t))


def _random_poly(ctx, rng, max_terms=20):
    f = ctx.zero
    for _ in range(rng.randrange(1, max_terms + 1)):
        f = f + ctx.monomial((rng.randrange(5), rng.randrange(5)),
                             rng.randrange(ctx.char))
    return f


def test_poly_multiplication_commutative_associative(ctx2):
    rng = random.Random(13)
    for _ in range(25):
        f, g, h = (_random_poly(ctx2, rng) for _ in range(3))
        assert f * g == g * f
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h


def test_context_mismatch(ctx2):
    other = RingContext(("x", "y"), 101)
    with pytest.raises(ValueError,
                       match="polynomials from different ring contexts"):
        ctx2.var("x") + other.var("x")


def test_compare_grevlex_degree_tie():
    # x^2 beats xy at equal degree, and the elimination order puts the last
    # variable above any power of the others
    assert grevlex((2, 0)) > grevlex((1, 1)) > grevlex((0, 2))
    assert grevlex((1, 1)) == grevlex((1, 1))
    assert elimination_order((0, 1)) > elimination_order((3, 0))


@KERNELS
@given(exponent_pairs())
def test_monomial_kernels_are_componentwise(pair):
    a, b = pair
    n = len(a)
    assert mono_mul(a, b) == tuple(a[i] + b[i] for i in range(n))
    assert mono_div(a, b) == tuple(a[i] - b[i] for i in range(n))
    assert mono_lcm(a, b) == tuple(max(a[i], b[i]) for i in range(n))
    assert mono_divides(a, b) == all(a[i] <= b[i] for i in range(n))
    assert mono_divides(a, mono_mul(a, b)) and mono_divides(a, mono_lcm(a, b))


@st.composite
def shifted_updates(draw):
    """Arguments of ``add_shifted`` over F_7 in 1 to 4 variables: a work
    dict, distinct (exponent, residue) terms, a coefficient (0 mod 7 now and
    then) and a shift.  In about half the draws one work entry is set to
    cancel the update's term at its exponent exactly; that exponent is
    returned as well, else None."""
    n = draw(st.integers(1, 4))
    mono = st.tuples(*[st.integers(0, 2)] * n)
    residue = st.integers(1, 6)
    work = draw(st.dictionaries(mono, residue, max_size=8))
    terms = list(draw(st.dictionaries(mono, residue, max_size=8)).items())
    c, shift = draw(st.integers(-14, 14)), draw(mono)
    cancelled = None
    if terms and c % 7 and draw(st.booleans()):
        e, t = draw(st.sampled_from(terms))
        cancelled = mono_mul(e, shift)
        work[cancelled] = -c * t % 7
    return work, terms, c, shift, cancelled


@KERNELS
@given(shifted_updates())
def test_add_shifted_matches_a_naive_sum(update):
    """work += c * x^shift * terms, against integer sums reduced mod p at
    the end; no zero residue stays in work."""
    work, terms, c, shift, cancelled = update
    want = dict(work)
    for e, t in terms:
        s = tuple(a + b for a, b in zip(e, shift))
        want[s] = want.get(s, 0) + c * t
    want = {e: v % 7 for e, v in want.items() if v % 7}
    add_shifted(work, terms, c, shift, 7)
    assert work == want
    assert all(0 < v < 7 for v in work.values())
    assert cancelled is None or cancelled not in work


@KERNELS
@given(exponent_pairs())
def test_grevlex_is_the_textbook_rule(pair):
    """a > b when a has the larger degree, or at equal degree the smaller
    exponent in the last variable where the two differ."""
    a, b = pair
    diff = [i for i in range(len(a)) if a[i] != b[i]]
    if sum(a) != sum(b):
        a_greater = sum(a) > sum(b)
    else:
        a_greater = bool(diff) and a[diff[-1]] < b[diff[-1]]
    assert (grevlex(a) > grevlex(b)) == a_greater
    assert (grevlex(a) == grevlex(b)) == (a == b)


def test_elimination_order_is_the_one_block_order():
    """In 2 to 4 variables the elimination order sorts every monomial of
    degree at most 5 exactly as the block order with the last variable as
    its own block, so eliminations keep the bases they had under that block
    order."""
    for nvars in (2, 3, 4):
        monos = [e for e in itertools.product(range(6), repeat=nvars)
                 if sum(e) <= 5]
        assert (sorted(monos, key=elimination_order)
                == sorted(monos, key=block_order(1))), nvars


@pytest.mark.parametrize("order", [grevlex, elimination_order,
                                   block_order(2)],
                         ids=["grevlex", "block1", "block2"])
def test_order_is_multiplicative_total_order(order):
    """Keys are tuples, so the order is transitive by construction; check
    that it is total on monomials, multiplicative and has 1 at the bottom."""
    rng = random.Random(5)
    exps = [tuple(rng.randrange(6) for _ in range(3)) for _ in range(40)]
    for a in exps[:12]:
        for b in exps[12:24]:
            assert (order(a) == order(b)) == (a == b)
            for c in exps[24:30]:
                prod_a = tuple(u + w for u, w in zip(a, c))
                prod_b = tuple(u + w for u, w in zip(b, c))
                assert (order(prod_a) > order(prod_b)) == (order(a) > order(b))
    # 1 is smallest: a well-order needs the unit at the bottom
    one = (0, 0, 0)
    for a in exps:
        if a != one:
            assert order(a) > order(one)


def test_format_round_trip_style(ctx2, xy):
    x, y = xy
    f = x ** 3 - x ** 2 * y
    assert format_polynomial(f) == "x^3-x^2*y"
    assert format_polynomial(ctx2.zero) == "0"
    assert format_polynomial(ctx2.constant(5)) == "5"
    assert format_polynomial(-x) == "-x"
