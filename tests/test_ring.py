import itertools
import random

import pytest

from jmult import RingContext, check_char, elimination_order, grevlex
from jmult.ring import ContextMismatchError, format_polynomial

from conftest import block_order


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
    with pytest.raises(ContextMismatchError):
        ctx2.var("x") + other.var("x")


def test_compare_grevlex_degree_tie():
    # x^2 beats xy at equal degree, and the elimination order puts the last
    # variable above any power of the others
    assert grevlex((2, 0)) > grevlex((1, 1)) > grevlex((0, 2))
    assert grevlex((1, 1)) == grevlex((1, 1))
    assert elimination_order((0, 1)) > elimination_order((3, 0))


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
