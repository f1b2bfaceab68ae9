import random

import pytest

from jmult.groebner import buchberger_raw
from jmult.ideals import Ideal
from jmult.ring import RingContext, elimination_order, grevlex


@pytest.fixture(scope="session")
def ctx2():
    """k[x,y] over the default prime."""
    return RingContext(("x", "y"), 32003)


@pytest.fixture(scope="session")
def ctx_family():
    """The one-dimensional quotient ring k[x,y]/(x^3 - x^2 y)."""
    base = RingContext(("x", "y"), 32003)
    x, y = base.var("x"), base.var("y")
    return RingContext(("x", "y"), 32003, relations=[x ** 3 - x ** 2 * y])


@pytest.fixture(scope="session")
def xy(ctx2):
    return ctx2.var("x"), ctx2.var("y")


def block_order(n_last):
    """Sort key of the block order that compares the trailing ``n_last``
    coordinates first, grevlex within each block."""
    def key(e):
        k = len(e) - n_last
        return (grevlex(e[k:]), grevlex(e[:k]))
    return key


def eliminate_last(rows, nvars, p):
    """Term dicts of the elimination basis rows of the term dicts ``rows`` in
    ``nvars`` variables that are free of the last variable, with its exponent
    dropped: a reference elimination built from public code alone."""
    raw = buchberger_raw(rows, nvars, p, elimination_order)
    return [{e[:-1]: c for e, c in ((le, 1),) + tail}
            for le, tail in raw if not le[-1]]


def monomial_ideal(ctx, *exps):
    return Ideal(ctx, [ctx.monomial(e) for e in exps])


def random_monomial_ideal(ctx, rng: random.Random, max_gens=4, max_deg=5):
    n = ctx.nvars
    gens = []
    for _ in range(rng.randrange(1, max_gens + 1)):
        e = tuple(rng.randrange(max_deg + 1) for _ in range(n))
        if any(e):
            gens.append(ctx.monomial(e))
    return Ideal(ctx, gens)
