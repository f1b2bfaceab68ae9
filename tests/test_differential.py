"""Property-based differential test: the Groebner engine against the
independent monomial oracle on random monomial ideals.

Each example draws a ring with 2 or 3 variables and two monomial ideals A
and C with 1-4 generators and exponents 0-3, then compares

- the local lengths of R/A and of A/(A ∩ C) with ``mon_quotient_length``
  and ``mon_pair_length``;
- A : m^∞, A : C and A ∩ C with the oracle's exponent-vector operations.

The search is derandomized and keeps no example database, so every run
draws the same examples.  Hypothesis also caches the literals of local
modules on disk, while pytest collects the tests; that cache goes to the
system temporary directory, so the test writes nothing to the working tree.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from jmult import (INFINITE, Ideal, MonomialIdeal, RingContext,
                   loc_quotient_length, mon_pair_length, mon_quotient_length,
                   pair_length)

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "jmult-hypothesis")

RINGS = {n: RingContext(("x", "y", "z")[:n], 32003) for n in (2, 3)}

DIFFERENTIAL = settings(derandomize=True, database=None, deadline=None,
                        max_examples=60)


def exponents(nvars):
    return st.lists(st.tuples(*[st.integers(0, 3)] * nvars),
                    min_size=1, max_size=4)


def _engine_form(oracle_length):
    """The oracle reports an infinite length as None, the engine as
    INFINITE."""
    return INFINITE if oracle_length is None else oracle_length


@st.composite
def ideal_pairs(draw):
    """(A, C) as engine ideals in one ring."""
    ctx = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    a, c = (Ideal(ctx, [ctx.monomial(e) for e in draw(exponents(ctx.nvars))])
            for _ in range(2))
    return a, c


@DIFFERENTIAL
@given(ideal_pairs())
def test_lengths_match_oracle(pair):
    a, c = pair
    ma, mc = MonomialIdeal.from_ideal(a), MonomialIdeal.from_ideal(c)
    assert loc_quotient_length(a) == _engine_form(mon_quotient_length(ma))
    assert (pair_length(a, a.intersect(c))
            == _engine_form(mon_pair_length(ma, ma.intersect(mc))))


@DIFFERENTIAL
@given(ideal_pairs())
def test_ideal_operations_match_oracle(pair):
    a, c = pair
    m = Ideal.maximal(a.ctx)
    ma, mc, mm = (MonomialIdeal.from_ideal(i) for i in (a, c, m))
    assert MonomialIdeal.from_ideal(a.saturate(m)) == ma.saturate(mm)
    assert MonomialIdeal.from_ideal(a.colon(c)) == ma.colon(mc)
    assert MonomialIdeal.from_ideal(a.intersect(c)) == ma.intersect(mc)
