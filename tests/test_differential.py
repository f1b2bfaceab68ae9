"""Property-based differential test: the Groebner engine against the
independent monomial oracle on random monomial ideals.

Each example draws a ring with 2 or 3 variables and two monomial ideals A
and C with 1-4 generators and exponents 0-3, then compares

- the local lengths of R/A and of A/(A ∩ C) with ``mon_quotient_length``
  and ``mon_pair_length``;
- A : m^∞, A : C and A ∩ C with the oracle's exponent-vector operations.

A second test moves a monomial ideal I into generic coordinates by a
unipotent triangular map φ, an automorphism fixing the origin, so every
local length of φ(I) is that of I: the engine on the dense ideal φ(I) is
compared with the oracle on I.

The search is derandomized and keeps no example database, so every run
draws the same examples.  Hypothesis also caches the literals of local
modules on disk, while pytest collects the tests; that cache goes to the
system temporary directory, so the test writes nothing to the working tree.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from jmult.hilbert import graded_torsion_length
from jmult.ideals import Ideal
from jmult.lengths import INFINITE, loc_quotient_length, pair_length
from jmult.oracle import MonomialIdeal, mon_pair_length, mon_quotient_length
from jmult.ring import RingContext

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


@st.composite
def generic_monomial_ideals(draw):
    """(I, φ(I)): I has 1-3 generators with exponents 0-2, and φ maps x_i to
    x_i + Σ_{j>i} c_ij x_j with 1 <= c_ij <= 50.  A generator is drawn as a
    pure power or as any exponent vector: without the pure powers few
    examples have a finite colength or any torsion."""
    ctx = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    n = ctx.nvars
    pure = st.builds(lambda i, k: tuple(k * (j == i) for j in range(n)),
                     st.integers(0, n - 1), st.integers(1, 2))
    exps = draw(st.lists(st.one_of(pure, st.tuples(*[st.integers(0, 2)] * n)),
                         min_size=1, max_size=3))
    images = []
    for i in range(n):
        image = ctx.var(i)
        for j in range(i + 1, n):
            image = image + ctx.var(j).scale(draw(st.integers(1, 50)))
        images.append(image)

    def phi(e):
        out = ctx.one
        for image, k in zip(images, e):
            out = out * image ** k
        return out

    return MonomialIdeal(n, exps), Ideal(ctx, [phi(e) for e in exps])


@DIFFERENTIAL
@given(generic_monomial_ideals())
def test_generic_coordinates_match_oracle(pair):
    mono, ideal = pair
    n = mono.nvars
    assert loc_quotient_length(ideal) == _engine_form(mon_quotient_length(mono))
    mm = MonomialIdeal(n, [tuple(int(j == i) for j in range(n))
                           for i in range(n)])
    for i in range(3):
        low, high = mono.power(i), mono.power(i + 1)
        want = mon_pair_length(high.saturate(mm).intersect(low), high)
        assert graded_torsion_length(ideal, i) == want
