"""The paper's theorems as properties of ``coeffs`` reports.

Under its hypotheses (ℓ(I) = d, G_d and AN^-_{d-2}) the paper proves the
Northcott inequality for j_1, that equality forces r ≤ 1 and a
Cohen-Macaulay associated graded ring, and, with Colomé-Nin, Polini, Ulrich
and Xie, that j_1 ≥ 0.  Each example draws an ideal of k[x,y] whose
generators are homogeneous with one or two terms, and runs ``coeffs`` on it.
Every report whose hypotheses are in force must state each theorem as
holding, and no report may exit 5, the code of a genuine disagreement.

The draw is homogeneous for cost alone: a non-homogeneous ideal carries
components away from the origin through every power and saturation, which
can cost seconds per example.  The search is derandomized and keeps no
example database, as in ``test_differential``.
"""

import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st
from hypothesis.configuration import set_hypothesis_home_dir

from jmult.parser import Options, parse_problem
from jmult.runner import run_command

set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "jmult-hypothesis")

THEOREMS = settings(derandomize=True, database=None, deadline=None,
                    max_examples=40)


def _term(coef, a, b):
    powers = [f"{v}^{k}" if k > 1 else v
              for v, k in (("x", a), ("y", b)) if k]
    return "*".join([str(coef), *powers])


@st.composite
def generators(draw):
    """One or two monomials of one degree 1-3, with coefficients 1-9."""
    degree = draw(st.integers(1, 3))
    xs = draw(st.lists(st.integers(0, degree), min_size=1, max_size=2,
                       unique=True))
    return "+".join(_term(draw(st.integers(1, 9)), a, degree - a) for a in xs)


@st.composite
def problems(draw):
    gens = draw(st.lists(generators(), min_size=2, max_size=3))
    return f"ring char=32003 vars=x,y\nideal {','.join(gens)}\n"


@THEOREMS
@given(problems())
def test_theorems_hold_where_the_hypotheses_do(text):
    report, code = run_command("coeffs", parse_problem(text), Options(seed=1))
    assert code != 5, text
    if not (report["hypotheses"] or {}).get("effective"):
        return
    northcott = report["results"]["northcott"]
    assert northcott["inequality_holds"] is True, text
    assert northcott["equality_case"] != "violated", text
    assert northcott["j1_nonnegative"] is True, text
