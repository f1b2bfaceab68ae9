import pytest

from jmult.parser import (Options, ProblemSemanticError, ProblemSyntaxError,
                          parse_problem, print_problem)


def test_family_example_parses():
    spec = parse_problem("ring char=32003 vars=x,y\nmod x^3-x^2*y\nideal x*y^2\n")
    assert spec.ring.var_names == ("x", "y")
    assert spec.ring.char == 32003
    assert len(spec.ring.relations) == 1
    assert len(spec.ideal.gens) == 1
    assert str(spec.ideal.gens[0]) == "x*y^2"


def test_simple_ideal_parses():
    spec = parse_problem("ring char=32003 vars=x,y\nideal x^2,x*y,y^2\n")
    assert len(spec.ideal.gens) == 3
    assert not spec.ring.relations


def test_missing_ring_line_position():
    with pytest.raises(ProblemSyntaxError) as err:
        parse_problem("ideal x\n")
    assert err.value.line == 1


def test_comments_and_blank_lines():
    text = "# a comment\n\nring char=101 vars=x,y  # trailing\n\nideal x+y\n"
    spec = parse_problem(text)
    assert spec.ring.char == 101


def test_polynomial_grammar():
    spec = parse_problem("ring char=7 vars=x,y\nideal 3*x^2*y-2+x\n")
    ctx = spec.ring
    x, y = ctx.var("x"), ctx.var("y")
    raw = x * x * y.scale(3) + x - ctx.constant(2)
    # generators are stored monic; the parsed polynomial is a unit multiple
    assert spec.ideal.gens == (raw.monic(),)
    assert spec.ideal.contains(raw)


def test_error_positions():
    with pytest.raises(ProblemSyntaxError) as err:
        parse_problem("ring char=32003 vars=x,y\nideal x +* y\n")
    assert err.value.line == 2
    with pytest.raises(ProblemSemanticError) as err:
        parse_problem("ring char=32003 vars=x,y\nideal x*z\n")
    assert err.value.line == 2 and "z" in err.value.message
    with pytest.raises(ProblemSemanticError):
        parse_problem("ring char=32004 vars=x\nideal x\n")
    with pytest.raises(ProblemSyntaxError):
        parse_problem("ring char=32003 vars=x,y\nideal\n")
    with pytest.raises(ProblemSyntaxError):
        parse_problem("ring char=32003 vars=x,y\n")


@pytest.mark.parametrize("text, cls, where, message", [
    ("ring char=32003 vars=x,x\nideal x\n", ProblemSemanticError, (1, 24),
     "duplicate variable name"),
    ("ring char=32003 vars=x,y,z,y\nideal x\n", ProblemSemanticError, (1, 28),
     "duplicate variable name"),
    ("ring char=32003 vars=x,y\nfoo x\n", ProblemSyntaxError, (2, 1),
     "expected 'ideal', got 'foo'"),
    ("ring char=32003 vars=x,y\nideal x\n  ideal y\n", ProblemSyntaxError,
     (3, 3), "unexpected line starting with 'ideal'"),
    ("# nothing\n\n", ProblemSyntaxError, (1, 1),
     "empty problem: expected a ring line"),
], ids=["duplicate-name", "duplicate-later-name", "not-ideal", "extra-line",
        "empty"])
def test_error_message_names_its_token(text, cls, where, message):
    """Each error reports the line and column of the token it is about."""
    with pytest.raises(cls) as err:
        parse_problem(text)
    assert (err.value.line, err.value.col) == where
    assert err.value.message == message


def test_leading_minus_parses():
    spec = parse_problem("ring char=32003 vars=x,y\nideal -x^2+y^3,-y\n")
    assert print_problem(spec) == "ring char=32003 vars=x,y\nideal y^3-x^2,y\n"


def test_semantic_vs_syntax_types_are_distinct():
    assert issubclass(ProblemSemanticError, Exception)
    assert not issubclass(ProblemSemanticError, ProblemSyntaxError)


def test_round_trip():
    for text in [
        "ring char=32003 vars=x,y\nmod x^3-x^2*y\nideal x*y^2\n",
        "ring char=32003 vars=x,y\nideal x^2,x*y,y^2\n",
        "ring char=101 vars=a,b,c\nideal a*b-c^2,a^3\n",
    ]:
        spec = parse_problem(text)
        printed = print_problem(spec)
        again = parse_problem(printed)
        assert again == spec
        assert print_problem(again) == printed


def test_char_override():
    spec = parse_problem("ring char=32003 vars=x,y\nideal x\n",
                         Options(char=101))
    assert spec.ring.char == 101

