"""Line-oriented problem language: a ring declaration, optional quotient
relations, and the ideal under study.

    ring char=32003 vars=x,y
    mod x^3-x^2*y
    ideal x*y^2

Polynomials are signed sums of products of powers and integer literals with
an explicit ``*`` between factors; ``#`` starts a comment.  Syntax errors and
semantic errors (unknown variable, non-prime characteristic, empty ideal) are
reported with line and column, as distinct error types.

A parsed problem is the pair (ring, ideal) and nothing else.  The run's
configuration, :class:`Options`, travels beside it; the parser reads only its
characteristic override.
"""

from __future__ import annotations

from typing import NamedTuple

from .ideals import Ideal
from .ring import Polynomial, RingContext, check_char, format_polynomial


class ProblemError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class ProblemSyntaxError(ProblemError):
    pass


class ProblemSemanticError(ProblemError):
    pass


class Options(NamedTuple):
    """Run configuration shared by the CLI and the report pipeline."""

    seed: int = 0
    char: int | None = None
    nmax: int | None = None
    window: int | None = None
    gd_asserted: bool = False
    an_asserted: bool = False
    s2_asserted: bool = False
    oracle: bool = False

    def flags_json(self):
        """The user-asserted hypotheses, echoed in every dependent output."""
        return {"gd_asserted": self.gd_asserted,
                "an_asserted": self.an_asserted,
                "s2_asserted": self.s2_asserted}


class ProblemSpec(NamedTuple):
    """A parsed problem: the working ring and the ideal under study."""

    ring: RingContext
    ideal: Ideal


# --------------------------------------------------------------------------
# tokenizer


class Token(NamedTuple):
    kind: str      # IDENT | INT | SYM | END
    text: str
    line: int
    col: int


_SYMBOLS = set("+-*^=,")


def _tokenize_line(text: str, line_no: int):
    tokens = []
    i = 0
    while i < len(text):
        c = text[i]
        if c == "#":
            break
        if c.isspace():
            i += 1
            continue
        col = i + 1
        if c.isalpha() or c == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], line_no, col))
            i = j
        elif c.isdecimal():
            j = i
            while j < len(text) and text[j].isdecimal():
                j += 1
            tokens.append(Token("INT", text[i:j], line_no, col))
            i = j
        elif c in _SYMBOLS:
            tokens.append(Token("SYM", c, line_no, col))
            i += 1
        else:
            raise ProblemSyntaxError(f"unexpected character {c!r}", line_no, col)
    return tokens


class _Cursor:
    def __init__(self, tokens, line_no: int, line_len: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no
        self.end_col = line_len + 1

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self):
        t = self.peek()
        if t is not None:
            self.pos += 1
        return t

    def accept(self, sym: str):
        """The next token, consumed, if it is one of the symbols in ``sym``;
        else None."""
        t = self.peek()
        if t is not None and t.kind == "SYM" and t.text in sym:
            self.pos += 1
            return t
        return None

    def expect(self, kind: str, what: str, text: str | None = None):
        t = self.next()
        if t is None or t.kind != kind or text not in (None, t.text):
            where = t or Token("END", "", self.line, self.end_col)
            raise ProblemSyntaxError(f"expected {what}", where.line, where.col)
        return t

    def expect_end(self):
        t = self.peek()
        if t is not None:
            raise ProblemSyntaxError(f"unexpected {t.text!r}", t.line, t.col)


# --------------------------------------------------------------------------
# polynomial expressions


def _parse_factor(cur: _Cursor, ctx: RingContext) -> Polynomial:
    t = cur.next()
    if t is None:
        raise ProblemSyntaxError("expected a factor", cur.line, cur.end_col)
    if t.kind == "INT":
        return ctx.constant(int(t.text))
    if t.kind == "IDENT":
        try:
            idx = ctx.var_index(t.text)
        except KeyError:
            raise ProblemSemanticError(f"unknown variable {t.text!r}",
                                       t.line, t.col) from None
        exp = 1
        if cur.accept("^"):
            exp = int(cur.expect("INT", "exponent").text)
        e = [0] * ctx.nvars
        e[idx] = exp
        return ctx.monomial(e)
    raise ProblemSyntaxError(f"unexpected {t.text!r} in polynomial", t.line, t.col)


def _parse_term(cur: _Cursor, ctx: RingContext) -> Polynomial:
    out = _parse_factor(cur, ctx)
    while cur.accept("*"):
        out = out * _parse_factor(cur, ctx)
    return out


def parse_poly(cur: _Cursor, ctx: RingContext) -> Polynomial:
    t = cur.accept("+-")
    out = _parse_term(cur, ctx)
    if t and t.text == "-":
        out = -out
    while t := cur.accept("+-"):
        nxt = _parse_term(cur, ctx)
        out = out - nxt if t.text == "-" else out + nxt
    return out


def _parse_poly_list(cur: _Cursor, ctx: RingContext):
    polys = [parse_poly(cur, ctx)]
    while cur.accept(","):
        polys.append(parse_poly(cur, ctx))
    cur.expect_end()
    return polys


# --------------------------------------------------------------------------
# the problem grammar


def parse_problem(text: str, options: Options | None = None) -> ProblemSpec:
    options = options or Options()
    lines = []
    for no, raw in enumerate(text.splitlines(), start=1):
        toks = _tokenize_line(raw, no)
        if toks:
            lines.append((no, len(raw), toks))
    if not lines:
        raise ProblemSyntaxError("empty problem: expected a ring line", 1, 1)

    def head(tokens):
        return tokens[0].text if tokens[0].kind == "IDENT" else None

    no, ln, toks = lines[0]
    if head(toks) != "ring":
        raise ProblemSyntaxError("expected ring line first", no, toks[0].col)
    cur = _Cursor(toks[1:], no, ln)
    cur.expect("IDENT", "'char'", "char")
    cur.expect("SYM", "'='", "=")
    char_tok = cur.expect("INT", "characteristic")
    char = options.char if options.char is not None else int(char_tok.text)
    try:
        check_char(char)
    except ValueError as exc:
        raise ProblemSemanticError(str(exc), char_tok.line, char_tok.col) from None
    cur.expect("IDENT", "'vars'", "vars")
    cur.expect("SYM", "'='", "=")
    names = [cur.expect("IDENT", "variable name").text]
    while cur.accept(","):
        names.append(cur.expect("IDENT", "variable name").text)
    cur.expect_end()
    if len(set(names)) != len(names):
        raise ProblemSemanticError("duplicate variable name", no, toks[0].col)
    base_ctx = RingContext(tuple(names), char)

    rest = lines[1:]
    relations = []
    if rest and head(rest[0][2]) == "mod":
        no, ln, toks = rest[0]
        cur = _Cursor(toks[1:], no, ln)
        relations = _parse_poly_list(cur, base_ctx)
        rest = rest[1:]

    if not rest:
        raise ProblemSyntaxError("expected an ideal line", no, 1)
    no, ln, toks = rest[0]
    if head(toks) != "ideal":
        raise ProblemSyntaxError(f"expected 'ideal', got {toks[0].text!r}",
                                 no, toks[0].col)
    ctx = RingContext(tuple(names), char, relations)
    cur = _Cursor(toks[1:], no, ln)
    if cur.peek() is None:
        raise ProblemSyntaxError("empty ideal", no, ln + 1)
    gens = _parse_poly_list(cur, ctx)
    if rest[1:]:
        extra = rest[1][2][0]
        raise ProblemSyntaxError(f"unexpected line starting with {extra.text!r}",
                                 extra.line, extra.col)
    return ProblemSpec(ring=ctx, ideal=Ideal(ctx, gens))


def print_problem(spec: ProblemSpec) -> str:
    """Canonical text form; parsing it back yields an equal problem."""
    ctx = spec.ring
    out = [f"ring char={ctx.char} vars={','.join(ctx.var_names)}"]
    rels = ctx.relation_polys()
    if rels:
        out.append("mod " + ",".join(format_polynomial(r) for r in rels))
    gens = spec.ideal.gens or (ctx.zero,)
    out.append("ideal " + ",".join(format_polynomial(g) for g in gens))
    return "\n".join(out) + "\n"
