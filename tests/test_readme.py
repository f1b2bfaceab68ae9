"""The README's library examples run as written: each ```python block
executes, and on every line ``expr  # literal`` whose comment is a Python
literal, the expression has that value."""

import ast
import io
import re
import tokenize
from pathlib import Path

import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README.read_text(),
                    re.MULTILINE | re.DOTALL)


def checked_lines(block: str):
    """(expression, value) for each line whose comment is a literal."""
    for tok in tokenize.generate_tokens(io.StringIO(block).readline):
        if tok.type != tokenize.COMMENT:
            continue
        code = tok.line[:tok.start[1]].strip()
        try:
            value = ast.literal_eval(tok.string[1:].strip())
        except (SyntaxError, ValueError):
            continue
        if code:
            yield code, value


def test_check_reads_only_literal_comments():
    block = "a = 1\na  # 1\na + 1  # 2, one more\n# (3)\n(a, a)  # (1, 1)\n"
    assert list(checked_lines(block)) == [("a", 1), ("(a, a)", (1, 1))]


def test_readme_has_checked_examples():
    assert sum(len(list(checked_lines(block))) for block in BLOCKS) >= 5


@pytest.mark.parametrize("block", BLOCKS,
                         ids=[f"block{i}" for i in range(len(BLOCKS))])
def test_readme_example_holds(block):
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    for code, value in checked_lines(block):
        assert eval(code, namespace) == value, code
