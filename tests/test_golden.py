"""Byte-for-byte golden reports: every command on a small fixed corpus.

Each case runs the CLI pipeline in-process on a fresh ring context and
compares the emitted report and the exit code with the files under
``tests/golden/``.  A change that alters a golden must say why in CHANGES.md.

Regenerate the files after an intended change with

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from jmult.cli import build_arg_parser, options_from_args
from jmult.parser import parse_problem
from jmult.runner import emit_report, run_command

GOLDEN = Path(__file__).parent / "golden"
EXITS = GOLDEN / "exit_codes.json"

M2 = "ring char=32003 vars=x,y\nideal x^2,x*y,y^2\n"
FAMILY_XY = "ring char=32003 vars=x,y\nmod x^3-x^2*y\nideal x*y\n"
NOT_M_PRIMARY = "ring char=32003 vars=x,y\nideal x^2,x*y\n"
# NOT_M_PRIMARY under the coordinate change x -> x + 2y
NOT_M_PRIMARY_PHI = "ring char=32003 vars=x,y\nideal x^2+4*x*y+4*y^2,x*y+2*y^2\n"
CI_X2YZ = "ring char=32003 vars=x,y,z\nideal x^2,y,z\n"
CONE_XY = "ring char=32003 vars=x,y,z\nmod x*z-y^2\nideal x,y\n"
NONHOMOG = "ring char=32003 vars=x,y\nideal x-x^2,y\n"
AXES_XYZ = "ring char=32003 vars=x,y,z\nideal x*y,x*z,y*z\n"

# name -> (argv without the problem argument, problem text)
CASES = {
    **{f"{cmd}-m2": ([cmd], M2)
       for cmd in ("hilbert", "coeffs", "jmult", "reduction", "depthcheck",
                   "omega", "northcott", "oracle")},
    "coeffs-family-xy": (["coeffs"], FAMILY_XY),
    "coeffs-not-m-primary": (["coeffs"], NOT_M_PRIMARY),
    "coeffs-not-m-primary-phi": (["coeffs"], NOT_M_PRIMARY_PHI),
    "northcott-m2-table": (["northcott", "--format", "table"], M2),
    "hilbert-x2yz": (["hilbert"], CI_X2YZ),
    "coeffs-cone-xy": (["coeffs"], CONE_XY),
    "coeffs-nonhomog": (["coeffs"], NONHOMOG),
    "coeffs-axes-xyz": (["coeffs"], AXES_XYZ),
}


def run_case(name: str):
    """(report text, exit code) for one case, as ``jmult`` would print it."""
    argv, problem = CASES[name]
    args = build_arg_parser().parse_args([argv[0], "-", *argv[1:]])
    options = options_from_args(args)
    report, code = run_command(args.command, parse_problem(problem, options),
                               options)
    return emit_report(report, args.fmt), code


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name):
    text, code = run_case(name)
    assert text == (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
    assert code == json.loads(EXITS.read_text(encoding="utf-8"))[name]


def test_golden_is_invariant_under_a_coordinate_change():
    """Every answer is an invariant of the local ring and the ideal, so a
    coordinate change fixing the origin moves only the input and the printed
    reduction elements."""
    plain, phi = (json.loads((GOLDEN / f"{name}.out").read_text(encoding="utf-8"))
                  for name in ("coeffs-not-m-primary", "coeffs-not-m-primary-phi"))
    for report in (plain, phi):
        del report["input"], report["results"]["reduction"]["elements"]
    assert phi == plain


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    exits = {}
    for name in sorted(CASES):
        text, exits[name] = run_case(name)
        (GOLDEN / f"{name}.out").write_text(text, encoding="utf-8")
    EXITS.write_text(json.dumps(exits, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
