"""Command-line entry point.

All lengths are local at the origin: the working ring is the polynomial ring
(or its quotient by the mod-line relations) localized at the ideal of all
variables.  General elements are sampled over the prime field from the seed,
and identical (input, seed, configuration) runs produce byte-identical JSON.
"""

from __future__ import annotations

import argparse
import sys

from .parser import Options, ProblemError, parse_problem
from .runner import (COMMANDS, PARSE_ERROR, emit_report, flag_error,
                     run_command)

EPILOG = """\
problem grammar (line oriented, '#' comments):
  ring char=32003 vars=x,y
  mod x^3-x^2*y          # optional quotient relations
  ideal x*y^2

semantics: the working ring is k[vars]/(mod relations) localized at the ideal
of all variables, so every reported length is local at the origin; components
supported away from the origin are invisible by design.

exit codes: 0 ok, 2 input error (parse error, out-of-range flag, zero ideal,
an ideal or a relation with a nonzero constant term, ring of dimension 0), 3
hypothesis-surrogate failure (results still printed, marked), 4 resource cap,
or a compared value that is infinite, 5 internal cross-check violation (a
finite compared value that is wrong, an internal inconsistency, or any other
unexpected internal error, reported without a traceback).
"""


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jmult",
        description="Generalized Hilbert coefficients, j-multiplicity and "
                    "Northcott inequality reports over a large prime field.",
        epilog=EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("command", choices=COMMANDS)
    ap.add_argument("problem", nargs="?", default="-",
                    help="problem file, or '-' for stdin (default)")
    ap.add_argument("--seed", type=int, default=0,
                    help="seed for general-element sampling (default 0)")
    ap.add_argument("--char", type=int, default=None,
                    help="override the characteristic from the ring line")
    ap.add_argument("--nmax", type=int, default=None,
                    help="degree bound for per-n checks (default r + d + 2)")
    ap.add_argument("--assert-gd", action="store_true",
                    help="assert the residual generation hypothesis")
    ap.add_argument("--assert-an", action="store_true",
                    help="assert the Artin-Nagata hypothesis")
    ap.add_argument("--assert-s2", action="store_true",
                    help="echo the weak residual (S2) hypothesis in the "
                         "report's flags; no verdict reads it")
    ap.add_argument("--format", dest="fmt", choices=("json", "table"),
                    default="json")
    ap.add_argument("--oracle", action="store_true",
                    help="add combinatorial cross-checks for monomial inputs")
    return ap


def options_from_args(args) -> Options:
    return Options(seed=args.seed, char=args.char, nmax=args.nmax,
                   gd_asserted=args.assert_gd, an_asserted=args.assert_an,
                   s2_asserted=args.assert_s2, oracle=args.oracle)


def main(argv=None) -> int:
    args = build_arg_parser().parse_intermixed_args(argv)
    try:
        if args.problem == "-":
            text = sys.stdin.read()
        else:
            with open(args.problem, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return PARSE_ERROR
    options = options_from_args(args)
    try:
        spec = parse_problem(text, options)
        error = flag_error(spec, options)
    except ProblemError as exc:
        error = exc
    if error:
        print(f"error: {error}", file=sys.stderr)
        return PARSE_ERROR
    report, code = run_command(args.command, spec, options)
    sys.stdout.write(emit_report(report, args.fmt))
    return code


if __name__ == "__main__":
    sys.exit(main())
