"""The benchmark's workloads: fixed jmult problems, the CLI command run on
each, and the answer each job must give.

Expected answers come from the paper or from an independent argument named
beside them, never from the program's own output.  Inputs that are monomial
ideals in a free ring are also checked against the combinatorial oracle at
run time (see ``run.oracle_disagreements``).

A job fails when it exits 1 or 5 (or with any code outside 0, 3 and 4),
times out, or gives a wrong answer.  Exit 3 (hypothesis surrogate failed) and
exit 4 (non-stabilization or a cap) are documented outcomes, not failures;
``exit`` records the code the job gave at the commit that added the benchmark,
for the reader only.
"""

from __future__ import annotations

from dataclasses import dataclass

RING2 = "ring char=32003 vars=x,y\n"
RING3 = "ring char=32003 vars=x,y,z\n"


@dataclass(frozen=True)
class Job:
    name: str
    args: tuple            # command word and flags; the problem comes on stdin
    problem: str           # problem text fed on stdin
    expect: dict           # dotted path into the JSON report -> value
    exit: int = 0          # documented exit code (informational)
    monomial: bool = False  # m-primary monomial ideal in a free ring

    @property
    def argv(self) -> list:
        return [self.args[0], "-", *self.args[1:]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: tuple


def _family(t: int) -> Job:
    gen = "x" if t == 0 else ("x*y" if t == 1 else f"x*y^{t}")
    # the paper's headline family: j(x*y^t) = (t + 1, 2 - t) in k[x,y]/(x^3-x^2*y)
    return Job(f"coeffs-xy{t}", ("coeffs",),
               RING2 + "mod x^3-x^2*y\n" + f"ideal {gen}\n",
               {"results.j": [t + 1, 2 - t]}, exit=3)


QUOTIENT_FAMILY = Workload(
    "quotient-family",
    "the paper's x*y^t family in k[x,y]/(x^3-x^2*y): truncation lengths and "
    "Buchberger pair bookkeeping do the work, ideal operations do little",
    tuple(_family(t) for t in range(5)))

M3 = RING2 + "ideal x^3,x^2*y,y^3\n"

MPRIMARY_2VAR = Workload(
    "mprimary-2var",
    "2-variable m-primary staircases plus a non-homogeneous and a "
    "non-m-primary ideal: saturation, colon and omega do the work",
    (
        # m^2: e = (4, 1, 0); e0 - e1 = colength 3, so r = 1 (Huneke-Ooishi)
        Job("coeffs-m2", ("coeffs",), RING2 + "ideal x^2,x*y,y^2\n",
            {"results.j": [4, 1, 0], "results.reduction.r": 1,
             "results.northcott.bound": 1, "results.northcott.equality": True},
            monomial=True),
        # e1 = 3 > e0 - colength = 9 - 7 = 2, so the bound is 2 and not attained
        Job("northcott-m3", ("northcott",), M3,
            {"results.j1": 3, "results.bound": 2,
             "results.inequality_holds": True, "results.equality": False},
            monomial=True),
        Job("omega-m3", ("omega",), M3,
            {"results.master_identity.holds": True}, monomial=True),
        Job("coeffs-oracle-m4", ("coeffs", "--oracle"),
            RING2 + "ideal x^4,x^3*y,x*y^3,y^4\n",
            {"results.j": [16, 6, 0], "results.oracle.agrees": True},
            monomial=True),
        # locally (x - x^2, y) = (x, y): two generators, so r = 0
        Job("coeffs-nonhomog", ("coeffs",), RING2 + "ideal x-x^2,y\n",
            {"results.j": [1, 0, 0], "results.reduction.r": 0}),
        # the paper's non-m-primary example; two generators, so r = 0
        Job("coeffs-not-mprimary", ("coeffs",), RING2 + "ideal x^2,x*y\n",
            {"results.j": [2, 1, 0], "results.reduction.r": 0}),
        # staircase 1, x, y, x^2, x*y, y^2, x*y^2; e = (9, 3, 1)
        Job("oracle-m3", ("oracle",), M3,
            {"results.colength": 7, "results.classical_coefficients": [9, 3, 1]},
            monomial=True),
    ))

DIM3 = Workload(
    "dim3",
    "three variables plus the elimination variable: truncation rows grow "
    "like M^2 and saturation is as heavy as truncation",
    (
        # (x,y,z) is generated by d = 3 elements: e = (1,0,0,0), r = 0
        Job("coeffs-m-xyz", ("coeffs",), RING3 + "ideal x,y,z\n",
            {"results.j": [1, 0, 0, 0], "results.reduction.r": 0},
            exit=5, monomial=True),
        # complete intersection of degrees 2,1,1: e = (2,0,0,0)
        Job("hilbert-x2yz", ("hilbert",), RING3 + "ideal x^2,y,z\n",
            {"results.j": [2, 0, 0, 0]}, monomial=True),
        # the paper's quotient example; two generators, so r = 0
        Job("coeffs-cone-xy", ("coeffs",), RING3 + "mod x*z-y^2\nideal x,y\n",
            {"results.j": [1, 1, 0], "results.reduction.r": 0}),
    ))

WORKLOADS = {w.name: w for w in (QUOTIENT_FAMILY, MPRIMARY_2VAR, DIM3)}
