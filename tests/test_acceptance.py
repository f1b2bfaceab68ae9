"""Acceptance suite.

Each criterion prints one PASS/FAIL line (run with ``pytest -s`` to see them
on success).  All comparisons are exact integer equality; the only tolerance
anywhere is the wall-clock budget of criterion 1.
"""

import random
import time

import pytest

from jmult.hilbert import fit_hilbert_polynomial
from jmult.ideals import Ideal
from jmult.lengths import INFINITE, pair_length, signed_sum
from jmult.northcott import northcott_bound
from jmult.omega import OmegaEvaluator, j_via_sums, master_identity_check
from jmult.oracle import (MonomialIdeal, mon_pair_length,
                          oracle_hilbert_coefficients)
from jmult.parser import Options, parse_problem
from jmult.reductions import (e_one_bar, fiber_length_term,
                              general_minimal_reduction, j_zero,
                              residual_height_check, valabrega_valla_check)
from jmult.ring import RingContext
from jmult.runner import run_command

from conftest import monomial_ideal

PRIME = 32003

M_PRIMARY_EXPS = [
    ((1, 0), (0, 1)),                    # the maximal ideal
    ((2, 0), (1, 1), (0, 2)),            # its square
    ((2, 0), (0, 2)),                    # parameter ideal
    ((3, 0), (1, 1), (0, 3)),
    ((2, 0), (0, 3)),
    ((3, 0), (0, 3)),
    ((3, 0), (2, 1), (1, 2), (0, 3)),    # the cube of the maximal ideal
    ((4, 0), (3, 1), (1, 3), (0, 4)),    # depth-zero staircase
    ((3, 0), (2, 1), (0, 3)),
    ((4, 0), (2, 2), (0, 4)),
]


def report(num: int, ok: bool, detail: str = ""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="module")
def ctx():
    return RingContext(("x", "y"), PRIME)


@pytest.fixture(scope="module")
def suite(ctx):
    """Shared per-ideal pipeline artifacts for the m-primary suite."""
    out = []
    for exps in M_PRIMARY_EXPS:
        ideal = monomial_ideal(ctx, *exps)
        red = general_minimal_reduction(ideal, seed=0)
        r = red.r
        nmax = r + 2 + 2
        record = fit_hilbert_polynomial(ideal, extend_to=nmax + 3)
        surrogate = residual_height_check(red)
        out.append({"exps": exps, "ideal": ideal, "red": red, "r": r,
                    "nmax": nmax, "record": record, "surrogate": surrogate})
    return out


def test_criterion_1_family_reproduction():
    ok = True
    details = []
    for t in range(5):
        start = time.time()
        text = f"ring char={PRIME} vars=x,y\nmod x^3-x^2*y\nideal x*y^{t}\n" \
            if t else f"ring char={PRIME} vars=x,y\nmod x^3-x^2*y\nideal x\n"
        rep, code = run_command("coeffs", parse_problem(text), Options())
        elapsed = time.time() - start
        j = rep["results"]["j"]
        spread = rep["hypotheses"]["analytic_spread"]
        surrogate = rep["hypotheses"]["residual_surrogate"]["passed"]
        good = (j == [t + 1, 2 - t] and elapsed < 60.0 and spread == 1
                and (not surrogate if t >= 1 else True))
        ok = ok and good
        details.append(f"t={t}: j={j} spread={spread} "
                       f"surrogate={'fail' if not surrogate else 'pass'} "
                       f"{elapsed:.1f}s")
    report(1, ok, "; ".join(details))


def test_criterion_2_classical_coincidence(ctx, suite):
    ok = True
    for item in suite:
        mono = MonomialIdeal(2, list(item["exps"]))
        classical = oracle_hilbert_coefficients(mono)
        fitted = item["record"].coefficients
        if fitted != classical:
            ok = False
            print(f"  mismatch at {item['exps']}: fit={fitted} oracle={classical}")
    report(2, ok, f"{len(suite)} m-primary staircases, fitted = classical")


def test_criterion_3_master_identity(ctx, suite):
    ok = True
    checked = 0
    for item in suite:
        if not item["surrogate"]["passed"]:
            continue
        ev = OmegaEvaluator(item["red"], item["record"])
        rep = master_identity_check(ev, item["nmax"])
        checked += 1
        if not rep["holds"]:
            ok = False
            print(f"  master identity failed for {item['exps']}")
    report(3, ok, f"{checked} ideals with passing surrogate")


def test_criterion_4_route_agreement(ctx, suite):
    ok = True
    for item in suite:
        rec, red = item["record"], item["red"]
        d = rec.dim
        for i in range(1, d + 1):
            if rec.sum_route_coefficient(i) != rec.coefficients[i]:
                ok = False
                print(f"  difference-sum route broke at {item['exps']} i={i}")
        if item["surrogate"]["passed"]:
            ev = OmegaEvaluator(red, rec)
            for i in range(1, d + 1):
                v = j_via_sums(ev, i)
                if v != rec.coefficients[i]:
                    ok = False
                    print(f"  summation route broke at {item['exps']} i={i}: "
                          f"{v} vs {rec.coefficients[i]}")
        jz = j_zero(red)
        if jz != rec.coefficients[0]:
            ok = False
            print(f"  leading-coefficient route broke at {item['exps']}")
    report(4, ok, "fit = difference sums = summation route; j0 = reduction-ring route")


def test_criterion_5_northcott(ctx, suite):
    ok = True
    seen = {}
    for item in suite:
        if not item["surrogate"]["passed"]:
            continue
        rec, red, r = item["record"], item["red"], item["r"]
        j1 = rec.coefficients[1]
        lam, second = northcott_bound(red)
        bound = lam + second
        if not (j1 >= bound >= 0):
            ok = False
            print(f"  bound violated at {item['exps']}: j1={j1} bound={bound}")
        if (j1 == bound) != (r <= 1):
            ok = False
            print(f"  equality/reduction-number mismatch at {item['exps']}")
        seen[item["exps"]] = (j1, bound, r)
    if seen[((2, 0), (1, 1), (0, 2))] != (1, 1, 1):
        ok = False
        print(f"  square of the maximal ideal: {seen[((2, 0), (1, 1), (0, 2))]}")
    for param in (((1, 0), (0, 1)), ((2, 0), (0, 2))):
        if seen[param] != (0, 0, 0):
            ok = False
            print(f"  parameter ideal {param}: {seen[param]}")
    report(5, ok, f"verdicts: {sorted(seen.values())}")


def test_criterion_6_abcd_identity(ctx):
    rng = random.Random(106)
    m = Ideal.maximal(ctx)
    checked = 0
    ok = True
    while checked < 100:
        gens = [tuple(rng.randrange(5) for _ in range(2))
                for _ in range(rng.randrange(1, 4))]
        gens = [g for g in gens if any(g)]
        if not gens:
            continue
        a = monomial_ideal(ctx, *gens)
        b = a * m ** rng.randrange(0, 3)
        c = a * m ** rng.randrange(0, 3)
        d = b.intersect(c) * m ** rng.randrange(0, 3)
        lab = pair_length(a, b)
        lbc = pair_length(b.intersect(c), d)
        lcd = pair_length(c, d)
        labc = pair_length(a, b + c)
        if lab + lbc != lcd + labc:
            ok = False
            print(f"  engine identity failed: {gens}")
        ma, mb, mc, md = (MonomialIdeal.from_ideal(i) for i in (a, b, c, d))
        oracle = (mon_pair_length(ma, mb), mon_pair_length(mb.intersect(mc), md),
                  mon_pair_length(mc, md), mon_pair_length(ma, mb.plus(mc)))
        if oracle != (lab, lbc, lcd, labc):
            ok = False
            print(f"  oracle disagreed with engine: {gens}")
        checked += 1
    report(6, ok, f"{checked} random quadruples, engine and oracle")


def kernel_corrected_fiber_sum(red):
    """Sum over n < r of length(I^(n+1)/J I^n) minus the part meeting
    K = J_{d-1} : I^infinity; the difference quotient embeds into the plain
    fiber quotient, which vanishes from the reduction number r on.  The
    reference against which criterion 7 checks e_1 of the reduction ring."""
    ideal, kernel, j_full = red.ideal, red.kernel(), red.full

    def pairs():
        for n in range(red.r):
            yield 1, fiber_length_term(red, n)
            yield -1, pair_length(kernel.intersect(ideal ** (n + 1)),
                                  kernel.intersect(j_full * (ideal ** n)))

    return signed_sum(pairs())


def test_criterion_7_reduction_ring_sum_and_depth_consistency(ctx, suite):
    ok = True
    failing_seen = 0
    for item in suite:
        red = item["red"]
        lhs = kernel_corrected_fiber_sum(red)
        rhs = e_one_bar(red)
        if INFINITE in (lhs, rhs) or lhs != rhs:
            ok = False
            print(f"  corrected sum mismatch at {item['exps']}: "
                  f"{lhs} vs {rhs}")
        vv = valabrega_valla_check(red, item["nmax"], an_asserted=True)
        if vv["equivalent"] is not True:
            ok = False
            print(f"  condition equivalence broke at {item['exps']}")
        if vv["condition_b"] is False:
            failing_seen += 1
    if failing_seen == 0:
        ok = False
        print("  no engineered failing instance in the suite")
    report(7, ok, f"corrected sums = e1 of the reduction ring; "
                  f"{failing_seen} failing instance(s) present")


def test_criterion_8_engine_oracle_equivalence(ctx):
    rng = random.Random(108)
    ctx3 = RingContext(("x", "y", "z"), PRIME)
    checked = 0
    ok = True
    while checked < 100:
        c = ctx if rng.random() < 0.6 else ctx3
        n = c.nvars
        def rand_ideal():
            gens = [tuple(rng.randrange(7) for _ in range(n))
                    for _ in range(rng.randrange(1, 6))]
            gens = [g for g in gens if any(g)]
            return monomial_ideal(c, *gens) if gens else None
        a, b = rand_ideal(), rand_ideal()
        if a is None or b is None:
            continue
        ma, mb = MonomialIdeal.from_ideal(a), MonomialIdeal.from_ideal(b)
        m = Ideal.maximal(c)
        if MonomialIdeal.from_ideal(a.intersect(b)) != ma.intersect(mb):
            ok = False
            print(f"  intersect mismatch: {ma.gens} {mb.gens}")
        if MonomialIdeal.from_ideal(a.colon(b)) != ma.colon(mb):
            ok = False
            print(f"  colon mismatch: {ma.gens} {mb.gens}")
        if (MonomialIdeal.from_ideal(a.saturate(m))
                != ma.saturate_vars(range(n))):
            ok = False
            print(f"  saturation mismatch: {ma.gens}")
        sub = a * m ** rng.randrange(1, 3)
        if pair_length(a, sub) != mon_pair_length(
                ma, MonomialIdeal.from_ideal(sub)):
            ok = False
            print(f"  pair length mismatch: {ma.gens}")
        checked += 1
    report(8, ok, f"{checked} random monomial instances, four shared operations")
