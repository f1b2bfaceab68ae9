import io
import json
import os
import subprocess
import sys
import warnings

import pytest

import jmult
import jmult.groebner
import jmult.ideals
import jmult.lengths
import jmult.omega
import jmult.runner
from jmult.cli import main
from jmult.ideals import InternalInconsistencyError
from jmult.lengths import INFINITE, ContainmentError
from jmult.omega import combined_verdict
from jmult.parser import Options, parse_problem
from jmult.runner import run_command

M2 = "ring char=32003 vars=x,y\nideal x^2,x*y,y^2\n"
FAMILY = "ring char=32003 vars=x,y\nmod x^3-x^2*y\nideal x*y\n"


def run_cli(capsys, monkeypatch, cmd, text, *extra):
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main([cmd, "-", *extra])
    out = capsys.readouterr().out
    return code, out


def test_coeffs_json_schema(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "coeffs", M2)
    rep = json.loads(out)
    assert list(rep.keys()) == ["input", "seed", "char", "hypotheses",
                                "results", "diagnostics"]
    assert rep["char"] == 32003
    assert rep["results"]["j"] == [4, 1, 0]
    assert rep["results"]["routes"]["fit"] == [4, 1, 0]
    assert rep["diagnostics"] == []
    assert code == 0


def test_family_coeffs_exit_code_and_flags(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "coeffs", FAMILY)
    rep = json.loads(out)
    assert rep["results"]["j"] == [2, 1]
    assert rep["hypotheses"]["residual_surrogate"]["passed"] is False
    assert rep["hypotheses"]["analytic_spread"] == 1
    assert code == 3


def test_parse_error_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO("ideal x\n"))
    code = main(["coeffs", "-"])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err


@pytest.mark.parametrize("text, where", [
    ("ring char=32003 vars=x,y\nideal x^\u00b2\n", "line 2, col 9"),
    ("ring char=32003 vars=x,y\nideal \u00b2*x\n", "line 2, col 7"),
    ("ring char=\u00b3 vars=x,y\nideal x,y\n", "line 1, col 11"),
])
def test_unicode_digit_is_parse_error(capsys, monkeypatch, text, where):
    """A superscript digit is a digit to str.isdigit but not to int(), so it
    must be rejected as an unexpected character, not parsed as a number."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    code = main(["coeffs", "-"])
    err = capsys.readouterr().err
    assert code == 2
    assert where in err
    assert "Traceback" not in err


def test_maximal_ideal_basis_computed_once(capsys, monkeypatch):
    """m is one shared object per ring, so a run computes its basis once
    however many lengths and displays saturate by it."""
    real = jmult.ideals.groebner_basis
    m_bases = []

    def counting(ctx, polys, *args, **kwargs):
        if sorted(str(f) for f in polys) == ["x", "y"]:
            m_bases.append(ctx)
        return real(ctx, polys, *args, **kwargs)

    monkeypatch.setattr(jmult.ideals, "groebner_basis", counting)
    code, _ = run_cli(capsys, monkeypatch, "coeffs", M2)
    assert code == 0
    assert len(m_bases) == 1


def test_each_generator_set_has_one_basis(capsys, monkeypatch):
    """Generator lists that differ only in order share one basis, so a run
    computes one Groebner basis per distinct generator set."""
    sets = []
    for module in (jmult.ideals, jmult.lengths):
        def counting(ctx, polys, *args, _real=module.groebner_basis,
                     **kwargs):
            sets.append((ctx._sig, tuple(sorted(f.canonical()
                                                for f in polys))))
            return _real(ctx, polys, *args, **kwargs)

        monkeypatch.setattr(module, "groebner_basis", counting)
    code, _ = run_cli(capsys, monkeypatch, "coeffs", M2)
    assert code == 0
    assert len(sets) == len(set(sets))


def test_reduction_command(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "reduction",
                        "ring char=32003 vars=x,y\nideal x,y\n")
    rep = json.loads(out)
    assert rep["results"]["r"] == 0
    assert code == 0


def test_determinism_byte_identical(capsys, monkeypatch):
    _, out1 = run_cli(capsys, monkeypatch, "coeffs", M2, "--seed", "5")
    _, out2 = run_cli(capsys, monkeypatch, "coeffs", M2, "--seed", "5")
    assert out1 == out2
    _, out3 = run_cli(capsys, monkeypatch, "coeffs", M2, "--seed", "6")
    assert json.loads(out3)["results"]["j"] == [4, 1, 0]


@pytest.mark.parametrize("text", [
    "ring char=32003 vars=x,y\nmod x^3-x^2*y\nideal x*y^2\n",
    "ring char=32003 vars=x,y,z\nideal x*y,x*z,y*z\n",
], ids=["family-xy2", "xy-xz-yz"])
def test_report_bytes_do_not_depend_on_the_hash_seed(text):
    """Memo keys hold ideals, whose hashes vary with the string hash seed
    through the variable names; the report must not.  Each run is a fresh
    interpreter, since the seed is fixed at start-up."""
    src = os.path.dirname(os.path.dirname(jmult.__file__))
    runs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-m", "jmult.cli", "coeffs", "-"],
                              input=text, capture_output=True, text=True,
                              env=env, timeout=120)
        assert "results" in json.loads(proc.stdout)
        runs.append((proc.returncode, proc.stdout))
    assert runs[0] == runs[1]


def test_table_format(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "hilbert", M2,
                        "--format", "table")
    assert "values" in out and ":" in out
    assert code == 0
    # aligned key column
    lines = [l for l in out.splitlines() if l.strip().startswith("seed")]
    assert lines


def test_oracle_command(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "oracle", M2)
    rep = json.loads(out)
    assert rep["results"]["classical_coefficients"] == [4, 1, 0]
    assert rep["results"]["colength"] == 3
    assert code == 0
    code, out = run_cli(capsys, monkeypatch, "oracle",
                        "ring char=32003 vars=x,y\nideal x+y^2\n")
    assert code == 2
    code, out = run_cli(capsys, monkeypatch, "oracle",
                        "ring char=32003 vars=x,y\nideal x^2,x*y\n")
    rep = json.loads(out)
    assert rep["results"]["colength"] == INFINITE
    assert rep["results"]["classical_coefficients"] == "not-applicable (not m-primary)"
    assert code == 0


def test_oracle_refuses_quotient_ring(capsys, monkeypatch):
    """The oracle reads generators in a free ring, so a quotient ring is an
    input error rather than a report of free-ring values."""
    code, out = run_cli(capsys, monkeypatch, "oracle",
                        "ring char=32003 vars=x,y\nmod x^2,y^2\nideal x\n")
    assert "error" in json.loads(out)["results"]
    assert code == 2


def test_large_characteristic_is_input_error(capsys, monkeypatch):
    """A characteristic of 2^31 or more, from the ring line or from --char,
    exits 2 with a message at the char token."""
    big = "ring char=2147483659 vars=x,y\nideal x,y\n"
    for text, extra in ((big, ()), (M2, ("--char", "2147483659"))):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))
        code = main(["reduction", "-", *extra])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 1, col 11" in err and "2147483659" in err


def test_oracle_flag_cross_check(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "coeffs", M2, "--oracle")
    rep = json.loads(out)
    assert rep["results"]["oracle"]["agrees"] is True
    assert code == 0
    code, out = run_cli(capsys, monkeypatch, "coeffs",
                        "ring char=32003 vars=x,y\nideal x^2+y^3,y^2\n", "--oracle")
    rep = json.loads(out)
    assert rep["results"]["oracle"] == (
        "not-applicable (oracle only handles monomial ideals)")
    assert code == 0


def test_seed_flag_controls_elements(capsys, monkeypatch):
    _, out1 = run_cli(capsys, monkeypatch, "reduction", M2, "--seed", "1")
    _, out2 = run_cli(capsys, monkeypatch, "reduction", M2, "--seed", "2")
    e1 = json.loads(out1)["results"]["elements"]
    e2 = json.loads(out2)["results"]["elements"]
    assert e1 != e2


def test_file_input(tmp_path, capsys):
    f = tmp_path / "prob.txt"
    f.write_text(M2)
    code = main(["jmult", str(f)])
    out = capsys.readouterr().out
    rep = json.loads(out)
    assert rep["results"]["j0"] == 4
    assert code == 0


def test_missing_file(capsys):
    code = main(["coeffs", "/nonexistent/file.txt"])
    assert code == 2


def test_undecodable_file_is_input_error(tmp_path, capsys):
    f = tmp_path / "prob.txt"
    f.write_bytes(b"ring char=32003 vars=x,y\nideal x\xff\n")
    code = main(["hilbert", str(f)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert "Traceback" not in captured.err


def test_undecodable_stdin_is_input_error(capsys, monkeypatch):
    class Undecodable:
        def read(self):
            raise UnicodeDecodeError("utf-8", b"\xff", 0, 1,
                                     "invalid start byte")

    monkeypatch.setattr(sys, "stdin", Undecodable())
    code = main(["hilbert", "-"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.parametrize("cmd,flags", [
    ("hilbert", ["--window", "0"]),
    ("hilbert", ["--window", "3"]),   # d + 2 = 4 for k[x,y]
    ("coeffs", ["--nmax", "-3"]),
    ("hilbert", ["--nmax", "38"]),    # H up to n = 38 + d + 1 = 41 > 40
])
def test_out_of_range_flag_is_input_error(capsys, monkeypatch, cmd, flags):
    monkeypatch.setattr(sys, "stdin", io.StringIO(M2))
    code = main([cmd, "-", *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert flags[0] in captured.err


@pytest.mark.parametrize("opts,word", [
    ({"window": 1}, "--window"),
    ({"nmax": -1}, "--nmax"),
], ids=["window-1", "nmax-minus-1"])
def test_library_out_of_range_option_is_input_error(opts, word):
    """A library caller gets the CLI's range check: exit 2 with the reason
    as the whole result, not an internal inconsistency or empty rows."""
    report, code = run_command("coeffs", parse_problem(M2), Options(**opts))
    assert code == 2
    assert list(report["results"]) == ["error"]
    assert word in report["results"]["error"]
    assert report["hypotheses"] is None
    assert report["diagnostics"] == [report["results"]["error"]]
    assert not any("internal inconsistency" in d
                   for d in report["diagnostics"])


def test_in_range_nmax_sets_the_rows(capsys, monkeypatch):
    """An in-range --nmax passes the flag check and sets how many omega and
    master-identity rows the report prints."""
    code, out = run_cli(capsys, monkeypatch, "coeffs", M2, "--nmax", "1")
    results = json.loads(out)["results"]
    assert [row["n"] for row in results["omega"]] == [0, 1]
    assert [row["n"] for row in results["master_identity"]["rows"]] == [0, 1]
    assert results["master_identity"]["holds"] is True
    assert code == 0


def test_in_range_window_is_used_by_the_fit(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "hilbert", M2, "--window", "5")
    results = json.loads(out)["results"]
    assert results["j"] == [4, 1, 0]
    assert results["window"] == [0, 8]
    assert code == 0


def test_fit_failure_is_reported_in_the_json(capsys, monkeypatch):
    """A window too large for the Hilbert table is a fit failure inside the
    report: exit 4 with the message as the result, never a traceback, and
    the hypotheses section is still reported."""
    monkeypatch.setattr(sys, "stdin", io.StringIO(M2))
    code = main(["hilbert", "-", "--window", "38"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    message = "no polynomial window of size 38 found up to n = 40"
    assert rep["results"] == {"error": message}
    assert isinstance(rep["hypotheses"], dict)
    assert message in rep["diagnostics"]
    assert "Traceback" not in captured.err
    assert code == 4


def test_a_failed_shared_piece_is_computed_once(capsys, monkeypatch):
    """The results and the hypotheses both read the analytic spread; when
    it hits a cap, both sections report the error and it was computed
    once."""
    calls = []

    def capped(ideal):
        calls.append(ideal)
        raise jmult.groebner.ComputationLimitError("stand-in pair cap")

    monkeypatch.setattr(jmult.runner, "analytic_spread", capped)
    code, out = run_cli(capsys, monkeypatch, "hilbert", M2)
    rep = json.loads(out)
    assert rep["results"] == {"error": "stand-in pair cap"}
    assert rep["hypotheses"] == {"error": "stand-in pair cap"}
    assert rep["diagnostics"] == ["stand-in pair cap"]
    assert len(calls) == 1
    assert code == 4


def test_assert_flags_echoed(capsys, monkeypatch):
    code, out = run_cli(capsys, monkeypatch, "depthcheck", M2, "--assert-an")
    rep = json.loads(out)
    assert rep["hypotheses"]["flags"]["an_asserted"] is True
    assert "holds" in rep["results"]["depth_verdict"]


def test_northcott_hypotheses_effective_agree(capsys, monkeypatch):
    """Asserted hypotheses do not make up for an analytic spread below the
    dimension: the envelope and the Northcott report say so alike."""
    code, out = run_cli(capsys, monkeypatch, "northcott",
                        "ring char=32003 vars=x,y\nideal x\n",
                        "--assert-gd", "--assert-an")
    rep = json.loads(out)
    assert rep["hypotheses"]["spread_equals_dim"] is False
    assert rep["hypotheses"]["effective"] is False
    assert rep["results"]["hypotheses_effective"] is False


@pytest.mark.parametrize("cmd", ["coeffs", "northcott"])
def test_unit_residual_ideal_warns_nothing(capsys, monkeypatch, cmd):
    """For I = (x) in k[x,y] the residual ideal J_1 : I is the unit ideal,
    whose codimension the surrogate takes by the dim R + 1 convention on
    purpose: no warning is raised and nothing reaches stderr."""
    monkeypatch.setattr(sys, "stdin",
                        io.StringIO("ring char=32003 vars=x,y\nideal x\n"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([cmd, "-"])
    captured = capsys.readouterr()
    assert [str(w.message) for w in caught] == []
    assert captured.err == ""
    assert json.loads(captured.out)["hypotheses"]["spread_equals_dim"] is False
    assert code == 3


@pytest.mark.parametrize("gens", ["x,y", "x*y-x,y^2-y"])
def test_m_primary_is_local(capsys, monkeypatch, gens):
    """(xy - x, y^2 - y) is (x, y) at the origin, plus a component at
    (0, 1) that the local ring does not see: both are m-primary, and the
    hypotheses and the Northcott implication say so alike."""
    code, out = run_cli(capsys, monkeypatch, "coeffs",
                        f"ring char=32003 vars=x,y\nideal {gens}\n")
    rep = json.loads(out)
    assert rep["hypotheses"]["m_primary"] is True
    assert rep["hypotheses"]["effective"] is True
    assert rep["results"]["northcott"]["m_primary_implication"] is True
    assert code == 0


def test_spread_below_dimension_is_noted_once(capsys, monkeypatch):
    """An analytic spread below d is one fact, noted once with its numbers;
    it still exits 3."""
    code, out = run_cli(capsys, monkeypatch, "coeffs",
                        "ring char=32003 vars=x,y\nideal x*y\n")
    rep = json.loads(out)
    assert rep["hypotheses"]["spread_equals_dim"] is False
    assert rep["diagnostics"] == ["analytic spread 1 is below the ring "
                                  "dimension 2; reduction-based routes are "
                                  "unavailable"]
    assert code == 3


DEGRADED = "infinite"


def test_sums_degradation_is_not_applicable(capsys, monkeypatch):
    """Under passing hypotheses a non-finite summation entry is a named term
    degradation (exit 4, noted once), not a disagreement (exit 5)."""
    monkeypatch.setattr(jmult.runner, "j_via_sums", lambda ev, i: INFINITE)
    code, out = run_cli(capsys, monkeypatch, "coeffs", M2)
    rep = json.loads(out)
    assert rep["results"]["j"] == [4, 1, 0]
    assert rep["results"]["routes"]["sums"] == [DEGRADED, DEGRADED]
    assert rep["results"]["agreement"]["fit_vs_sums"] is None
    assert rep["diagnostics"] == [f"not-applicable: {DEGRADED}"]
    assert code == 4


def test_northcott_finite_mismatch_is_cross_check(capsys, monkeypatch):
    """A finite summation j_1 that differs from the fit is a cross-check
    violation (exit 5); the fitted value is kept and the report says so."""
    monkeypatch.setattr(jmult.runner, "j_via_sums",
                        lambda ev, i: 99)
    code, out = run_cli(capsys, monkeypatch, "northcott", M2)
    rep = json.loads(out)
    assert rep["results"]["j1"] == 1
    assert rep["diagnostics"] == ["summation route for the first coefficient "
                                  "disagrees with the fit"]
    assert ("route disagreement: fitted value kept, see diagnostics"
            in rep["results"]["notes"])
    assert code == 5


def test_northcott_infinite_sum_is_not_applicable(capsys, monkeypatch):
    """An infinite summation j_1 leaves the cross-check undecided: exit 4,
    noted once, as in ``coeffs``."""
    monkeypatch.setattr(jmult.runner, "j_via_sums",
                        lambda ev, i: INFINITE)
    code, out = run_cli(capsys, monkeypatch, "northcott", M2)
    rep = json.loads(out)
    assert rep["results"]["j1"] == 1
    assert rep["diagnostics"] == [f"not-applicable: {DEGRADED}"]
    assert not any(n.startswith("route disagreement")
                   for n in rep["results"]["notes"])
    assert code == 4


def test_sums_finite_mismatch_is_cross_check(capsys, monkeypatch):
    monkeypatch.setattr(jmult.runner, "j_via_sums",
                        lambda ev, i: 99)
    code, out = run_cli(capsys, monkeypatch, "coeffs", M2)
    rep = json.loads(out)
    assert rep["results"]["agreement"]["fit_vs_sums"] is False
    assert ("summation route disagrees with the fitted coefficients under "
            "passing hypotheses") in rep["diagnostics"]
    assert code == 5


@pytest.mark.parametrize("degraded, want", [(True, 4), (False, 5)])
def test_master_identity_row_exit_code(capsys, monkeypatch, degraded, want):
    """A master-identity row with a non-finite side is a degradation; a
    finite row that fails is a cross-check violation."""
    real = jmult.runner.master_identity_check

    def one_bad_row(ev, nmax):
        rep = real(ev, nmax)
        row = rep["rows"][1]
        if degraded:
            row.update(lhs=DEGRADED, holds=None)
        else:
            row.update(lhs=row["rhs"] + 1, holds=False)
        rep["holds"] = combined_verdict(r["holds"] for r in rep["rows"])
        return rep

    monkeypatch.setattr(jmult.runner, "master_identity_check", one_bad_row)
    code, out = run_cli(capsys, monkeypatch, "omega", M2)
    rep = json.loads(out)
    diagnostics = rep["diagnostics"]
    # a non-finite row leaves the identity undecided, a failing one false
    assert rep["results"]["master_identity"]["holds"] is (None if degraded
                                                          else False)
    if degraded:
        assert diagnostics == [f"not-applicable: {DEGRADED}"]
    else:
        assert diagnostics == ["master identity failed under passing "
                               "hypotheses"]
    assert code == want


def test_internal_inconsistency_exits_5(capsys, monkeypatch):
    """An internal bug is reported with exit 5, never as a traceback."""
    def broken(red):
        raise InternalInconsistencyError("inexact division in colon computation")

    monkeypatch.setattr(jmult.runner, "j_zero", broken)
    code, out = run_cli(capsys, monkeypatch, "coeffs", M2)
    rep = json.loads(out)
    assert rep["results"] == {"error": "inexact division in colon computation"}
    assert rep["diagnostics"] == ["internal inconsistency: inexact division "
                                  "in colon computation"]
    assert code == 5


@pytest.mark.parametrize("error", [ArithmeticError, ZeroDivisionError,
                                   LookupError, KeyError, IndexError,
                                   RuntimeError, TypeError, ValueError])
def test_stray_exception_exits_5(capsys, monkeypatch, error):
    """An exception that no route handles is a bug, reported in the JSON
    with exit 5, never as a traceback."""
    def broken(red):
        raise error("stand-in stray error")

    monkeypatch.setattr(jmult.runner, "j_zero", broken)
    monkeypatch.setattr(sys, "stdin", io.StringIO(M2))
    code = main(["coeffs", "-"])
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    message = str(error("stand-in stray error"))
    assert rep["results"] == {"error": message}
    assert rep["diagnostics"] == [f"internal inconsistency: {message}"]
    assert captured.err == ""
    assert code == 5


def test_exception_outside_the_bug_classes_propagates(capsys, monkeypatch):
    """Only the built-in classes a bug raises are reported: any other
    exception, such as a caller's timeout, leaves ``main``."""
    class Interrupt(Exception):
        pass

    def interrupted(red):
        raise Interrupt()

    monkeypatch.setattr(jmult.runner, "j_zero", interrupted)
    with pytest.raises(Interrupt):
        run_cli(capsys, monkeypatch, "coeffs", M2)


def test_cap_m_flag_is_rejected(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(M2))
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "-", "--cap-m", "30"])
    assert exc.value.code == 2
    assert "--cap-m" in capsys.readouterr().err


def test_omega_colon_flag_is_rejected(capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdin", io.StringIO(M2))
    with pytest.raises(SystemExit) as exc:
        main(["coeffs", "-", "--omega-colon", "x1"])
    assert exc.value.code == 2
    assert "--omega-colon" in capsys.readouterr().err


def test_containment_failure_exits_5(capsys, monkeypatch):
    """Every correction-term display is contained by construction, so a
    containment failure is an internal bug: exit 5, never a degraded term."""
    def broken(a, b):
        raise ContainmentError("stand-in containment failure")

    monkeypatch.setattr(jmult.omega, "pair_length", broken)
    code, out = run_cli(capsys, monkeypatch, "coeffs", M2)
    rep = json.loads(out)
    assert rep["results"] == {"error": "stand-in containment failure"}
    assert rep["diagnostics"] == ["internal inconsistency: stand-in "
                                  "containment failure"]
    assert code == 5


@pytest.mark.parametrize("cmd", ["hilbert", "coeffs", "jmult", "reduction",
                                 "depthcheck", "omega", "northcott"])
def test_zero_dimensional_ring_is_input_error(capsys, monkeypatch, cmd):
    code, out = run_cli(capsys, monkeypatch, cmd,
                        "ring char=32003 vars=x,y\nmod x^2,y^2\nideal x\n")
    rep = json.loads(out)
    msg = "the working ring must have positive dimension"
    assert rep["hypotheses"] is None
    assert rep["results"] == {"error": msg}
    assert rep["diagnostics"] == [msg]
    assert code == 2


@pytest.mark.parametrize("text, msg", [
    ("ring char=32003 vars=x,y\nideal 2*x,y-1\n",
     "a generator has a nonzero constant term, so the ideal is the unit ideal "
     "at the origin"),
    ("ring char=32003 vars=x,y\nmod x-1\nideal y\n",
     "a relation has a nonzero constant term, so the local ring at the origin "
     "is zero"),
    ("ring char=32003 vars=x,y\nideal 0\n", "the ideal must be nonzero"),
    ("ring char=32003 vars=x,y\nmod x\nideal x\n", "the ideal must be nonzero"),
], ids=["unit-at-origin", "zero-local-ring", "zero-ideal", "zero-mod-relations"])
def test_outside_maximal_ideal_is_input_error(capsys, monkeypatch, text, msg):
    """Properness is local: an ideal that is the unit ideal at the origin,
    or a relation that makes the local ring zero, is an input error even
    when the ideal is proper in the polynomial ring.  So is an ideal that is
    zero, as written or modulo the relations."""
    code, out = run_cli(capsys, monkeypatch, "coeffs", text)
    rep = json.loads(out)
    assert rep["hypotheses"] is None
    assert rep["results"] == {"error": msg}
    assert rep["diagnostics"] == [msg]
    assert code == 2


def test_flags_before_problem_file(tmp_path, capsys):
    f = tmp_path / "prob.txt"
    f.write_text(M2)
    code = main(["hilbert", "--assert-gd", str(f), "--format", "json"])
    rep = json.loads(capsys.readouterr().out)
    assert rep["results"]["j"] == [4, 1, 0]
    assert rep["hypotheses"]["flags"]["gd_asserted"] is True
    assert code == 0


@pytest.mark.parametrize("cmd, path", [("jmult", ("agrees",)),
                                       ("coeffs", ("agreement", "j0_vs_jzero"))])
def test_infinite_jzero_is_not_applicable(capsys, monkeypatch, cmd, path):
    """An infinite reduction-ring multiplicity leaves the comparison with the
    fitted j_0 undecided in both commands: exit 4, noted once."""
    monkeypatch.setattr(jmult.runner, "j_zero",
                        lambda red: INFINITE)
    code, out = run_cli(capsys, monkeypatch, cmd, M2)
    rep = json.loads(out)
    value = rep["results"]
    for key in path:
        value = value[key]
    assert value is None
    assert rep["diagnostics"] == ["reduction-ring multiplicity did not come "
                                  "out finite despite matching analytic spread"]
    assert code == 4


def test_northcott_dimension_one_without_reduction(capsys, monkeypatch):
    """With no reduction number the fiber sum has no bound, so the d = 1
    decomposition does not report it as 0."""
    code, out = run_cli(capsys, monkeypatch, "northcott",
                        "ring char=32003 vars=x,y\nmod y^2\nideal y\n")
    rep = json.loads(out)
    assert rep["results"]["reduction_number"] is None
    assert rep["results"]["decomposition"]["fiber_length_sum"] == \
        "not-applicable (no general minimal reduction)"
    assert code == 3
