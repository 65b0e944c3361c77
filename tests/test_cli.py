"""CLI surface: subcommands, exit codes, JSON validity, determinism."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest


import galrep
import galrep.cli as cli
import galrep.counting as counting
from galrep.classify import Verification, _twisted_trace
from galrep.config import Budgets


# a child interpreter imports the galrep these tests import, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(galrep.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestClassifyCommand:
    def test_json_report(self, capsys):
        code, out = run(capsys, "classify", "--p", "5", "--f", "x^5-5", "--n", "1")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["psi"]["label"] == "wild--"
        assert data["conductor"] == {"exponent": 9, "status": "computed"}
        assert data["verification"]["match"] is True

    def test_coefficient_list_input(self, capsys):
        code, out = run(capsys, "classify", "--p", "5", "--f", '["-5","0","0","0","0","1"]', "--n", "1")
        assert code == 0
        assert json.loads(out)["input"]["f"] == ["-5", "0", "0", "0", "0", "1"]

    def test_text_format(self, capsys):
        code, out = run(capsys, "classify", "--p", "5", "--f", "x^5-5", "--n", "1", "--format", "text")
        assert code == 0
        assert "conductor exponent N = 9" in out
        assert "√5" in out

    def test_refused_exit_three(self, capsys):
        code, out = run(capsys, "classify", "--p", "5", "--f", "x^5+x+1", "--n", "1")
        assert code == 3
        data = json.loads(out)
        assert "irreducibility" in data["refused"]["failures"]

    @pytest.mark.parametrize("f,failures", [
        ("[1,1,-2,-2,1,1]", ["squarefree", "irreducibility", "gcd_condition"]),
        ("x^5-11*x^4+41*x^3-61*x^2+30*x", ["irreducibility", "gcd_condition", "single_cluster"]),
    ])
    def test_refused_text_names_each_failure(self, capsys, f, failures):
        code, out = run(capsys, "classify", "--p", "5", "--f", f, "--n", "1", "--format", "text")
        assert code == 3
        with pytest.raises(json.JSONDecodeError):
            json.loads(out)
        assert [line[len("  failed: "):] for line in out.splitlines() if line.startswith("  failed: ")] == failures
        assert ("disc valuation: none" in out) == ("squarefree" in failures)
        code, out = run(capsys, "classify", "--p", "5", "--f", f, "--n", "1", "--format", "json")
        assert code == 3
        assert json.loads(out)["refused"]["failures"] == failures

    def test_text_format_errors_stay_json(self, capsys):
        code, out = run(capsys, "classify", "--p", "5", "--f", "x^4-5", "--n", "1", "--format", "text")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "degree_mismatch"

    def test_bad_polynomial_exit_two(self, capsys):
        code, out = run(capsys, "classify", "--p", "5", "--f", "x^4-5", "--n", "1")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "degree_mismatch"

    def test_huge_exponent_exit_two(self, capsys):
        code, out = run(capsys, "classify", "--p", "5", "--f", "x^99999999999+x^5", "--n", "1")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "degree_mismatch"

    def test_group_bound_checked_before_parsing(self, capsys, monkeypatch):
        # --f holds p + 1 coefficients, so a p above the bound must not reach the parser
        def parse(p, text):
            raise AssertionError("--f parsed before the group bound was compared")

        monkeypatch.setattr(cli, "_parse_poly", parse)
        code, out = run(capsys, "classify", "--p", "17", "--f", "x^17-17", "--n", "1")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "p_beyond_bound"

    def test_text_format_prints_numeric_tags(self, capsys):
        code, out = run(capsys, "classify", "--p", "7", "--f", "x^7-7", "--n", "1", "--format", "text")
        assert code == 0
        assert "chi(Frob) = √-7 (2.645751311i)" in out
        assert "Frobenius eigenvalues: √-7 (2.645751311i) x3, -√-7 (-2.645751311i) x3" in out

    @pytest.mark.parametrize("argv,size", [
        (["verify", "--p", "3", "--n", "100000001"], "3^100000001"),
        (["classify", "--p", "3", "--f", "x^3-3", "--n", "100000001"], "3^50000000"),
        (["classify", "--p", "5", "--f", "x^5-5", "--n", "20001"], "5^10000"),
    ])
    def test_huge_residue_degree_exit_two_quickly(self, capsys, argv, size):
        # the eigenvalues (+-p)^(n//2) must be bounded before any Gauss-sum power is formed
        started = time.perf_counter()
        code, out = run(capsys, *argv)
        assert time.perf_counter() - started < 5
        assert code == 2
        assert re.search(rf"size {re.escape(size)}\b", json.loads(out)["error"]["message"])

    def test_text_format_honours_group_bound(self, capsys):
        code, out = run(capsys, "classify", "--p", "17", "--f", "x^17-17", "--n", "1",
                        "--group-bound", "17", "--format", "text")
        assert code == 0
        assert "trace of psi at the sigma*phi class" in out

    @pytest.mark.parametrize("f", ["x^5-" + "9" * 5000, "x^" + "9" * 5000])
    def test_over_long_number_exit_two(self, capsys, f):
        code, out = run(capsys, "classify", "--p", "5", "--f", f, "--n", "1")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "poly_parse"

    def test_unparsable_exit_two(self, capsys):
        code, out = run(capsys, "classify", "--p", "5", "--f", "x**5-5", "--n", "1")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "poly_parse"

    def test_missing_flag_exit_two(self, capsys):
        code = cli.main(["classify", "--p", "5", "--f", "x^5-5"])
        capsys.readouterr()
        assert code == 2


class TestChartabCommand:
    def test_full_p7_has_19_rows(self, capsys):
        code, out = run(capsys, "chartab", "--p", "7", "--group", "full")
        assert code == 0
        data = json.loads(out)
        assert len(data["rows"]) == 19
        assert len(data["classes"]) == 19
        dims = sorted(r["dimension"] for r in data["rows"])
        assert dims == [1] * 12 + [2] * 3 + [6] * 4

    def test_text_rendering(self, capsys):
        code, out = run(capsys, "chartab", "--p", "3", "--group", "inertia", "--format", "text")
        assert code == 0
        assert "wild-" in out and "tame0" in out

    def test_group_bound(self, capsys):
        code, out = run(capsys, "chartab", "--p", "17")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "p_beyond_bound"


class TestCountCommand:
    def test_curve(self, capsys):
        code, out = run(capsys, "count", "--mode", "curve", "--p", "5", "--m", "2")
        assert code == 0
        data = json.loads(out)
        assert data == {"mode": "curve", "p": 5, "m": 2, "affine": 5, "total": 6, "trace": 20}

    def test_twisted(self, capsys):
        code, out = run(capsys, "count", "--mode", "twisted", "--p", "3", "--n", "3")
        assert code == 0
        data = json.loads(out)
        assert data["affine_solutions"] == 36
        assert data["trace_sigma_frob"] == -9

    def test_twisted_naive(self, capsys):
        code, out = run(capsys, "count", "--mode", "twisted-naive", "--p", "3", "--n", "1")
        assert code == 0
        assert json.loads(out)["affine_solutions"] == 0

    def test_missing_mode_flags(self, capsys):
        code, out = run(capsys, "count", "--mode", "curve", "--p", "5")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "missing_flag"

    def test_budget_override(self, capsys):
        code, out = run(capsys, "count", "--mode", "curve", "--p", "3", "--m", "4", "--enum-budget", "10")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "budget_exceeded"


    @pytest.mark.parametrize("mode,flag,k", [("curve", "--m", "20001"), ("twisted", "--n", "20001"),
                                             ("twisted", "--n", "100000001"), ("twisted-naive", "--n", "100000001")])
    def test_huge_degree_exit_two_quickly(self, capsys, mode, flag, k):
        started = time.perf_counter()
        code, out = run(capsys, "count", "--mode", mode, "--p", "3", flag, k)
        assert time.perf_counter() - started < 5
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "budget_exceeded"
        assert "size 3^" in error["message"]


class TestVerifyCommand:
    def test_single_pair(self, capsys):
        code, out = run(capsys, "verify", "--p", "3", "--n", "1")
        assert code == 0
        data = json.loads(out)
        assert data["all_match"] is True
        assert data["pairs"] == [
            {"p": 3, "n": 1, "status": "ok", "trace_counted": 3, "trace_predicted": 3, "match": True}
        ]

    def test_mismatch_exit_four(self, capsys, monkeypatch):
        broken = Verification(status="mismatch", trace_counted=1, trace_predicted=2, match=False)
        monkeypatch.setattr(cli, "verify_consistency", lambda *a, **k: broken)
        code, out = run(capsys, "verify", "--p", "3", "--n", "1")
        assert code == 4
        assert json.loads(out)["all_match"] is False

    def test_incomplete_pair_flags(self, capsys):
        code, out = run(capsys, "verify", "--p", "3")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "missing_flag"


class TestHonestMismatch:
    @pytest.fixture()
    def tally_off_by_one(self, monkeypatch):
        tally = counting._artin_schreier_tally

        def off_by_one(field, base):
            zero, non_square, square = tally(field, base)
            return [zero, non_square, square + 1]

        monkeypatch.setattr(counting, "_artin_schreier_tally", off_by_one)
        _twisted_trace.cache_clear()
        yield
        _twisted_trace.cache_clear()

    def test_verify_reports_the_mismatch(self, capsys, tally_off_by_one):
        code, out = run(capsys, "verify", "--p", "3", "--n", "1")
        assert code == 4
        assert json.loads(out) == {"all_match": False, "pairs": [
            {"p": 3, "n": 1, "status": "mismatch", "trace_counted": 1, "trace_predicted": 3, "match": False}]}

    def test_classify_prints_the_full_report(self, capsys, tally_off_by_one):
        code, out = run(capsys, "classify", "--p", "5", "--f", "x^5-5", "--n", "1")
        assert code == 4
        data = json.loads(out)
        assert data["psi"]["label"] == "wild--" and data["conductor"]["exponent"] == 9
        assert data["verification"] == {"status": "mismatch", "trace_counted": -7, "trace_predicted": -5,
                                        "match": False}


class TestClosedFormMismatch:
    """When only the closed form disagrees, the text output names it; the
    JSON keeps its schema."""

    @pytest.fixture(autouse=True)
    def closed_form_off_by_one(self, monkeypatch):
        module = sys.modules["galrep.classify"]  # galrep.classify is also the function's name
        closed_form = module._twisted_closed_form
        monkeypatch.setattr(module, "_twisted_closed_form", lambda p, n: closed_form(p, n) + 1)

    def test_verify_text(self, capsys):
        code, out = run(capsys, "verify", "--p", "3", "--n", "1", "--format", "text")
        assert code == 4
        assert out == "(p=3, n=1): counted 3, predicted 3, closed form 4: MISMATCH\nMISMATCH FOUND\n"

    def test_verify_json(self, capsys):
        code, out = run(capsys, "verify", "--p", "3", "--n", "1")
        assert code == 4
        assert json.loads(out)["pairs"] == [
            {"p": 3, "n": 1, "status": "mismatch", "trace_counted": 3, "trace_predicted": 3, "match": False}]

    def test_classify_text(self, capsys):
        code, out = run(capsys, "classify", "--p", "3", "--f", "x^3-3", "--n", "1", "--format", "text")
        assert code == 4
        assert out.splitlines()[-1] == "verification: counted trace 3, predicted 3, closed form 4: MISMATCH"


class TestBudgetFlags:
    BASE = {
        "classify": ["classify", "--p", "5", "--f", "x^5-5", "--n", "1"],
        "chartab": ["chartab", "--p", "5"],
        "count": ["count", "--mode", "curve", "--p", "5", "--m", "1"],
        "verify": ["verify"],
    }

    @pytest.mark.parametrize("command,flag,fields", [
        ("classify", "--coset-budget", {"coset_q"}),
        ("classify", "--group-bound", {"group_p_bound"}),
        ("chartab", "--group-bound", {"group_p_bound"}),
        ("count", "--enum-budget", {"curve_enum", "naive_enum"}),
        ("count", "--coset-budget", {"coset_q"}),
        ("verify", "--coset-budget", {"coset_q"}),
        ("verify", "--group-bound", {"group_p_bound"}),
    ])
    def test_each_flag_overrides_its_fields(self, monkeypatch, command, flag, fields):
        monkeypatch.delenv("GALREP_ENUM_BUDGET", raising=False)
        args = cli.build_parser().parse_args(self.BASE[command] + [flag, "7"])
        budgets, defaults = cli._budgets_from(args), Budgets()
        changed = {name for name in vars(defaults) if getattr(budgets, name) != getattr(defaults, name)}
        assert changed == fields
        assert all(getattr(budgets, name) == 7 for name in fields)

    @pytest.mark.parametrize("command,flag", [
        ("chartab", "--coset-budget"), ("chartab", "--enum-budget"), ("classify", "--enum-budget"),
        ("classify", "--solver-budget"), ("count", "--group-bound"), ("verify", "--enum-budget"),
    ])
    def test_unread_flags_are_refused(self, capsys, command, flag):
        code, out = run(capsys, *self.BASE[command], flag, "5")
        assert code == 2
        assert out == ""

    @pytest.mark.parametrize("command", ["classify", "count"])
    @pytest.mark.parametrize("value", ["abc", "1e6", "12 x"])
    def test_malformed_env_budget_exits_two(self, capsys, monkeypatch, command, value):
        # classify never reads the enumeration caps, but every subcommand builds its budgets
        monkeypatch.setenv("GALREP_ENUM_BUDGET", value)
        code, out = run(capsys, *self.BASE[command])
        assert code == 2
        assert json.loads(out)["error"] == {
            "code": "bad_budget", "message": f"GALREP_ENUM_BUDGET must be an integer, got {value!r}"}


class TestUnexpectedErrors:
    def test_exit_four_with_error_json(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "count_curve", broken)
        code, out = run(capsys, "count", "--mode", "curve", "--p", "5", "--m", "2")
        assert code == 4
        assert json.loads(out)["error"] == {"code": "unexpected_error", "message": "RuntimeError: boom"}


class TestProcess:
    def test_import_leaves_mpmath_out(self):
        # mpmath is needed for the numeric tags of text output only
        code = "import sys, galrep.cli; print('mpmath' in sys.modules)"
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True, env=CHILD_ENV)
        assert result.stdout == "False\n"

    def test_closed_stdout_ends_quietly(self):
        # the table is far larger than a pipe buffer, so the writer meets the closed pipe
        cmd = [sys.executable, "-m", "galrep", "chartab", "--p", "13", "--group", "full"]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=30) == 4
        assert err == b""


    # trial division on a 17-digit prime takes seconds, so each bound must be compared first
    @pytest.mark.parametrize("argv,code", [
        (["count", "--mode", "curve", "--p", "10000000000000061", "--m", "1"], "budget_exceeded"),
        (["count", "--mode", "twisted", "--p", "10000000000000061", "--n", "1"], "budget_exceeded"),
        (["chartab", "--p", "10000000000000061"], "p_beyond_bound"),
        (["verify", "--p", "10000000000000061", "--n", "1"], "p_beyond_bound"),
        (["classify", "--p", "10000019", "--f", "x^10000019-10000019", "--n", "1"], "p_beyond_bound"),
    ])
    def test_huge_p_refused_quickly(self, argv, code):
        started = time.perf_counter()
        result = subprocess.run([sys.executable, "-m", "galrep", *argv], capture_output=True, timeout=60, env=CHILD_ENV)
        assert time.perf_counter() - started < 2
        assert result.returncode == 2
        assert json.loads(result.stdout)["error"]["code"] == code


class TestDeterminism:
    def test_repeated_runs_byte_identical(self, capsys):
        _, first = run(capsys, "classify", "--p", "5", "--f", "x^5-5", "--n", "1")
        _, second = run(capsys, "classify", "--p", "5", "--f", "x^5-5", "--n", "1")
        assert first == second

    def test_separate_processes_byte_identical(self):
        # fresh interpreters have different hash seeds; output must not care
        import subprocess
        import sys

        cmd = [sys.executable, "-m", "galrep", "classify", "--p", "5", "--f", "x^5-5", "--n", "1"]
        first = subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV).stdout
        second = subprocess.run(cmd, capture_output=True, check=True, env=CHILD_ENV).stdout
        assert first == second and first

    def test_chartab_round_trips_through_json(self, capsys):
        _, out = run(capsys, "chartab", "--p", "5", "--group", "full")
        data = json.loads(out)
        assert json.loads(json.dumps(data)) == data
