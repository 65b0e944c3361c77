"""CLI surface: subcommands, exit codes, JSON validity, determinism."""

import json
import math
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coeff_prefix, cyclotomic_text, polynomial_text, power, ten_digits_by_search


import galrep
import galrep.cli as cli
import galrep.counting as counting
import galrep.groups as groups
from galrep.arith import signed_p
from galrep.classify import Verification, _twisted_trace
from galrep.config import Budgets
from galrep.cyclotomic import Cyclotomic
from galrep.padic import InputPolynomial


# a child interpreter imports the galrep these tests import, installed or not
CHILD_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(
    filter(None, [str(Path(galrep.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]))}


def fraction(x):
    """The exact value of an mpmath real."""
    man, exp = x.man_exp
    return Fraction(man) * Fraction(2) ** exp


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

    @pytest.mark.parametrize("entry", ["null", "{}", "[1]", "1e400", "-0.3", "true", "9" * 5000])
    def test_inexact_coefficient_entry_exit_two(self, capsys, entry):
        # only ints and rational strings are exact: a float, a bool or a container is refused,
        # and so is an int past the digit limit
        code, out = run(capsys, "classify", "--p", "3", "--n", "1", "--f", f"[{entry},0,0,1]")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "poly_parse"

    @pytest.mark.parametrize("entry", ['"-3e5000"', '"1e10000000"', '"1.5"', '"1/0"', '" 1"', '"+1"', '"1_0"',
                                       '"' + "9" * 5000 + '"'])
    def test_non_rational_string_exit_two_at_once(self, capsys, entry):
        # a coefficient string is [-]digits[/digits], read under the digit cap:
        # an exponent would otherwise expand to millions of digits
        started = time.perf_counter()
        code, out = run(capsys, "classify", "--p", "3", "--n", "1", "--f", f"[{entry},0,0,1]")
        assert time.perf_counter() - started < 0.5
        assert code == 2
        assert json.loads(out)["error"]["code"] == "poly_parse"

    def test_rational_string_coefficient_accepted(self, capsys):
        code, out = run(capsys, "classify", "--p", "5", "--n", "1", "--f", '["-7/3",0,0,0,0,1]')
        assert code == 0
        assert json.loads(out)["input"]["f"] == ["-7/3", "0", "0", "0", "0", "1"]

    def test_missing_flag_exit_two(self, capsys):
        code = cli.main(["classify", "--p", "5", "--f", "x^5-5"])
        capsys.readouterr()
        assert code == 2


class TestClassifyBuildsNoTable:
    """classify, its text rendering and verify read psi's one induced row and
    the class list; only chartab builds a character table."""

    ARGVS = [*(["classify", "--p", "5", "--f", "x^5-5", "--n", n, "--format", fmt]
               for n in ("1", "2") for fmt in ("json", "text")),
             ["verify"], ["verify", "--format", "text"]]

    def test_same_output_with_character_table_refused(self, capsys, monkeypatch):
        expected = [run(capsys, *argv) for argv in self.ARGVS]
        assert [code for code, _ in expected] == [0] * len(self.ARGVS)

        def refuse(*_):
            raise AssertionError("character_table on the classify path")

        for module in (groups, galrep):
            monkeypatch.setattr(module, "character_table", refuse)
        groups.identify_psi.cache_clear()  # so psi is built anew, with the table refused
        assert [run(capsys, *argv) for argv in self.ARGVS] == expected


# small and large coefficients, units of both signs and many zeros
COEFFICIENTS = st.one_of(st.sampled_from([0, 0, 0, 1, -1]), st.integers(-10**6, 10**6))


@st.composite
def written_polynomials(draw):
    """Monic f with zero, unit, integral and Fraction coefficients, the
    constant term zero about one time in three; denominators are prime to p."""
    p = draw(st.sampled_from([3, 5, 7]))
    rationals = st.builds(Fraction, st.integers(-50, 50), st.sampled_from([2, 4, 11, 13]))
    coeffs = draw(st.lists(st.one_of(COEFFICIENTS, rationals), min_size=p, max_size=p))
    if draw(st.integers(0, 2)) == 0:
        coeffs[0] = 0
    return InputPolynomial.from_coefficients(p, coeffs + [1])


class TestTextWriter:
    """The CLI's one writer of sums of terms writes what the records'
    renderers wrote: the input line, cyclotomic values and r*√±p."""

    @settings(max_examples=200, deadline=None)
    @given(f=written_polynomials())
    def test_input_line_as_the_polynomial_wrote_it(self, f):
        assert cli._input_line(f, 3) == f"p = {f.p}, f = {polynomial_text(f)}, residue degree n = 3 (odd)"

    @settings(max_examples=200, deadline=None)
    @given(m=st.sampled_from([3, 4, 5, 8, 12, 13, 24]), data=st.data())
    def test_value_as_the_cyclotomic_wrote_it(self, m, data):
        d = len(Cyclotomic.zero(m).coeffs)
        value = Cyclotomic(m, tuple(data.draw(st.lists(COEFFICIENTS, min_size=d, max_size=d))))
        text = cyclotomic_text(value)
        assert cli.render_value(value) == (text if value.is_rational() else f"{text} ({cli._approx(value)})")

    @settings(max_examples=100, deadline=None)
    @given(p=st.sampled_from([3, 5, 7, 11, 13]), data=st.data())
    def test_gauss_multiple_as_the_prefix_wrote_it(self, p, data):
        r = data.draw(st.one_of(st.sampled_from([1, -1, p, -p]), st.integers(-10**6, 10**6).filter(bool)))
        value = groups.gauss_sum(p) * r
        assert cli.render_value(value, p) == f"{coeff_prefix(r)}√{signed_p(p)} ({cli._approx(value)})"


class TestTextApproximations:
    """The numeric tags of r*sqrt(+-p) for large r: a real value prints no
    imaginary part and an imaginary one no real part, nothing overflows, and
    the ten digits are those of the exact square root."""

    TAG = re.compile(r"(-?\d*)\*?√(-?\d+) \(([^()]*)\)")
    NUMBER = r"-?\d+(?:\.\d+)?(?:e[+-]\d+)?"

    @pytest.mark.parametrize("n", [41, 81, 201, 1001])
    @pytest.mark.parametrize("p", [3, 5, 7])
    def test_tags_of_sqrt_multiples(self, capsys, p, n):
        code, out = run(capsys, "classify", "--p", str(p), "--f", f"x^{p}-{p}", "--n", str(n), "--format", "text")
        assert code == 0
        assert "inf" not in out and "nan" not in out
        tags = self.TAG.findall(out)
        assert len(tags) == 4  # chi(Frob), the trace of psi at s*f, and the two eigenvalues
        for prefix, radicand, tag in tags:
            r = {"": 1, "-": -1}[prefix] if prefix in ("", "-") else int(prefix)
            assert int(radicand) == signed_p(p)
            assert re.fullmatch(self.NUMBER + ("" if signed_p(p) > 0 else "i"), tag), tag
            assert tag.startswith("-") == (r < 0)
            half = max(0, 12 - len(str(abs(r))))  # floor(|r| sqrt(p) 10^half) has 12 digits or more
            digits = str(math.isqrt(r * r * p * 10 ** (2 * half)))
            rounded = (int(digits[:11]) + 5) // 10  # sqrt(p) is irrational: no tie
            exponent = len(digits) - 1 - half
            if rounded == 10**10:
                rounded, exponent = 10**9, exponent + 1
            assert abs(Decimal(tag.rstrip("i"))) == Decimal(rounded).scaleb(exponent - 9), tag

    def test_both_parts_of_a_large_value(self):
        value = Cyclotomic.root_of_unity(8, 1) * 10**400  # 10^400 (1 + i) / sqrt(2)
        assert cli._approx(value) == "7.071067812e+399+7.071067812e+399i"
        assert cli._approx(-value.conjugate()) == "-7.071067812e+399+7.071067812e+399i"

    @pytest.mark.parametrize("k", [40, 60, 80])
    def test_digits_of_a_small_value_with_large_coefficients(self, k):
        # (zeta_5 + zeta_5^4)^k = ((sqrt(5) - 1)/2)^k is about 2^(-0.69 k), its coefficients about
        # 2^(0.69 k): a sum carried to 2^-70 keeps only 70 - 0.69 k bits of it, too few at k = 60
        value = power(Cyclotomic.from_terms(5, {1: 1, 4: 1}), k)
        assert max(value.coeffs) > 10 ** (k // 5)
        with mpmath.workdps(60):
            assert cli._approx(value) == cli._ten_digits(*fraction(((mpmath.sqrt(5) - 1) / 2) ** k).as_integer_ratio())

    def test_a_tiny_nonzero_part_is_printed(self):
        # 1 + i ((sqrt(5) - 1)/2)^60 in Z[zeta_20]: the imaginary part is about 2.9e-13
        value = Cyclotomic.rational(20, 1) + Cyclotomic.root_of_unity(20, 5) * power(
            Cyclotomic.from_terms(20, {4: 1, 16: 1}), 60)
        assert re.fullmatch(r"1\+2\.\d+e-13i", cli._approx(value))

    @given(st.floats(allow_nan=False, allow_infinity=False).filter(bool))
    def test_ten_digits_agree_with_float_formatting(self, x):
        assert cli._ten_digits(*x.as_integer_ratio()) == format(x, ".10g")

    # random rationals, exact ties of the tenth digit (ten digits and a half,
    # or the last of 10^10 - 1 and a half, which carries), and exponents past +-400
    @given(st.one_of(
        st.builds(Fraction, st.integers(-10**30, 10**30).filter(bool), st.integers(1, 10**30)),
        st.builds(lambda d, e: Fraction(2 * d + 1, 2) * Fraction(10) ** e,
                  st.one_of(st.integers(10**9, 10**10 - 1), st.just(10**10 - 1)), st.integers(-460, 460)),
        st.builds(lambda n, d, e: Fraction(n, d) * Fraction(10) ** e, st.integers(-10**12, 10**12).filter(bool),
                  st.integers(1, 10**12), st.sampled_from([-1000, -401, -400, -5, -4, 9, 10, 400, 401, 1000]))))
    def test_ten_digits_agree_with_the_exponent_search(self, q):
        assert cli._ten_digits(q.numerator, q.denominator) == ten_digits_by_search(q)

    @pytest.mark.parametrize("k", [200, 400])
    def test_a_near_tie_is_rounded_from_the_exact_value(self, k):
        # 12345678915 -+ eps, eps = ((sqrt(5) - 1)/2)^k about 10^-42 or 10^-84, with coefficients
        # about 10^42 or 10^84: the value sits just below or above a tie of the tenth digit
        eps = power(Cyclotomic.from_terms(20, {4: 1, 16: 1}), k)
        tie = Cyclotomic.rational(20, 12345678915)
        assert cli._approx(tie - eps) == "1.234567891e+10"
        assert cli._approx(tie + eps) == "1.234567892e+10"

    def test_an_exact_tie_ends_and_rounds_half_to_even(self):
        one, i = Cyclotomic.rational(4, 1), Cyclotomic.root_of_unity(4, 1)
        assert cli._approx(one * 12345678905 + i) == "1.23456789e+10+1i"
        assert cli._approx(one * 3 + i * 12345678905) == "3+1.23456789e+10i"


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
        assert data == {"mode": "twisted", "p": 3, "n": 3, "affine_solutions": 36, "fixed_points": 37,
                        "trace_sigma_frob": -9}

    def test_missing_mode_flags(self, capsys):
        code, out = run(capsys, "count", "--mode", "curve", "--p", "5")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "missing_flag"

    # each mode reads one degree flag and refuses the other
    @pytest.mark.parametrize("mode,flag", [("curve", "--n"), ("twisted", "--m")])
    def test_other_mode_degree_flag_exit_two(self, capsys, mode, flag):
        code, out = run(capsys, "count", "--mode", mode, "--p", "3", "--m", "3", "--n", "1")
        assert code == 2
        error = json.loads(out)["error"]
        assert error["code"] == "unexpected_flag"
        assert error["message"] == f"--mode {mode} does not read {flag}"

    # each mode reads one budget flag and refuses the other
    @pytest.mark.parametrize("mode,degree,flag", [("curve", "--m", "--coset-budget"), ("twisted", "--n", "--enum-budget")])
    def test_other_mode_budget_flag_exit_two(self, capsys, mode, degree, flag):
        code, out = run(capsys, "count", "--mode", mode, "--p", "3", degree, "1", flag, "1")
        assert code == 2
        assert json.loads(out)["error"] == {"code": "unexpected_flag", "message": f"--mode {mode} does not read {flag}"}

    def test_budget_override(self, capsys):
        code, out = run(capsys, "count", "--mode", "curve", "--p", "3", "--m", "4", "--enum-budget", "10")
        assert code == 2
        assert json.loads(out)["error"]["code"] == "budget_exceeded"


    @pytest.mark.parametrize("mode,flag,k", [("curve", "--m", "20001"), ("twisted", "--n", "20001"),
                                             ("twisted", "--n", "100000001")])
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
        # the verify command looks verify_consistency up in its defining module when it runs
        monkeypatch.setattr(sys.modules["galrep.classify"], "verify_consistency", lambda *a, **k: broken)
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
        ("count", "--enum-budget", {"curve_enum"}),
        ("count", "--coset-budget", {"coset_q"}),
        ("verify", "--coset-budget", {"coset_q"}),
        ("verify", "--group-bound", {"group_p_bound"}),
    ])
    def test_each_flag_overrides_its_fields(self, command, flag, fields):
        args = cli.build_parser().parse_args(self.BASE[command] + [flag, "7"])
        budgets, defaults = cli._budgets_from(args), Budgets()
        changed = {name for name in defaults._fields if getattr(budgets, name) != getattr(defaults, name)}
        assert changed == fields
        assert all(getattr(budgets, name) == 7 for name in fields)

    # argparse refuses a flag the subcommand does not read, and a --mode it
    # does not offer (twisted-naive is gone), with nothing on stdout
    @pytest.mark.parametrize("command,flag", [
        ("chartab", "--coset-budget"), ("chartab", "--enum-budget"), ("classify", "--enum-budget"),
        ("classify", "--solver-budget"), ("count", "--group-bound"), ("verify", "--enum-budget"),
        ("count", "--mode"),
    ])
    def test_unread_flags_are_refused(self, capsys, command, flag):
        value = "twisted-naive" if flag == "--mode" else "5"
        code, out = run(capsys, *self.BASE[command], flag, value)
        assert code == 2
        assert out == ""


class TestUnexpectedErrors:
    def test_exit_four_with_error_json(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(counting, "count_curve", broken)
        code, out = run(capsys, "count", "--mode", "curve", "--p", "5", "--m", "2")
        assert code == 4
        assert json.loads(out)["error"] == {"code": "unexpected_error", "message": "RuntimeError: boom"}


class TestProcess:
    def test_import_leaves_mpmath_out(self):
        # records are NamedTuples, as dataclasses pulls in inspect, ast, dis and tokenize; and
        # text output prints its digits from integers, so no command loads mpmath
        argvs = ["classify --p 5 --f x^5-5 --n 1", "chartab --p 7 --group full", "count --mode curve --p 5 --m 2",
                 "count --mode twisted --p 5 --n 1", "verify --p 3 --n 1"]
        code = ("import contextlib, io, sys, galrep.cli as cli\n"
                "print(sorted({'mpmath', 'dataclasses', 'inspect'} & set(sys.modules)))\n"
                "with contextlib.redirect_stdout(io.StringIO()):\n"
                f"    codes = [cli.main(argv.split() + ['--format', 'text']) for argv in {argvs!r}]\n"
                "print(codes, 'mpmath' in sys.modules)")
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, check=True, text=True, env=CHILD_ENV)
        assert result.stdout == "[]\n[0, 0, 0, 0, 0] False\n"

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
