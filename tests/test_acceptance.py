"""Acceptance suite: one test per criterion, one printed pass line each.

Every comparison here is exact (integers, rationals, canonical cyclotomic
vectors); there are no tolerances anywhere.  Run with ``pytest -s
tests/test_acceptance.py`` to see the per-criterion lines.
"""

import json
from collections import Counter
from fractions import Fraction

import sympy

from oracles import assert_orthogonal, naive_twisted_oracle, plain, single_cluster_by_hull

import galrep.cli as cli
from galrep.classify import classify, verify_consistency
from galrep.counting import count_curve, count_twisted_fixed
from galrep.cyclotomic import Cyclotomic
from galrep.groups import FULL, INERTIA, SIGMA_PHI, build_group, character_table, class_index, gauss_sum
from galrep.padic import (BaseField, InputPolynomial, _difference_model, _integer_model, conductor_exponent,
                          validate_assumptions)
from galrep.arith import vp

PRIMES = [3, 5, 7, 11, 13]


def signed_p(p):
    return -p if (p - 1) // 2 % 2 else p


def report_pass(n, text):
    print(f"criterion {n:2d} PASS: {text}")


def test_criterion_01_gauss_sum_identity():
    for p in PRIMES:
        assert gauss_sum(p) * gauss_sum(p) == Cyclotomic.rational(p, signed_p(p))
    report_pass(1, "gauss_sum(p)^2 = (-1)^((p-1)/2) * p exactly for p in {3,5,7,11,13}")


def test_criterion_02_character_table_structure():
    for p in PRIMES:
        inertia = character_table(build_group(p, INERTIA))
        assert Counter(r.dimension for r in inertia.rows) == {1: 2 * (p - 1), p - 1: 2}
        full = character_table(build_group(p, FULL))
        if p >= 5:
            assert Counter(r.dimension for r in full.rows) == {1: 2 * (p - 1), 2: (p - 1) // 2, p - 1: 4}
        for table in (inertia, full):
            assert sum(r.dimension**2 for r in table.rows) == table.group.order
            assert_orthogonal(table)
    report_pass(2, "table shapes, sum of squared dims, exact row orthogonality (both variants)")


def test_criterion_03_faithfulness_dichotomy():
    for p in PRIMES:
        inertia = character_table(build_group(p, INERTIA))
        assert sum(1 for r in inertia.rows if r.faithful and r.dimension == p - 1) == 1
        full = character_table(build_group(p, FULL))
        faithful = [r for r in full.rows if r.faithful and r.dimension == p - 1]
        assert len(faithful) == 2
        g = gauss_sum(p)
        idx = class_index(full.group, SIGMA_PHI)
        assert {r.values[idx] for r in faithful} == {g, -g}
    report_pass(3, "one faithful (p-1)-row per inertia table, two per full table with values +-gauss_sum")


def test_criterion_04_point_counts():
    for p in PRIMES:
        result = count_curve(p, 1)
        assert result.affine == p and result.trace == 0
    for p in (3, 5, 7):
        assert count_curve(p, 2).trace == (p - 1) * signed_p(p)
    report_pass(4, "curve counts: p affine points and trace 0 over F_p; quadratic traces (p-1)(+-p)")


def test_criterion_05_twisted_counts_reference_values():
    assert count_twisted_fixed(3, 1).affine_solutions == 0
    assert count_twisted_fixed(5, 1).affine_solutions == 10
    assert count_twisted_fixed(7, 1).affine_solutions == 0
    report_pass(5, "twisted affine solutions: (3,1) -> 0, (5,1) -> 10, (7,1) -> 0")


def test_criterion_06_twisted_counts_closed_form():
    for p, n in [(3, 1), (5, 1), (7, 1), (3, 3), (5, 3)]:
        result = count_twisted_fixed(p, n)
        assert result.trace_sigma_frob == -(signed_p(p) ** ((n + 1) // 2))
    for p, n in [(3, 1), (5, 1), (3, 3)]:
        fast = count_twisted_fixed(p, n)
        slow = naive_twisted_oracle(p, n)
        assert (fast.affine_solutions, fast.trace_sigma_frob) == (
            slow.affine_solutions,
            slow.trace_sigma_frob,
        )
    report_pass(6, "coset traces match the closed form; coset = naive oracle on (3,1),(5,1),(3,3)")


def test_criterion_07_end_to_end_model_curve():
    f = InputPolynomial.from_string(5, "x^5-5")
    g5 = gauss_sum(5)

    odd = classify(f, BaseField(5, 1))
    assert odd.psi.label == "wild--"
    assert odd.psi.construction_json() == {"kind": "induced", "nu": -1, "phi": -1}
    assert odd.psi.values[class_index(build_group(5, FULL), SIGMA_PHI)] == -g5
    assert odd.chi_frobenius == g5
    assert [(e.value, e.multiplicity) for e in odd.eigenvalues] == [(g5, 2), (-g5, 2)]
    assert odd.conductor == 9 == 2 * 5 - 1
    assert odd.verification.match is True

    even = classify(f, BaseField(5, 2))
    assert even.psi.label == "wild-"
    assert even.psi.faithful and even.psi.dimension == 4
    assert even.chi_frobenius == Cyclotomic.rational(5, 5)
    assert [(e.value, e.multiplicity) for e in even.eigenvalues] == [(Cyclotomic.rational(5, 5), 4)]
    assert even.conductor == 9

    # golden JSON, field by field
    data = json.loads(odd.to_json())
    assert data["schema"] == 1
    assert data["input"] == {"p": 5, "n": 1, "f": ["-5", "0", "0", "0", "0", "1"]}
    assert data["assumptions"]["maximal_inertia"] is True
    assert data["groups"]["inertia"] == {"order": 40, "b": 2, "class_count": 10}
    assert data["groups"]["full"] == {"order": 80, "b": 2, "class_count": 14}
    assert data["chi"]["frobenius_value"] == plain(g5)
    assert data["psi"]["label"] == "wild--"
    assert data["conductor"] == {"status": "computed", "exponent": 9}
    assert data["verification"] == {
        "status": "ok",
        "trace_counted": -5,
        "trace_predicted": -5,
        "match": True,
    }
    report_pass(7, "x^5-5 classified exactly for n = 1 (odd branch) and n = 2 (even branch)")


def test_criterion_08_conductor_family():
    for p in PRIMES:
        f = InputPolynomial.from_string(p, f"x^{p}-{p}")
        assert conductor_exponent(validate_assumptions(f)) == 2 * p - 1
    report_pass(8, "conductor exponent of x^p - p is 2p - 1 for p in {3,5,7,11,13}")


def test_criterion_09_consistency_gate():
    for p, n in [(3, 1), (5, 1), (7, 1), (3, 3), (5, 3)]:
        v = verify_consistency(p, n)
        assert v.match is True, (p, n, v)
    report_pass(9, "trace prediction tr(psi) * chi(Frob) equals the counted trace on all pairs")


def test_criterion_10_cluster_valuation_identity():
    x = sympy.Symbol("x")
    for p in (3, 5, 7):
        f = InputPolynomial.from_string(p, f"x^{p}-{p}")
        result = validate_assumptions(f).to_json_dict()["single_cluster"]
        assert result == single_cluster_by_hull(_difference_model(_integer_model(f)[0]), p)
        assert result["status"] == "yes"
        assert p * (p - 1) * Fraction(result["w"]) == 2 * p - 1
        assert vp(int(sympy.discriminant(x**p - p, x)), p) == 2 * p - 1
    report_pass(10, "single cluster with p(p-1) w = v(disc) = 2p-1 for x^p - p, p in {3,5,7}")


def test_criterion_11_determinism(capsys):
    def run(*argv):
        code = cli.main(list(argv))
        out = capsys.readouterr().out
        assert code == 0
        return out

    classify_runs = [run("classify", "--p", "5", "--f", "x^5-5", "--n", "1") for _ in range(3)]
    assert classify_runs[0] == classify_runs[1] == classify_runs[2]
    count_runs = [run("count", "--mode", "curve", "--p", "3", "--m", "4") for _ in range(3)]
    assert count_runs[0] == count_runs[1] == count_runs[2]
    chartab_runs = [run("chartab", "--p", "7", "--group", "full") for _ in range(2)]
    assert chartab_runs[0] == chartab_runs[1]
    verify_runs = [run("verify", "--p", "5", "--n", "1") for _ in range(2)]
    assert verify_runs[0] == verify_runs[1]
    with capsys.disabled():
        report_pass(11, "byte-identical JSON across repeated runs")
