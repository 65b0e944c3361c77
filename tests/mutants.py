"""A catalogue of mutants of galrep, and the runner that checks the tests
kill each one.

Each entry makes one exact text replacement in one module of ``src/galrep``:
a plausible slip in a production algorithm or in a check that guards one.
The runner copies the checkout (``src``, ``tests``, ``bench`` and
``pyproject.toml``) to a temporary directory, applies the entry there, runs
the entry's test files with ``-x`` and prints "killed" when they fail and
"survived" when they pass.  An entry marked equivalent computes the same
results, for the reason it gives, so no test can kill it.  The runner exits
nonzero when an unmarked entry survives.

    python tests/mutants.py [--only NAME ...]

pytest does not collect this file, as its name does not start with test_;
``tests/test_mutants.py`` checks in Tier-1 that each entry's old text occurs
exactly once in its module, so a refactor that moves the code must update
the entry too.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "bench", "pyproject.toml")
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    module: str  # a file of src/galrep
    old: str  # occurs exactly once in the module
    new: str
    tests: tuple[str, ...]  # test files, relative to tests/
    why: str
    equivalent: str | None = None  # the reason no test can kill it


CATALOGUE = [
    Mutant("certificate_without_k_mod_p", "padic.py",
           "if k is not None and k % p and _one_segment(heights):",
           "if k is not None and _one_segment(heights):",
           ("test_padic.py",),
           "a one-segment polygon of slope k/p with p | k has roots of integral valuation: no certificate"),
    Mutant("conductor_without_k_equals_1", "padic.py",
           "return report.disc_valuation if report.slope_numerator == 1 else None",
           "return report.disc_valuation",
           ("test_padic.py",),
           "only an Eisenstein shift (k = 1) makes the root generate the ring of integers"),
    Mutant("gate_without_the_counted_trace", "classify.py",
           "match = counted == predicted == closed_form",
           "match = predicted == closed_form",
           ("test_cli.py",),
           "the consistency gate must compare the count, or it cannot fail on a broken counter"),
    Mutant("verdict_cache_untyped", "classify.py",
           "@lru_cache(maxsize=CACHE_SIZE, typed=True)\ndef verify_consistency(",
           "@lru_cache(maxsize=CACHE_SIZE)\ndef verify_consistency(",
           ("test_classify.py",),
           "True == 1 with one hash, so an untyped cache returns the verdict of n = 1 for n = True, which the "
           "counter refuses"),
    Mutant("psi_chosen_by_plus_g", "groups.py",
           "target = -gauss_sum(group.p)",
           "target = gauss_sum(group.p)",
           ("test_groups.py",),
           "psi takes minus the Gauss sum at the class of s*f"),
    Mutant("curve_count_without_t_zero", "counting.py",
           "affine = zero + 2 * square",
           "affine = 2 * square",
           ("test_counting.py",),
           "t = 0 gives one point per x"),
    Mutant("twisted_count_on_trace_plus_1", "counting.py",
           "_artin_schreier_tally(build_field(p, n), -1)",
           "_artin_schreier_tally(build_field(p, n), 1)",
           ("test_counting.py",),
           "x^q = x - 1 needs t of trace -1"),
    Mutant("twisted_count_adds_zero", "counting.py",
           "    affine = 2 * square\n",
           "    affine = 2 * square + zero\n",
           ("test_counting.py",),
           "the twisted count ignores the tally's zeros",
           equivalent="zero is checked to be 0 just above, where a nonzero one raises InternalCheckError"),
    Mutant("strict_chord_test", "padic.py",
           "(h - first) * n < (last - first) * x",
           "(h - first) * n <= (last - first) * x",
           ("test_padic.py",),
           "a point on the chord keeps the polygon one segment"),
    Mutant("none_gap_read_as_zero", "padic.py",
           "if h is not None and (h - first) * n < (last - first) * x:",
           "if ((h or 0) - first) * n < (last - first) * x:",
           ("test_padic.py",),
           "a zero coefficient is no point of the polygon, not a point of height 0"),
    Mutant("w_over_p_squared", "padic.py",
           "pairs = p * (p - 1)",
           "pairs = p * p",
           ("test_padic.py",),
           "v(disc f) is the sum of the valuations of the p(p-1) root differences"),
    Mutant("maximal_inertia_without_the_certificate", "padic.py",
           "return self.slope_numerator is not None and self._coprime()",
           "return self._coprime()",
           ("test_padic.py",),
           "x^5 - 1 is one cluster with v(disc f) = 5 prime to 4, but reducible"),
    Mutant("no_cluster_read_as_yes", "padic.py",
           'False: "no"',
           'False: "yes"',
           ("test_padic.py",),
           "a difference polynomial of several segments means several clusters"),
    Mutant("disc_valuation_odd_reads_even", "padic.py",
           "v is not None and v % 2 == 1",
           "v is not None and v % 2 == 0",
           ("test_padic.py",),
           "disc_valuation_odd is the parity of v(disc f)"),
    Mutant("model_text_keyed_by_value_alone", "classify.py",
           "model = _model_texts(model_types, *self._model())",
           "model = _model_texts((), *self._model())",
           ("test_classify.py",),
           "True == 1, so a report with a 1 for a bool would be written with the kept true"),
    Mutant("shift_by_d_not_its_inverse", "padic.py",
           "c = -model[0] * pow(d, -1, p) % p",
           "c = -model[0] * d % p",
           ("test_padic.py",),
           "f(0) = M(0)/d^p and d^p = d mod p, so the shift is -M(0)/d"),
    Mutant("derivative_term_of_beta_to_the_j", "padic.py",
           "p * v + (j - 1) * k",
           "p * v + j * k",
           ("test_padic.py",),
           "the term j g_j beta^(j-1) of g'(beta) has valuation v(g_j) + (j-1)k/p"),
    Mutant("document_without_closing_newline", "json_writer.py",
           'parts[-1] = newline + "}"',
           'parts[-1] = "}"',
           ("test_json_writer.py",),
           "json.dumps(indent=2) ends a dict on its own line"),
    Mutant("ten_digits_round_half_up", "cli.py",
           "rounding=ROUND_HALF_EVEN",
           'rounding="ROUND_HALF_UP"',
           ("test_cli.py",),
           "float formatting rounds an exact tie half to even"),
    Mutant("sum_without_plus_signs", "cli.py",
           '("-" if c < 0 else "+" if parts else "")',
           '("-" if c < 0 else "")',
           ("test_cli.py",),
           "a positive term after the first is joined to the sum by a +"),
    Mutant("unit_coefficient_written", "cli.py",
           "term if mag == 1 and term else",
           "term if mag == 0 and term else",
           ("test_cli.py",),
           "a coefficient of +-1 writes its sign alone: x, not 1*x"),
    Mutant("integrality_read_off_the_numerator", "padic.py",
           "if c.denominator % p == 0:",
           "if c.numerator % p == 0:",
           ("test_padic.py",),
           "a coefficient in lowest terms has negative valuation exactly when p divides its denominator"),
    Mutant("gauss_multiple_by_the_conjugate", "cli.py",
           "prod = value * gauss\n",
           "prod = value * gauss.conjugate()\n",
           ("test_cli.py",),
           "r G times G is r(+-p), but times conj(G) = (-1|p) G it is -r(+-p) for p = 3 mod 4"),
    Mutant("phi_divides_when_q_divides_n", "cyclotomic.py",
           "            if n % q:\n",
           "            if n % q == 0:\n",
           ("test_cyclotomic.py",),
           "Phi_(nq)(x) is Phi_n(x^q) for q | n, and Phi_n(x^q) / Phi_n(x) otherwise"),
    Mutant("fold_skips_the_exponent_m", "cyclotomic.py",
           "for e in range(m, len(acc)):",
           "for e in range(m + 1, len(acc)):",
           ("test_cyclotomic.py",),
           "zeta_m^m = 1, so exponent m folds onto 0 like every exponent above it"),
    Mutant("merged_class_of_size_p", "groups.py",
           "classes.append(ConjClass(El(0, j, 0), 2 * p))",
           "classes.append(ConjClass(El(0, j, 0), p))",
           ("test_groups.py",),
           "in the full group f merges the classes of t^j and t^(j + p-1), each of size p"),
    Mutant("induced_row_plus_sign_off_the_identity", "groups.py",
           "Cyclotomic.rational(p, -sign if i else sign * (p - 1))",
           "Cyclotomic.rational(p, sign if i else sign * (p - 1))",
           ("test_groups.py",),
           "the b^a i run over all nonzero residues, whose zeta_p^(b^a i) sum to -1"),
    Mutant("difference_power_sums_middle_term_unsigned", "padic.py",
           "sums.append(2 * total + (-middle if half % 2 else middle))",
           "sums.append(2 * total + middle)",
           ("test_padic.py",),
           "the middle term l = k/2 carries (-1)^(k/2) like every term of the sum"),
    Mutant("newton_identities_drop_the_last_sum", "polys.py",
           "total = sum(b[n - k + i] * sums[i] for i in range(1, k + 1))",
           "total = sum(b[n - k + i] * sums[i] for i in range(1, k))",
           ("test_padic.py",),
           "Newton's k-th identity sums e_(k-i) p_i for i = 1..k"),
    Mutant("primitive_root_of_any_order", "arith.py",
           "if gcd(b, p) == 1 and multiplicative_order(b, p) == p - 1:",
           "if gcd(b, p) == 1 and multiplicative_order(b, p) > 1:",
           ("test_arith.py",),
           "a primitive root mod p has order p - 1, not merely order above 1"),
    Mutant("ben_or_without_its_last_degree", "gf.py",
           "for d in range(1, field.m // 2 + 1):",
           "for d in range(1, field.m // 2):",
           ("test_gf.py",),
           "a reducible f of degree m has a factor of degree at most m/2, m/2 included"),
    Mutant("chi_walk_always_flips", "gf.py",
           "label ^= flip",
           "label ^= 3",
           ("test_gf.py",),
           "chi(h g^(j+1)) = chi(h g^j) chi(g): the label flips only when g is a non-square"),
    Mutant("multiplier_sign_inverted", "gf.py",
           "flip = 0 if _seed_sign(self, g) > 0 else 3",
           "flip = 3 if _seed_sign(self, g) > 0 else 0",
           ("test_gf.py",),
           "a square g keeps the label along its walk, a non-square g flips it"),
    Mutant("trace_fiber_last_row_negated", "counting.py",
           "spots = [-c * inverse % p]  # row c alone",
           "spots = [c * inverse % p]  # row c alone",
           ("test_counting.py",),
           "the joined rows of a level are r = 0, -u, -2u, ..., so row c is spot -c/u"),
    Mutant("fiber_check_reads_the_first_element", "counting.py",
           "field.element_from_index(fiber.rindex(1))",
           "field.element_from_index(fiber.index(1))",
           ("test_counting.py",),
           "the first element of the trace-0 fiber is 0, of trace 0 whatever the traces, so the curve count "
           "would not check its fiber"),
]


def run(mutant: Mutant) -> tuple[bool, float, str]:
    """Whether the entry's tests fail on the mutant, the seconds they took,
    and the last line they printed."""
    with tempfile.TemporaryDirectory(prefix="galrep-mutant-") as tmp:
        work = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
            else:
                shutil.copy(source, work / name)
        path = work / "src" / "galrep" / mutant.module
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.name}: the old text occurs {text.count(mutant.old)} times in {mutant.module}")
        path.write_text(text.replace(mutant.old, mutant.new))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   *(f"tests/{name}" for name in mutant.tests)]
        start = time.perf_counter()
        try:
            result = subprocess.run(command, cwd=work, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return True, time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
        lines = result.stdout.strip().splitlines()
        return result.returncode != 0, time.perf_counter() - start, lines[-1] if lines else ""


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--only", nargs="+", choices=[m.name for m in CATALOGUE], help="run these entries alone")
    args = parser.parse_args(argv)
    chosen = [m for m in CATALOGUE if not args.only or m.name in args.only]
    survivors = []
    start = time.perf_counter()
    for mutant in chosen:
        killed, seconds, last = run(mutant)
        verdict = "killed" if killed else "survived"
        if mutant.equivalent:
            verdict += f" (marked equivalent: {mutant.equivalent})"
        elif not killed:
            survivors.append(mutant.name)
        print(f"{mutant.name}: {verdict} in {seconds:.1f} s; {last}", flush=True)
    print(f"{len(chosen)} mutants in {time.perf_counter() - start:.0f} s; "
          f"unmarked survivors: {', '.join(survivors) or 'none'}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
