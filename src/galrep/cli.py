"""Command-line front end.

Subcommands: classify, chartab, count, verify.  Exit codes: 0 success,
2 invalid input (machine-readable error JSON on stdout), 3 classification
refused (hypotheses not certified; JSON or text, as --format says),
4 internal consistency failure or any other unexpected error (an error JSON
too, never a traceback).  When the reader closes stdout early, nothing more
is written and the exit code is 4.

JSON output is exact and byte-deterministic; text output adds numeric
approximations for readability.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction

from .arith import signed_p
from .classify import ClassificationRefused, ClassificationReport, Verification, classify, dump_json, verify_consistency
from .config import Budgets, default_budgets
from .counting import count_curve, count_twisted_fixed, naive_twisted_oracle
from .cyclotomic import Cyclotomic
from .errors import BudgetExceeded, InputError, InternalCheckError, UsageError
from .groups import build_group, character_table, check_p_bound, gauss_sum
from .padic import AssumptionReport, BaseField, InputPolynomial

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4

DEFAULT_VERIFY_PAIRS = ((3, 1), (5, 1), (7, 1), (3, 3), (5, 3))


def _approx(value: Cyclotomic) -> str:
    z = value.embed(20)
    if abs(z.imag) < 1e-12:
        return f"{z.real:.10g}"
    if abs(z.real) < 1e-12:
        return f"{z.imag:.10g}i"
    return f"{z.real:.10g}{z.imag:+.10g}i"


def render_value(value: Cyclotomic, p: int | None = None) -> str:
    """Exact rendering with a numeric tag, using sqrt notation when possible."""
    if value.is_rational():
        return str(value.as_rational())
    if p is not None and value.m == p:
        # r * (Gauss sum) for rational r renders as r*sqrt(+-p)
        for r in _rational_multiples(value, gauss_sum(p)):
            return f"{_coeff_prefix(r)}√{signed_p(p)} ({_approx(value)})"
    return f"{value} ({_approx(value)})"


def _rational_multiples(value: Cyclotomic, base: Cyclotomic):
    # value == r * base iff value * conj(base) == r * (base * conj(base));
    # base * conj(base) is a nonzero rational for the Gauss sum
    prod = value * base.conjugate()
    norm = (base * base.conjugate()).as_rational()
    if prod.is_rational():
        r = prod.as_rational() / norm
        if value == base * r:
            yield r


def _coeff_prefix(r: Fraction) -> str:
    if r == 1:
        return ""
    if r == -1:
        return "-"
    return f"{r}*"


# each budget flag: the Budgets fields it sets, and its help
_BUDGET_FLAGS = {
    "--enum-budget": (("curve_enum", "naive_enum"), "cap on exhaustive field scans (also via GALREP_ENUM_BUDGET)"),
    "--coset-budget": (("coset_q",), "cap on the coset subfield size"),
    "--group-bound": (("group_p_bound",), "largest prime with character tables"),
}


def _add_budget_flags(sub: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        sub.add_argument(flag, type=int, default=None, help=_BUDGET_FLAGS[flag][1])


def _budgets_from(args) -> Budgets:
    overrides = {}
    for flag, (fields, _) in _BUDGET_FLAGS.items():
        value = getattr(args, flag[2:].replace("-", "_"), None)
        if value is not None:
            overrides.update(dict.fromkeys(fields, value))
    return replace(default_budgets(), **overrides)


def _parse_poly(p: int, text: str) -> InputPolynomial:
    stripped = text.strip()
    if stripped.startswith("["):
        try:
            items = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputError("poly_parse", f"bad coefficient list: {exc}") from exc
        return InputPolynomial.from_coefficients(p, items)
    return InputPolynomial.from_string(p, stripped)


def _render_classification_text(report: ClassificationReport, budgets: Budgets) -> str:
    p, n = report.p, report.n
    lines = [_input_line(report.f, n), f"assumptions: maximal inertia image of order {2 * p * (p - 1)}",
             *_assumption_lines(report.assumptions)]
    ig = report.inertia_group
    lines.append(f"inertia group: order {ig.order} (b = {ig.b}), {ig.class_count} classes")
    if report.full_group:
        fg = report.full_group
        lines.append(f"full group: order {fg.order}, {fg.class_count} classes")
    lines.append(f"chi(Frob) = {render_value(report.chi_frobenius, p)}")
    lines.append(f"psi = {report.psi.label}, dimension {report.psi.dimension}, faithful")
    if report.full_group:
        table = character_table(build_group(p, "full", budgets.group_p_bound))
        trace = report.psi.values[table.sigma_phi_class()]
        lines.append(f"  trace of psi at the sigma*phi class = {render_value(trace, p)}")
    eig = ", ".join(f"{render_value(e.value, p)} x{e.multiplicity}" for e in report.eigenvalues)
    lines.append(f"Frobenius eigenvalues: {eig}")
    if report.conductor is not None:
        lines.append(f"conductor exponent N = {report.conductor}")
    else:
        lines.append("conductor exponent: not computed (no Eisenstein shift)")
    v = report.verification
    if v.status == "skipped":
        lines.append(f"verification: skipped ({v.reason})")
    else:
        lines.append(f"verification: counted trace {v.trace_counted}, predicted {v.trace_predicted}"
                     f"{_verdict(v)}")
    return "\n".join(lines)


def _input_line(f: InputPolynomial, n: int) -> str:
    return f"p = {f.p}, f = {f}, residue degree n = {n} ({'even' if n % 2 == 0 else 'odd'})"


def _assumption_lines(a: AssumptionReport) -> list[str]:
    if a.disc_valuation is None:
        disc = "  disc valuation: none (disc f = 0, a repeated root)"
    else:
        disc = (f"  disc valuation = {a.disc_valuation} (odd: {a.disc_valuation_odd}, "
                f"coprime to p-1: {a.gcd_condition})")
    sc = a.single_cluster
    return [disc, f"  irreducibility: {a.irreducibility}",
            f"  single cluster: {sc.status}" + (f", common difference valuation {sc.w}" if sc.w is not None else "")]


def _render_refusal_text(f: InputPolynomial, n: int, refusal: ClassificationRefused) -> str:
    return "\n".join([_input_line(f, n), "refused: hypotheses not certified",
                      *(f"  failed: {name}" for name in refusal.failures),
                      "assumptions:", *_assumption_lines(refusal.assumptions)])


def _verdict(v: Verification) -> str:
    """": OK", or ": MISMATCH" after the closed form, which may be the only value that disagrees."""
    return ": OK" if v.match else f", closed form {v.closed_form}: MISMATCH"


def _render_chartab_text(table) -> str:
    header = ["class rep", "size"] + [row.label for row in table.rows]
    cols = [[f"({c.rep.i},{c.rep.j},{c.rep.k})", str(c.size)] for c in table.classes]
    for row in table.rows:
        for idx, value in enumerate(row.values):
            cols[idx].append(f"{value} ({_approx(value)})" if not value.is_rational() else str(value.as_rational()))
    widths = [max(len(header[j]), max(len(cols[i][j]) for i in range(len(cols)))) for j in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for col in cols:
        lines.append("  ".join(v.ljust(w) for v, w in zip(col, widths)))
    return "\n".join(lines)


def _cmd_classify(args) -> int:
    budgets = _budgets_from(args)
    check_p_bound(args.p, budgets.group_p_bound)  # before --f, which holds p + 1 coefficients
    f = _parse_poly(args.p, args.f)
    K = BaseField(args.p, args.n)
    try:
        report = classify(f, K, budgets)
    except ClassificationRefused as exc:
        print(dump_json(exc.to_json_dict()) if args.format == "json" else _render_refusal_text(f, args.n, exc))
        return EXIT_REFUSED
    if args.format == "json":
        print(report.to_json())
    else:
        print(_render_classification_text(report, budgets))
    v = report.verification
    if v.status == "mismatch":
        return EXIT_INTERNAL
    return EXIT_OK


def _cmd_chartab(args) -> int:
    budgets = _budgets_from(args)
    group = build_group(args.p, args.group, budgets.group_p_bound)
    table = character_table(group)
    if args.format == "json":
        print(dump_json(table.to_json_dict()))
    else:
        print(_render_chartab_text(table))
    return EXIT_OK


def _cmd_count(args) -> int:
    budgets = _budgets_from(args)
    if args.mode == "curve":
        if args.m is None:
            raise InputError("missing_flag", "--mode curve requires --m")
        result = count_curve(args.p, args.m, budgets)
    elif args.mode == "twisted":
        if args.n is None:
            raise InputError("missing_flag", "--mode twisted requires --n")
        result = count_twisted_fixed(args.p, args.n, budgets)
    else:
        if args.n is None:
            raise InputError("missing_flag", "--mode twisted-naive requires --n")
        result = naive_twisted_oracle(args.p, args.n, budgets)
    data = result.to_json_dict()
    if args.mode != "curve":
        data["mode"] = args.mode
    if args.format == "json":
        print(dump_json(data))
    else:
        print(", ".join(f"{k} = {v}" for k, v in sorted(data.items())))
    return EXIT_OK


def _cmd_verify(args) -> int:
    budgets = _budgets_from(args)
    if (args.p is None) != (args.n is None):
        raise InputError("missing_flag", "verify needs both --p and --n, or neither")
    pairs = [(args.p, args.n)] if args.p is not None else list(DEFAULT_VERIFY_PAIRS)
    checks = [(p, n, verify_consistency(p, n, budgets)) for p, n in pairs]
    all_match = all(v.match for _, _, v in checks)
    if args.format == "json":
        print(dump_json({"pairs": [{"p": p, "n": n, **v.to_json_dict()} for p, n, v in checks],
                         "all_match": all_match}))
    else:
        for p, n, v in checks:
            print(f"(p={p}, n={n}): counted {v.trace_counted}, predicted {v.trace_predicted}{_verdict(v)}")
        print("all match" if all_match else "MISMATCH FOUND")
    return EXIT_OK if all_match else EXIT_INTERNAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galrep",
        description="Classify Galois representations of hyperelliptic curves with maximal wild inertia",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    c = sub.add_parser("classify", help="validate hypotheses and classify the representation")
    c.add_argument("--p", type=int, required=True)
    c.add_argument("--f", type=str, required=True,
                   help="monic degree-p polynomial: 'x^5-5' or a JSON coefficient list (degree 0..p)")
    c.add_argument("--n", type=int, required=True, help="residue degree of the unramified base field")
    c.add_argument("--format", choices=("json", "text"), default="json")
    _add_budget_flags(c, "--coset-budget", "--group-bound")
    c.set_defaults(func=_cmd_classify)

    t = sub.add_parser("chartab", help="print a character table")
    t.add_argument("--p", type=int, required=True)
    t.add_argument("--group", choices=("inertia", "full"), default="inertia")
    t.add_argument("--format", choices=("json", "text"), default="json")
    _add_budget_flags(t, "--group-bound")
    t.set_defaults(func=_cmd_chartab)

    k = sub.add_parser("count", help="point counts on the model curve")
    k.add_argument("--mode", choices=("curve", "twisted", "twisted-naive"), required=True)
    k.add_argument("--p", type=int, required=True)
    k.add_argument("--m", type=int, default=None, help="extension degree (curve mode)")
    k.add_argument("--n", type=int, default=None, help="residue degree (twisted modes)")
    k.add_argument("--format", choices=("json", "text"), default="json")
    _add_budget_flags(k, "--enum-budget", "--coset-budget")
    k.set_defaults(func=_cmd_count)

    v = sub.add_parser("verify", help="trace consistency gate: prediction vs count")
    v.add_argument("--p", type=int, default=None)
    v.add_argument("--n", type=int, default=None)
    v.add_argument("--format", choices=("json", "text"), default="json")
    _add_budget_flags(v, "--coset-budget", "--group-bound")
    v.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # inside the try: a closed pipe shows up here at the latest
        return code
    except BrokenPipeError:
        # the reader is gone; stdout goes to devnull so the interpreter's
        # own flush at exit fails no more
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_INTERNAL


def _run(argv: list[str] | None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (InputError, UsageError, BudgetExceeded) as exc:
        print(dump_json({"error": {"code": exc.code, "message": str(exc)}}))
        return EXIT_INPUT
    except InternalCheckError as exc:
        print(dump_json({"error": {"code": "internal_check", "message": str(exc)}}))
        return EXIT_INTERNAL
    except BrokenPipeError:
        raise  # no error JSON can reach a closed stdout
    except Exception as exc:  # the CLI's boundary: any other fault still ends in an error JSON
        print(dump_json({"error": {"code": "unexpected_error", "message": f"{type(exc).__name__}: {exc}"}}))
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
