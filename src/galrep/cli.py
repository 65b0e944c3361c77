"""Command-line front end.

Subcommands: classify, chartab, count, verify.  Exit codes: 0 success,
2 invalid input (machine-readable error JSON on stdout), 3 classification
refused (hypotheses not certified; JSON or text, as --format says),
4 internal consistency failure or any other unexpected error (an error JSON
too, never a traceback).  When the reader closes stdout early, nothing more
is written and the exit code is 4.

JSON output is exact and byte-deterministic; text output adds numeric
approximations for readability.

Start-up loads only argparse, the budgets, the errors and the JSON writer;
each command imports the modules it runs when it runs, so ``chartab`` never
loads the p-adic or counting code, ``count`` never loads classify, and
``classify`` loads neither classify nor groups for an argument error.  No
run loads fractions unless a coefficient is not an integer, and only text
output loads decimal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import TYPE_CHECKING

from .config import Budgets, check_p_bound
from .errors import CodedError, InputError, InternalCheckError
from .json_writer import dump_json

if TYPE_CHECKING:
    from .classify import ClassificationRefused, ClassificationReport, Verification
    from .cyclotomic import Cyclotomic
    from .padic import AssumptionReport, InputPolynomial

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_REFUSED = 3
EXIT_INTERNAL = 4

DEFAULT_VERIFY_PAIRS = ((3, 1), (5, 1), (7, 1), (3, 3), (5, 3))


def _approx(value: Cyclotomic) -> str:
    """Ten significant digits of each nonzero part of a nonzero value,
    correctly rounded.  A rational part, zero included, is read exactly:
    twice the real part is value + conj, and twice the imaginary part is
    (value - conj) * zeta_m^(3m/4) when 4 | m; otherwise i is not in Q(zeta_m)
    and a nonzero imaginary part is irrational.  An irrational part is never
    a tie, so Ziv's loop ends: it doubles the bits of ``enclose`` until both
    ends of the part's interval print the same digits."""
    m, conj = value.m, value.conjugate()
    twice_imag = value - conj
    if m % 4 == 0:
        twice_imag *= value.root_of_unity(m, 3 * m // 4)
    exact = [t.as_rational() if t.is_rational() else None for t in (value + conj, twice_imag)]
    texts = [None if q is None else _ten_digits(q, 2) if q else "" for q in exact]
    bits = 64
    while None in texts:
        re, im, err = value.enclose(bits)
        for i, x in enumerate((re, im)):
            if texts[i] is None and abs(x) > err:  # both ends nonzero, of one sign
                low, high = (_ten_digits(x + d, 1 << bits) for d in (-err, err))
                if low == high:
                    texts[i] = low
        bits *= 2
    real, imag = texts
    if not imag:
        return real
    return f"{real}{'+' if real and imag[0] != '-' else ''}{imag}i"


def _ten_digits(num: int, den: int) -> str:
    """``format(num / den, ".10g")`` for ints num != 0 and den > 0, rounded
    half to even from the exact quotient by decimal's division, so no size
    overflows to ``inf``.  decimal loads here, on the text path only."""
    from decimal import MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal

    context = Context(prec=10, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    _, digits, exponent = context.divide(Decimal(abs(num)), Decimal(den)).as_tuple()
    e = exponent + len(digits) - 1  # |num/den| rounds to 0.mantissa * 10^(e+1)
    mantissa = "".join(map(str, digits)).rstrip("0")
    if e < -4 or e >= 10:  # the exponents float formatting writes in scientific notation
        text = mantissa[0] + (f".{mantissa[1:]}" if mantissa[1:] else "") + f"e{e:+03d}"
    elif e < 0:
        text = "0." + "0" * (-e - 1) + mantissa
    else:
        whole, frac = mantissa[:e + 1].ljust(e + 1, "0"), mantissa[e + 1:]
        text = f"{whole}.{frac}" if frac else whole
    return f"-{text}" if num < 0 else text


def _sum_text(terms) -> str:
    """The sum of c*term over the (c, term) pairs, in the order given, with
    each zero c left out: a term "" stands for 1, a unit c writes its sign
    alone, and an empty sum is "0"."""
    parts = []
    for c, term in terms:
        if c:
            mag = abs(c)
            body = term if mag == 1 and term else f"{mag}*{term}" if term else str(mag)
            parts.append(("-" if c < 0 else "+" if parts else "") + body)
    return "".join(parts) or "0"


def _power(name: str, e: int) -> str:
    """name^e as a term of ``_sum_text``: "" for e = 0."""
    return "" if e == 0 else name if e == 1 else f"{name}^{e}"


def render_value(value: Cyclotomic, p: int | None = None) -> str:
    """Exact rendering with a numeric tag, using sqrt notation when possible."""
    if value.is_rational():
        return str(value.as_rational())
    if p is not None and value.m == p:
        from .arith import signed_p
        from .groups import gauss_sum

        # r * (Gauss sum) for an integer r renders as r*sqrt(+-p)
        square = signed_p(p)
        r = _rational_multiple(value, gauss_sum(p), square)
        if r is not None:
            return f"{_sum_text([(r, f'√{square}')])} ({_approx(value)})"
    return f"{_sum_text((c, _power(f'z{value.m}', e)) for e, c in enumerate(value.coeffs))} ({_approx(value)})"


def _rational_multiple(value: Cyclotomic, gauss: Cyclotomic, square: int) -> int | None:
    """The integer r with value == r * gauss, or None, for the Gauss sum
    ``gauss`` of square ``square`` = +-p: as gauss != 0, value = r * gauss
    exactly when value * gauss = r * square.  A rational product k is always
    a multiple of square: value = (k / square) gauss lies in Z[zeta_p], and
    the coordinate of gauss at 1 is +-1."""
    prod = value * gauss
    return prod.as_rational() // square if prod.is_rational() else None


# each budget flag: the Budgets field it sets, and its help
_BUDGET_FLAGS = {
    "--enum-budget": ("curve_enum", "cap on the field size p^m of the curve count"),
    "--coset-budget": ("coset_q", "cap on the coset subfield size"),
    "--group-bound": ("group_p_bound", "largest prime with character tables"),
}


def _add_budget_flags(sub: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        sub.add_argument(flag, type=int, default=None, help=_BUDGET_FLAGS[flag][1])


# each count mode: the degree flag and the budget flag it reads
_COUNT_FLAGS = {
    "curve": ("--m", "--enum-budget"),
    "twisted": ("--n", "--coset-budget"),
}


def _flag_value(args, flag: str):
    return getattr(args, flag[2:].replace("-", "_"), None)


def _budgets_from(args) -> Budgets:
    overrides = {}
    for flag, (field, _) in _BUDGET_FLAGS.items():
        value = _flag_value(args, flag)
        if value is not None:
            overrides[field] = value
    return Budgets(**overrides)


def _parse_poly(p: int, text: str) -> InputPolynomial:
    from .padic import InputPolynomial

    stripped = text.strip()
    if stripped.startswith("["):
        try:
            items = json.loads(stripped)
        except ValueError as exc:  # a JSONDecodeError, or an int past the digit limit
            raise InputError("poly_parse", f"bad coefficient list: {exc}") from exc
        return InputPolynomial.from_coefficients(p, items)
    return InputPolynomial.from_string(p, stripped)


def _render_classification_text(report: ClassificationReport) -> str:
    from .groups import SIGMA_PHI

    p, n = report.p, report.n
    ig = report.inertia_group
    lines = [_input_line(report.f, n), f"assumptions: maximal inertia image of order {ig.order}",
             *_assumption_lines(report.assumptions)]
    lines.append(f"inertia group: order {ig.order} (b = {ig.b}), {ig.class_count} classes")
    if report.full_group:
        fg = report.full_group
        lines.append(f"full group: order {fg.order}, {fg.class_count} classes")
    lines.append(f"chi(Frob) = {render_value(report.chi_frobenius, p)}")
    lines.append(f"psi = {report.psi.label}, dimension {report.psi.dimension}, faithful")
    if report.full_group:
        # s*f is the lex-least member of its class, so it is that class's representative
        trace = report.psi.values[[cls.rep for cls in report.psi_classes].index(SIGMA_PHI)]
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
    terms = _sum_text((f.coeffs[k], _power("x", k)) for k in range(f.p, -1, -1))
    return f"p = {f.p}, f = {terms}, residue degree n = {n} ({'even' if n % 2 == 0 else 'odd'})"


def _assumption_lines(a: AssumptionReport) -> list[str]:
    flags = a.to_json_dict()
    if flags["disc_valuation"] is None:
        disc = "  disc valuation: none (disc f = 0, a repeated root)"
    else:
        disc = (f"  disc valuation = {flags['disc_valuation']} (odd: {flags['disc_valuation_odd']}, "
                f"coprime to p-1: {flags['gcd_condition']})")
    sc = flags["single_cluster"]
    return [disc, f"  irreducibility: {flags['irreducibility']}",
            f"  single cluster: {sc['status']}" + (f", common difference valuation {sc['w']}" if "w" in sc else "")]


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
            cols[idx].append(render_value(value))
    widths = [max(len(header[j]), max(len(cols[i][j]) for i in range(len(cols)))) for j in range(len(header))]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for col in cols:
        lines.append("  ".join(v.ljust(w) for v, w in zip(col, widths)))
    return "\n".join(lines)


def _cmd_classify(args) -> int:
    from .padic import BaseField

    budgets = _budgets_from(args)
    check_p_bound(args.p, budgets.group_p_bound)  # before --f, which holds p + 1 coefficients
    f = _parse_poly(args.p, args.f)
    K = BaseField(args.p, args.n)
    # the pipeline loads once the arguments are read, so an argument error exits 2 without it
    from .classify import ClassificationRefused, classify

    try:
        report = classify(f, K, budgets)
    except ClassificationRefused as exc:
        print(dump_json(exc.to_json_dict()) if args.format == "json" else _render_refusal_text(f, args.n, exc))
        return EXIT_REFUSED
    if args.format == "json":
        print(report.to_json())
    else:
        print(_render_classification_text(report))
    v = report.verification
    if v.status == "mismatch":
        return EXIT_INTERNAL
    return EXIT_OK


def _cmd_chartab(args) -> int:
    from .groups import build_group, character_table

    budgets = _budgets_from(args)
    group = build_group(args.p, args.group, budgets.group_p_bound)
    table = character_table(group)
    if args.format == "json":
        print(dump_json(table.to_json_dict()))
    else:
        print(_render_chartab_text(table))
    return EXIT_OK


def _cmd_count(args) -> int:
    from .counting import count_curve, count_twisted_fixed

    degree_flag, budget_flag = _COUNT_FLAGS[args.mode]
    for flag in ("--m", "--n", "--enum-budget", "--coset-budget"):
        if flag not in (degree_flag, budget_flag) and _flag_value(args, flag) is not None:
            raise InputError("unexpected_flag", f"--mode {args.mode} does not read {flag}")
    budgets = _budgets_from(args)
    degree = _flag_value(args, degree_flag)
    if degree is None:
        raise InputError("missing_flag", f"--mode {args.mode} requires {degree_flag}")
    counter = {"curve": count_curve, "twisted": count_twisted_fixed}[args.mode]
    data = counter(args.p, degree, budgets).to_json_dict()
    if args.format == "json":
        print(dump_json(data))
    else:
        print(", ".join(f"{k} = {v}" for k, v in sorted(data.items())))
    return EXIT_OK


def _cmd_verify(args) -> int:
    from .classify import verify_consistency

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
    k.add_argument("--mode", choices=("curve", "twisted"), required=True)
    k.add_argument("--p", type=int, required=True)
    k.add_argument("--m", type=int, default=None, help="extension degree (curve mode)")
    k.add_argument("--n", type=int, default=None, help="residue degree (twisted mode)")
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
    except CodedError as exc:
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
