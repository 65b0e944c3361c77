"""The CLI's input contract as one property: whatever argv holds, galrep
ends in bounded time with a documented exit code (0, 2, 3 or 4), JSON mode
prints exactly one JSON document, and no traceback is printed.

argv is drawn per command from the edge values of each flag: small odd
primes, 2, composites, primes above the group bound, huge numbers,
negatives and non-numbers for p; the string grammar and JSON lists, with
wrong degrees, huge ints, rationals and malformed entries, for f; 0,
negative and huge degrees; and each budget flag absent, at its default,
tiny, negative or not a number.  A budget raised far above its default is
not drawn: it lets the counts run as long as asked.  Nor is a group bound
above its default 13: a raised bound reaches the uncertified path, whose
cost grows as p^4."""

import contextlib
import faulthandler
import io
import json
import sys
import time

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import galrep.cli as cli

# the slowest example of the fixed set takes about 0.2 s (a twisted count
# over 7^7 elements) on a 2-core VM; the cap leaves room for a slow machine
WALL_CAP_S = 3.0
HANG_S = 10 * WALL_CAP_S
EXAMPLES = 400


def _mostly(usual, edges):
    """One of ``usual`` seven times in eight, else one of ``edges``."""
    return st.sampled_from(usual * 7 + edges)


_P = _mostly(["3", "5", "7", "11", "13"],
             ["2", "1", "0", "9", "15", "17", "1009", "2305843009213693951", "1" + "0" * 30, "-5", "five", "5.0", "",
              "0x5", "\u0665"])  # the last is an Arabic-Indic 5, which int() reads
_DEGREES = _mostly(["1", "2", "3", "4", "5", "41"],
                   ["0", "-1", "10000", "100000", "100000000000", "1" + "0" * 30, "two", "1.5"])
# G^n has p^(n // 2) in it: printable at n = 10000 for p <= 7 only, and at n >= 100000 for no p
_RESIDUE_DEGREES = st.one_of(_DEGREES, st.sampled_from(["10000", "10001", "100000", "100000000000"]))
_BUDGETS = ["0", "1", "-1", "-" + "1" * 40, "ten", "1e6"]
_GROUP_BOUNDS = ["13", "5", "0", "-1", "ten"]  # never above the default
_FORMAT = _mostly([[], ["--format", "json"], ["--format", "text"]], [["--format", "xml"]])


def _polynomials(p: str):
    degree = int(p) if p.isdigit() and 0 < int(p) < 100 else 5
    return _mostly([f"x^{degree}-{degree}", f"x^{degree}+x+1", f"x^{degree}-{degree}*x+{degree}",
                    f"x^{degree}+{degree}*x^2-{degree}", json.dumps([-degree] + [0] * (degree - 1) + [1]),
                    json.dumps([f"-{degree}/2"] + ["0"] * (degree - 1) + ["1"])],
                   [f"x^{degree}-{degree}/2", f'["1/0"{", 0" * (degree - 1)}, 1]', f"x^{degree}-" + "9" * 5000,
                    "x^3-3", "x^7-7", "[1.5, 2]", "[]", '["a"]', "[1e400]", "[", "[[1]]", "[true, 1]",
                    "[" + "9" * 5000 + ", 1]", "[null]", "", "x^^5", "y^5-5", "x^-5", "x^99999999999", "5", "x^5-5)"])


def _flags(names, values):
    """Each flag of ``names`` absent two times in three, else set to one of ``values``."""
    return st.tuples(*(st.one_of(st.just([]), st.just([]), values.map(lambda v, n=name: [n, v]))
                       for name in names)).map(lambda parts: [word for part in parts for word in part])


@st.composite
def _classify(draw):
    p = draw(_P)
    return ["classify", "--p", p, "--f", draw(_polynomials(p)), "--n", draw(_RESIDUE_DEGREES),
            *draw(_flags(["--coset-budget"], st.sampled_from(["1000000", *_BUDGETS]))),
            *draw(_flags(["--group-bound"], st.sampled_from(_GROUP_BOUNDS)))]


_chartab = st.tuples(_P, _mostly(["inertia", "full"], ["other"]),
                     _flags(["--group-bound"], st.sampled_from(_GROUP_BOUNDS))).map(
    lambda t: ["chartab", "--p", t[0], "--group", t[1], *t[2]])


@st.composite
def _count(draw):
    mode = draw(_mostly(["curve", "twisted"], ["naive"]))
    # the degree and budget flags of this mode, else those of the other, both or neither
    own, other = (["--m", "--enum-budget"], ["--n", "--coset-budget"])[::1 if mode == "curve" else -1]
    degree, budget = draw(_mostly([own], [other, [None, None], [own[0], other[1]], [other[0], own[1]]]))
    return ["count", "--mode", mode, "--p", draw(_P), *([degree, draw(_DEGREES)] if degree else []),
            *draw(_flags([budget] if budget else [], st.sampled_from(["10000000", "1000000", *_BUDGETS])))]


_verify = st.one_of(st.tuples(_P, _DEGREES).map(lambda t: ["verify", "--p", t[0], "--n", t[1]]),
                    _flags(["--p", "--n"], st.one_of(_P, _DEGREES)).map(lambda flags: ["verify", *flags]))
_argv = st.tuples(st.one_of(_classify(), _chartab, _count(), _verify), _FORMAT).map(
    lambda t: t[0] + t[1])


@settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv)
def test_every_argv_ends_in_a_documented_way(argv):
    out, err = io.StringIO(), io.StringIO()
    # an example that never returns, such as a power of astronomic size, would hang the run before the
    # wall-time assert below could fail: past HANG_S the process exits with code 1 and the stack of each
    # thread on stderr (which pytest's capture swallows; run with -s to read it)
    faulthandler.dump_traceback_later(HANG_S, exit=True, file=sys.__stderr__)
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        faulthandler.cancel_dump_traceback_later()
    elapsed = time.perf_counter() - started
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    assert elapsed < WALL_CAP_S
    if not out:  # argparse refused argv: its usage line is on stderr
        assert code == 2 and err.startswith("usage:")
        return
    if "text" not in argv or code == 2:  # JSON mode; errors are JSON under either format
        data = json.loads(out)  # exactly one document: trailing text fails
        assert out == json.dumps(data, indent=2, sort_keys=True) + "\n"
        # the CLI's last-resort handler turns any other exception into exit 4: a fault all the same
        assert data.get("error", {}).get("code") != "unexpected_error"
