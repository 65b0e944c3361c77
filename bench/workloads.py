"""The three workloads: seeded inputs, expected answers, output checks and
the closed loop that times them.

Every operation is checked on the fields that carry the answer (exit code,
refusal failures, psi label and values, eigenvalues, conductor,
verification counts), never on raw bytes, so fields added to a report later
do not count as failures.  The expected values come from outside the code
under test wherever a closed form exists:

* the discriminant valuation of an Eisenstein polynomial of degree p is
  p + i - 1, where i is the lowest degree with a p-adic unit among the
  coefficients a_i / p (2p - 1 when there is none); it decides the gcd
  condition and is the conductor exponent;
* the Frobenius eigenvalues are +-G^n with G the quadratic Gauss sum for odd
  n, and (+-p)^(n/2) for even n;
* the twisted trace is -((+-p)^((n+1)/2)), with the sign making +-p = 1 mod 4.

The psi values and the count_curve totals have no closed form here; they
are checked against values recorded when this benchmark was written.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

WHY = {
    "classify-batch": (
        "padic does most of the work in one warm interpreter (the difference polynomial costs about "
        "0.5 s per input at p = 13); groups work is cached after warm-up and counting only counts q = p, "
        "so a groups or counting optimisation should leave it unchanged"),
    "count-sweep": (
        "gf and counting do nearly all the work and padic and groups none; the prime and field degree "
        "set the cost of each field multiplication, and even and odd m give nonzero and zero traces"),
    "cli-oneshot": (
        "the only workload with cold caches: import time, brute-force conjugacy classes and cyclotomic "
        "table values show here, so work moved into import or module set-up helps the batch and shows "
        "here as a loss"),
}

# -- closed forms -------------------------------------------------------------


def signed_p(p: int) -> int:
    """+-p, with the sign that makes it 1 mod 4."""
    return -p if p % 4 == 3 else p


def _legendre(a: int, p: int) -> int:
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


def gauss_sum_coeffs(p: int) -> list[int]:
    """sum_a (a|p) zeta^a in the basis zeta^0..zeta^(p-2) of Q(zeta_p)."""
    top = _legendre(p - 1, p)  # zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    return [-top] + [_legendre(a, p) - top for a in range(1, p - 1)]


def twisted_trace(p: int, n: int) -> int:
    return -(signed_p(p) ** ((n + 1) // 2))


def disc_valuation(p: int, i0: int) -> int:
    return p + i0 - 1 if i0 < p else 2 * p - 1


def expected_eigenvalues(p: int, n: int) -> list[dict]:
    g = (p - 1) // 2
    if n % 2 == 0:
        lam = signed_p(p) ** (n // 2)
        return [{"multiplicity": 2 * g, "value": {"m": p, "coeffs": [str(lam)] + ["0"] * (p - 2)}}]
    chi = [c * signed_p(p) ** ((n - 1) // 2) for c in gauss_sum_coeffs(p)]
    return [{"multiplicity": g, "value": {"m": p, "coeffs": [str(c) for c in chi]}},
            {"multiplicity": g, "value": {"m": p, "coeffs": [str(-c) for c in chi]}}]


# psi label and a digest of its values, per (p, parity of n), recorded at the
# commit that introduced this benchmark
PSI_RECORDED = {
    (3, 1): ("wild--", "eb9f7a667ec2f7b4"), (3, 0): ("wild-", "645f461467c23142"),
    (5, 1): ("wild--", "20a7c0d31f6159c4"), (5, 0): ("wild-", "93483ae09f56aa72"),
    (7, 1): ("wild--", "349f2fe0cbac0fe1"), (7, 0): ("wild-", "1ecd19ec93257192"),
    (11, 1): ("wild--", "7e256439b0df1eeb"), (11, 0): ("wild-", "eea56a224cacaaf6"),
    (13, 1): ("wild--", "5430ca73060b3ac9"), (13, 0): ("wild-", "c3231e4ba460b788"),
}

# count_curve(p, m).total, recorded at the same commit
CURVE_TOTALS = {(3, 8): 6400, (5, 5): 3126, (7, 4): 2108, (13, 3): 2198, (3, 2): 16, (5, 1): 6, (3, 1): 4}


def _digest(values) -> str:
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()[:16]


def expected_answer(p: int, n: int, i0: int) -> dict:
    v = disc_valuation(p, i0)
    if math.gcd(v, p - 1) != 1:
        return {"refused": ["gcd_condition"]}
    if n % 2:
        t = twisted_trace(p, n)
        verification = {"status": "ok", "trace_counted": t, "trace_predicted": t, "match": True}
    else:
        verification = {"status": "skipped"}
    return {"psi": list(PSI_RECORDED[(p, n % 2)]), "eigenvalues": expected_eigenvalues(p, n),
            "conductor": {"status": "computed", "exponent": v}, "verification": verification}


def answer_fields(report: dict) -> dict:
    """The fields of a classify report (or refusal) that carry the answer."""
    if "refused" in report:
        return {"refused": report["refused"]["failures"]}
    v = report["verification"]
    return {"psi": [report["psi"]["label"], _digest(report["psi"]["values"])],
            "eigenvalues": report["eigenvalues"], "conductor": report["conductor"],
            "verification": {k: v[k] for k in ("status", "trace_counted", "trace_predicted", "match") if k in v}}


# -- seeded polynomials -------------------------------------------------------


def eisenstein_after_shift(p: int, i0: int, rng: random.Random) -> list[int]:
    """Monic f with f(x + c) Eisenstein for a random 0 <= c < p.

    f(x + c) = x^p + p * (b_(p-1) x^(p-1) + ... + b_1 x + u) with u a unit and
    b_i = 0 below i0, a unit at i0 and small above it; i0 = p leaves all b_i
    zero.  Coefficients ascend from degree 0.
    """
    b = [0] * p
    if i0 < p:
        b[i0] = rng.choice((-2, -1, 1, 2))
        for i in range(i0 + 1, p):
            b[i] = rng.randint(-2, 2)
    g = [p * rng.choice((-2, -1, 1, 2))] + [p * b[i] for i in range(1, p)] + [1]
    c = rng.randrange(p)
    f = [0] * (p + 1)  # f(x) = g(x - c)
    for i, a in enumerate(g):
        for k in range(i + 1):
            f[k] += a * math.comb(i, k) * (-c) ** (i - k)
    return f


def _lowest_unit_index(p: int, accepted: bool, rng: random.Random) -> int:
    choices = [i for i in range(1, p + 1) if (math.gcd(disc_valuation(p, i), p - 1) == 1) == accepted]
    return rng.choice(choices)


# -- the closed loop ----------------------------------------------------------


@dataclass
class Outcome:
    latencies: list = field(default_factory=list)  # seconds as measured, one per operation
    speeds: list = field(default_factory=list)  # calibration seconds around each operation, see speed.py
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)  # first few failure messages
    elements: int = 0  # field elements enumerated (count-sweep)
    rounds: int = 0
    by_kind: dict = field(default_factory=dict)  # operation kind -> [ops, accepted, seconds]

    def to_json(self) -> dict:
        return dict(self.__dict__)

    def merge(self, other: "Outcome") -> None:
        self.latencies += other.latencies
        self.speeds += other.speeds
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[:5 - len(self.errors)]
        self.elements += other.elements
        self.rounds += other.rounds
        for kind, figures in other.by_kind.items():
            mine = self.by_kind.setdefault(kind, [0, 0, 0.0])
            for i, value in enumerate(figures):
                mine[i] += value


def run_op(workload, op: "Op", recorder=None, request: str | None = None, calibration=None) -> Outcome:
    """One operation, timed and checked.

    With a recorder it runs inside a ``bench.request`` span of ``request``.
    With a speed.Calibration, the operation's speed is the mean of the
    samples its timer took during the operation, or else the latest sample;
    the time those samples took is not counted in the latency.
    """
    if recorder is not None:
        recorder.request = request
    paused = calibration.paused if calibration is not None else 0.0
    taken = len(calibration.samples) if calibration is not None else 0
    result = error = None
    t0 = time.perf_counter()
    span = recorder.enter("bench.request") if recorder is not None else -1
    try:
        result = workload.call(op)
    except Exception as exc:  # an operation that raises is a failed operation
        error = f"{type(exc).__name__}: {exc}"
    if span >= 0:
        recorder.leave(span)
    latency = time.perf_counter() - t0
    speeds = []
    if calibration is not None:
        latency -= calibration.paused - paused
        during = calibration.samples[taken:]
        speeds = [sum(during) / len(during) if during else calibration.samples[-1]]
    if error is None:
        try:
            error = workload.check(op, result)
        except Exception as exc:  # an output the check cannot read is a failed operation
            error = f"{type(exc).__name__}: {exc}"
    return Outcome(latencies=[latency], speeds=speeds, attempted=1, failed=bool(error),
                   errors=[f"{op.kind}: {error}"[:500]] if error else [], elements=op.elements,
                   by_kind={op.kind: [1, int(op.accepted), latency]})


def timed_loop(run_op, round_size: int, seconds: float, traced: bool) -> tuple[Outcome, Outcome]:
    """Whole rounds until ``seconds`` have passed.

    ``run_op(round, number, traced)`` runs one operation and returns its
    Outcome.  With ``traced`` each operation runs twice, bare and then under
    spans, so that drift stays out of the tracing overhead.  Returns
    (bare, traced).
    """
    bare, spanned = Outcome(), Outcome()
    start = time.perf_counter()
    rounds = 0
    while rounds == 0 or time.perf_counter() - start < seconds:
        for number in range(round_size):
            bare.merge(run_op(rounds, number, False))
            if traced:
                spanned.merge(run_op(rounds, number, True))
        rounds += 1
    bare.rounds = rounds
    spanned.rounds = rounds if traced else 0
    return bare, spanned


@dataclass
class Op:
    kind: str
    payload: object
    expected: object
    elements: int = 0
    accepted: bool = True
    key: int = 0  # same key, same input


class _Workload:
    """Ops of one round are shuffled per round from the seed; rounds cycle a fixed pool."""

    pool: list

    def __init__(self, seed: int):
        self.seed = seed
        self.answers: dict = {}  # key -> first answer seen, for the repeat check

    def round(self, index: int) -> list[Op]:
        ops = list(self.pool[index % len(self.pool)])
        random.Random(self.seed * 1000 + index).shuffle(ops)
        return ops

    def _repeat_check(self, op: Op, answer) -> str | None:
        first = self.answers.setdefault(op.key, answer)
        return None if first == answer else "repeat of the same input gave another answer"


# -- classify-batch -----------------------------------------------------------

# per round: n -> {p: inputs}.  The weights put the median inside the p = 5
# block and at least ten p = 13 inputs beyond the tail percentile.
CLASSIFY_CELLS = {1: {3: 2, 5: 3, 7: 2, 11: 1, 13: 1}, 2: {3: 2, 5: 3, 7: 2, 11: 1, 13: 1}}
TINY_CLASSIFY_CELLS = {1: {3: 1, 5: 1}, 2: {3: 1, 5: 1}}
POOL_ROUNDS = 4


class ClassifyBatch(_Workload):
    """classify(...) and .to_json() in one warm interpreter."""

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        import galrep

        self.galrep = galrep
        self.cells = TINY_CLASSIFY_CELLS if tiny else CLASSIFY_CELLS
        rng = random.Random(seed)
        self.pool = [[] for _ in range(POOL_ROUNDS)]
        key = 0
        for n, per_p in self.cells.items():
            for p, count in per_p.items():
                # lowest-unit indices cycle through shuffles of 1..p, so each
                # cell refuses about the same share in every seed
                order: list[int] = []
                while len(order) < count * POOL_ROUNDS:
                    block = list(range(1, p + 1))
                    rng.shuffle(block)
                    order += block
                for r in range(POOL_ROUNDS):
                    for i0 in order[r * count:(r + 1) * count]:
                        f = galrep.InputPolynomial.from_coefficients(p, eisenstein_after_shift(p, i0, rng))
                        expected = expected_answer(p, n, i0)
                        self.pool[r].append(Op(f"p{p}n{n}", (f, galrep.BaseField(p, n)), expected,
                                               accepted="refused" not in expected, key=key))
                        key += 1

    def warm_up(self) -> str | None:
        """One classify per (p, parity of n), on x^p - p."""
        for p in sorted({p for per_p in self.cells.values() for p in per_p}):
            for n in (1, 2):
                f = self.galrep.InputPolynomial.from_coefficients(p, [-p] + [0] * (p - 1) + [1])
                op = Op("warm-up", (f, self.galrep.BaseField(p, n)), expected_answer(p, n, p), key=-1)
                error = self.check(op, self.call(op), repeat=False)
                if error:
                    return error
        return None

    def call(self, op: Op):
        try:
            return self.galrep.classify(*op.payload).to_json()
        except self.galrep.ClassificationRefused as exc:
            return exc

    def check(self, op: Op, result, repeat: bool = True) -> str | None:
        if isinstance(result, self.galrep.ClassificationRefused):
            answer = {"refused": result.failures}
        else:
            answer = answer_fields(json.loads(result))
        if answer != op.expected:
            return f"answer {answer} != expected {op.expected}"
        return self._repeat_check(op, answer) if repeat else None

    def summary(self) -> list[str]:
        lines = []
        for n, per_p in self.cells.items():
            for p in per_p:
                ops = [op for rnd in self.pool for op in rnd if op.kind == f"p{p}n{n}"]
                lines.append(f"input p={p} n={n}: {len(ops)} inputs, {sum(op.accepted for op in ops)} accepted, "
                             f"{sum(not op.accepted for op in ops)} refused")
        return lines


# -- count-sweep --------------------------------------------------------------

COUNT_CALLS = (("count_curve", 3, 8), ("count_curve", 5, 5), ("count_curve", 7, 4), ("count_curve", 13, 3),
               ("count_twisted_fixed", 3, 7), ("count_twisted_fixed", 7, 3), ("count_twisted_fixed", 5, 3),
               ("count_twisted_fixed", 13, 1))
TINY_COUNT_CALLS = (("count_curve", 3, 2), ("count_curve", 5, 1),
                    ("count_twisted_fixed", 3, 1), ("count_twisted_fixed", 5, 1))


class CountSweep(_Workload):
    """The two point counters in one warm interpreter; a round is one sweep of the calls."""

    def __init__(self, seed: int, tiny: bool = False):
        super().__init__(seed)
        import galrep

        self.galrep = galrep
        self.calls = TINY_COUNT_CALLS if tiny else COUNT_CALLS
        self.pool = [[Op(f"{fn}({p},{k})", (fn, p, k), None, elements=p**k, key=i)
                      for i, (fn, p, k) in enumerate(self.calls)]]

    def warm_up(self) -> str | None:
        """One call per counter, on the smallest field."""
        for fn in ("count_curve", "count_twisted_fixed"):
            op = Op("warm-up", (fn, 3, 1), None, key=-1)
            error = self.check(op, self.call(op), repeat=False)
            if error:
                return error
        return None

    def call(self, op: Op):
        fn, p, k = op.payload
        return getattr(self.galrep, fn)(p, k)

    def check(self, op: Op, result, repeat: bool = True) -> str | None:
        fn, p, k = op.payload
        q = p**k
        if fn == "count_curve":
            total = CURVE_TOTALS[(p, k)]
            answer = (result.total, result.affine, result.trace)
            expected = (total, total - 1, q + 1 - total)
        else:
            t = twisted_trace(p, k)
            answer = (result.trace_sigma_frob, result.fixed_points, result.affine_solutions)
            expected = (t, q + 1 - t, q - t)
        if answer != expected:
            return f"{fn}({p},{k}) gave {answer}, expected {expected}"
        return self._repeat_check(op, answer) if repeat else None

    def summary(self) -> list[str]:
        lines = [f"input {fn}({p},{k}): q = {p**k}" for fn, p, k in self.calls]
        for fn in ("count_curve", "count_twisted_fixed"):
            lines.append(f"input sum of q per round, {fn}: {sum(p**k for f, p, k in self.calls if f == fn)}")
        return lines


# -- cli-oneshot --------------------------------------------------------------

DEFAULT_VERIFY_PAIRS = [(3, 1), (5, 1), (7, 1), (3, 3), (5, 3)]
INVALID_INPUTS = (
    (["classify", "--p", "9", "--f", "x^9-9", "--n", "1"], "p_not_odd_prime"),
    (["classify", "--p", "7", "--f", "x^5-5", "--n", "1"], "degree_mismatch"),
    (["classify", "--p", "5", "--f", "x^5-*5", "--n", "1"], "poly_parse"),
)


def _coeff_list(f: list[int]) -> str:
    return json.dumps([str(c) for c in f])


class CliOneshot(_Workload):
    """Each request is a fresh interpreter running the galrep CLI.

    With ``trace_dir`` set, each child runs under spans through cli_child.py,
    and its spans and start-up time are kept in ``dumps``.
    """

    def __init__(self, seed: int, tiny: bool = False, command: list | None = None, env: dict | None = None):
        super().__init__(seed)
        self.command = command or [sys.executable, "-m", "galrep"]
        self.env = env
        self.trace_dir = None
        self.dumps: list[dict] = []
        rng = random.Random(seed)
        classify = []
        for p, n, accepted, fmt in ((7, 3, True, "json"), (7, 1, True, "text"), (7, 1, False, "json"),
                                    (11, 2, True, "json")):
            i0 = _lowest_unit_index(p, accepted, rng)
            classify.append((f"classify p={p} n={n} {fmt}{'' if accepted else ' refused'}",
                             ["classify", "--p", str(p), "--f", _coeff_list(eisenstein_after_shift(p, i0, rng)),
                              "--n", str(n), "--format", fmt], ("classify", p, n, i0, fmt)))
        invalid_args, invalid_code = INVALID_INPUTS[rng.randrange(len(INVALID_INPUTS))]
        invalid = (f"invalid {invalid_code}", invalid_args, ("invalid", invalid_code))
        baseline_p5 = ("classify p=5 n=1 x^5-5", ["classify", "--p", "5", "--f", "x^5-5", "--n", "1"],
                       ("classify", 5, 1, 5, "json"))
        if tiny:
            requests = [baseline_p5, invalid,
                        ("count twisted p=3 n=1", ["count", "--mode", "twisted", "--p", "3", "--n", "1"],
                         ("count", 3, 1))]
        else:
            requests = [
                # the CLI cases of the ROADMAP baseline
                baseline_p5,
                ("classify p=13 n=1 x^13-13", ["classify", "--p", "13", "--f", "x^13-13", "--n", "1"],
                 ("classify", 13, 1, 13, "json")),
                ("classify p=13 n=2 x^13-13", ["classify", "--p", "13", "--f", "x^13-13", "--n", "2"],
                 ("classify", 13, 2, 13, "json")),
                ("verify", ["verify"], ("verify",)),
                ("chartab p=13 full", ["chartab", "--p", "13", "--group", "full"], ("chartab", 13)),
                *classify,
                ("chartab p=17 full", ["chartab", "--p", "17", "--group", "full", "--group-bound", "17"],
                 ("chartab", 17)),
                ("chartab p=19 full", ["chartab", "--p", "19", "--group", "full", "--group-bound", "19"],
                 ("chartab", 19)),
                ("count twisted p=7 n=3", ["count", "--mode", "twisted", "--p", "7", "--n", "3"],
                 ("count", 7, 3)),
                invalid,
            ]
        self.pool = [[Op(kind, args, spec, accepted=spec[0] != "invalid" and "refused" not in kind, key=i)
                      for i, (kind, args, spec) in enumerate(requests)]]

    def call(self, op: Op):
        """Run one child to completion; returns (exit code, stdout, stderr)."""
        command = self.command + op.payload
        if self.trace_dir is not None:
            span_file = self.trace_dir / f"{len(self.dumps)}.json"
            command = [sys.executable, str(Path(__file__).with_name("cli_child.py")), str(span_file)] + op.payload
        start_ns = time.perf_counter_ns()
        proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.env)
        try:
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if self.trace_dir is not None:
            dump = json.loads(span_file.read_text())
            span_file.unlink()
            for span in dump["spans"]:
                span[4] = f"r{len(self.dumps)}"
            # perf_counter is the system's monotonic clock, shared by the child:
            # this is interpreter start-up, before the child's first line
            dump["process_ns"] = dump.pop("begin_ns") - start_ns
            self.dumps.append(dump)
        return proc.returncode, out.decode(), err.decode()

    def check(self, op: Op, result, repeat: bool = True) -> str | None:
        rc, out, err = result
        spec = op.expected
        kind = spec[0]
        try:
            if kind == "invalid":
                answer = (rc, json.loads(out)["error"]["code"])
                expected = (2, spec[1])
            elif kind == "classify" and spec[4] == "text":
                answer = (rc, _text_answer(out))
                expected = (0, _expected_text_answer(*spec[1:4]))
            elif kind == "classify":
                _, p, n, i0, _ = spec
                expected_fields = expected_answer(p, n, i0)
                answer = (rc, answer_fields(json.loads(out)))
                expected = (3 if "refused" in expected_fields else 0, expected_fields)
            elif kind == "verify":
                data = json.loads(out)
                answer = (rc, data["all_match"], [(r["p"], r["n"], r["status"], r["trace_counted"],
                                                   r["trace_predicted"], r["match"]) for r in data["pairs"]])
                expected = (0, True, [(p, n, "ok", twisted_trace(p, n), twisted_trace(p, n), True)
                                      for p, n in DEFAULT_VERIFY_PAIRS])
            elif kind == "chartab":
                answer = (rc, _chartab_structure(json.loads(out)))
                p = spec[1]
                expected = (0, (4 * p * (p - 1),) * 3 + (True,))
            else:  # count
                _, p, n = spec
                data = json.loads(out)
                t = twisted_trace(p, n)
                answer = (rc, data["trace_sigma_frob"], data["fixed_points"], data["affine_solutions"])
                expected = (0, t, p**n + 1 - t, p**n - t)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return f"exit {rc}, unreadable output ({type(exc).__name__}: {exc}); stderr {err[-300:]!r}"
        if answer != expected:
            return f"{answer} != expected {expected}; stderr {err[-300:]!r}"
        return self._repeat_check(op, answer) if repeat else None

    def summary(self) -> list[str]:
        return [f"input request {op.kind}: expected exit {2 if op.expected[0] == 'invalid' else 0 if op.accepted else 3}"
                for op in self.pool[0]]


def _text_answer(out: str) -> tuple:
    psi = re.search(r"^psi = (\S+),", out, re.M)
    conductor = re.search(r"^conductor exponent N = (\d+)$", out, re.M)
    eig = re.search(r"^Frobenius eigenvalues: (\S+) \(.*?\) x(\d+), (\S+) \(.*?\) x(\d+)$", out, re.M)
    ver = re.search(r"^verification: counted trace (-?\d+), predicted (-?\d+): (\S+)$", out, re.M)
    return (psi and psi.group(1), conductor and int(conductor.group(1)), eig and eig.groups(),
            ver and (int(ver.group(1)), int(ver.group(2)), ver.group(3)))


def _expected_text_answer(p: int, n: int, i0: int) -> tuple:
    """Odd n only: the eigenvalues print as r*sqrt(+-p) with r = (+-p)^((n-1)/2)."""
    r = signed_p(p) ** ((n - 1) // 2)
    g = str((p - 1) // 2)

    def sqrt_multiple(c: int) -> str:
        return {1: "", -1: "-"}.get(c, f"{c}*") + f"√{signed_p(p)}"

    t = twisted_trace(p, n)
    return (PSI_RECORDED[(p, 1)][0], disc_valuation(p, i0), (sqrt_multiple(r), g, sqrt_multiple(-r), g),
            (t, t, "OK"))


def _chartab_structure(data: dict) -> tuple:
    """(order, sum of class sizes, sum of squared dimensions, rows consistent)."""
    classes = data["classes"]
    rows = data["rows"]
    consistent = len(rows) == len(classes) and all(
        len(r["values"]) == len(classes)
        and r["values"][0]["coeffs"][0] == str(r["dimension"])
        and not any(c != "0" for c in r["values"][0]["coeffs"][1:])
        for r in rows) and classes[0]["rep"] == [0, 0, 0]
    return (data["order"], sum(c["size"] for c in classes), sum(r["dimension"] ** 2 for r in rows), consistent)


WORKLOADS = {"classify-batch": ClassifyBatch, "count-sweep": CountSweep, "cli-oneshot": CliOneshot}
