#!/usr/bin/env python3
"""Benchmark of the quasiprime engine, driven only through its public API.

    python3 perfbench/run.py --workload cli|scalar|sweep --seed N --seconds S --trace 0|1

Run it from the repository root (it imports ``src/quasiprime`` and spawns
``python -m quasiprime`` there).  Every run has one caller, closed loop,
no extra threads, and these phases:

* setup    a fresh interpreter up to its first answered call;
* cli      spawns ``python -m quasiprime``, one request at a time;
* scalar   calls is_prime, factor_on_grid and full_factorize, one number at a time;
* sweep    verify_range(L) followed by survivor_density(L).

The workload's own phase (cli, scalar or sweep) runs for the seconds; the
other phases run a fixed amount of work, so that every end-to-end metric
exists on every workload.  All of them are spread over ROUNDS rounds.
Every time is scaled by the machine's speed around it (yardstick.py).
Inputs come from ``--seed`` alone.  Outputs are checked after the timed
phases against answers that ``reference.py`` computes with sympy in a
separate process.

With ``--trace 0`` the run reports the end-to-end metrics.  With
``--trace 1`` it runs the same phases untraced and then traced, each with
half the seconds, adds fixed per-layer probes, and reports the per-layer
metrics derived from the spans (see README.md).  Human-readable lines go
first; the last line of stdout is one JSON object.  The exit code is 1
when any output is wrong, 2 when the package cannot be found.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from array import array
from dataclasses import dataclass, field
from math import gcd, isqrt
from pathlib import Path
from time import perf_counter_ns, process_time_ns

from tracing import Tracer
from yardstick import Yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
OUT = ROOT / ".perfbench_out"
# One caller, no extra threads: numpy's BLAS would otherwise start a thread
# per core at import, and whether those find a free core on a shared
# 2-core machine swung a CLI request's time between 160 and 280 ms.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


# Each workload's own traffic is the phase of the same name: a fixed seeded
# list of work, cycled closed loop for --seconds.  Every other phase runs as
# a fixed-size probe: PROBE_ITEMS of its list per round, also cycled, so that
# every end-to-end metric exists on every workload without a guessed traffic
# mix.  The run is split into ROUNDS so that the repeats of every item, own
# or probe, are spread over the whole run, and an item's figure is the
# median of its scaled times (see README.md).
WORKLOADS = ("cli", "scalar", "sweep")
PHASES = ("setup", "cli", "scalar", "verify", "density")
ROUNDS = 10
PROBE_ITEMS = {"cli": 4, "scalar": 4000, "sweep": 2}  # requests, ops, passes per round
SCALAR_LIST = 8000  # ops of the scalar list, each on its own number (see README.md for why so many)
SCALAR_N_MAX = 10**10  # largest n on scalar: its list takes ~4.5 s, so each op repeats ~3 times
PROBE_N_MAX = 10**8  # largest n of the scalar probe, so that its list takes ~0.8 s
CLI_N_MAX = 10**9  # largest n of a cli request
SWEEP_LIMIT = 5 * 10**4  # L of verify_range(L) and survivor_density(L): a pass takes ~0.2 s

N_MIN = 10**3
SHELL_REPEATS = 5
FACTOR_STRIDE = 101  # verify_range's default, repeated for the trial_factor probe
CLI_PATTERN = ["prime_json"] * 6 + ["prime_quiet"] * 4 + ["factor_json"] * 5 + ["qgrid"] * 2 + ["wheel"] * 3
SCALAR_OPS = ("is_prime.asc", "is_prime.balanced", "factor_on_grid.asc", "factor_on_grid.balanced", "full_factorize")
SETUP_CODE = ("import sys, time, quasiprime; "
              "print(quasiprime.is_prime(int(sys.argv[1])).kind.value, time.process_time_ns(), flush=True)")
SETUP_N = 91
WHEEL_MODULI = [r for r in range(1, 25) if gcd(r, 6) == 1]
STAGES = ("NotOdd", "LastDigit", "DigitalRoot369", "NotPrimeModulus")
NO_FACTORS = "NoFactorsError"
# A child's own peak RSS, printed by itself: VmHWM counts from its exec,
# while wait4's ru_maxrss also counts the benchmark's RSS at the fork.
VMHWM = "print(next(line for line in open('/proc/self/status') if line.startswith('VmHWM:')), file=sys.stderr)"
RSS_CODE = {
    "cli": "import runpy, sys\ntry:\n    runpy.run_module('quasiprime', run_name='__main__', alter_sys=True)\n"
           "finally:\n    " + VMHWM,
    "pass": "import sys\nsys.path.insert(0, sys.argv[1])\nimport run\nrun.one_pass(sys.argv[2], int(sys.argv[3]))\n" + VMHWM,
}


# --------------------------------------------------------------------------
# seeded inputs

MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin on the first 12 prime bases, exact below 3.3e24."""
    if n < 2:
        return False
    for p in MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n: int) -> int:
    while not is_probable_prime(n):
        n += 1
    return n


def prev_prime(n: int) -> int:
    while not is_probable_prime(n):
        n -= 1
    return n


def coprime6(n: int) -> int:
    """Smallest m >= n with gcd(m, 6) = 1."""
    while n % 2 == 0 or n % 3 == 0:
        n += 1
    return n


def stratified(rng: random.Random, count: int) -> list[float]:
    """``count`` positions in [0, 1), one in each slice of width 1/count at
    one seeded offset, in seeded order.

    Any seed's positions are then within 1/count of every other seed's, so
    percentiles over the items do not move with the seed.  (A golden-ratio
    sequence from a seeded start, taken every 15th item, clustered at about
    11 points, and a percentile between clusters moved by 15 % with the seed.)
    """
    offset = rng.random()
    positions = [(i + offset) / count for i in range(count)]
    rng.shuffle(positions)
    return positions


class Inputs:
    """Numbers in [10**3, n_max] from a seed, in three classes: 0 is
    log-uniform random n, 1 a prime, 2 a semiprime p*q with p up to 10 %
    below sqrt(n)."""

    def __init__(self, seed: str, n_max: int):
        self.rng = random.Random(seed)
        self.log_lo = math.log(N_MIN)
        self.log_span = math.log(0.99 * n_max) - self.log_lo

    def number(self, cls: int, j: int, size: float, gap: float) -> int:
        """The j-th number of class ``cls``, at position ``size`` on the log
        scale; ``gap`` sets how far a semiprime's p lies below sqrt(n)."""
        n = int(math.exp(self.log_lo + self.log_span * size))
        if cls == 0:
            return n + (j - n) % 30  # residues mod 30 in turn, so parity and small factors do not vary by seed
        if cls == 1:
            return next_prime(n)
        p = prev_prime(int(isqrt(n) * (1 - 0.1 * gap)))
        return p * next_prime(n // p + 1)

    def numbers(self, count: int, groups: int) -> list[tuple[int, int]]:
        """(class, n) of ``count`` items: item k has class k % 3 and group
        k % ``groups`` (a multiple of 3), and each group's sizes and gaps are
        stratified on their own."""
        members = [len(range(g, count, groups)) for g in range(groups)]
        sizes = [stratified(self.rng, m) for m in members]
        gaps = [stratified(self.rng, m) for m in members]
        return [
            (k % 3, self.number(k % 3, k // 3, sizes[k % groups][k // groups], gaps[k % groups][k // groups]))
            for k in range(count)
        ]


# --------------------------------------------------------------------------
# measurement


@dataclass
class Record:
    """Timings and outputs of one run.

    The samples of each phase are (item, start ns, ns).  Only an item's first
    output is kept, for the reference check; every repeat is compared with
    it on the spot, so that the heap, and with it the garbage collector's
    work inside the timed calls, does not grow as the run goes on.
    """

    speed: Yardstick
    samples: dict = field(default_factory=lambda: {phase: [] for phase in PHASES})
    outputs: dict = field(default_factory=lambda: {phase: {} for phase in PHASES})
    repeats: int = 0  # outputs compared with their item's first
    differ: list = field(default_factory=list)  # (phase, item, first output, differing repeat)
    cells: array = field(default_factory=lambda: array("q"))  # i, j, value of each witness cell

    def keep(self, phase: str, item, output, t0: int, ns: int) -> None:
        self.samples[phase].append((item, t0, ns))
        outputs = self.outputs[phase]
        if item not in outputs:
            outputs[item] = output
            return
        self.repeats += 1
        if output != outputs[item]:
            self.differ.append((phase, item, outputs[item], output))


def until(items, seconds: float):
    """Items until ``seconds`` have passed: at least one, and the last one is finished."""
    deadline = perf_counter_ns() + int(seconds * 1e9)
    for item in items:
        yield item
        if perf_counter_ns() >= deadline:
            return


def per_item(speed: Yardstick, kind: str, samples) -> list[float]:
    """Each distinct item's median scaled time over its repeats, from (item, start ns, ns)."""
    times: dict = {}
    for item, t0, ns in samples:
        times.setdefault(item, []).append(speed.scale(kind, t0, ns))
    return [statistics.median(v) for v in times.values()]


def child_env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, **ONE_THREAD, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))


def spawn(argv: list[str]) -> tuple[bytes, bytes, int, int, int]:
    """Run one child to exit; (stdout, stderr, exit code, wall ns, its CPU ns).

    stderr goes to a file so that reading stdout to the end cannot block,
    and the child is reaped with wait4 to get its own CPU time.  (Not its
    ru_maxrss: that counts this process's RSS at the fork.)
    """
    with open(TMP / "stderr", "w+b") as err_file:
        t0 = perf_counter_ns()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err_file, cwd=ROOT, env=child_env())
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        t1 = perf_counter_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_file.seek(0)
        err = err_file.read()
    return out, err, proc.returncode, t1 - t0, round((usage.ru_utime + usage.ru_stime) * 1e9)


def spawn_floor() -> tuple[int, int]:
    """(wall stamp, CPU ns) of ``python -c pass``, the yardstick of child processes."""
    t0 = perf_counter_ns()
    _, _, code, _, cpu_ns = spawn([sys.executable, "-c", "pass"])
    if code != 0:
        raise RuntimeError(f"python -c pass exited {code}")
    return t0, cpu_ns


def setup_phase(rec: Record) -> None:
    """A fresh interpreter up to its first answered call: the CPU time the
    child has used when it prints the answer, read by the child itself."""
    rec.speed.floor()
    t0 = perf_counter_ns()
    out, _, code, _, _ = spawn([sys.executable, "-c", SETUP_CODE, str(SETUP_N)])
    answer, _, cpu_ns = out.decode().partition(" ")
    rec.keep("setup", SETUP_N, (answer, code), t0, int(cpu_ns) if cpu_ns.strip().isdigit() else 0)


def cli_argv(kind: str, n: int, rng: random.Random) -> list[str]:
    if kind == "prime_json":
        return ["prime", str(n), "--json"]
    if kind == "prime_quiet":
        return ["prime", str(n), "--quiet"]
    if kind == "factor_json":
        return ["factor", str(n), "--json"]
    if kind == "qgrid":
        r, c = rng.randint(1, 200), rng.randint(1, 200)
        return ["qgrid", "--rows", f"{r}..{r + rng.randint(4, 19)}", "--cols", f"{c}..{c + rng.randint(4, 19)}", "--json"]
    return ["wheel", "--limit", str(rng.randint(900, 1100)), "--out", str(TMP / "wheel.svg"), "--json"]


def cli_requests(seed: int) -> list:
    """One pass: (argv, n) for each kind of CLI_PATTERN in seeded order."""
    inputs = Inputs(f"{seed}:cli", CLI_N_MAX)
    kinds = CLI_PATTERN[:]
    inputs.rng.shuffle(kinds)
    requests = []
    for kind, (_, n) in zip(kinds, inputs.numbers(len(kinds), 3)):
        requests.append((tuple(cli_argv(kind, n, inputs.rng)), n))
    return requests


def cli_phase(qp, tracer, rec: Record, requests) -> None:
    """Spawns ``python -m quasiprime`` once per request, one at a time."""
    for argv, n in requests:
        rec.speed.floor()
        t0 = perf_counter_ns()
        out, _, code, wall_ns, cpu_ns = spawn([sys.executable, "-m", "quasiprime", *argv])
        marks = None
        if argv[0] == "wheel" and code == 0:
            svg = (TMP / "wheel.svg").read_text(encoding="utf-8")
            marks = svg.count('class="prime"') + svg.count('class="offpattern"')
        if tracer is not None:
            trace_cli_request(qp, tracer, argv, wall_ns)
        rec.keep("cli", (argv, n), (code, out.decode(), marks), t0, cpu_ns)


def trace_cli_request(qp, tracer, argv, child_ns):
    """Spans for one request: the child process, then the same request in-process."""
    tracer.request_id += 1
    with tracer.span("bench.request"):
        now = perf_counter_ns()
        tracer.record("shell.process", now - child_ns, now)
        with tracer.span("shell.main"), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            qp.shell.main(list(argv))
        if argv[0] == "qgrid":
            (i_lo, i_hi), (j_lo, j_hi) = (map(int, argv[a].split("..")) for a in (2, 4))
            with tracer.span("qgrid.region"):
                qp.region(i_lo, i_hi, j_lo, j_hi)
        elif argv[0] == "wheel":
            with tracer.span("shell.build_wheel_render"):
                render = qp.shell.build_wheel_render(24, int(argv[2]))
            with tracer.span("shell.emit_wheel_svg"):
                qp.shell.emit_wheel_svg(render)


def scalar_calls(qp) -> dict:
    asc, bal = qp.SearchStrategy.ASCENDING_SCAN, qp.SearchStrategy.BALANCED_FIRST
    return {
        "is_prime.asc": lambda n: qp.is_prime(n, asc),
        "is_prime.balanced": lambda n: qp.is_prime(n, bal),
        "factor_on_grid.asc": lambda n: qp.factor_on_grid(n, asc),
        "factor_on_grid.balanced": lambda n: qp.factor_on_grid(n, bal),
        "full_factorize": qp.full_factorize,
    }


def scalar_ops(seed: int, n_max: int) -> list:
    """The scalar list: SCALAR_LIST (op, x), the ops of SCALAR_OPS in turn.

    Each op has its own number, and op k % 5 meets input class k % 3, so
    every op sees every class equally, with sizes stratified for each of
    the 15 pairs.  One number per op, rather than all five ops on each
    number, makes the percentiles rest on 8,000 draws instead of 1,600.
    """
    inputs = Inputs(f"{seed}:scalar", n_max)
    ops = []
    for k, (_, n) in enumerate(inputs.numbers(SCALAR_LIST, 3 * len(SCALAR_OPS))):
        op = SCALAR_OPS[k % len(SCALAR_OPS)]
        ops.append((op, coprime6(n) if op.startswith("factor_on_grid") else n))  # factor_on_grid needs gcd(n, 6) = 1
    return ops


def scalar_phase(qp, tracer, rec: Record, ops) -> None:
    """One timed call per op, one op at a time."""
    calls = scalar_calls(qp)
    for op, x in ops:
        rec.speed.loop_if_due("scan")
        t0 = perf_counter_ns() if tracer is not None else 0
        c0 = process_time_ns()
        try:
            result = calls[op](x)
        except qp.NoFactorsError:
            result = NO_FACTORS
        except Exception as exc:  # any other exception is a wrong output
            result = f"raised {type(exc).__name__}: {exc}"
        c1 = process_time_ns()
        rec.keep("scalar", (op, x), result, c0, c1 - c0)
        if tracer is not None:
            tracer.record("pipeline." + op, t0, perf_counter_ns())
            if op == "factor_on_grid.asc":  # once per number, on its value coprime to 6
                t0 = perf_counter_ns()
                qp.contains(x)
                tracer.record("qgrid.contains.scalar", t0, perf_counter_ns())


def sweep_phase(qp, tracer, rec: Record, limits) -> None:
    """verify_range(L) followed by survivor_density(L), for each L.

    Untraced passes call both with their defaults.  Traced passes classify
    through a span per call, and the first also keeps its verdicts' stages
    and witness cells.
    """
    for limit in limits:
        rec.speed.loop("calls")
        c0 = process_time_ns()
        if tracer is None:
            report = qp.verify_range(limit)
        else:
            with tracer.span("oracle.verify_range"):
                report = qp.verify_range(
                    limit,
                    classify=traced_classifier(qp, tracer, rec.cells if not rec.samples["verify"] else None),
                    factorize=tracer.wrap("pipeline.full_factorize.sweep", qp.full_factorize),
                )
        rec.keep("verify", limit, report, c0, process_time_ns() - c0)
        rec.speed.loop("calls")
        c0 = process_time_ns()
        if tracer is None:
            density = qp.survivor_density(limit)
        else:
            with tracer.span("pipeline.survivor_density"):
                density = qp.survivor_density(limit)
        rec.keep("density", limit, density, c0, process_time_ns() - c0)


def traced_classifier(qp, tracer, cells):
    """is_prime with a span per call.  Given an array for ``cells``, it also
    counts the deciding stage and keeps each witness cell as i, j, value (flat
    ints, which the garbage collector never scans).  That bookkeeping sits
    inside the span so that verify_range's self time stays the oracle's own."""
    nid = tracer.name_id("pipeline.is_prime.sweep")
    append, is_prime, cell_type = tracer.append, qp.is_prime, qp.GridCoordinate
    decided = tracer.counts

    def classify(n, strategy):
        t0 = perf_counter_ns()
        verdict = is_prime(n, strategy)
        if cells is not None:
            stage = verdict.deciding_stage
            decided["pipeline.decided_by." + (stage.value if stage else "none")] += 1
            w = verdict.witness
            if type(w) is cell_type:
                cells.extend((w.i, w.j, w.value))
        append(nid, t0, perf_counter_ns())
        return verdict

    return classify


def run_workload(qp, workload: str, seed: int, seconds: float, tracer=None) -> Record:
    """ROUNDS rounds, each of a set-up, the workload's own list for its share
    of ``seconds``, and PROBE_ITEMS of every other list."""
    rec = Record(Yardstick(spawn_floor))
    lists = {
        "cli": itertools.cycle(cli_requests(seed)),
        "scalar": itertools.cycle(scalar_ops(seed, SCALAR_N_MAX if workload == "scalar" else PROBE_N_MAX)),
        "sweep": itertools.repeat(SWEEP_LIMIT),
    }
    phases = {"cli": cli_phase, "scalar": scalar_phase, "sweep": sweep_phase}
    for _ in range(ROUNDS):
        setup_phase(rec)
        phases[workload](qp, tracer, rec, until(lists[workload], seconds / ROUNDS))
        for name in WORKLOADS:
            if name != workload:
                phases[name](qp, tracer, rec, itertools.islice(lists[name], PROBE_ITEMS[name]))
    return rec


# --------------------------------------------------------------------------
# reference check


def reference_answers(job: dict) -> dict:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("reference.py"))],
        input=json.dumps(job), capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"reference process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def build_job(recs: list[Record]) -> dict:
    numbers = {SETUP_N}
    pis, limits, axis = set(), set(), 0
    for rec in recs:
        numbers.update(x for _, x in rec.outputs["scalar"])
        for argv, n in rec.outputs["cli"]:
            if argv[0] in ("prime", "factor"):
                numbers.add(n)
            elif argv[0] == "wheel":
                pis.add(int(argv[2]))
            else:
                axis = max(axis, *(int(argv[a].split("..")[1]) for a in (2, 4)))
        pis.update(rec.outputs["verify"])
        limits.update(rec.outputs["density"])
    return {"numbers": sorted(numbers), "primepi": sorted(pis), "coprime30": sorted(limits), "axis": axis}


def verdict_ok(kind, witness, n, strategy, facts) -> bool:
    """A verdict is right when it matches the reference and its witness proves it."""
    if kind in ("prime", "prime_special_small"):
        return facts["prime"]
    if kind != "composite" or facts["prime"]:
        return False
    if isinstance(witness, int):  # a bare divisor from a filter stage
        a, b = witness, n // witness
        if a * b != n or a in (1, n):
            return False
        return strategy != "asc" or a == facts["factors"][0]
    a, b = witness
    return a * b == n and a == (facts["factors"][0] if strategy == "asc" else facts["balanced"])


def scalar_ok(qp, op, n, result, facts) -> bool:
    strategy = op.rpartition(".")[2]
    if op.startswith("is_prime"):
        if not isinstance(result, qp.PrimalityVerdict) or result.n != n:
            return False
        w = result.witness
        witness = tuple(w.axis_values) if isinstance(w, qp.GridCoordinate) else w
        return verdict_ok(result.kind.value, witness, n, strategy, facts)
    if op.startswith("factor_on_grid"):
        if result == NO_FACTORS:  # the documented typed error on a prime
            return facts["prime"]
        if not isinstance(result, qp.FactorPair):
            return False
        return verdict_ok("composite", (result.a, result.b), n, strategy, facts)
    return result == facts["factors"]


def cli_ok(argv, n, code, out, marks, ans) -> bool:
    if argv[0] == "prime" and argv[2] == "--quiet":
        facts = ans["numbers"][str(n)]
        return out == "" and code == (0 if facts["prime"] else 1)
    if code != 0:
        return False
    payload = json.loads(out)
    if argv[0] == "prime":
        w = payload["witness"]
        witness = tuple(w) if isinstance(w, list) else w
        return (payload["n"] == n and payload["strategy"] == "asc"
                and verdict_ok(payload["verdict"], witness, n, "asc", ans["numbers"][str(n)]))
    if argv[0] == "factor":
        factors = ans["numbers"][str(n)]["factors"]
        return payload["factors"] == factors and payload["outside_wheel"] == [p for p in factors if p < 5]
    if argv[0] == "qgrid":
        (i_lo, i_hi), (j_lo, j_hi) = (map(int, argv[a].split("..")) for a in (2, 4))
        rows, cols = ans["axis"][i_lo - 1:i_hi], ans["axis"][j_lo - 1:j_hi]
        return (payload["row_axis"] == rows and payload["col_axis"] == cols
                and payload["values"] == [[a * b for b in cols] for a in rows])
    limit = int(argv[2])
    return (payload["limit"] == limit and payload["sides"] == 24
            and payload["highlighted_moduli"] == WHEEL_MODULI
            and marks == ans["primepi"][str(limit)])


def holds(check_fn, *args) -> bool:
    """check_fn(*args), where an output too malformed to inspect counts as wrong."""
    try:
        return check_fn(*args)
    except (ValueError, KeyError, TypeError, AttributeError):
        return False


def check(qp, recs: list[Record], ans, log) -> tuple[int, int]:
    """(attempted, failed) over every output of the run."""
    attempted = failed = 0

    def tally(ok: bool, what: str):
        nonlocal attempted, failed
        attempted += 1
        if not ok:
            failed += 1
            log(f"WRONG {what}")

    setup_kind = "prime" if ans["numbers"][str(SETUP_N)]["prime"] else "composite"
    for rec in recs:
        outputs = rec.outputs
        for answer, code in outputs["setup"].values():
            tally(code == 0 and answer == setup_kind, f"setup answer {answer!r} exit {code}")
        for (argv, n), (code, out, marks) in outputs["cli"].items():
            tally(holds(cli_ok, argv, n, code, out, marks, ans), f"cli {' '.join(argv)} exit {code}: {out.strip()[:200]}")
        for (op, n), result in outputs["scalar"].items():
            tally(holds(scalar_ok, qp, op, n, result, ans["numbers"][str(n)]), f"{op}({n}) = {result!r}")
        for report in outputs["verify"].values():
            tally(report.ok, f"verify_range({report.limit}): {len(report.mismatches)} mismatches, "
                             f"{len(report.factor_mismatches)} factor mismatches")
        for report in outputs["density"].values():
            want = ans["coprime30"][str(report.limit)]
            tally(report.survivors == want, f"survivor_density({report.limit}): {report.survivors} != {want}")
        attempted += rec.repeats - len(rec.differ)  # repeats equal to their item's first output
        for phase, item, first, repeat in rec.differ:
            tally(False, f"{phase} {item!r}: a repeat gave {repeat!r}, the first {first!r}")
    for limit in {limit for rec in recs for limit in rec.outputs["verify"]}:
        got, want = qp.sieve(limit).count(), ans["primepi"][str(limit)]
        tally(got == want, f"pi({limit}) from the oracle sieve: {got} != {want}")
    return attempted, failed


# --------------------------------------------------------------------------
# metrics


def pct(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(workload: str, rec: Record) -> dict[str, tuple[float, str, int]]:
    """name -> (value, unit, the samples behind it).

    Every time is scaled to the reference speed (yardstick.py).  A request's
    or op's latency is its median scaled time over its repeats, and the
    percentiles are over distinct requests or ops.  The scalar throughput is
    that of one pass over the distinct ops at those latencies; the sweep
    throughputs are those of the median pass.
    """
    speed, samples = rec.speed, rec.samples
    timed = {phase: len(samples[phase]) for phase in PHASES}
    cli_ms = [ns / 1e6 for ns in per_item(speed, "floor", samples["cli"])]
    op_ns = per_item(speed, "scan", samples["scalar"])
    bal_ns = per_item(speed, "scan", (sample for sample in samples["scalar"] if sample[0][0].endswith("balanced")))
    verify_s, density_s, setup_s = (
        statistics.median(per_item(speed, kind, samples[phase])) / 1e9
        for phase, kind in (("verify", "calls"), ("density", "calls"), ("setup", "floor"))
    )
    return {
        "setup_s": (setup_s, "s", timed["setup"]),
        "cli_ms_p50": (statistics.median(cli_ms), "ms", f"{len(cli_ms)} requests of {timed['cli']} timed"),
        "cli_ms_p90": (pct(cli_ms, 90), "ms", f"{len(cli_ms)} requests of {timed['cli']} timed"),
        "scalar_us_p50": (statistics.median(op_ns) / 1e3, "us", f"{len(op_ns)} ops of {timed['scalar']} timed"),
        "scalar_ms_p99": (pct(op_ns, 99) / 1e6, "ms", f"{len(op_ns)} ops of {timed['scalar']} timed"),
        "scalar_ops_per_s": (len(op_ns) / (sum(op_ns) / 1e9), "1/s", f"{len(op_ns)} ops of {timed['scalar']} timed"),
        "balanced_us_p50": (statistics.median(bal_ns) / 1e3, "us", f"{len(bal_ns)} ops"),
        "balanced_ms_p90": (pct(bal_ns, 90) / 1e6, "ms", f"{len(bal_ns)} ops"),
        "verify_n_per_s": ((SWEEP_LIMIT - 1) / verify_s, "1/s", f"median of {timed['verify']} passes"),
        "density_n_per_s": (SWEEP_LIMIT / density_s, "1/s", f"median of {timed['density']} passes"),
    }


def one_pass(workload: str, seed: int) -> None:
    """One pass of the scalar list or one sweep pass, in this process."""
    import quasiprime as qp

    if workload == "scalar":
        calls = scalar_calls(qp)
        for op, x in scalar_ops(seed, SCALAR_N_MAX):
            with contextlib.suppress(qp.NoFactorsError):
                calls[op](x)
    else:
        qp.verify_range(SWEEP_LIMIT)
        qp.survivor_density(SWEEP_LIMIT)


def child_peak_kb(argv: list[str]) -> int:
    _, err, _, _, _ = spawn(argv)
    marks = [line for line in err.decode().splitlines() if line.startswith("VmHWM:")]
    if not marks:
        raise RuntimeError(f"no peak RSS from {' '.join(argv[3:])}: {err.decode().strip()[-500:]}")
    return int(marks[-1].split()[1])


def peak_rss(workload: str, seed: int, rec: Record) -> tuple[float, str, str]:
    """Peak RSS of the process running the program, measured apart from the
    timed phases: on cli the largest of one request of each kind, otherwise
    a child making one pass of the workload's own list, which carries none
    of the benchmark's bookkeeping."""
    if workload == "cli":
        kinds = {(argv[0], argv[-1]): argv for argv, _ in rec.outputs["cli"]}
        peak = max(child_peak_kb([sys.executable, "-c", RSS_CODE["cli"], *argv]) for argv in kinds.values())
        return peak / 1024, "MB", f"largest of {len(kinds)} requests, one of each kind"
    bench_dir = str(Path(__file__).resolve().parent)
    return child_peak_kb([sys.executable, "-c", RSS_CODE["pass"], bench_dir, workload, str(seed)]) / 1024, "MB", \
        "a child making one pass"


def shell_probe(tracer: Tracer) -> dict[str, float]:
    """Interpreter floor, import cost and numpy's share of it, in fresh children."""
    floor, imports, numpy_us = [], [], []
    for _ in range(SHELL_REPEATS):
        for name, argv, sink in (
            ("shell.interpreter", [sys.executable, "-c", "pass"], floor),
            ("shell.import", [sys.executable, "-c", "import quasiprime"], imports),
        ):
            _, _, code, ns, _ = spawn(argv)
            if code != 0:
                raise RuntimeError(f"{' '.join(argv)} exited {code}")
            now = perf_counter_ns()
            tracer.record(name, now - ns, now)
            sink.append(ns / 1e6)
        _, err, _, _, _ = spawn([sys.executable, "-X", "importtime", "-c", "import quasiprime"])
        numpy_us.append(sum(
            int(line.split("|")[1]) for line in err.decode().splitlines()
            if line.startswith("import time:") and line.split("|")[-1].strip() == "numpy"
        ))
    interpreter = statistics.median(floor)
    return {
        "shell.interpreter_ms": interpreter,
        "shell.import_ms": statistics.median(imports) - interpreter,
        "shell.import_numpy_ms": statistics.median(numpy_us) / 1e3,
    }


def layer_probes(qp, limit: int, cells: array, tracer: Tracer) -> None:
    """Per-call costs and exact counts over [1, limit], outside verify_range."""
    calls = tracer.counts

    def loop(name: str, count: int):
        calls[name + ".calls"] = count
        return tracer.span(name)

    digital_root, modulus_of, prefilter = qp.digital_root, qp.modulus_of, qp.prefilter
    with loop("numerics.digital_root", limit):
        for n in range(1, limit + 1):
            digital_root(n)
    with loop("numerics.modulus_of", limit):
        for n in range(1, limit + 1):
            modulus_of(n, 24)
    stages: dict = {}
    with loop("pipeline.prefilter", limit - 1):
        for n in range(2, limit + 1):
            stage = prefilter(n).stage
            stages[stage] = stages.get(stage, 0) + 1
    calls["pipeline.survivors"] = stages.pop(None, 0) + 1  # n = 1 passes every stage
    for stage, count in stages.items():
        calls["pipeline.rejected." + stage.value] = count

    # Plain loops, one span each, so that the ratio carries no per-call tracing cost.
    is_prime, trial_is_prime = qp.is_prime, qp.trial_is_prime
    with loop("pipeline.is_prime.loop", limit - 1):
        for n in range(2, limit + 1):
            is_prime(n)
    with loop("oracle.trial_is_prime", limit - 1):
        for n in range(2, limit + 1):
            trial_is_prime(n)
    contains = qp.contains
    candidates = [n for n in range(5, limit + 1) if n % 6 in (1, 5)]
    with loop("qgrid.contains.sweep", len(candidates)):
        for n in candidates:
            contains(n)
    cell_type = qp.GridCoordinate
    it = iter(cells)
    with loop("qgrid.GridCoordinate", len(cells) // 3):
        for i, j, value in zip(it, it, it):
            cell_type(i, j, value)
    trial_factor = qp.trial_factor
    strided = range(2, limit + 1, FACTOR_STRIDE)
    with loop("oracle.trial_factor", len(strided)):
        for n in strided:
            trial_factor(n)
    for _ in range(3):
        with tracer.span("oracle.sieve"):
            qp.sieve(limit)


def per_layer(limit, tracer, shell, overhead) -> dict[str, tuple[float, str, int]]:
    counts = tracer.counts

    def mean(name: str, scale: float) -> tuple[float, int]:
        d = tracer.durations(name)
        return (sum(d) / len(d) / scale if d else 0.0), len(d)

    def per_call(name: str, scale: float) -> tuple[float, int]:
        n = counts[name + ".calls"]
        return (sum(tracer.durations(name)) / n / scale if n else 0.0), n

    m: dict[str, tuple[float, str, int]] = {}
    for name, value in shell.items():
        m[name] = (value, "ms", SHELL_REPEATS)
    for name, span, unit, scale in (
        ("shell.main_us", "shell.main", "us", 1e3),
        ("shell.build_wheel_render_ms", "shell.build_wheel_render", "ms", 1e6),
        ("shell.emit_wheel_svg_ms", "shell.emit_wheel_svg", "ms", 1e6),
        ("qgrid.region_us", "qgrid.region", "us", 1e3),
        ("pipeline.survivor_density_s", "pipeline.survivor_density", "s", 1e9),
        ("pipeline.is_prime_us.sweep", "pipeline.is_prime.sweep", "us", 1e3),
        ("pipeline.is_prime_us.asc", "pipeline.is_prime.asc", "us", 1e3),
        ("pipeline.is_prime_us.balanced", "pipeline.is_prime.balanced", "us", 1e3),
        ("pipeline.factor_on_grid_us.asc", "pipeline.factor_on_grid.asc", "us", 1e3),
        ("pipeline.factor_on_grid_us.balanced", "pipeline.factor_on_grid.balanced", "us", 1e3),
        ("pipeline.full_factorize_us", "pipeline.full_factorize", "us", 1e3),
        ("qgrid.contains_us.scalar", "qgrid.contains.scalar", "us", 1e3),
    ):
        value, samples = mean(span, scale)
        m[name] = (value, unit, samples)
    for name, span, unit, scale in (
        ("pipeline.prefilter_us", "pipeline.prefilter", "us", 1e3),
        ("numerics.digital_root_ns", "numerics.digital_root", "ns", 1),
        ("numerics.modulus_of_ns", "numerics.modulus_of", "ns", 1),
        ("qgrid.contains_us.sweep", "qgrid.contains.sweep", "us", 1e3),
        ("qgrid.GridCoordinate_us", "qgrid.GridCoordinate", "us", 1e3),
        ("oracle.trial_factor_us", "oracle.trial_factor", "us", 1e3),
        ("oracle.trial_is_prime_us", "oracle.trial_is_prime", "us", 1e3),
    ):
        value, samples = per_call(span, scale)
        m[name] = (value, unit, samples)
    sieve = tracer.durations("oracle.sieve")
    m["oracle.sieve_ms"] = (statistics.median(sieve) / 1e6, "ms", len(sieve))
    self_ns = tracer.self_times("oracle.verify_range")
    m["oracle.verify_range_self_s"] = (statistics.median(self_ns) / 1e9, "s", len(self_ns))
    for stage in STAGES:
        m["pipeline.rejected." + stage] = (counts["pipeline.rejected." + stage], "count", limit)
    m["pipeline.prefilter_pass_ratio"] = (counts["pipeline.survivors"] / limit, "ratio", limit)
    decided = sum(v for k, v in counts.items() if k.startswith("pipeline.decided_by."))
    for stage in (*STAGES, "GridSearch", "none"):
        m["pipeline.decided_by." + stage] = (counts["pipeline.decided_by." + stage], "count", decided)
    ratio = sum(tracer.durations("pipeline.is_prime.loop")) / sum(tracer.durations("oracle.trial_is_prime"))
    m["pipeline.is_prime_vs_trial"] = (ratio, "ratio", counts["oracle.trial_is_prime.calls"])
    m["trace.overhead"] = (overhead, "ratio", 2)
    return m


def trace_overhead(workload, plain, traced) -> float:
    """Traced over untraced cost of the workload's own phase: the median
    request or op, or the median verify pass."""
    key = {"cli": "cli_ms_p50", "scalar": "scalar_us_p50", "sweep": "verify_n_per_s"}[workload]
    ratio = traced[key][0] / plain[key][0]
    return 1 / ratio if key.endswith("per_s") else ratio


# --------------------------------------------------------------------------
# entry point


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None, qp=None) -> int:
    """Run one benchmark; ``qp`` replaces the package's API (tests inject faults through it)."""
    args = parse_args(argv)
    if not (SRC / "quasiprime" / "__init__.py").is_file():
        print(f"error: no quasiprime package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    os.environ.update(ONE_THREAD)  # before numpy's first import
    import quasiprime
    import quasiprime.shell

    qp = qp or quasiprime

    def log(line: str) -> None:
        print(line, file=sys.stderr)

    TMP.mkdir(exist_ok=True)
    try:
        if args.trace:
            plain = run_workload(qp, args.workload, args.seed, args.seconds / 2)
            tracer = Tracer()
            traced = run_workload(qp, args.workload, args.seed, args.seconds / 2, tracer)
            shell = shell_probe(tracer)
            layer_probes(qp, SWEEP_LIMIT, traced.cells, tracer)
            recs = [plain, traced]
        else:
            recs = [run_workload(qp, args.workload, args.seed, args.seconds)]
        rss = peak_rss(args.workload, args.seed, recs[0])
        ans = reference_answers(build_job(recs))
        attempted, failed = check(qp, recs, ans, log)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)

    if args.trace:
        # The prefilter counts taken by the probe must partition [1, L] as survivor_density does.
        density = traced.outputs["density"][SWEEP_LIMIT]
        want = {s.value: v for s, v in density.per_stage_rejections.items()}
        got = {s: tracer.counts["pipeline.rejected." + s] for s in want}
        attempted += 1
        if got != want or tracer.counts["pipeline.survivors"] != density.survivors:
            failed += 1
            log(f"WRONG prefilter counts {got} disagree with survivor_density {want}")
        overhead = trace_overhead(args.workload, end_to_end(args.workload, plain), end_to_end(args.workload, traced))
        metrics = per_layer(SWEEP_LIMIT, tracer, shell, overhead)
        tracer.dump(OUT / f"spans-{args.workload}.bin")
    else:
        metrics = {**end_to_end(args.workload, recs[0]), "peak_rss_mb": rss}

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(f"python {platform.python_version()}  nproc {os.cpu_count()}  git {git_sha()}")
    for name, (value, unit, samples) in metrics.items():
        print(f"  {name:38s} {value:14.6g} {unit:6s} n={samples}")
    print(f"  {'failed_ops':38s} {failed:14d} of {attempted} outputs checked")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
