"""shiftlab benchmark: three workloads, decided one after another in one
process and thread (a closed loop with a single caller).

    python3 bench/run.py --workload suite --seed 1 --seconds 28 --trace 0

Without ``--workload`` (or with ``all``) the three workloads run one after
another, each in a child process of its own.

Workloads (see workloads.py for the pools):

- ``suite``: every registered property, each instance decided through
  ``properties.replay`` as ``proptest`` decides it. The pool is proptest's
  default run (seed 42, 200 trials, 6 vertices, alphabet 3). This is the
  cost the semi-open sweep work targets.
- ``open-check``: ``check_open`` with ``Budget(150_000)`` at the default
  ``l_max``/``k_max`` on seeded cover codes and one-block codes, with
  reducible domains among them. ``interior_nonempty`` never runs here.
- ``small-decisions``: in-process ``shiftlab check`` (three modes) and
  ``shiftlab degree`` on every code fixture, then ``degree``,
  ``is_finite_to_one``, ``is_bi_closing``, ``is_sft``, ``fischer_cover``,
  ``fiber_product``, ``lift_code`` and the retract check (right, left, bi
  at retract 0-2) on seeded irreducible codes of up to 8 vertices. Fixed
  per-call costs dominate.

Each run decides the fixed units of its workload (the fixture CLI calls;
in open-check the stalling instance and the pool's most memory-hungry
code) and a sample of the pool drawn with ``--seed``. The sample is stratified by the cost recorded in
``expected.json``: the pool is sorted by cost and one unit is drawn from
each run of k consecutive units, with k chosen so that the sample's recorded
cost is about ``--seconds``. Every seed thus gets the same cost profile; of
16 such draws the one whose recorded cost is nearest the expected cost is
kept. So the heavy tail of budget-exhausted sweeps does not swing the
figures from seed to seed. Pool units that hit the time limit when
``expected.json`` was recorded (two open-check codes) are not sampled; the
stalling instance shows that defect in every open-check run.

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics. ``decided_share`` and ``ok_share`` are the complements
of the inconclusive and failed shares, so that neither reads 0; a failure
is a time-limit hit, a forbidden instance, an escaped exception or a
decided answer that differs from the recorded one. ``peak_rss_mb`` is read
before the stalling instance runs, because it grows memory for as long as
the time limit lets it. ``decision_ms_p50`` and ``decision_ms_p90`` are
smoothed quantiles (see ``percentile``). Set-up is repeated three times with
fresh imports and ``setup_s`` is the median.

With ``--trace 1`` the sample and the fixed units, without the stalling
instance (its partial work up to the time limit is not repeatable), are
decided untraced and then traced. The per-layer metrics are the self time, calls and budget states of
each traced function, verdict counts of the two openness checks, the
tracing overhead and the share of traced wall time covered by root spans.
Spans are written to ``.bench_out/`` at the repository root.

The correctness gate runs after the timed phase. It fails the run (exit 1,
``"correct": false``) on a forbidden suite instance, on a decided answer
that differs from the one recorded in ``expected.json``, on an exception
not recorded there, on a Refuted ``check_open`` whose escape windows are
not words of the image, on a CLI report that disagrees with its exit code,
on a pinned fixture answer, or when the pool differs from the recorded one.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import random
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads as W  # noqa: E402

# Over twice the slowest decision recorded in expected.json (about 9 s), so
# the same decisions hit it on every run.
TIME_LIMIT_S = 20.0
SETUP_REPEATS = 3
BALANCE_DRAWS = 16
SPAN_DIR = ROOT / ".bench_out"


class TimeLimit(BaseException):
    """Raised by SIGALRM inside a decision. A BaseException so that no
    handler in the library can swallow it."""


def _alarm(signum, frame):
    raise TimeLimit()


def decide(thunk, budget_exceeded):
    """Run one decision under the wall-clock limit; return (outcome,
    evidence). Errors are caught here because the run must go on and report
    them."""
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
            return thunk()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except TimeLimit:
        return "T", None
    except budget_exceeded:
        return "I", None
    except Exception as exc:  # noqa: BLE001 - reported, never hidden
        return f"E:{type(exc).__name__}", repr(exc)


@dataclass
class Result:
    unit: W.Unit
    index: int
    name: str
    outcome: str
    evidence: object
    ns: int


def fresh_library():
    for name in [n for n in sys.modules
                 if n == "shiftlab" or n.startswith("shiftlab.")]:
        del sys.modules[name]
    return W.load_library()


def recorded_outcomes(entry):
    return entry[1].split(",") if entry[1] else []


def sample(units, recorded, workload, seed, seconds):
    """The units a run decides: a seeded sample of the pool, stratified by
    recorded cost, plus the fixed units; and apart from them the fixed units
    recorded as time-limit hits. Pool units recorded as time-limit hits are
    left out: each would add the whole limit to a run, and the stalling
    open-check instance already shows that defect in every run."""
    rng = random.Random(f"{workload}/{seed}")
    fixed, stalls, rest = [], [], []
    for unit, entry in zip(units, recorded):
        outcomes = recorded_outcomes(entry)
        if unit.fixed:
            (stalls if "T" in outcomes else fixed).append(unit)
        elif outcomes and "T" not in outcomes:
            rest.append((entry[0], unit.key, unit))
    rest.sort(key=lambda r: (-r[0], r[1]))
    k = max(1, round(sum(r[0] for r in rest) / (1000.0 * seconds)))
    groups = [rest[i:i + k] for i in range(0, len(rest), k)]
    expected_ms = sum(sum(r[0] for r in g) / len(g) for g in groups)
    # the heaviest groups span a wide range of costs; of several stratified
    # draws keep the one whose recorded cost is closest to the expected cost
    draws = [[rng.choice(g) for g in groups] for _ in range(BALANCE_DRAWS)]
    draw = min(draws, key=lambda d: abs(sum(r[0] for r in d) - expected_ms))
    picks = [r[2] for r in draw]
    rng.shuffle(picks)
    return picks + fixed, stalls


def setup(workload, seed, seconds, report_dir):
    """Imports, pool generation, sampling and the recorded answers: all of
    the work done before the timed phase."""
    L = fresh_library()
    expected = json.loads(W.EXPECTED.read_text())[workload]
    units = W.build_pool(L, workload, report_dir)
    if len(units) != len(expected["units"]):
        raise SystemExit("bench: expected.json does not match the pool; "
                         "re-run bench/record.py")
    corpus, stalls = sample(units, expected["units"], workload, seed,
                            seconds)
    for unit in corpus + stalls:
        unit.calls = unit.make_calls()
    return L, units, expected, corpus, stalls


def run_phase(L, corpus, tracer=None):
    results = []
    budget_exceeded = L.errors.BudgetExceeded
    start = time.perf_counter_ns()
    for unit in corpus:
        for index, (name, thunk) in enumerate(unit.calls):
            run = thunk
            if tracer is not None:
                run = (lambda rid=len(results), t=thunk:
                       tracer.request(rid, t))
            t0 = time.perf_counter_ns()
            outcome, evidence = decide(run, budget_exceeded)
            results.append(Result(unit, index, name, outcome, evidence,
                                  time.perf_counter_ns() - t0))
    return results, time.perf_counter_ns() - start


def check_results(L, workload, units, expected, results):
    """Compare each outcome with the recorded one and re-verify its
    evidence. Returns the number of failed decisions and the problems that
    fail the gate."""
    recorded = {u.key: recorded_outcomes(e)
                for u, e in zip(units, expected["units"])}
    problems = []
    failed = 0
    for r in results:
        want = recorded[r.unit.key][r.index]
        got = r.outcome
        where = f"{r.unit.key} {r.name}"
        failure = W.is_failure(got)
        if got == "F":
            problems.append(f"{where}: forbidden")
        elif got.startswith("E:") and got != want:
            problems.append(f"{where}: {got} {r.evidence}")
        elif W.is_decided(got) and W.is_decided(want) and got != want:
            problems.append(f"{where}: answered {got}, recorded {want}")
            failure = True
        failed += failure
        if workload == "open-check" and got == "R":
            code, dec = r.evidence
            if not W.escape_windows_admissible(L, code, dec):
                problems.append(f"{where}: escape window not in the image")
        if isinstance(r.evidence, Path) and got[0] in "PRI":
            report = json.loads(r.evidence.read_text())
            if report["verdict"][0] != got[0]:
                problems.append(f"{where}: report says {report['verdict']}")
    return failed, problems


def check_pool_and_pins(L, units, expected, report_dir):
    """The pool must be the recorded one and the pinned fixture answers
    must hold."""
    problems = []
    if W.pool_digest(units) != expected["digest"]:
        problems.append("pool differs from the one recorded in expected.json")
    for (stem, mode), want in W.PINS.items():
        got, _ = decide(W.cli_call(L, stem, mode, report_dir),
                        L.errors.BudgetExceeded)
        if got != want:
            problems.append(f"pinned {stem} {mode}: got {got}, want {want}")
    return problems


def percentile(sorted_values, q):
    """The q-quantile, smoothed: the mean of the order statistics within 2.5 %
    of the ranks around the nearest-rank quantile. Single decisions vary by
    some 30 % on a shared host, and the suite's costs climb steeply around
    p90, so one order statistic would swing from run to run."""
    n = len(sorted_values)
    rank = max(0, math.ceil(q * n) - 1)
    half = round(0.025 * n)
    window = sorted_values[max(0, rank - half):rank + half + 1]
    return sum(window) / len(window)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(results, wall_ns, setup_s, rss_mb):
    n = len(results)
    ms = sorted(r.ns / 1e6 for r in results)
    inconclusive = sum(r.outcome == "I" for r in results)
    return {
        "decisions_per_s": (n / (wall_ns / 1e9), "1/s"),
        "decision_ms_p50": (percentile(ms, 0.5), "ms"),
        "decision_ms_p90": (percentile(ms, 0.9), "ms"),
        "decided_share": (1 - inconclusive / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def run_workload(args, report_dir):
    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        L, units, expected, corpus, stalls = setup(
            args.workload, args.seed, args.seconds, report_dir)
        setups.append(time.perf_counter() - t0)
    # the pools and the discarded set-ups must not add to the collector's
    # work inside decisions
    gc.collect()
    gc.freeze()
    signal.signal(signal.SIGALRM, _alarm)
    if not args.trace:
        results, wall = run_phase(L, corpus)
        # read before the stalling instance, which grows memory for as long
        # as the time limit lets it and so would measure host speed
        rss_mb = peak_rss_mb()
        more, more_wall = run_phase(L, stalls)
        results += more
        failed, problems = check_results(L, args.workload, units, expected,
                                         results)
        problems += check_pool_and_pins(L, units, expected, report_dir)
        metrics = end_to_end(results, wall + more_wall,
                             statistics.median(setups), rss_mb)
        metrics["ok_share"] = (1 - failed / len(results), "ratio")
        return results, failed, problems, metrics
    plain, plain_wall = run_phase(L, corpus)
    # fresh inputs, so that nothing cached by the untraced pass is reused
    for unit in corpus:
        unit.calls = unit.make_calls()
    tracer = tracing.Tracer()
    tracer.install(L)
    try:
        results, wall = run_phase(L, corpus, tracer)
    finally:
        tracer.uninstall()
    _, problems = check_results(L, args.workload, units, expected, plain)
    failed, traced_problems = check_results(L, args.workload, units,
                                            expected, results)
    problems += traced_problems
    problems += check_pool_and_pins(L, units, expected, report_dir)
    metrics = tracer.metrics()
    metrics["trace.overhead_share"] = (wall / plain_wall - 1, "ratio")
    metrics["trace.root_coverage"] = (tracer.root_ns / wall, "ratio")
    SPAN_DIR.mkdir(exist_ok=True)
    tracer.write(SPAN_DIR / f"spans-{args.workload}-{args.seed}.jsonl")
    return results, failed, problems, metrics


def run_all(args):
    """Each workload in its own child process, one after another, so that
    peak memory is per workload."""
    status = 0
    for workload in W.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False)
        status = max(status, child.returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=W.WORKLOADS + ("all",),
                        default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-reports-") as tmp:
        results, failed, problems, metrics = run_workload(args, Path(tmp))
    for problem in problems:
        print(f"bench: gate: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(results)} decisions, "
          f"{failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
