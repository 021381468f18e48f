"""Record bench/expected.json: every pool unit of every workload decided once,
with its outcomes and its cost in milliseconds.

    python3 bench/record.py [workload ...]

The outcomes are the answers the correctness gate holds later runs to; the
costs only stratify the seeded samples. Re-record only when a pool
definition in workloads.py changes, never to make a gate pass.
"""

from __future__ import annotations

import json
import signal
import sys
import tempfile
import time
from pathlib import Path

import run
import workloads as W


def record(workload, report_dir):
    L = run.fresh_library()
    units = W.build_pool(L, workload, report_dir)
    budget_exceeded = L.errors.BudgetExceeded
    entries = []
    for n, unit in enumerate(units):
        outcomes = []
        t0 = time.perf_counter()
        for _name, thunk in unit.make_calls():
            outcomes.append(run.decide(thunk, budget_exceeded)[0])
        cost = (time.perf_counter() - t0) * 1000
        entries.append([round(cost, 2), ",".join(outcomes)])
        if n % 100 == 0:
            print(f"{workload}: {n}/{len(units)}", file=sys.stderr, flush=True)
    return {"digest": W.pool_digest(units), "units": entries}


def main(argv):
    names = argv or list(W.WORKLOADS)
    signal.signal(signal.SIGALRM, run._alarm)
    expected = json.loads(W.EXPECTED.read_text()) if W.EXPECTED.exists() else {}
    with tempfile.TemporaryDirectory(dir=run.ROOT,
                                     prefix=".bench-reports-") as tmp:
        for name in names:
            expected[name] = record(name, Path(tmp))
            text = json.dumps(expected, separators=(",", ":"))
            W.EXPECTED.write_text(text.replace("],[", "],\n[") + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
