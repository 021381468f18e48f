"""Outside-in tracing: spans around calls into shiftlab's public functions.

The program itself is not changed. Each listed function is wrapped and the
wrapper is bound in place of the original wherever a shiftlab module's
namespace holds it, so calls made inside the library are caught too.
``SweepSpace`` is traced through its constructor and ``Budget.spend`` adds
the states it spends to the innermost open span. Spans stay in memory until
the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute) pairs; each becomes the span name "module.attribute"
TRACED = (
    ("openness", "SweepSpace"),
    ("openness", "interior_nonempty"),
    ("openness", "check_semi_open"),
    ("openness", "check_open"),
    ("openness", "check_right_continuing_retract"),
    ("openness", "witness_from_magic"),
    ("pointed", "cylinder_image"),
    ("pointed", "cylinder_escape"),
    ("pointed", "window_language"),
    ("codes", "arrow_graph"),
    ("codes", "image_presentation"),
    ("codes", "degree"),
    ("codes", "is_finite_to_one"),
    ("codes", "is_right_closing"),
    ("codes", "is_left_closing"),
    ("codes", "fiber_product"),
    ("codes", "lift_code"),
    ("shifts", "fischer_cover"),
    ("shifts", "is_sft"),
    ("graph", "trim"),
    ("graph", "determinize"),
    ("graph", "find_magic_word"),
    ("theorems", "certificates"),
    ("theorems", "check_nonwandering_maximal"),
    ("io", "load_shift"),
    ("io", "load_code"),
    ("properties", "replay"),
    ("cli", "main"),
)
ROOT_SPAN = "bench.decision"
SPAN_NAMES = (ROOT_SPAN,) + tuple(f"{m}.{a}" for m, a in TRACED)
VERDICT_SPANS = ("openness.check_semi_open", "openness.check_open")
VERDICTS = ("proved", "refuted", "inconclusive")


class Tracer:
    """Records spans (id, parent id, request id, name, start ns, end ns,
    states) and keeps per-name totals of self time, calls and states."""

    def __init__(self):
        self.spans = []
        self.totals = {name: [0, 0, 0] for name in SPAN_NAMES}
        self.verdicts = {f"{name}.{v}": 0 for name in VERDICT_SPANS
                         for v in VERDICTS}
        self.root_ns = 0
        self._next_id = 0
        self._stack = []  # open frames: [span id, name, start, child ns, states]
        self._request = None
        self._undo = []

    def _open(self, name):
        frame = [self._next_id, name, time.perf_counter_ns(), 0, 0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter_ns()
        self._stack.pop()
        span_id, name, start, child_ns, states = frame
        duration = end - start
        total = self.totals[name]
        total[0] += duration - child_ns
        total[1] += 1
        total[2] += states
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        else:
            self.root_ns += duration
        self.spans.append((span_id, parent[0] if parent else None,
                           self._request, name, start, end, states))

    def request(self, request_id, fn):
        """Run one decision under its own root span."""
        self._request = request_id
        frame = self._open(ROOT_SPAN)
        try:
            return fn()
        finally:
            self._close(frame)

    def _wrap(self, name, fn):
        tracer = self
        count_verdict = name in VERDICT_SPANS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if count_verdict:
                tracer.verdicts[f"{name}.{result[0].verdict.lower()}"] += 1
            return result
        return traced

    def _bind(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self, L):
        modules = [m for name, m in sys.modules.items()
                   if name == "shiftlab" or name.startswith("shiftlab.")]
        for mod_name, attr in TRACED:
            name = f"{mod_name}.{attr}"
            original = getattr(getattr(L, mod_name), attr)
            if isinstance(original, type):
                self._bind(original, "__init__",
                           self._wrap(name, original.__init__))
                continue
            wrapped = self._wrap(name, original)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._bind(module, key, wrapped)
        budget = L.automata.Budget
        spend = budget.spend
        tracer = self

        def traced_spend(budget_self, amount=1):
            if tracer._stack:
                tracer._stack[-1][4] += amount
            return spend(budget_self, amount)
        self._bind(budget, "spend", traced_spend)

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def metrics(self):
        out = {}
        for name in SPAN_NAMES:
            self_ns, calls, states = self.totals[name]
            out[f"{name}.self_ms"] = (self_ns / 1e6, "ms")
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.states"] = (states, "count")
        for key, count in self.verdicts.items():
            out[key] = (count, "count")
        return out

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["id", "parent", "request", "name",
                                     "start_ns", "end_ns", "states"]) + "\n")
            for span in sorted(self.spans):
                handle.write(json.dumps(span) + "\n")
