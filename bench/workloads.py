"""The benchmark's three workloads: seeded pools of inputs, the decisions
made on them, and the outcome strings the correctness gate compares.

A pool is a fixed list of units drawn from the library's own generators at
a fixed pool seed. A unit is one input together with the calls decided on
it; each call is one decision and yields one outcome string:

- ``I``: Inconclusive (a ``BudgetExceeded`` counts here, as in ``proptest``)
- ``T``: the per-decision time limit was hit
- ``E:<class>``: an exception escaped the call
- ``F``: a ``forbidden`` suite instance
- anything else: a decided answer (``P``/``R`` verdicts, ``S``/``K`` suite
  statuses, degrees, sizes), compared with the answer recorded in
  ``expected.json``.

Nothing here imports ``shiftlab`` at module level: every function takes the
library namespace ``L`` from ``load_library`` so that set-up can be timed
with fresh imports.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io as _io
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

WORKLOADS = ("suite", "open-check", "small-decisions")

# generator sizes of proptest's default TrialConfig
MAX_VERTICES = 6
MAX_ALPHABET = 3
# the suite pool is exactly proptest's default run of every property
SUITE_SEED = 42
SUITE_TRIALS = 200
OPEN_SEED = 1505
OPEN_CODES = 600
OPEN_BUDGET = 150_000
# the pool's most memory-hungry decision (about 150 MB, a budget-exhausted
# check_open); decided in every run so that peak memory does not depend on
# whether the seeded sample happens to hold it
OPEN_MEMORY_PEAK = 556
SMALL_SEED = 395
SMALL_CODES = 3200
SMALL_MAX_VERTICES = 8
LIFT_BUDGET = 150_000

# check_open on the cover code of this two-vertex graph enumerates windows
# for minutes while spending only a few thousand budget states: the
# window_language enumeration has no budget. It is kept in every open-check
# run so that the defect shows as a time-limit hit until it is fixed.
STALLING_GRAPH = {
    "alphabet": ["0", "1", "2"],
    "vertices": ["v0", "v2"],
    "edges": [
        {"id": "e0", "src": "v2", "dst": "v0", "label": "2"},
        {"id": "e1", "src": "v0", "dst": "v2", "label": "2"},
        {"id": "e3", "src": "v2", "dst": "v0", "label": "0"},
        {"id": "e4", "src": "v0", "dst": "v0", "label": "1"},
        {"id": "e5", "src": "v2", "dst": "v2", "label": "0"},
    ],
}

# every code fixture, as the stem of its <stem>_code.json / <stem>_shift.json
CODE_FIXTURES = ("even_cover", "fig1", "golden_cover", "phase_doubling_cover",
                 "right_closing_cover")
CLI_MODES = ("semi-open", "open", "right-continuing", "degree")

# fixture answers the repository's tests assert, pinned by hand
PINS = {
    ("fig1", "semi-open"): "R:2",
    ("even_cover", "semi-open"): "P",
    ("even_cover", "open"): "R",
    ("even_cover", "degree"): "P:1",
    ("golden_cover", "open"): "P",
    ("phase_doubling_cover", "degree"): "P:2",
}

_LIBRARY_MODULES = ("automata", "cli", "codes", "errors", "graph", "io",
                    "openness", "pointed", "properties", "shifts", "theorems")


def load_library():
    """Import the shiftlab modules the workloads call, as one namespace."""
    return SimpleNamespace(**{
        name: importlib.import_module(f"shiftlab.{name}")
        for name in _LIBRARY_MODULES})


def is_failure(outcome):
    return outcome in ("T", "F") or outcome.startswith("E:")


def is_decided(outcome):
    return outcome != "I" and not is_failure(outcome)


@dataclass
class Unit:
    """One pool input. ``desc`` is its JSON description (hashed into the
    pool digest); ``make_calls`` builds the (name, thunk) decisions, each
    thunk returning (outcome, evidence-for-the-gate or None)."""

    key: str
    desc: object
    make_calls: object
    fixed: bool = False
    calls: list = field(default_factory=list)


def pool_digest(units):
    blob = json.dumps([[u.key, u.desc] for u in units], sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


# -- suite ---------------------------------------------------------------------


SUITE_STATUS = {"satisfied": "S", "skipped": "K", "inconclusive": "I",
                "forbidden": "F"}


def suite_pool(L, seed=SUITE_SEED, trials=SUITE_TRIALS):
    """Every registered property's first `trials` instances, drawn exactly
    as proptest(TrialConfig(prop, seed, trials)) draws them. A trial whose
    generator gives up is a unit with no calls (proptest counts it skipped)."""
    P = L.properties
    units = []
    for prop in sorted(P.PROPERTIES):
        gen = P.PROPERTIES[prop].generate
        rng = random.Random(seed)
        cfg = P.TrialConfig(prop, seed, trials)
        for t in range(trials):
            key = f"{prop}#{t}"
            try:
                inst = gen(rng, cfg)
            except L.errors.GenerationExhausted:
                units.append(Unit(key, None, lambda: []))
                continue
            units.append(Unit(key, inst, _suite_calls(L, prop, inst)))
    return units


def _suite_calls(L, prop, inst):
    def decide():
        status = L.properties.replay({"property": prop, "instance": inst})
        return SUITE_STATUS[status["status"]], None
    return lambda: [(prop, decide)]


# -- open-check ----------------------------------------------------------------


def _one_block(L, rng, g):
    out = [str(i) for i in range(rng.randint(1, MAX_ALPHABET))]
    table = {s: rng.choice(out) for s in sorted({e.label for e in g.edges})}
    return {"graph": L.io.graph_to_json(g), "table": table}


def _build_code(L, desc):
    g = L.io.graph_from_json(desc["graph"])
    if "table" not in desc:
        return L.codes.cover_code(g)
    table = {(s,): v for s, v in desc["table"].items()}
    return L.codes.SlidingBlockCode.make(
        L.shifts.SoficShift.from_graph(g), 0, 0, table)


def random_code_desc(L, rng, kind, max_vertices):
    """kind 0/1: cover code of an irreducible / arbitrary graph; kind 2/3:
    one-block code on the sofic shift of an irreducible / arbitrary graph.
    Arbitrary graphs give reducible domains."""
    accept = L.graph.is_irreducible if kind in (0, 2) else None
    g = L.properties.gen_labeled_graph(rng, max_vertices, MAX_ALPHABET,
                                       accept=accept)
    if kind in (0, 1):
        return {"graph": L.io.graph_to_json(g)}
    return _one_block(L, rng, g)


def open_pool(L):
    rng = random.Random(OPEN_SEED)
    units = [Unit("stall", {"graph": STALLING_GRAPH},
                  _open_calls(L, {"graph": STALLING_GRAPH}), fixed=True)]
    for i in range(OPEN_CODES):
        desc = random_code_desc(L, rng, i % 4, MAX_VERTICES)
        units.append(Unit(f"open#{i}", desc, _open_calls(L, desc),
                          fixed=i == OPEN_MEMORY_PEAK))
    return units


def _open_calls(L, desc):
    def make():
        code = _build_code(L, desc)

        def decide():
            budget = L.automata.Budget(OPEN_BUDGET, "bench open-check")
            dec, _table = L.openness.check_open(code, budget=budget)
            return dec.verdict[0], (code, dec) if dec.is_refuted else None
        return [("check_open", decide)]
    return make


def escape_windows_admissible(L, code, dec):
    """Every probe window of a Refuted check_open payload must be a word of
    the image; a left-direction pattern lives on the reversed code."""
    image = L.codes.image_presentation(code).presentation
    reverse = dec.payload["direction"] == "left"
    for probe in dec.payload["probes"]:
        window = probe["window"]
        if reverse:
            window = window[::-1]
        if not L.graph.accepts_word(image, tuple(window)):
            return False
    return True


# -- small-decisions -----------------------------------------------------------


def _cli_outcome(rc, out):
    if rc == 2:
        return "I"
    if rc == 3:
        # the CLI's answer to an input it rejects, such as a reducible domain
        return "fault"
    if rc not in (0, 1):
        return f"E:exit{rc}"
    letter = "PR"[rc]
    report = json.loads(out)
    if report.get("degree") is not None:
        return f"{letter}:{report['degree']}"
    zone = (report.get("payload") or {}).get("zone")
    if isinstance(zone, list):
        return f"{letter}:{','.join(zone)}"
    return letter


def cli_call(L, stem, mode, report_dir):
    """One in-process `shiftlab check|degree` on a code fixture."""
    argv = ["-x", str(FIXTURES / f"{stem}_shift.json"),
            "-c", str(FIXTURES / f"{stem}_code.json")]
    report = None
    if mode == "degree":
        argv = ["degree"] + argv
    else:
        report = Path(report_dir) / f"{stem}.{mode}.json"
        argv = ["check", mode] + argv + ["--report", str(report)]

    def decide():
        buf = _io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(_io.StringIO()):
            rc = L.cli.main(argv)
        return _cli_outcome(rc, buf.getvalue()), report
    return decide


def cli_units(L, report_dir):
    return [Unit(f"cli:{stem}:{mode}", [stem, mode],
                 (lambda s=stem, m=mode:
                  [(f"cli.{m}", cli_call(L, s, m, report_dir))]),
                 fixed=True)
            for stem in CODE_FIXTURES for mode in CLI_MODES]


def small_pool(L, report_dir):
    rng = random.Random(SMALL_SEED)
    units = cli_units(L, report_dir)
    for i in range(SMALL_CODES):
        desc = random_code_desc(L, rng, 2 * (i % 2), SMALL_MAX_VERTICES)
        units.append(Unit(f"small#{i}", desc, _small_calls(L, desc)))
    return units


def _small_calls(L, desc):
    C, O, S = L.codes, L.openness, L.shifts

    def verdict(dec):
        return dec.verdict[0], None

    def make():
        code = _build_code(L, desc)

        def degree():
            try:
                return f"d{C.degree(code).degree}", None
            except L.errors.NotFiniteToOne:
                return "N", None

        def fischer():
            g = S.fischer_cover(C.image_presentation(code))
            return f"{g.n}.{len(g.edges)}", None

        def fiber():
            sigma = C.fiber_product(code, code).sigma.presentation
            return f"{sigma.n}.{len(sigma.edges)}", None

        def lift():
            lifted = C.lift_code(code, code.domain, C.image_presentation(code),
                                 budget=L.automata.Budget(LIFT_BUDGET,
                                                          "bench lift"))
            if lifted is None:
                return "-", None
            return f"{lifted.memory}.{lifted.anticipation}", None

        calls = [
            ("degree", degree),
            ("is_finite_to_one", lambda: verdict(C.is_finite_to_one(code))),
            ("is_bi_closing", lambda: verdict(C.is_bi_closing(code))),
            ("is_sft", lambda: verdict(S.is_sft(C.image_presentation(code)))),
            ("fischer_cover", fischer),
            ("fiber_product", fiber),
            ("lift_code", lift),
        ]
        for side in ("right", "left", "bi"):
            for n in range(3):
                calls.append((f"retract.{side}", lambda s=side, n=n: verdict(
                    O.check_right_continuing_retract(code, n, s).verdict)))
        return calls
    return make


def build_pool(L, workload, report_dir):
    if workload == "suite":
        return suite_pool(L)
    if workload == "open-check":
        return open_pool(L)
    return small_pool(L, report_dir)
