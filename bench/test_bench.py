"""The benchmark's own checks: its suite loop counts statuses exactly as
proptest does, and tracing returns what the library returns and leaves the
library as it found it."""

import signal

import run
import tracing
import workloads as W

STATUS_NAMES = {letter: name for name, letter in W.SUITE_STATUS.items()}


def _decide_all(L, calls):
    previous = signal.signal(signal.SIGALRM, run._alarm)
    try:
        return [run.decide(thunk, L.errors.BudgetExceeded)[0]
                for _name, thunk in calls]
    finally:
        signal.signal(signal.SIGALRM, previous)


def test_suite_loop_counts_match_proptest():
    L = W.load_library()
    seed, trials = 42, 3
    units = W.suite_pool(L, seed, trials)
    for prop in L.properties.PROPERTIES:
        counts = {name: 0 for name in W.SUITE_STATUS}
        for unit in units:
            if unit.key.split("#")[0] != prop:
                continue
            outcomes = _decide_all(L, unit.make_calls()) or ["K"]
            counts[STATUS_NAMES[outcomes[0]]] += 1
        report = L.properties.proptest(
            L.properties.TrialConfig(prop, seed, trials))
        assert counts == report["counts"], prop


def test_tracing_is_transparent_and_undone():
    L = W.load_library()
    before = {(m, a): getattr(getattr(L, m), a) for m, a in tracing.TRACED}
    spend = L.automata.Budget.spend
    init = L.openness.SweepSpace.__init__
    code = W._build_code(L, {"graph": W.STALLING_GRAPH})
    plain = _decide_all(L, W._small_calls(L, {"graph": W.STALLING_GRAPH})())
    tracer = tracing.Tracer()
    tracer.install(L)
    try:
        traced = [tracer.request(0, lambda: L.openness.check_semi_open(code))]
        traced += _decide_all(
            L, W._small_calls(L, {"graph": W.STALLING_GRAPH})())
    finally:
        tracer.uninstall()
    assert traced[1:] == plain
    assert traced[0][0].verdict == L.openness.check_semi_open(code)[0].verdict
    metrics = tracer.metrics()
    assert metrics["openness.check_semi_open.calls"][0] == 1
    assert metrics["openness.SweepSpace.states"][0] > 0
    assert metrics["graph.trim.calls"][0] > 0
    assert L.automata.Budget.spend is spend
    assert L.openness.SweepSpace.__init__ is init
    assert all(getattr(getattr(L, m), a) is f for (m, a), f in before.items())
    assert L.properties.check_semi_open is before[("openness",
                                                   "check_semi_open")]
