import math
import random

import pytest

from shiftlab import fixtures
from shiftlab.errors import ReducibleShift
from shiftlab.graph import (LabeledGraph, is_irreducible, is_right_resolving,
                            shift_equal)
from shiftlab.io import graph_to_json
from shiftlab.properties import gen_labeled_graph
from shiftlab.shifts import (
    SoficShift,
    edge_shift,
    entropy,
    fischer_cover,
    full_shift,
    is_irreducible_shift,
    is_sft,
)

GOLDEN_ENTROPY = math.log((1 + math.sqrt(5)) / 2)


def test_entropy_golden_mean():
    # characteristic polynomial x^2 - x - 1 pins the Perron root
    assert abs(entropy(fixtures.golden_shift()) - GOLDEN_ENTROPY) < 1e-9


def test_entropy_full_shifts():
    assert abs(entropy(full_shift(["0", "1", "2"])) - math.log(3)) < 1e-12
    assert abs(entropy(full_shift(["0", "1"])) - math.log(2)) < 1e-12


def test_entropy_even_equals_golden():
    # the even shift and the golden mean shift share their Perron root
    assert abs(entropy(fixtures.even_shift()) - GOLDEN_ENTROPY) < 1e-9


def test_empty_shift_entropy():
    from shiftlab.graph import LabeledGraph
    empty = SoficShift.from_graph(LabeledGraph.make(["0"], [], []))
    assert entropy(empty) == -math.inf


def test_fischer_cover_shapes():
    even = fischer_cover(fixtures.even_shift())
    assert even.n == 2
    assert is_right_resolving(even) and is_irreducible(even)
    assert shift_equal(even, fixtures.even_shift().presentation)
    golden = fischer_cover(fixtures.golden_shift())
    assert golden.n == 2


def test_fischer_cover_rejects_reducible():
    with pytest.raises(ReducibleShift):
        fischer_cover(fixtures.fig1_shift())
    assert not is_irreducible_shift(fixtures.fig1_shift())
    assert is_irreducible_shift(fixtures.even_shift())


def test_fischer_cover_is_minimal_among_presentations():
    # a doubled presentation of the full 2-shift still yields one vertex
    from shiftlab.graph import LabeledGraph
    doubled = LabeledGraph.make(
        ["0", "1"], ["a", "b"],
        [("e1", "a", "b", "0"), ("e2", "b", "a", "0"),
         ("e3", "a", "b", "1"), ("e4", "b", "a", "1")])
    cover = fischer_cover(SoficShift.from_graph(doubled))
    assert cover.n == 1


def _cover_outcome(x):
    """JSON of x's Fischer cover, or the ReducibleShift message."""
    try:
        return graph_to_json(fischer_cover(x))
    except ReducibleShift as exc:
        return f"ReducibleShift: {exc}"


def test_memoized_fischer_cover_matches_a_fresh_build():
    """On the fixture shifts and 200 seeded shifts of at most 6 vertices,
    reducible ones included, the memoized cover is the one a fresh copy
    of the presentation builds, a second call returns the same object,
    and a reducible shift raises the same ReducibleShift every time."""
    rng = random.Random(44)
    shifts = [SoficShift.from_graph(build())
              for build in fixtures.GRAPHS.values()]
    shifts += [SoficShift.from_graph(gen_labeled_graph(rng, 6, 3))
               for _ in range(200)]
    reducible = 0
    for x in shifts:
        g = x.presentation
        fresh = SoficShift.from_graph(
            LabeledGraph.make(g.alphabet, g.vertices, g.edges))
        first = _cover_outcome(x)
        assert first == _cover_outcome(fresh)
        assert _cover_outcome(x) == first
        if isinstance(first, str):
            reducible += 1
            assert not is_irreducible_shift(x)
        else:
            assert fischer_cover(x) is fischer_cover(x)
    assert 10 < reducible < len(shifts) - 100


def test_sft_decisions():
    assert is_sft(fixtures.golden_shift()).is_proved
    assert is_sft(fixtures.fig1_shift()).is_proved
    even = is_sft(fixtures.even_shift())
    assert even.is_refuted
    assert is_sft(full_shift(["0", "1"])).is_proved


def test_sft_refutations_pump():
    # with u(t) = stem cycle^t tail: u(t)+ext and symbol+u(t) are
    # admissible, symbol+u(t)+ext is not, for every t
    rng = random.Random(5)
    refuted = 0
    for trial in range(300):
        x = SoficShift.from_graph(gen_labeled_graph(rng, 5, 3))
        dec = is_sft(x)
        if not dec.is_refuted:
            continue
        refuted += 1
        p = dec.payload
        sym = (p["symbol"],)
        ext = tuple(p["extension"])
        for t in range(4):
            u = tuple(p["stem"] + p["cycle"] * t + p["tail"])
            assert x.accepts(u + ext), f"trial {trial} t={t}"
            assert x.accepts(sym + u), f"trial {trial} t={t}"
            assert not x.accepts(sym + u + ext), f"trial {trial} t={t}"
    assert refuted >= 10


def _breaks(x, v, max_w):
    """Is there a symbol s and a word w of length at most max_w with s v
    and v w admissible but s v w not?"""
    starts = [s for s in x.alphabet if x.accepts((s,) + v)]
    stack = [()]
    while stack:
        w = stack.pop()
        for s in x.alphabet:
            if x.accepts(v + w + (s,)):
                if any(not x.accepts((t,) + v + w + (s,)) for t in starts):
                    return True
                if len(w) + 1 < max_w:
                    stack.append(w + (s,))
    return False


def test_sft_memory_matches_a_brute_force_break_search():
    """A proved memory M is tight: some s v w breaks with |v| = M - 1
    (when M > 1), and none breaks with |v| in M..M+2 (|w| <= 4)."""
    rng = random.Random(9)
    checked = deep = 0
    for trial in range(400):
        x = SoficShift.from_graph(gen_labeled_graph(rng, 5, 3))
        dec = is_sft(x)
        if not dec.is_proved:
            continue
        m = dec.payload["memory"]
        checked += 1
        if m > 1:
            deep += 1
            assert any(_breaks(x, v, 4) for v in x.language(m - 1)), \
                f"trial {trial} memory {m}"
        for n in range(m, m + 3):
            assert not any(_breaks(x, v, 4) for v in x.language(n)), \
                f"trial {trial} memory {m} breaks at {n}"
    assert checked > 300 and deep > 10


def test_edge_shift_full_language():
    g = fixtures.golden_graph()
    xg = edge_shift(g)
    assert set(xg.alphabet) == {e.id for e in g.edges}
    assert abs(entropy(xg) - GOLDEN_ENTROPY) < 1e-9
