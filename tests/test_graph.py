import itertools
import random

import pytest

from shiftlab import fixtures
from shiftlab.errors import (
    AlphabetMismatch,
    NotRightResolving,
    ParseError,
    UnknownVertex,
)
from shiftlab.graph import (
    LabeledGraph,
    accepts_word,
    determinize,
    disjoint_union,
    find_magic_word,
    is_irreducible,
    is_right_resolving,
    is_sublanguage,
    scc_components,
    shift_equal,
    spectral_radius,
    subgraph,
    sublanguage_counterexample,
    trim,
    words_of_length,
)
from shiftlab.properties import gen_right_resolving_graph


def test_make_validates_edges():
    with pytest.raises(UnknownVertex):
        LabeledGraph.make(["0"], ["a"], [("e", "a", "b", "0")])
    with pytest.raises(AlphabetMismatch):
        LabeledGraph.make(["0"], ["a"], [("e", "a", "a", "1")])
    with pytest.raises(ParseError):
        LabeledGraph.make(["0"], ["a", "a"], [])
    with pytest.raises(ParseError):
        LabeledGraph.make(["0", "0"], ["a"], [])
    with pytest.raises(ParseError):
        LabeledGraph.make(["0"], ["a"],
                          [("e", "a", "a", "0"), ("e", "a", "a", "0")])


def test_trim_drops_wandering_vertices():
    g = LabeledGraph.make(
        ["0"], ["a", "b", "c"],
        [("e1", "a", "a", "0"), ("e2", "a", "b", "0"), ("e3", "b", "c", "0"),
         ("e4", "c", "c", "0")])
    t = trim(g)
    # b sits between two cycles, so every vertex survives
    assert set(t.vertices) == {"a", "b", "c"}
    g2 = LabeledGraph.make(
        ["0"], ["a", "b"], [("e1", "a", "a", "0"), ("e2", "a", "b", "0")])
    assert set(trim(g2).vertices) == {"a"}


def test_scc_components_and_subgraph():
    g = fixtures.fig1_graph()
    comps = scc_components(g)
    nontrivial = [c for c in comps if not c.trivial]
    assert sorted(tuple(c.vertices) for c in nontrivial) == \
        [("v1", "v2"), ("w",)]
    sub = subgraph(g, ("v1", "v2"))
    assert {e.id for e in sub.edges} == {"e1", "e2", "e3"}


def test_irreducibility():
    assert is_irreducible(fixtures.golden_graph())
    assert is_irreducible(fixtures.even_graph())
    assert not is_irreducible(fixtures.fig1_graph())


def test_right_resolving():
    assert is_right_resolving(fixtures.golden_graph())
    # two 0-loops out of one vertex
    g = LabeledGraph.make(
        ["0"], ["a"], [("e1", "a", "a", "0"), ("e2", "a", "a", "0")])
    assert not is_right_resolving(g)
    with pytest.raises(NotRightResolving):
        find_magic_word(g)


def test_magic_words_on_fixtures():
    assert find_magic_word(fixtures.golden_graph()) == ("0",)
    assert find_magic_word(fixtures.even_graph()) == ("1",)
    assert find_magic_word(fixtures.phase_doubling_graph()) is None
    assert find_magic_word(fixtures.full_graph(2)) == ()


def _least_focusing_word(g):
    """Brute force: every word in order of length, then lexicographically,
    up to 2^n - n - 1 symbols, the most a shortest focusing word can take
    (its proper prefixes focus to distinct sets of two or more vertices)."""
    t = trim(g)
    if t.n == 0:
        return None
    for length in range(2 ** t.n - t.n):
        for word in itertools.product(t.symbols, repeat=length):
            reached = set(t.vertices)
            for s in word:
                reached = {e.dst for e in t.edges
                           if e.src in reached and e.label == s}
            if len(reached) == 1:
                return word
    return None


@pytest.mark.parametrize("max_vertices, max_alphabet", [(3, 3), (4, 2)])
def test_magic_words_match_brute_force(max_vertices, max_alphabet):
    rng = random.Random(11)
    lengths = set()
    for _ in range(150):
        g = gen_right_resolving_graph(rng, max_vertices, max_alphabet,
                                      accept=lambda t: t.n >= 2)
        word = find_magic_word(g)
        assert word == _least_focusing_word(g), g
        lengths.add(None if word is None else len(word))
    assert None in lengths and {1, 2} <= lengths


def test_words_and_acceptance():
    g = fixtures.golden_graph()
    assert accepts_word(g, ("0", "1", "0"))
    assert not accepts_word(g, ("1", "1"))
    words = words_of_length(g, 2)
    assert words == [("0", "0"), ("0", "1"), ("1", "0")]


def test_determinize_preserves_language():
    g = fixtures.even_graph()
    d = determinize(g)
    assert is_right_resolving(d)
    for n in range(1, 6):
        assert words_of_length(d, n) == words_of_length(g, n)


def test_sublanguage_and_shift_equality():
    golden = fixtures.golden_graph()
    full2 = fixtures.full_graph(2)
    assert is_sublanguage(golden, full2)
    assert not is_sublanguage(full2, golden)
    w = sublanguage_counterexample(full2, golden)
    assert not accepts_word(golden, w)
    assert shift_equal(golden, determinize(golden))


def test_disjoint_union_presents_both_pieces():
    u = disjoint_union([fixtures.golden_graph(), fixtures.full_graph(2)])
    assert is_sublanguage(fixtures.golden_graph(), u)
    assert is_sublanguage(fixtures.full_graph(2), u)
    assert not is_irreducible(u)


def test_spectral_radius_golden():
    r = spectral_radius(fixtures.golden_graph())
    assert abs(r - (1 + 5 ** 0.5) / 2) < 1e-9
