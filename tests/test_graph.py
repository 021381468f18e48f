import itertools
import math
import random
from fractions import Fraction

import pytest

from shiftlab import fixtures
from shiftlab.automata import (Budget, apply_mask, bfs_tree, pair_moves,
                               tree_path)
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
    relabeled_trim,
    reverse,
    scc_components,
    shift_equal,
    spectral_radius,
    subgraph,
    sublanguage_counterexample,
    trim,
    words_of_length,
)
from shiftlab.properties import gen_labeled_graph, gen_right_resolving_graph


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


def test_fwd_steps_subsets_along_labeled_edges():
    """fwd has one table per symbol of symbols, in that order, all zero
    for a symbol no edge carries. apply_mask over a symbol's table is the
    set of successors along that symbol's edges; over the reversed
    graph's table it is the set of predecessors."""
    rng = random.Random(5)
    for _ in range(60):
        h = gen_labeled_graph(rng, 6, 3)
        g = LabeledGraph.make(("x",) + h.alphabet, h.vertices, h.edges)
        assert tuple(g.fwd) == g.symbols
        assert g.fwd["x"] == (0,) * g.n
        back = reverse(g).fwd
        for s in g.symbols:
            edges = [e for e in g.edges if e.label == s]
            for mask in range(1 << g.n):
                at = set(g.names_of(mask))
                succ = {e.dst for e in edges if e.src in at}
                pred = {e.src for e in edges if e.dst in at}
                assert set(g.names_of(apply_mask(g.fwd[s], mask))) == succ
                assert set(g.names_of(apply_mask(back[s], mask))) == pred


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


def _reference_trim(g):
    """Drop vertices without an in-edge or an out-edge inside the kept
    set until none is left to drop."""
    keep = set(g.vertices)
    while True:
        edges = [e for e in g.edges if e.src in keep and e.dst in keep]
        live = {e.src for e in edges} & {e.dst for e in edges}
        if live == keep:
            return keep, edges
        keep = live


def _random_graphs():
    """300 seeded graphs of 1-6 vertices over {0, 1}, many not trimmed."""
    rng = random.Random(8)
    for _ in range(300):
        n = rng.randint(1, 6)
        vertices = [f"v{i}" for i in range(n)]
        yield LabeledGraph.make(
            ["0", "1"], vertices,
            [(f"e{j}", rng.choice(vertices), rng.choice(vertices),
              rng.choice("01")) for j in range(rng.randint(0, 2 * n))])


def _copy(g):
    """An equal graph that shares no memo with g."""
    return LabeledGraph.make(g.alphabet, g.vertices, g.edges)


def test_trim_is_memoized_and_its_own_trim():
    cut = 0
    for g in _random_graphs():
        t = trim(g)
        assert trim(g) is t and trim(t) is t
        keep, edges = _reference_trim(g)
        assert t.vertices == tuple(v for v in g.vertices if v in keep)
        assert t.edges == tuple(edges)
        assert t.alphabet == g.alphabet
        if len(keep) == g.n:
            assert t is g
        else:
            cut += 1
        # relabeling commutes with trimming, and its result is its own trim
        names = {"0": "x", "1": "y"}
        r = relabeled_trim(g, ["x", "y"], lambda e: names[e.label])
        assert r == trim(LabeledGraph.make(
            ["x", "y"], g.vertices,
            [(e.id, e.src, e.dst, names[e.label]) for e in g.edges]))
        assert trim(r) is r
    assert cut > 100


def test_determinize_and_spectral_radius_are_memoized():
    """A memo hit returns the graph a fresh build on an equal graph
    returns, vertex and edge order included, and spends the same states;
    a second call returns the same object. The empty result is the
    trimmed input itself and carries no memo."""
    built = 0
    for g in _random_graphs():
        fresh_budget, warm_budget = Budget(10**6), Budget(10**6)
        fresh = determinize(_copy(g), fresh_budget)
        d = determinize(g)
        assert determinize(g, warm_budget) is d
        assert d == fresh and d.vertices == fresh.vertices
        assert d.edges == fresh.edges
        assert warm_budget.used == fresh_budget.used
        t = trim(g)
        if t.n == 0:
            assert d is t and "determinized" not in t.memo
            continue
        built += 1
        radius = spectral_radius(d)
        assert spectral_radius(d) == radius == spectral_radius(_copy(d))
    assert built > 100


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


def test_sublanguage_counterexample_is_a_shortest_word():
    # random pairs, and pairs where g2 is g1 less one edge
    rng = random.Random(13)
    found = 0
    for i in range(150):
        g1 = gen_labeled_graph(rng, 5, 2)
        if i % 2:
            g2 = gen_labeled_graph(rng, 5, 2)
        else:
            drop = rng.choice(g1.edges)
            g2 = LabeledGraph.make(g1.alphabet, g1.vertices,
                                   [tuple(e) for e in g1.edges if e != drop])
        w = sublanguage_counterexample(g1, g2)
        if w is None:
            for n in range(1, 7):
                assert set(words_of_length(g1, n)) <= set(
                    words_of_length(g2, n))
            continue
        found += 1
        assert accepts_word(g1, w) and not accepts_word(g2, w)
        # no shorter word of g1 is missing from g2
        for n in range(1, len(w)):
            assert set(words_of_length(g1, n)) <= set(words_of_length(g2, n))
        # and w is the least missing word of its length
        missing = set(words_of_length(g1, len(w))) - set(
            words_of_length(g2, len(w)))
        assert w == min(missing)
    assert 30 < found < 150


def _goal_free_counterexample(g1, g2):
    """The counterexample read off a goal-free search over the (A, B)
    pairs: the first B-empty pair in discovery order. Returns the word,
    or None, the budget states spent up to and including that pair (the
    seed spends nothing), and the states of the whole search."""
    t1, t2 = trim(g1), trim(g2)
    if t1.n == 0:
        return None, 0, 0
    dead = (0,) * t2.n
    expand = pair_moves([(s, t1.fwd[s], t2.fwd.get(s, dead))
                         for s in t1.symbols])
    parent, _ = bfs_tree([(t1.full_mask, t2.full_mask)], expand)
    order = list(parent)
    goal = next((pair for pair in order if not pair[1]), None)
    if goal is None:
        return None, len(order) - 1, len(order) - 1
    return (tuple(tree_path(parent, goal)[1]), order.index(goal),
            len(order) - 1)


def test_sublanguage_counterexample_stops_at_the_first_goal():
    """Same word as the first B-empty pair of the goal-free search,
    spending only the pairs discovered up to it: less wherever the
    goal-free search discovers pairs after it."""
    rng = random.Random(5)
    found = saved = 0
    for i in range(400):
        g1 = gen_labeled_graph(rng, 6, 3)
        if i % 2:
            g2 = gen_labeled_graph(rng, 6, 3)
        else:
            drop = rng.choice(g1.edges)
            g2 = LabeledGraph.make(g1.alphabet, g1.vertices,
                                   [tuple(e) for e in g1.edges if e != drop])
        budget = Budget(10**9)
        word = sublanguage_counterexample(g1, g2, budget)
        want, want_used, whole = _goal_free_counterexample(g1, g2)
        assert (word, budget.used) == (want, want_used)
        found += word is not None
        saved += budget.used < whole
    assert found > 100 and saved > 50


def test_disjoint_union_presents_both_pieces():
    u = disjoint_union([fixtures.golden_graph(), fixtures.full_graph(2)])
    assert is_sublanguage(fixtures.golden_graph(), u)
    assert is_sublanguage(fixtures.full_graph(2), u)
    assert not is_irreducible(u)


def test_spectral_radius_golden():
    r = spectral_radius(fixtures.golden_graph())
    assert abs(r - (1 + 5 ** 0.5) / 2) < 1e-9


def _perron_bracket(g, steps=60):
    """Exact Collatz-Wielandt bracket of the Perron root of an irreducible
    graph: v = (A + I)^steps 1 in Python ints along the edges, then the
    least and greatest ((A + I) v)_u / v_u as Fractions, less 1."""
    def step(x):
        y = dict(x)
        for e in g.edges:
            y[e.src] += x[e.dst]
        return y
    v = dict.fromkeys(g.vertices, 1)
    for _ in range(steps):
        v = step(v)
    w = step(v)
    ratios = [Fraction(w[u], v[u]) for u in g.vertices]
    return min(ratios) - 1, max(ratios) - 1


def _period(g):
    """Period of an irreducible graph: the gcd of level(u) + 1 - level(v)
    over its edges u -> v, with breadth-first levels from one vertex."""
    level = {g.vertices[0]: 0}
    queue = [g.vertices[0]]
    for u in queue:
        for e in g.edges:
            if e.src == u and e.dst not in level:
                level[e.dst] = level[u] + 1
                queue.append(e.dst)
    return math.gcd(*(level[e.src] + 1 - level[e.dst] for e in g.edges))


def test_spectral_radius_within_exact_collatz_wielandt_bracket():
    rng = random.Random(47)
    graphs = [gen_labeled_graph(rng, 8, 3, accept=is_irreducible)
              for _ in range(300)]
    for g in graphs:
        lo, hi = _perron_bracket(g)
        assert hi - lo < 1e-6
        assert lo - 1e-9 <= spectral_radius(g) <= hi + 1e-9
    # the sample holds parallel edges and period-2 cycles
    assert sum(len({(e.src, e.dst) for e in g.edges}) < len(g.edges)
               for g in graphs) > 50
    assert sum(_period(g) == 2 for g in graphs) > 20
    for g, h in zip(graphs[::2], graphs[1::2]):
        union = spectral_radius(disjoint_union([g, h]))
        assert math.isclose(union, max(spectral_radius(g),
                                       spectral_radius(h)), rel_tol=1e-9)
