"""Sofic shift spaces: presentations, language queries, entropy, minimal
right-resolving covers and SFT detection.

A SoficShift is a trimmed labeled graph under the convention that points
of the shift are the label sequences of bi-infinite edge paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from . import graph as gr
from .automata import (Budget, apply_mask, bfs_closure, cycle_nodes,
                       longest_runs, pair_moves, shortest_cycle,
                       shortest_path)
from .decision import inconclusive_on_budget, proved, refuted
from .errors import (
    InvariantViolation,
    PeriodicPointNotInShift,
    ReducibleShift,
)
from .graph import Edge, LabeledGraph


@dataclass(frozen=True)
class SoficShift:
    presentation: LabeledGraph

    @classmethod
    def from_graph(cls, g):
        return cls(gr.trim(g))

    @property
    def alphabet(self):
        return self.presentation.symbols

    @cached_property
    def is_empty(self):
        return self.presentation.n == 0

    def accepts(self, word):
        return gr.accepts_word(self.presentation, word)

    def language(self, n):
        return gr.words_of_length(self.presentation, n)


def full_shift(symbols):
    g = LabeledGraph.make(
        sorted(symbols), ["*"], [(f"loop:{s}", "*", "*", s) for s in sorted(symbols)]
    )
    return SoficShift.from_graph(g)


def edge_shift(g):
    """The shift of bi-infinite edge sequences: each edge labeled by its id."""
    t = gr.trim(g)
    relabeled = LabeledGraph.make(
        sorted(e.id for e in t.edges),
        t.vertices,
        (Edge(e.id, e.src, e.dst, e.id) for e in t.edges),
    )
    return SoficShift(relabeled)


def shift_equal(x, y):
    return gr.shift_equal(x.presentation, y.presentation)


def entropy(x):
    """Topological entropy, natural log.

    Computed on a right-resolving presentation where the number of words
    and the number of paths agree up to a factor of the vertex count, so
    both have the same growth rate. Empty shift reports -inf.
    """
    d = gr.determinize(x.presentation)
    radius = gr.spectral_radius(d)
    if radius == 0.0:
        return float("-inf")
    return math.log(radius)


# -- minimal right-resolving cover ----------------------------------------


def _follower_merge(g):
    """Quotient a right-resolving graph by follower-set equality.

    Moore partition refinement from one block, so the first round splits
    by label set; two vertices stay together iff they admit the same
    labels and their successors stay together symbol by symbol. Each
    successor is the one bit of a vertex's g.fwd row. Blocks are numbered
    in sorted order of their keys and named by their first vertex.
    """
    succ = [tuple((s, row[v].bit_length() - 1)
                  for s, row in g.fwd.items() if row[v])
            for v in range(g.n)]
    block = [0] * g.n
    count = 1
    while True:
        keys = [(block[v], tuple((s, block[w]) for s, w in succ[v]))
                for v in range(g.n)]
        number = {key: i for i, key in enumerate(sorted(set(keys)))}
        if len(number) == count:
            break
        block = [number[key] for key in keys]
        count = len(number)
    reps = {}
    for v, b in enumerate(block):
        reps.setdefault(b, v)
    name = [g.vertices[reps[b]] for b in range(count)]
    edges = [Edge(f"{name[b]}>{s}", name[b], name[block[w]], s)
             for b in range(count) for s, w in succ[reps[b]]]
    return LabeledGraph.make(g.symbols, name, edges)


def fischer_cover(x):
    """Minimal right-resolving presentation of an irreducible sofic shift.

    Determinize, pick the smallest irreducible piece that still presents
    the whole shift, then merge follower-equivalent vertices. Raises
    ReducibleShift when no irreducible piece carries the full language.
    The result is checked against the defining properties before return.
    """
    if x.is_empty:
        raise ReducibleShift("empty shift has no irreducible cover")
    d = gr.determinize(x.presentation)
    candidates = []
    for c in gr.scc_components(d):
        if c.trivial:
            continue
        sub = gr.subgraph(d, c.vertices)
        if gr.is_sublanguage(d, sub):
            candidates.append(sub)
    if not candidates:
        raise ReducibleShift("no strongly connected piece presents the shift")
    best = min(candidates, key=lambda h: (h.n, h.vertices))
    cover = _follower_merge(best)
    if not gr.is_irreducible(cover):
        raise InvariantViolation("fischer cover irreducible")
    gr.check_right_resolving(cover)
    if not gr.shift_equal(cover, d):
        raise InvariantViolation("fischer cover presents the same shift")
    if gr.find_magic_word(cover) is None:
        raise InvariantViolation("fischer cover admits a focusing word")
    return cover


def is_irreducible_shift(x):
    try:
        fischer_cover(x)
        return True
    except ReducibleShift:
        return False


# -- periodic points -------------------------------------------------------


def periodic_phase_graph(g, block):
    """Paths of this graph presenting the periodic point (block)^infinity,
    with phase tracked mod the block length. Trimmed."""
    p = len(block)
    if p == 0:
        raise PeriodicPointNotInShift(block)
    vertices = [f"{v}@{i}" for i in range(p) for v in g.vertices]
    edges = []
    for i in range(p):
        for e in g.edges:
            if e.label == block[i]:
                edges.append(
                    Edge(f"{e.id}@{i}", f"{e.src}@{i}", f"{e.dst}@{(i + 1) % p}",
                         e.label)
                )
    return gr.trim(LabeledGraph.make(g.alphabet, vertices, edges))


# -- SFT detection ---------------------------------------------------------


@inconclusive_on_budget
def is_sft(x):
    """Decide whether the shift is of finite type, and find the memory.

    Works on a right-resolving presentation. For each symbol s the pair
    (follow set of u, follow set of s u) is tracked while u grows, the
    live side first (pair_moves). The word s u violates memory |u| when
    s u is admissible but its follower language differs from that of u;
    the shift fails to be SFT exactly when such violations occur at
    unbounded depth, which over the finite pair graph means: some
    violating pair is reachable from a cycle. Otherwise the minimal
    memory is one more than the deepest violation.

    One longest_runs search backwards from the violations decides both.
    Every pair is reached from a seed, so a pair with no predecessor is a
    seed and a finite run back from a violation is its depth; the run is
    infinite exactly when a cycle reaches the pair. The least violation
    with an infinite run is pumped; otherwise the memory is the deepest
    run plus one, or 1 with no violation. Inconclusive only when the pair
    graph and the run search (a state per pair) exceed the state budget.
    """
    d = gr.determinize(x.presentation)
    if d.n == 0:
        # empty shift: vacuously a 1-step SFT with no allowed symbols
        return proved({"memory": 1, "note": "empty shift"})
    fwd = d.fwd
    full = d.full_mask
    budget = Budget(where="is_sft")

    seeds = {}  # seed pair -> the first symbol that gives it
    for s, table in fwd.items():
        if a := apply_mask(table, full):
            seeds.setdefault((full, a), s)
    step = pair_moves([(s, table, table) for s, table in fwd.items()])
    rows = {}
    order = list(bfs_closure(seeds, lambda node: [
        nxt for nxt, _ in rows.setdefault(node, step(node))], budget))
    nodes = {node: idx for idx, node in enumerate(order)}
    succ = [[(nodes[nxt], s) for nxt, s in rows[node]] for node in order]

    # the followers of (b, a) differ iff some continuation kills the small
    # side while the big side survives; close backwards over those deaths
    lethal = {}
    for idx, (b, a) in enumerate(order):
        for s, table in fwd.items():
            if apply_mask(table, b) and not apply_mask(table, a):
                lethal[idx] = s
                break
    pred = [[] for _ in order]
    for idx, row in enumerate(succ):
        for j, _ in row:
            pred[j].append(idx)
    differ = bfs_closure(lethal, pred.__getitem__)
    # a violation additionally needs the small side alive: dead small side
    # only says the longer word is inadmissible, which is no constraint
    bad = sorted(i for i in differ if order[i][1])
    runs = {}
    if bad:  # most shifts have none, and the run search has a fixed cost
        longest_runs(runs, bad, pred.__getitem__, lambda i: True, budget)

    target = next((i for i in bad if runs[i] == math.inf), None)
    if target is not None:
        cyclic = cycle_nodes(len(order), [[j for j, _ in row] for row in succ])
        into = cyclic & bfs_closure([target], pred.__getitem__).keys()
        seed_sym = {nodes[node]: s for node, s in seeds.items()}
        return refuted(_sft_refutation(succ, seed_sym, lethal, into, target))
    memory = max((runs[i] for i in bad), default=0) + 1
    return proved({"memory": memory, "pairs": len(order)})


def _sft_refutation(succ, seed_sym, lethal, cyclic, target):
    """Assemble a pumpable witness.

    With u(t) = stem cycle^t tail: u(t) extension and symbol u(t) are
    admissible for every t, while symbol u(t) extension never is. Any
    finite memory is exceeded once the pump makes u(t) long enough.
    """
    def path(sources, goals):
        found = shortest_path(succ, sources, goals.__contains__)
        if found is None:
            raise InvariantViolation("sft witness path", "goal unreachable")
        return found

    seed0, entry, stem = path(seed_sym, cyclic)
    cycle = shortest_cycle(succ, entry)
    if cycle is None:
        raise InvariantViolation("sft witness cycle", "no cycle at entry")
    _, _, tail = path([entry], {target})
    _, end, ext = path([target], lethal)
    return {
        "symbol": seed_sym[seed0],
        "stem": stem,
        "cycle": cycle,
        "tail": tail,
        "extension": ext + [lethal[end]],
        "note": "with u(t) = stem cycle^t tail: u(t)+extension and "
                "symbol+u(t) are admissible for every t, but "
                "symbol+u(t)+extension never is",
    }
