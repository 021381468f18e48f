"""Labeled directed multigraphs and the graph-level decision procedures.

A LabeledGraph presents a sofic shift: bi-infinite edge paths read off
their labels. Vertices, edges and symbols are plain strings; everything
is stored in tuples so graphs are immutable and hashable, and all
searches run on integer indexes derived once per graph.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

from .automata import (
    Budget,
    apply_mask,
    bfs_closure,
    bfs_tree,
    cycle_nodes,
    memoized,
    nontrivial_components,
    pair_moves,
    tarjan_scc,
    tree_path,
)
from .errors import (
    AlphabetMismatch,
    NotRightResolving,
    ParseError,
    UnknownVertex,
)


class Edge(NamedTuple):
    id: str
    src: str
    dst: str
    label: str


class Component(NamedTuple):
    vertices: tuple
    trivial: bool  # trivial = single vertex without a self loop


@dataclass(frozen=True)
class LabeledGraph:
    alphabet: tuple
    vertices: tuple
    edges: tuple

    @classmethod
    def make(cls, alphabet, vertices, edges):
        """Build from any iterables; edges may be Edge or (id, src, dst, label)."""
        return cls(
            tuple(alphabet),
            tuple(vertices),
            tuple(e if isinstance(e, Edge) else Edge(*e) for e in edges),
        )

    def __post_init__(self):
        seen = set()
        for a in self.alphabet:
            if not isinstance(a, str) or not a:
                raise ParseError(f"bad symbol {a!r}", field="alphabet")
            if a in seen:
                raise ParseError(f"duplicate symbol {a!r}", field="alphabet")
            seen.add(a)
        seen = set()
        for v in self.vertices:
            if not isinstance(v, str) or not v:
                raise ParseError(f"bad vertex name {v!r}", field="vertices")
            if v in seen:
                raise ParseError(f"duplicate vertex {v!r}", field="vertices")
            seen.add(v)
        vset = seen
        aset = set(self.alphabet)
        seen = set()
        for e in self.edges:
            if not isinstance(e.id, str) or not e.id:
                raise ParseError(f"bad edge id {e.id!r}", field="edges")
            if e.id in seen:
                raise ParseError(f"duplicate edge id {e.id!r}", field="edges")
            seen.add(e.id)
            if e.src not in vset:
                raise UnknownVertex(e.src)
            if e.dst not in vset:
                raise UnknownVertex(e.dst)
            if e.label not in aset:
                raise AlphabetMismatch(
                    f"edge {e.id!r} labeled {e.label!r}, not in alphabet"
                )

    # -- derived indexes, computed once ------------------------------------

    @cached_property
    def n(self):
        return len(self.vertices)

    @cached_property
    def vindex(self):
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def by_id(self):
        return {e.id: e for e in self.edges}

    @cached_property
    def out(self):
        table = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.src].append(e)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def inn(self):
        table = {v: [] for v in self.vertices}
        for e in self.edges:
            table[e.dst].append(e)
        return {v: tuple(es) for v, es in table.items()}

    @cached_property
    def adj(self):
        table = [[] for _ in range(self.n)]
        vx = self.vindex
        for e in self.edges:
            table[vx[e.src]].append(vx[e.dst])
        return table

    @cached_property
    def symbols(self):
        return tuple(sorted(self.alphabet))

    @cached_property
    def fwd(self):
        """Per symbol of symbols, in that order, the apply_mask table of
        its edges: the bitmask of each vertex's successors by vertex
        index, all zero for a symbol that labels no edge."""
        vx = self.vindex
        table = {s: [0] * self.n for s in self.symbols}
        for e in self.edges:
            table[e.label][vx[e.src]] |= 1 << vx[e.dst]
        return {s: tuple(row) for s, row in table.items()}

    @cached_property
    def full_mask(self):
        return (1 << self.n) - 1

    @cached_property
    def trim_cut(self):
        """trim's memo: the trimmed graph, or None when trimming removes
        no vertex (None rather than the graph itself, which would make
        every trimmed graph a reference cycle)."""
        seeds = sorted(cycle_nodes(self.n, self.adj))
        if not seeds:
            if self.n == 0:
                return None
            return _trimmed(LabeledGraph.make(self.alphabet, (), ()))
        fwd = set(bfs_closure(seeds, lambda v: self.adj[v]))
        radj = [[] for _ in range(self.n)]
        for v in range(self.n):
            for w in self.adj[v]:
                radj[w].append(v)
        keep = fwd & set(bfs_closure(seeds, lambda v: radj[v]))
        if len(keep) == self.n:
            return None
        return _trimmed(subgraph(self, (self.vertices[i]
                                        for i in sorted(keep))))

    @cached_property
    def memo(self):
        """Derived data that other functions build for this graph, by
        name; the graph is immutable, so no entry goes stale."""
        return {}

    def names_of(self, mask):
        return tuple(v for i, v in enumerate(self.vertices) if mask >> i & 1)


def _trimmed(g):
    """Mark a trim result as its own trim."""
    g.__dict__["trim_cut"] = None
    return g


def subgraph(g, keep):
    """Induced subgraph on the given vertex names (order preserved)."""
    keep = set(keep)
    return LabeledGraph.make(
        g.alphabet,
        (v for v in g.vertices if v in keep),
        (e for e in g.edges if e.src in keep and e.dst in keep),
    )


def scc_components(g):
    """All strongly connected components, each tagged trivial or not."""
    comp, count = tarjan_scc(g.n, g.adj)
    alive = nontrivial_components(g.n, g.adj, comp)
    members = [[] for _ in range(count)]
    for i, v in enumerate(g.vertices):
        members[comp[i]].append(v)
    out = [Component(tuple(ms), c not in alive) for c, ms in enumerate(members)]
    # order components by first vertex appearance, not tarjan's numbering
    pos = {v: i for i, v in enumerate(g.vertices)}
    out.sort(key=lambda c: pos[c.vertices[0]])
    return tuple(out)


def is_irreducible(g):
    """Strongly connected with at least one edge."""
    if g.n == 0 or not g.edges:
        return False
    comp, count = tarjan_scc(g.n, g.adj)
    return count == 1


def trim(g):
    """Restrict to vertices lying on bi-infinite paths.

    A vertex survives iff it is reachable from some cycle and can reach
    some cycle; the induced subgraph presents the same shift. A graph
    that loses no vertex is returned as it is. The result is memoized on
    the graph, and a graph trim returns is its own trim, so a trim of a
    trimmed graph costs one attribute read.
    """
    t = g.trim_cut
    return g if t is None else t


def relabeled_trim(g, alphabet, label):
    """trim(g) with each edge e labeled label(e) over alphabet, vertex
    and edge order kept. Trimming reads only vertices and edges, so the
    relabeled graph is marked as its own trim without trimming it."""
    t = trim(g)
    return _trimmed(LabeledGraph.make(
        alphabet, t.vertices,
        (Edge(e.id, e.src, e.dst, label(e)) for e in t.edges)))


def is_right_resolving(g):
    try:
        check_right_resolving(g)
    except NotRightResolving:
        return False
    return True


def check_right_resolving(g):
    for v in g.vertices:
        labels = set()
        for e in g.out[v]:
            if e.label in labels:
                raise NotRightResolving(v, e.label)
            labels.add(e.label)


def reverse(g):
    """Same graph with every edge flipped; presents the transposed shift."""
    return LabeledGraph.make(
        g.alphabet,
        g.vertices,
        (Edge(e.id, e.dst, e.src, e.label) for e in g.edges),
    )


def disjoint_union(graphs):
    """Disjoint union; vertex and edge names get an index prefix."""
    alphabet = sorted({a for g in graphs for a in g.alphabet})
    vertices = []
    edges = []
    for i, g in enumerate(graphs):
        vertices.extend(f"{i}.{v}" for v in g.vertices)
        edges.extend(
            Edge(f"{i}.{e.id}", f"{i}.{e.src}", f"{i}.{e.dst}", e.label)
            for e in g.edges
        )
    return LabeledGraph.make(alphabet, vertices, edges)


# -- subset construction -------------------------------------------------


# Names joined into one string (subset names here, table keys in io,
# witness keys in openness) are joined with the first candidate separator
# that occurs in no name, so each join splits back into its names.
SEPARATORS = (",", ";", "|", "/", " ")


def separator(names, first=","):
    """The first of first, then SEPARATORS, that occurs in no name;
    ParseError when each occurs in some name."""
    for sep in (first,) + SEPARATORS:
        if not any(sep in name for name in names):
            return sep
    raise ParseError("every separator occurs in a name", field="separator")


def determinize(g, budget=None):
    """Right-resolving presentation of the same shift (subset construction).

    Starts from the full vertex set of the trimmed graph, so the subset
    automaton accepts exactly the language; the result is trimmed again
    because subset states can fail to be bi-extendable. A subset is named
    by its vertices' names joined with separator(names, "+").

    The result is memoized on the trimmed graph through automata.memoized,
    on the caller's budget or a fresh Budget(where="determinize"). The
    empty graph is its own result and stores nothing.
    """
    t = trim(g)
    if t.n == 0:
        return t
    if budget is None:
        budget = Budget(where="determinize")
    return memoized(t.memo, "determinized",
                    lambda: _subset_construction(t, budget), budget)


def _subset_construction(t, budget):
    fwd = t.fwd

    def expand(mask):
        for table in fwd.values():
            m2 = apply_mask(table, mask)
            if m2:
                yield m2

    sep = separator(t.vertices, "+")

    def name(mask):
        return sep.join(t.names_of(mask))

    seen = bfs_closure([t.full_mask], expand, budget)
    vertices = [name(m) for m in seen]
    edges = []
    for mask in seen:
        src = name(mask)
        for s, table in fwd.items():
            m2 = apply_mask(table, mask)
            if m2:
                edges.append(Edge(f"{src}>{s}", src, name(m2), s))
    return trim(LabeledGraph.make(t.symbols, vertices, edges))


def find_magic_word(g):
    """Shortest (then lexicographically least) word focusing the trimmed
    graph's full vertex set to a single vertex, or None if there is none.

    The graph must be right-resolving. The empty word counts when the
    trimmed graph has a single vertex.
    """
    t = trim(g)
    check_right_resolving(t)
    if t.n == 0:
        return None
    fwd = t.fwd

    def expand(mask):
        return [(m2, s) for s, table in fwd.items()
                if (m2 := apply_mask(table, mask))]

    parent, goal = bfs_tree([t.full_mask], expand,
                            is_goal=lambda mask: mask & (mask - 1) == 0)
    if goal is None:
        return None
    return tuple(tree_path(parent, goal)[1])


# -- language queries -----------------------------------------------------


def accepts_word(g, word):
    """Is the word the label of some bi-extendable path?"""
    t = trim(g)
    if t.n == 0:
        return False
    fwd = t.fwd
    mask = t.full_mask
    for s in word:
        if s not in fwd:
            return False
        mask = apply_mask(fwd[s], mask)
        if not mask:
            return False
    return True


def words_of_length(g, n):
    """All admissible words of the given length, in lexicographic order."""
    t = trim(g)
    if t.n == 0:
        return []
    fwd = t.fwd
    out = []
    stack = [((), t.full_mask)]
    while stack:
        word, mask = stack.pop()
        if len(word) == n:
            out.append(word)
            continue
        # push in reverse so the smallest symbol is explored first
        for s in reversed(t.symbols):
            m2 = apply_mask(fwd[s], mask)
            if m2:
                stack.append((word + (s,), m2))
    return out


def sublanguage_counterexample(g1, g2, budget=None):
    """Lexicographically least shortest word admissible in g1 but not in
    g2, or None.

    Searches breadth first over pairs (A, B) of vertex sets of the
    trimmed graphs: the vertices of each that can end a path reading the
    word, both started from the full set. In a trimmed graph a word is
    admissible exactly when its set is nonempty, so the search keeps A
    nonempty and stops at the first pair with B empty.
    """
    t1, t2 = trim(g1), trim(g2)
    if t1.n == 0:
        return None
    if budget is None:
        budget = Budget(where="sublanguage")
    dead = (0,) * t2.n
    expand = pair_moves([(s, t1.fwd[s], t2.fwd.get(s, dead))
                         for s in t1.symbols])
    parent, goal = bfs_tree([(t1.full_mask, t2.full_mask)], expand, budget,
                            lambda pair: not pair[1])
    if goal is None:
        return None
    return tuple(tree_path(parent, goal)[1])


def is_sublanguage(g1, g2, budget=None):
    return sublanguage_counterexample(g1, g2, budget) is None


def shift_equal(g1, g2, budget=None):
    """Do the two graphs present the same shift space? Both sublanguage
    tests spend on the budget when one is given."""
    return is_sublanguage(g1, g2, budget) and is_sublanguage(g2, g1, budget)


# -- spectral radius ------------------------------------------------------


def _perron_value(n, arcs):
    """Perron root of an irreducible multigraph: n vertices, one arc per edge.

    Power iteration on A + I (primitive once irreducible) with
    Collatz-Wielandt bounds; the running bracket is correct at every
    step, so the tolerance is a guaranteed enclosure, not a heuristic.
    """
    x = [1.0] * n
    lo, hi = 0.0, math.inf
    for _ in range(1_000_000):
        y = x[:]
        for i, j in arcs:
            y[i] += x[j]
        ratios = [a / b for a, b in zip(y, x)]
        lo = max(lo, min(ratios))
        hi = min(hi, max(ratios))
        if hi - lo <= 1e-12 * hi:
            break
        top = max(y)
        x = [a / top for a in y]
    return (lo + hi) / 2.0 - 1.0


def spectral_radius(g):
    """Largest Perron root over the nontrivial strongly connected
    components of the edge-count matrix; 0.0 when there are none.
    Computed once per graph and memoized in its memo."""
    radius = g.memo.get("spectral radius")
    if radius is None:
        radius = g.memo["spectral radius"] = _spectral_radius(g)
    return radius


def _spectral_radius(g):
    best = 0.0
    for c in scc_components(g):
        if c.trivial:
            continue
        idx = {v: i for i, v in enumerate(c.vertices)}
        arcs = [(idx[e.src], idx[e.dst]) for e in g.edges
                if e.src in idx and e.dst in idx]
        best = max(best, _perron_value(len(idx), arcs))
    return best
