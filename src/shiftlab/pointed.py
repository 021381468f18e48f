"""Origin-marked automata denoting closed, non-shift-invariant sets.

A PointedAutomaton denotes the set of label sequences of bi-infinite
paths that traverse a marked edge at coordinate 0. Images of
central cylinders under sliding-block codes are the motivating case;
containment tests against such sets reduce to finite subset scans by a
compactness argument: a point escapes the denotation exactly when some
finite window of it admits no marked matching path segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import graph as gr
from . import shifts as sh
from .automata import Budget, apply_mask, bfs_tree, pair_moves, tree_path
from .errors import (InvariantViolation, PeriodicPointNotInShift,
                     WordNotAdmissible)
from .graph import Edge, LabeledGraph


@dataclass(frozen=True)
class CenteredWord:
    """A finite word with a marked coordinate; denotes the set of points
    carrying the word with the marked symbol at the origin."""

    word: tuple
    center: int

    def __post_init__(self):
        if not self.word:
            raise WordNotAdmissible(())
        if not 0 <= self.center < len(self.word):
            raise InvariantViolation(
                "center inside word",
                f"center {self.center} for length {len(self.word)}")

    @classmethod
    def central(cls, word):
        word = tuple(word)
        if len(word) % 2 == 0:
            raise InvariantViolation("central words have odd length",
                                     f"got length {len(word)}")
        return cls(word, (len(word) - 1) // 2)

    def to_json(self):
        return {"word": list(self.word), "center": self.center}


@dataclass(frozen=True, eq=False)
class PointedAutomaton:
    graph: LabeledGraph
    origins: frozenset  # of the ids of the edges marked at coordinate 0

    @classmethod
    def build(cls, graph, origins):
        t = gr.trim(graph)
        alive = {e.id for e in t.edges}
        return cls(t, frozenset(eid for eid in origins if eid in alive))

    @cached_property
    def is_empty(self):
        # every surviving marked edge lies on a bi-infinite path
        return not self.origins


def cylinder_image(code, u):
    """The image of the central cylinder of u as a pointed automaton.

    Layered construction over the code's arrow graph: a free layer for
    coordinates left of the constrained zone, one layer per consumed
    symbol of u, and a free layer afterwards. The marked edges are the
    zone transitions at coordinate zero. Raises WordNotAdmissible when
    the cylinder is empty.
    """
    from .codes import arrow_graph  # local import to avoid a cycle

    if not isinstance(u, CenteredWord):
        u = CenteredWord.central(u)
    if not code.domain.accepts(u.word):
        raise WordNotAdmissible(u.word)
    a = arrow_graph(code)
    g = a.graph
    length = len(u.word)
    vertices = [f"L.{v}" for v in g.vertices]
    for j in range(1, length + 1):
        vertices += [f"M{j}.{v}" for v in g.vertices]
    vertices += [f"R.{v}" for v in g.vertices]
    edges = []
    for e in g.edges:
        edges.append(Edge(f"L.{e.id}", f"L.{e.src}", f"L.{e.dst}", e.label))
        edges.append(Edge(f"R.{e.id}", f"R.{e.src}", f"R.{e.dst}", e.label))
    anchors = []
    for j in range(length):
        src_layer = "L" if j == 0 else f"M{j}"
        for e in g.edges:
            if a.x_sym[e.id] != u.word[j]:
                continue
            eid = f"M{j + 1}.{e.id}"
            edges.append(Edge(eid, f"{src_layer}.{e.src}",
                              f"M{j + 1}.{e.dst}", e.label))
            if j == u.center:
                anchors.append(eid)
    for e in g.edges:
        edges.append(Edge(f"MR.{e.id}", f"M{length}.{e.src}",
                          f"R.{e.dst}", e.label))
    layered = LabeledGraph.make(g.symbols, vertices, edges)
    return PointedAutomaton.build(layered, anchors)


def contains_periodic_point(a, block):
    """Does the denotation contain the periodic point block^infinity
    (the concrete point with block starting at the origin)?"""
    block = tuple(block)
    try:
        pg = sh.periodic_phase_graph(a.graph, block)
    except PeriodicPointNotInShift:
        return False
    alive = {e.id for e in pg.edges}
    return any(f"{eid}@0" in alive for eid in a.origins)


# -- containment of cylinders -------------------------------------------------


def _thread_tables(a, symbols):
    """apply_mask tables over (vertex, marked-bit) threads, atom 2v + bit,
    per symbol: plain[s] keeps the bit, origin[s] sets it on a thread
    crossing a marked edge (the move at the origin). Also the masks of
    every unmarked and of every marked atom."""
    g = a.graph
    anchor = a.origins
    vx = g.vindex
    plain = {s: [0] * (2 * g.n) for s in symbols}
    origin = {s: [0] * (2 * g.n) for s in symbols}
    for e in g.edges:
        if e.label not in plain:
            continue
        src, dst = 2 * vx[e.src], 2 * vx[e.dst]
        hit = e.id in anchor
        for b in (0, 1):
            plain[e.label][src + b] |= 1 << (dst + b)
            origin[e.label][src + b] |= 1 << (dst + (1 if b or hit else 0))
    unmarked = 0
    for i in range(g.n):
        unmarked |= 1 << (i * 2)
    return plain, origin, unmarked, unmarked << 1


def cylinder_escape(a, y, w, budget=None):
    """None if every point of y matching w lies in the denotation of a;
    otherwise a witness window: a positioned word admissible in y,
    extending w, over which no marked matching path segment exists.

    Scan left to right with subset pairs: which y-states can read the
    window so far, and which automaton threads match it, with a bit
    recording traversal of a marked edge at the origin. A final pair
    with live y-side and no marked thread is exactly an escaping window
    by compactness; saturation without one proves containment.
    """
    if not isinstance(w, CenteredWord):
        w = CenteredWord.central(w)
    yg = y.presentation
    if not gr.accepts_word(yg, w.word):
        raise WordNotAdmissible(w.word)
    if a.is_empty:
        # nonempty cylinder against an empty denotation always escapes
        return w
    if budget is None:
        budget = Budget(where="cylinder containment")
    plain, origin, unmarked, marked = _thread_tables(a, yg.symbols)
    free = pair_moves([(s, table, plain[s]) for s, table in yg.fwd.items()])

    # phase one: arbitrary left context
    parent, _ = bfs_tree([(yg.full_mask, unmarked)], free, budget)

    # phase two: the word itself, with the origin trigger at its center
    level = {p: p for p in parent}  # current pair -> entry pair
    for j, s in enumerate(w.word):
        u_table = yg.fwd[s]
        table = (origin if j == w.center else plain)[s]
        nxt = {}
        for (u, threads), src in level.items():
            u2 = apply_mask(u_table, u)
            if u2:
                nxt.setdefault((u2, apply_mask(table, threads)), src)
        level = nxt
        if not level:
            return None  # no y-point carries w here at all; vacuous

    # phase three: arbitrary right context, hunting a live unmarked pair
    rparent, bad = bfs_tree(level, free, budget,
                            lambda p: not p[1] & marked)
    if bad is None:
        return None
    exit_pair, right = tree_path(rparent, bad)
    _, left = tree_path(parent, level[exit_pair])
    return CenteredWord(tuple(left) + tuple(w.word) + tuple(right),
                        len(left) + w.center)


def reads_window(a, w):
    """Is the positioned word w the window of some point in the
    denotation? Scan w from every unmarked thread, crossing a marked edge
    at w's center: the window is read exactly when a marked thread
    survives, since every vertex of the trimmed graph lies on a
    bi-infinite path."""
    plain, origin, threads, marked = _thread_tables(a, a.graph.symbols)
    for j, s in enumerate(w.word):
        threads = apply_mask((origin if j == w.center else plain)[s],
                             threads)
    return bool(threads & marked)


def contains_cylinder(a, y, w):
    """Is every point of y matching the positioned word w in the
    denotation of a? Exact; see cylinder_escape for the witness form."""
    return cylinder_escape(a, y, w) is None


def window_language(a, k):
    """All central (2k+1)-windows of points in the denotation, in
    lexicographic order. The list grows exponentially in k: this is a
    reference and exploration helper."""
    if a.is_empty:
        return []
    g = a.graph
    plain, origin, unmarked, marked = _thread_tables(a, g.symbols)
    length = 2 * k + 1
    out = []
    stack = [((), unmarked)]
    while stack:
        word, threads = stack.pop()
        if len(word) == length:
            out.append(word)
            continue
        j = len(word)
        tables = origin if j == k else plain
        for s in reversed(g.symbols):
            t2 = apply_mask(tables[s], threads)
            if j >= k:
                # past the origin only marked threads can still witness
                t2 &= marked
            if t2:
                stack.append((word + (s,), t2))
    return out
