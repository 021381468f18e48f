"""Origin-marked automata denoting closed, non-shift-invariant sets.

A PointedAutomaton denotes the set of label sequences of bi-infinite
paths that traverse a marked edge at a marked coordinate. Images of
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
from .automata import Budget, apply_mask, bfs_tree, tree_path
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

    @property
    def start(self):
        # coordinate of the first symbol
        return -self.center

    @property
    def end(self):
        # coordinate one past the last symbol
        return len(self.word) - self.center

    @property
    def half(self):
        return max(self.center, len(self.word) - 1 - self.center)

    def text(self):
        return "".join(self.word)

    def to_json(self):
        return {"word": list(self.word), "center": self.center}


@dataclass(frozen=True, eq=False)
class PointedAutomaton:
    graph: LabeledGraph
    origins: frozenset  # of (edge id, coordinate); engines assume coordinate 0

    @classmethod
    def build(cls, graph, origins):
        t = gr.trim(graph)
        alive = {e.id for e in t.edges}
        kept = frozenset((eid, int(off)) for eid, off in origins
                         if eid in alive)
        return cls(t, kept)

    @cached_property
    def is_empty(self):
        # every surviving marked edge lies on a bi-infinite path
        return not self.origins

    def origin_edge_ids(self):
        for eid, off in self.origins:
            if off != 0:
                raise InvariantViolation(
                    "origin coordinates are 0",
                    f"edge {eid} marked at {off}")
        return {eid for eid, _ in self.origins}


def everywhere_marked(graph):
    """The automaton denoting all points of the shift the graph presents."""
    t = gr.trim(graph)
    return PointedAutomaton.build(t, [(e.id, 0) for e in t.edges])


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
                anchors.append((eid, 0))
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
    return any(f"{eid}@0" in alive for eid in a.origin_edge_ids())


# -- containment of cylinders -------------------------------------------------


def _thread_tables(a, symbols):
    """apply_mask tables over (vertex, marked-bit) threads, atom 2v + bit,
    per symbol: plain[s] keeps the bit, origin[s] sets it on a thread
    crossing a marked edge (the move at the origin). Also the masks of
    every unmarked and of every marked atom."""
    g = a.graph
    anchor = a.origin_edge_ids()
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


def _free_moves(yg, plain):
    """bfs_tree expand over (y-subset, threads) pairs: every symbol that
    keeps the y-side live, with the threads moved off the origin."""
    step = yg.ops.step
    rows = [(i, s, plain[s]) for i, s in enumerate(yg.symbols)]

    def expand(pair):
        u, threads = pair
        out = []
        for i, s, table in rows:
            u2 = step(u, i)
            if u2:
                out.append(((u2, apply_mask(table, threads)), s))
        return out
    return expand


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
    free = _free_moves(yg, plain)
    step = yg.ops.step

    # phase one: arbitrary left context
    parent, _ = bfs_tree([(yg.full_mask, unmarked)], free, budget)

    # phase two: the word itself, with the origin trigger at its center
    level = {p: p for p in parent}  # current pair -> entry pair
    for j, s in enumerate(w.word):
        i = yg.sym_index[s]
        table = (origin if j == w.center else plain)[s]
        nxt = {}
        for (u, threads), src in level.items():
            u2 = step(u, i)
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


def contains_cylinder(a, y, w, budget=None):
    """Is every point of y matching the positioned word w in the
    denotation of a? Exact; see cylinder_escape for the witness form."""
    return cylinder_escape(a, y, w, budget) is None


def uniform_window_bound(a, y, k_max, budget):
    """Least k <= k_max such that every central (2k+1)-window of the
    denotation of a spans a cylinder of y inside the denotation, or None.

    The answer of cylinder_escape on every window of window_language,
    from one subset-product scan per k. A state (U, S, T) holds the
    y-states that can read the word so far, the threads of
    cylinder_escape after an arbitrary left context, and the window
    threads of window_language, started at every vertex at coordinate -k.
    Phase one is the left-context closure of (U, S). Phase two reads the
    2k+1 window symbols, dropping a state whose U or T empties; the layer
    of the k symbols left of the origin grows by one symbol per k, so
    phase one and those layers are built once for every k. Phase three
    hunts, from the final (U, S) pairs, a right context that keeps U live
    and leaves no marked thread: some window escapes exactly when the
    hunt succeeds. Every discovered state spends one budget unit.
    """
    if a.is_empty:
        return 0  # no windows at all
    yg = y.presentation
    plain, origin, unmarked, marked = _thread_tables(a, yg.symbols)
    free = _free_moves(yg, plain)
    step = yg.ops.step
    left, _ = bfs_tree([(yg.full_mask, unmarked)], free, budget)
    spend = budget.spend

    def advance(layer, tables, keep):
        moves = [(i, tables[sym]) for i, sym in enumerate(yg.symbols)]
        nxt = {}
        for u, s, t in layer:
            for i, table in moves:
                u2 = step(u, i)
                if not u2:
                    continue
                t2 = apply_mask(table, t) & keep
                if t2:
                    q = (u2, apply_mask(table, s), t2)
                    if q not in nxt:
                        spend()
                        nxt[q] = None
        return nxt

    # the k symbols left of the origin, extended by one symbol per k
    before = [(u, s, unmarked) for u, s in left]
    for k in range(k_max + 1):
        if k:
            before = advance(before, plain, -1)
        # from the origin on only marked threads can still witness
        layer = advance(before, origin, marked)
        for _ in range(k):
            layer = advance(layer, plain, marked)
        seeds = {(u, s): None for u, s, _ in layer}
        _, bad = bfs_tree(seeds, free, budget, lambda p: not p[1] & marked)
        if bad is None:
            return k
    return None


def window_language(a, k):
    """All central (2k+1)-windows of points in the denotation, in
    lexicographic order. The list grows exponentially in k: this is a
    reference and exploration helper; uniform_window_bound decides the
    windows' containment without listing them."""
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
