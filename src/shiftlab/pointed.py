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
from .automata import Budget, bfs_tree, tree_path
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


def _thread_tables(g):
    """Per-symbol thread moves over (vertex, marked-bit) atoms."""
    vx = g.vindex
    plain = {}
    for e in g.edges:
        plain.setdefault(e.label, []).append((vx[e.src], vx[e.dst], e.id))
    return plain


def _step_threads(smask, moves, trigger=None):
    """Advance all (vertex, bit) threads along the given moves; threads
    crossing a trigger edge come out with the bit set."""
    out = 0
    for src, dst, eid in moves:
        hit = trigger is not None and eid in trigger
        for b in (0, 1):
            if smask >> (src * 2 + b) & 1:
                nb = 1 if (b or hit) else 0
                out |= 1 << (dst * 2 + nb)
    return out


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
    anchor = a.origin_edge_ids()
    g = a.graph
    moves = _thread_tables(g)
    if budget is None:
        budget = Budget(where="cylinder containment")

    sx = yg.sym_index
    all_threads = 0
    for i in range(g.n):
        all_threads |= 1 << (i * 2)
    start = (yg.full_mask, all_threads)

    def stepped(pair, s, trigger):
        u, smask = pair
        if s not in sx:
            return None
        u2 = yg.ops.step(u, sx[s])
        if not u2:
            return None
        s2 = _step_threads(smask, moves.get(s, ()), trigger)
        return (u2, s2)

    symbols = yg.symbols

    def free_moves(p):
        u, smask = p
        out = []
        for s in symbols:
            u2 = yg.ops.step(u, sx[s])
            if u2:
                out.append(((u2, _step_threads(smask, moves.get(s, ()))), s))
        return out

    # phase one: arbitrary left context
    parent, _ = bfs_tree([start], free_moves, budget)

    # phase two: the word itself, with the origin trigger at its center
    level = {p: p for p in parent}  # current pair -> entry pair
    for j, s in enumerate(w.word):
        trigger = anchor if j == w.center else None
        nxt = {}
        for p, src in level.items():
            q = stepped(p, s, trigger)
            if q is not None and q not in nxt:
                nxt[q] = src
        level = nxt
        if not level:
            return None  # no y-point carries w here at all; vacuous
    marked_mask = 0
    for i in range(g.n):
        marked_mask |= 1 << (i * 2 + 1)

    # phase three: arbitrary right context, hunting a live unmarked pair
    rparent, bad = bfs_tree(level, free_moves, budget,
                            lambda p: p[0] and not (p[1] & marked_mask))
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


def window_language(a, k):
    """All central (2k+1)-windows of points in the denotation, in
    lexicographic order."""
    g = a.graph
    if a.is_empty:
        return []
    anchor = a.origin_edge_ids()
    moves = _thread_tables(g)
    all_threads = 0
    for i in range(g.n):
        all_threads |= 1 << (i * 2)
    marked_mask = 0
    for i in range(g.n):
        marked_mask |= 1 << (i * 2 + 1)
    length = 2 * k + 1
    out = []
    stack = [((), all_threads)]
    while stack:
        word, smask = stack.pop()
        if len(word) == length:
            out.append(word)
            continue
        j = len(word)
        trigger = anchor if j == k else None
        for s in reversed(g.symbols):
            s2 = _step_threads(smask, moves.get(s, ()), trigger)
            if j >= k:
                # past the origin only marked threads can still witness
                s2 &= marked_mask
            if s2:
                stack.append((word + (s,), s2))
    return out
