"""Sliding-block codes between sofic shifts.

The central construction is the arrow graph of a code over a chosen
presentation of its domain: vertices are (window-1)-paths, edges are
window-paths carrying both the produced symbol and the consumed domain
symbol. Images, fibers, closing properties and products all reduce to
label-product searches on arrow graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType

from . import graph as gr
from . import shifts as sh
from .automata import (Budget, apply_mask, bfs_closure, bfs_tree,
                       cycle_nodes, memoized, nontrivial_components,
                       shortest_cycle, shortest_path, tarjan_scc, tree_path)
from .decision import inconclusive_on_budget, proved, refuted
from .errors import (
    AlphabetMismatch,
    ConsistencyFault,
    DomainMismatch,
    InvariantViolation,
    NotFiniteToOne,
    PeriodicPointNotInShift,
    WordNotAdmissible,
    WordTooShort,
)
from .graph import Edge, LabeledGraph
from .shifts import SoficShift


@dataclass(frozen=True, eq=False)
class SlidingBlockCode:
    """A block map with the given memory and anticipation.

    The table assigns one output symbol to every admissible domain word
    of length memory + anticipation + 1; totality and exactness of the
    key set are enforced so evaluation can never fall off the table.
    """

    domain: SoficShift
    memory: int
    anticipation: int
    table: dict
    codomain_alphabet: tuple

    @classmethod
    def make(cls, domain, memory, anticipation, table, codomain_alphabet=None):
        table = {tuple(k): v for k, v in table.items()}
        if codomain_alphabet is None:
            codomain_alphabet = sorted(set(table.values()))
        return cls(domain, int(memory), int(anticipation), table,
                   tuple(codomain_alphabet))

    def __post_init__(self):
        if self.memory < 0 or self.anticipation < 0:
            raise DomainMismatch("memory and anticipation must be >= 0")
        w = self.window
        required = set(self.domain.language(w))
        given = set(self.table)
        missing = required - given
        extra = given - required
        if missing:
            raise DomainMismatch(
                f"table missing {len(missing)} admissible windows, "
                f"e.g. {''.join(sorted(missing)[0])!r}"
            )
        if extra:
            raise DomainMismatch(
                f"table has {len(extra)} inadmissible windows, "
                f"e.g. {''.join(sorted(extra)[0])!r}"
            )
        bad = sorted(set(self.table.values()) - set(self.codomain_alphabet))
        if bad:
            raise AlphabetMismatch(f"table produces {bad[0]!r} outside codomain")

    @property
    def window(self):
        return self.memory + self.anticipation + 1

    def apply_block(self, word):
        """Slide the table over a word; output is shorter by window-1."""
        w = self.window
        word = tuple(word)
        if len(word) < w:
            raise WordTooShort(f"need at least {w} symbols, got {len(word)}")
        out = []
        for i in range(len(word) - w + 1):
            key = word[i:i + w]
            if key not in self.table:
                raise WordNotAdmissible(key)
            out.append(self.table[key])
        return tuple(out)

    # -- derived structures, built once per code ------------------------

    @cached_property
    def arrow(self):
        """arrow_graph's memo for the domain's own presentation."""
        return _recode(self, self.domain.presentation)

    @cached_property
    def reversal(self):
        """reversed_code's memo."""
        rg = gr.reverse(self.domain.presentation)
        table = {tuple(reversed(k)): v for k, v in self.table.items()}
        return SlidingBlockCode.make(
            SoficShift.from_graph(rg), self.anticipation, self.memory, table,
            codomain_alphabet=self.codomain_alphabet)

    @cached_property
    def memo(self):
        """Derived data that other modules build for this code under a
        budget, by name; the code is immutable, so no entry goes stale."""
        return {}


def reversed_code(code):
    """The same code read right to left: reversed domain presentation,
    swapped memory and anticipation, reversed table keys. Built once per
    code; every call returns the same object."""
    return code.reversal


def identity_code(x):
    table = {(s,): s for s in x.alphabet}
    return SlidingBlockCode.make(x, 0, 0, table, x.alphabet)


# -- arrow graphs ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Recoded:
    """A code re-expressed as a one-block labeling of window paths.

    graph carries the produced symbols as labels; x_sym maps each arrow
    edge back to the domain symbol read at the window's center. The map
    is read-only, since one Recoded is shared by every caller of
    arrow_graph on its code.
    """

    graph: LabeledGraph
    x_sym: MappingProxyType


def arrow_graph(code, base=None):
    """Recode over a presentation of the domain (default: its own).

    An edge is a window-length path of base edges; it produces the table
    value of its label word and consumes the label of the edge sitting
    at offset memory inside the window. Bi-infinite arrow paths are in
    natural bijection with bi-infinite base paths. Over the default
    presentation the result is built once per code and shared.
    """
    if base is None:
        return code.arrow
    return _recode(code, base)


def _recode(code, base):
    base = gr.trim(base)
    w = code.window
    if w == 1:
        g = gr.relabeled_trim(base, code.codomain_alphabet,
                              lambda e: code.table[(e.label,)])
        return Recoded(g, MappingProxyType(
            {e.id: e.label for e in base.edges}))

    # enumerate paths of length w-1 (vertices) and w (edges)
    paths = [(e,) for e in base.edges]
    for _ in range(w - 2):
        paths = [p + (f,) for p in paths for f in base.out[p[-1].dst]]
    vertex_names = ["~".join(e.id for e in p) for p in paths]
    edges = []
    x_sym = {}
    for p in paths:
        for f in base.out[p[-1].dst]:
            q = p + (f,)
            name = "~".join(e.id for e in q)
            label = code.table[tuple(e.label for e in q)]
            edges.append(Edge(name, "~".join(e.id for e in p),
                              "~".join(e.id for e in q[1:]), label))
            x_sym[name] = q[code.memory].label
    g = LabeledGraph.make(code.codomain_alphabet, vertex_names, edges)
    g = gr.trim(g)
    return Recoded(g, MappingProxyType({e.id: x_sym[e.id] for e in g.edges}))


def image_presentation(code):
    """Presentation of the image shift: the arrow graph's produced labels."""
    return SoficShift.from_graph(arrow_graph(code).graph)


def is_surjective_onto(code, y):
    return sh.shift_equal(image_presentation(code), y)


def compose(outer, inner):
    """The code outer after inner; memory and anticipation add."""
    if set(inner.codomain_alphabet) - set(outer.domain.alphabet):
        raise DomainMismatch("inner codomain alphabet exceeds outer domain")
    if not gr.is_sublanguage(image_presentation(inner).presentation,
                             outer.domain.presentation):
        raise DomainMismatch("image of inner code leaves outer domain")
    m = outer.memory + inner.memory
    n = outer.anticipation + inner.anticipation
    w = m + n + 1
    table = {}
    for word in inner.domain.language(w):
        table[word] = outer.apply_block(inner.apply_block(word))[0]
    return SlidingBlockCode.make(inner.domain, m, n, table,
                                 outer.codomain_alphabet)


def code_equal(c1, c2):
    """Same domain shift and same induced map on it."""
    if not sh.shift_equal(c1.domain, c2.domain):
        return False
    m = max(c1.memory, c2.memory)
    n = max(c1.anticipation, c2.anticipation)
    for word in c1.domain.language(m + n + 1):
        i1 = m - c1.memory
        i2 = m - c2.memory
        k1 = word[i1:i1 + c1.window]
        k2 = word[i2:i2 + c2.window]
        if c1.table[k1] != c2.table[k2]:
            return False
    return True


# -- cover maps ------------------------------------------------------------


def is_cover_map(code):
    """Is this the label map of a presentation, seen from its edge shift?

    True when the domain presentation labels every edge by its own id
    and the code is a one-block map.
    """
    if code.memory or code.anticipation:
        return False
    g = code.domain.presentation
    return all(e.label == e.id for e in g.edges)


def cover_code(g):
    """The label map of a graph as a code on its edge shift."""
    t = gr.trim(g)
    table = {(e.id,): e.label for e in t.edges}
    return SlidingBlockCode.make(sh.edge_shift(t), 0, 0, table, t.symbols)


# -- preimage counting on periodic points -----------------------------------


def count_preimages_of_periodic(g, block):
    """Number of bi-infinite paths of g labeled by the periodic point.

    On the trimmed phase graph the count is finite iff every vertex has
    in- and out-degree exactly one (a disjoint union of cycles): any
    branching vertex admits arbitrarily delayed entries or exits along a
    feeding cycle, all presenting the same periodic point. In the finite
    case each path is pinned by its phase-zero vertex.
    """
    block = tuple(block)
    pg = sh.periodic_phase_graph(g, block)
    if pg.n == 0:
        raise PeriodicPointNotInShift(block)
    for v in pg.vertices:
        if len(pg.out[v]) != 1 or len(pg.inn[v]) != 1:
            return math.inf
    return sum(1 for v in pg.vertices if v.endswith("@0"))


# -- finite-to-one via ambiguity patterns -----------------------------------


def _equal_label_pairs(g):
    """Ordered pair product over equal labels: edge pairs (a, b, e, f)
    between pair nodes a, b, where node i * n + j is the vertex pair
    (i, j)."""
    vx = g.vindex
    n = g.n
    edges = []
    by_label = {}
    for e in g.edges:
        by_label.setdefault(e.label, []).append(e)
    for es in by_label.values():
        for e in es:
            for f in es:
                edges.append((vx[e.src] * n + vx[f.src],
                              vx[e.dst] * n + vx[f.dst], e, f))
    return edges


def _has_eda(g):
    """Two distinct equally-labeled cycles at one vertex (pumpable doubling)."""
    nn = g.n * g.n
    edges = _equal_label_pairs(g)
    adj = [[] for _ in range(nn)]
    for a, b, e, f in edges:
        adj[a].append(b)
    comp, _ = tarjan_scc(nn, adj)
    alive = nontrivial_components(nn, adj, comp)
    diagonal_comps = set()
    for v in range(g.n):
        c = comp[v * g.n + v]
        if c in alive:
            diagonal_comps.add(c)
    for a, b, e, f in edges:
        if e.id != f.id and comp[a] == comp[b] and comp[a] in diagonal_comps:
            return (e.id, f.id)
    return None


def _has_ida(g, budget):
    """A word cycling at p, cycling at q, and leading p to q (p != q)."""
    n = g.n
    vx = g.vindex
    # cheap word-free prefilter on the ordered pair graph
    padj = [[] for _ in range(n * n)]
    for a, b, _, _ in _equal_label_pairs(g):
        padj[a].append(b)
    preach = [set(bfs_closure([i], lambda k: padj[k])) for i in range(n * n)]

    by_start = {}
    for e in g.edges:
        by_start.setdefault((e.label, e.src), []).append(e)
    labels = sorted({e.label for e in g.edges})

    def succs(t):
        a, b, c = t
        out = set()
        for label in labels:
            for ea in by_start.get((label, g.vertices[a]), ()):
                for eb in by_start.get((label, g.vertices[b]), ()):
                    for ec in by_start.get((label, g.vertices[c]), ()):
                        out.add((vx[ea.dst], vx[eb.dst], vx[ec.dst]))
        return out

    for p in range(n):
        for q in range(n):
            if p == q:
                continue
            # a joint word must at least exist componentwise
            if p * n + q not in preach[p * n + p]:
                continue
            if q * n + q not in preach[p * n + q]:
                continue
            seen = bfs_closure([(p, p, q)], succs, budget)
            if (p, q, q) in seen:
                return (g.vertices[p], g.vertices[q])
    return None


@inconclusive_on_budget
def is_finite_to_one(code):
    """Decide whether every fiber of the induced map is finite.

    Checked as bounded path ambiguity of the produced-label arrow graph
    over a right-resolving domain presentation: no vertex carries two
    distinct equally-labeled cycles, and no word simultaneously cycles
    at two vertices while leading one to the other. Either pattern pumps
    to infinitely many presentations of one periodic image point; their
    absence bounds every fiber by a constant.
    """
    return _finite_to_one(code)


def _finite_to_one(code):
    """is_finite_to_one, raising BudgetExceeded when the budget runs out.

    The ambiguity verdict is memoized in code.memo through
    automata.memoized, on a fresh Budget(where="ambiguity pattern"), so a
    warm call spends what a cold one does in its order: determinize of
    the domain (itself a memo hit), the ambiguity search's states, then
    both entropy calls of a Proved verdict.
    """
    d = gr.determinize(code.domain.presentation)
    budget = Budget(where="ambiguity pattern")
    dec = memoized(code.memo, "finite-to-one",
                   lambda: _ambiguity_verdict(arrow_graph(code, d).graph,
                                              budget), budget)
    if dec.is_proved:
        # finite-to-one factor maps preserve entropy; disagreement means a bug
        h_dom = sh.entropy(code.domain)
        h_img = sh.entropy(image_presentation(code))
        if not (h_dom == h_img or abs(h_dom - h_img) <= sh.ENTROPY_TOL):
            raise ConsistencyFault(
                "finite-to-one entropy audit",
                f"domain {h_dom!r} vs image {h_img!r}",
            )
    return dec


def _ambiguity_verdict(g, budget):
    """The two ambiguity patterns on an arrow graph over a right-resolving
    presentation; only the cycle-to-cycle search spends the budget."""
    eda = _has_eda(g)
    if eda is not None:
        return refuted({"pattern": "doubled cycle",
                        "edges": [eda[0], eda[1]],
                        "note": "two distinct equally-producing cycles "
                                "through one state"})
    ida = _has_ida(g, budget)
    if ida is None:
        return proved({"states": g.n, "edges": len(g.edges)})
    return refuted({"pattern": "cycle to cycle",
                    "states": [ida[0], ida[1]],
                    "note": "one produced word cycles at both states "
                            "and also leads the first to the second"})


# -- degree ------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class DegreeResult:
    degree: int
    word: tuple
    index: int
    fiber_edges: tuple


def degree(code):
    """Minimal fiber size of a finite-to-one code on an irreducible domain.

    Works on the arrow graph over the minimal cover of the domain, where
    bi-infinite paths and domain points agree on a residual set. For
    each produced word and marked position, the presenting paths factor
    at the marked edge: the part left of it and the part right of it are
    independent, so the relation is a tuple of (edge index, start mask,
    end mask), one per marked edge some path crosses, with the start
    vertices that reach the edge and the end vertices it reaches. A right
    extension steps the end masks by g.fwd, a left one the start masks by
    the reversed graph's fwd, and an edge whose mask empties drops out.
    The degree is the least edge count over all reachable nonempty
    relations. The breadth-first search stops at the first one-edge
    relation it discovers; without one, it takes the first least relation
    in discovery order. The word is that relation's tree path.

    Raises NotFiniteToOne only when the code is refuted finite-to-one;
    an exhausted state budget propagates as BudgetExceeded.
    """
    if _finite_to_one(code).is_refuted:
        raise NotFiniteToOne("degree needs a finite-to-one code")
    cover = sh.fischer_cover(code.domain)  # raises ReducibleShift
    g = arrow_graph(code, cover).graph
    vx = g.vindex
    fwd, bwd = g.fwd, gr.reverse(g).fwd

    seeds = {}  # relation -> the symbol that first gives it
    for s in g.symbols:
        rel = tuple((k, 1 << vx[e.src], 1 << vx[e.dst])
                    for k, e in enumerate(g.edges) if e.label == s)
        if rel:
            seeds.setdefault(rel, s)

    # one-symbol extensions, labeled (symbol, 0 for right or 1 for left)
    def extensions(rel):
        out = []
        for s in g.symbols:
            right = []
            left = []
            for k, a, b in rel:
                b2 = apply_mask(fwd[s], b)
                if b2:
                    right.append((k, a, b2))
                a2 = apply_mask(bwd[s], a)
                if a2:
                    left.append((k, a2, b))
            for rel2, side in ((right, 0), (left, 1)):
                if rel2:
                    out.append((tuple(rel2), (s, side)))
        return out

    parent, rel = bfs_tree(seeds, extensions, Budget(where="degree"),
                           lambda rel: len(rel) == 1)
    if rel is None:
        rel = min(parent, key=len)
    seed, steps = tree_path(parent, rel)
    word, idx = (seeds[seed],), 0
    for s, side in steps:
        word = (s,) + word if side else word + (s,)
        idx += side
    fiber = tuple(sorted(g.edges[k].id for k, _, _ in rel))
    return DegreeResult(len(rel), word, idx, fiber)


# -- closing properties ------------------------------------------------------


def _closing_refutation(code, side):
    """Core search for a closing failure on one side.

    Two image-equal domain points that agree on an infinite past (resp.
    future) but differ afterwards correspond, on the ordered pair
    product of the arrow graph over equal produced symbols, to a node
    reachable inside the consumed-symbol diagonal from one of its
    cycles, carrying an off-diagonal outgoing pair that still extends
    forward forever.
    """
    if side == "left":
        code = reversed_code(code)
    d = gr.determinize(code.domain.presentation)
    a = arrow_graph(code, d)
    g = a.graph
    x_of = a.x_sym

    nn = g.n * g.n
    # rows of (successor, (e, f)) steps of the pair graph
    diag_adj = [[] for _ in range(nn)]
    off_adj = [[] for _ in range(nn)]
    full_adj = [[] for _ in range(nn)]
    for src, dst, e, f in _equal_label_pairs(g):
        step = (dst, (e, f))
        full_adj[src].append(step)
        if x_of[e.id] == x_of[f.id]:
            diag_adj[src].append(step)
        else:
            off_adj[src].append(step)

    bare = [[b for b, _ in row] for row in diag_adj]
    cyc = cycle_nodes(nn, bare)
    if not cyc:
        return None
    reach = bfs_closure(sorted(cyc), lambda i: bare[i])

    # forward-viable pair nodes: can reach a cycle of the full pair graph
    fbare = [[b for b, _ in row] for row in full_adj]
    frev = [[] for _ in range(nn)]
    for i, row in enumerate(fbare):
        for j in row:
            frev[j].append(i)
    fcyc = cycle_nodes(nn, fbare)
    fwd_ok = set(bfs_closure(sorted(fcyc), lambda i: frev[i]))

    for node in reach:
        for split in off_adj[node]:
            if split[0] in fwd_ok:
                return _closing_witness(
                    x_of, node, split, cyc, diag_adj, full_adj, fcyc, side)
    return None


def _closing_witness(x_of, node, split, cyc, diag_adj, full_adj, fcyc, side):
    """Eventually periodic pair of domain symbol sequences, as words.

    Shape: (past cycle)^inf bridge split tail (future cycle)^inf, with
    both sides equal through the bridge and differing at the split. The
    tail and future cycle search the full pair graph: a node that reaches
    a cycle (in fcyc) is entered only from nodes that also reach one, so
    their least shortest paths stay among forward-viable nodes.
    """
    rev = [[] for _ in diag_adj]
    for i, row in enumerate(diag_adj):
        for j, step in row:
            rev[j].append((i, step))
    _, anchor, bridge = shortest_path(rev, [node], cyc.__contains__)
    bridge.reverse()
    past = shortest_cycle(diag_adj, anchor)

    after, (e, f) = split
    _, tail_anchor, tail = shortest_path(full_adj, [after], fcyc.__contains__)
    future = shortest_cycle(full_adj, tail_anchor)

    def xs(steps, k):
        return [x_of[step[k].id] for step in steps]

    return {
        "side": side,
        "past_cycle": xs(past, 0),
        "bridge": xs(bridge, 0),
        "split": [x_of[e.id], x_of[f.id]],
        "tail": [xs(tail, 0), xs(tail, 1)],
        "future_cycle": [xs(future, 0), xs(future, 1)],
        "note": "two image-equal points agreeing on the periodic past "
                "through the bridge and diverging at the split symbol",
    }


@inconclusive_on_budget
def is_right_closing(code):
    found = _closing_refutation(code, "right")
    if found is None:
        return proved({"side": "right"})
    return refuted(found)


@inconclusive_on_budget
def is_left_closing(code):
    found = _closing_refutation(code, "left")
    if found is None:
        return proved({"side": "left"})
    return refuted(found)


def is_bi_closing(code):
    """Refuted if either side is refuted, else Inconclusive if either
    side is, and Proved only when both sides are proved."""
    r = is_right_closing(code)
    if r.is_refuted:
        return r
    l = is_left_closing(code)
    for side in (l, r):
        if not side.is_proved:
            return side
    return proved({"side": "both"})


# -- fiber products ----------------------------------------------------------


@dataclass(frozen=True, eq=False)
class FiberProduct:
    sigma: SoficShift
    psi1: SlidingBlockCode
    psi2: SlidingBlockCode


def fiber_product(phi1, phi2):
    """The shift of pairs (x1, x2) with equal images, with its projections.

    Built as the equal-produced-symbol product of the two arrow graphs,
    labeled by joined domain-symbol pairs. When one image contains the
    other, the projection onto the larger side must be onto; that is
    verified and violations raise, since it is a theorem.
    """
    for s in tuple(phi1.domain.alphabet) + tuple(phi2.domain.alphabet):
        if "|" in s:
            raise AlphabetMismatch(
                "domain symbols may not contain '|' (used to join pairs)")
    a1 = arrow_graph(phi1)
    a2 = arrow_graph(phi2)
    g1, g2 = a1.graph, a2.graph
    by_label = {}
    for f in g2.edges:
        by_label.setdefault(f.label, []).append(f)
    vertices = [f"{u}|{v}" for u in g1.vertices for v in g2.vertices]
    edges = []
    for e in g1.edges:
        for f in by_label.get(e.label, ()):
            pair = f"{a1.x_sym[e.id]}|{a2.x_sym[f.id]}"
            edges.append(Edge(f"{e.id}|{f.id}", f"{e.src}|{f.src}",
                              f"{e.dst}|{f.dst}", pair))
    alphabet = sorted({e.label for e in edges})
    prod = gr.trim(LabeledGraph.make(alphabet, vertices, edges))
    # trim keeps the declared alphabet; drop pair symbols with no live edge
    prod = LabeledGraph.make(sorted({e.label for e in prod.edges}),
                             prod.vertices, prod.edges)
    sigma = SoficShift(prod)
    if sigma.is_empty:
        raise DomainMismatch(
            "fiber product is empty: no pair of image-equal points")
    split = {s: tuple(s.split("|")) for s in sigma.alphabet}
    psi1 = SlidingBlockCode.make(
        sigma, 0, 0, {(s,): split[s][0] for s in sigma.alphabet},
        phi1.domain.alphabet)
    psi2 = SlidingBlockCode.make(
        sigma, 0, 0, {(s,): split[s][1] for s in sigma.alphabet},
        phi2.domain.alphabet)

    img1 = image_presentation(phi1)
    img2 = image_presentation(phi2)
    if gr.is_sublanguage(img1.presentation, img2.presentation):
        if not is_surjective_onto(psi1, phi1.domain):
            raise InvariantViolation(
                "fiber projection onto",
                "image(phi1) inside image(phi2) but psi1 not onto domain 1")
    if gr.is_sublanguage(img2.presentation, img1.presentation):
        if not is_surjective_onto(psi2, phi2.domain):
            raise InvariantViolation(
                "fiber projection onto",
                "image(phi2) inside image(phi1) but psi2 not onto domain 2")
    return FiberProduct(sigma, psi1, psi2)


# -- lifting through covers ---------------------------------------------------


def lift_code(f, x1, x2, w_max=6, budget=None):
    """Find a code F between the edge shifts of the minimal covers of x1
    and x2 with label2(F(xi)) = f(label1(xi)), by bounded window search.

    Variables are window paths of the first cover; each must pick a
    target edge producing the right symbol, and a window's edge must end
    where the edge of each other window beginning with its last w - 1
    edges starts. The second cover is right-resolving, so one choice at
    the least window forces every other window (forced propagation, no
    backtracking). Returns the first code in (window, memory, window
    name, edge id) order, or None when every window up to w_max fails
    (which proves nothing about larger windows).
    """
    if w_max < 1:
        raise InvariantViolation("w_max must be >= 1", w_max)
    if budget is None:
        budget = Budget(where="lift search")
    g1 = sh.fischer_cover(x1)
    g2 = sh.fischer_cover(x2)
    mf, nf = f.memory, f.anticipation
    for w in range(max(1, mf + nf + 1), w_max + 1):
        windows = _windows(g1, w, budget)
        for mem in range(mf, w - nf):
            sol = _lift_search(f, windows, g2, mem, budget)
            if sol is not None:
                dom = sh.edge_shift(g1)
                code = SlidingBlockCode.make(dom, mem, w - 1 - mem, sol,
                                             sorted(e.id for e in g2.edges))
                _verify_lift(f, code, g1, g2)
                return code
    return None


def _windows(g1, w, budget):
    """The paths of w edges of g1 in name order, and for each the indexes
    of the other paths that begin with its last w - 1 edges."""
    paths = [(e,) for e in g1.edges]
    for _ in range(w - 1):
        paths = [p + (q,) for p in paths for q in g1.out[p[-1].dst]]
        budget.spend(len(paths))
    paths.sort(key=lambda p: "~".join(e.id for e in p))
    by_prefix = {}
    for i, p in enumerate(paths):
        by_prefix.setdefault(p[:-1], []).append(i)
    succ = [[j for j in by_prefix.get(p[1:], ()) if j != i]
            for i, p in enumerate(paths)]
    return paths, succ


def _lift_search(f, windows, g2, mem, budget):
    """The least lift table at this memory, or None.

    Each candidate edge of the least window is walked over the window
    graph in FIFO order: a window's edge is read off g2 by its start
    vertex and target label, and its end vertex becomes the start vertex
    of each successor. A missing edge or a disagreeing start vertex
    rejects the candidate. g1 is irreducible, so the walk reaches every
    window and the first surviving candidate is the least assignment in
    (window name, edge id) order.
    """
    paths, succ = windows
    lo = mem - f.memory
    labels = [f.table[tuple(e.label for e in p[lo:lo + f.window])]
              for p in paths]
    edge_at = {(e.src, e.label): e for e in g2.edges}
    for first in sorted(e.id for e in g2.edges if e.label == labels[0]):
        start = [None] * len(paths)
        start[0] = g2.by_id[first].src
        walk = [0]
        for i in walk:
            budget.spend()
            e = edge_at.get((start[i], labels[i]))
            if e is None or any(start[j] not in (None, e.dst)
                                for j in succ[i]):
                break
            for j in succ[i]:
                if start[j] is None:
                    start[j] = e.dst
                    walk.append(j)
        else:
            if len(walk) < len(paths):
                raise InvariantViolation(
                    "lift walk reaches every window",
                    f"{len(paths) - len(walk)} of {len(paths)} unassigned")
            return {tuple(e.id for e in p): edge_at[start[i], labels[i]].id
                    for i, p in enumerate(paths)}
    return None


def _verify_lift(f, code, g1, g2):
    """Exact check: producing labels after lifting equals f after labels."""
    c1 = cover_code(g1)
    c2 = cover_code(g2)
    left = compose(c2, code)
    right = compose(f, c1)
    if not code_equal(left, right):
        raise InvariantViolation("lift commutes", "label map mismatch")
