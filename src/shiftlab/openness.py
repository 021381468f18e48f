"""Semi-openness, openness, and continuing-with-retract checks for codes.

The common machinery scans subset pairs (U, S): U tracks which states of
the image presentation can read the word scanned so far, S tracks which
arrow-graph states can present it with the constrained zone aligned to
its position. A pair with live U and dead S certifies a window that is
admissible downstairs but not liftable through the zone; compactness
turns the absence of such windows into genuine containment of points.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph as gr
from .automata import (Budget, apply_mask, bfs_closure, bfs_tree, cycle_nodes,
                       shortest_cycle, shortest_path, tree_path)
from .codes import arrow_graph, reversed_code
from .decision import Decision, inconclusive, proved, refuted
from .errors import (BudgetExceeded, InvariantViolation, NotIrreducible,
                     NotMagic, WordNotAdmissible)
from .pointed import (CenteredWord, cylinder_escape, cylinder_image,
                      uniform_window_bound)
from .shifts import SoficShift


def _step_tables(g, x_sym):
    """Successor bitmask tables of an arrow graph, one per produced symbol
    (ut), per (produced, consumed) symbol pair (zt) and per consumed
    symbol (xt)."""
    n = g.n
    vx = g.vindex
    ut = {s: [0] * n for s in g.symbols}
    zt = {}
    xt = {}
    for e in g.edges:
        si, di = vx[e.src], vx[e.dst]
        ut[e.label][si] |= 1 << di
        xi = x_sym[e.id]
        zt.setdefault((e.label, xi), [0] * n)[si] |= 1 << di
        xt.setdefault(xi, [0] * n)[si] |= 1 << di
    return tuple({k: tuple(t) for k, t in tables.items()}
                 for tables in (ut, zt, xt))


class SweepSpace:
    """Subset-pair machinery for one code: step tables, the left-context
    pair set, the full pair universe, and the doomed region from which a
    free scan can reach a live-U dead-S pair."""

    def __init__(self, code, budget=None):
        self.code = code
        a = arrow_graph(code)
        g = a.graph
        self.g = g
        self.x_sym = dict(a.x_sym)
        self.image = SoficShift.from_graph(g)
        self.budget = budget if budget is not None else Budget(
            where="openness sweep")
        self.full = g.full_mask
        self.symbols = g.symbols
        self.ut, self.zt, self.xt = _step_tables(g, self.x_sym)
        self.xsymbols = sorted(self.xt)
        self._zero = (0,) * g.n
        self.p0 = (self.full, self.full)
        self._build_universe()

    def free_step(self, p, s):
        u = apply_mask(self.ut[s], p[0])
        if not u:
            return None
        return (u, apply_mask(self.ut[s], p[1]))

    def zone_step(self, p, s, xi):
        u = apply_mask(self.ut[s], p[0])
        if not u:
            return None
        return (u, apply_mask(self.zt.get((s, xi), self._zero), p[1]))

    def free_moves(self, p):
        out = []
        for s in self.symbols:
            t = self.ut[s]
            u = apply_mask(t, p[0])
            if u:
                out.append(((u, apply_mask(t, p[1])), s))
        return out

    def all_steps(self, p):
        """The free step, then every zone step, per live symbol."""
        out = []
        for s in self.symbols:
            u = apply_mask(self.ut[s], p[0])
            if u:
                out.append((u, apply_mask(self.ut[s], p[1])))
                for xi in self.xsymbols:
                    out.append((u, apply_mask(
                        self.zt.get((s, xi), self._zero), p[1])))
        return out

    def _build_universe(self):
        # left-context pairs, with parent chains for witness words
        self._left_parent, _ = bfs_tree([self.p0], self.free_moves,
                                        self.budget)
        self.left_pairs = frozenset(self._left_parent)
        # full universe: close under free and every zone step
        full = bfs_closure(self._left_parent, self.all_steps, self.budget)
        # the doom search below breaks ties in this set's iteration order,
        # which depends on insertion history: left context first, then one
        # pair at a time in discovery order
        seen = set(self._left_parent)
        seen.update(list(full)[len(seen):])
        self.universe = frozenset(seen)
        # doomed: can reach a live-U dead-S pair by free steps
        back = {p: [] for p in self.universe}
        for p in self.universe:
            for q, s in self.free_moves(p):
                back[q].append((p, s))
        self._doom_parent, _ = bfs_tree(
            [p for p in self.universe if p[0] and not p[1]],
            back.__getitem__)
        self.doomed = frozenset(self._doom_parent)

    def left_word(self, p):
        return tuple(tree_path(self._left_parent, p)[1])

    def doom_word(self, p):
        # the doom tree grows backwards from its seeds
        return tuple(reversed(tree_path(self._doom_parent, p)[1]))


# -- interior of a cylinder image ---------------------------------------------


def interior_nonempty(space, u, k_max=12):
    """Exact decision: does the image of the central cylinder of u
    contain a nonempty central cylinder of the image shift?

    A candidate window is scanned simultaneously from every left-context
    pair; it certifies interior exactly when no scan result can still be
    driven to a live-U dead-S pair, and the admissibility tracker stays
    alive. Saturating the finite machine without an accepting state
    refutes every candidate at once. Proved payloads carry the least
    witness; refuted payloads carry sample escape windows.
    """
    if not isinstance(u, CenteredWord):
        u = CenteredWord.central(u)
    if not space.code.domain.accepts(u.word):
        raise WordNotAdmissible(u.word)
    length = len(u.word)
    c = u.center
    if length != 2 * c + 1:
        raise InvariantViolation("central zone word",
                                 f"length {length} center {c}")
    sigma0 = (0, 0, frozenset(space.left_pairs), space.full)

    def successors(state):
        mode, j, qset, du = state
        out = []
        for s in space.symbols:
            du2 = apply_mask(space.ut[s], du)
            if mode == 0:
                q2 = frozenset(q for q in
                               (space.free_step(p, s) for p in qset)
                               if q is not None)
                if du2:
                    out.append(((0, 0, q2, du2), s))
            if mode in (0, 1) and j < length:
                xi = u.word[j]
                q2 = frozenset(q for q in
                               (space.zone_step(p, s, xi) for p in qset)
                               if q is not None)
                if du2:
                    nm = 2 if j + 1 == length else 1
                    out.append(((nm, j + 1, q2, du2), s))
            if mode == 2:
                q2 = frozenset(q for q in
                               (space.free_step(p, s) for p in qset)
                               if q is not None)
                if du2:
                    out.append(((2, length, q2, du2), s))
        return out

    def accepting(state):
        mode, _, qset, du = state
        return mode == 2 and du and not (qset & space.doomed)

    seen = {sigma0}
    queue = [sigma0]
    head = 0
    found = False
    while head < len(queue):
        st = queue[head]
        head += 1
        if accepting(st):
            found = True
            break
        for st2, _ in successors(st):
            if st2 not in seen:
                space.budget.spend()
                seen.add(st2)
                queue.append(st2)

    if not found:
        return refuted({
            "zone": u.to_json(),
            "states_examined": len(seen),
            "escapes": _escape_samples(space, u),
        })

    cap = c + len(seen) + 1
    for k in range(c, cap + 1):
        word = _witness_search(space, u, k)
        if word is not None:
            witness = CenteredWord(word, k)
            return proved({
                "zone": u.to_json(),
                "cylinder": witness.to_json(),
                "k": k,
                "beyond_k_max": k > k_max,
            })
    raise InvariantViolation("interior witness within pigeonhole cap",
                             f"zone {u.word}")


def _witness_search(space, u, k):
    """Lexicographically least central witness of half-length exactly k,
    or None. Depth-first with a fruitless-state memo."""
    length = len(u.word)
    c = u.center
    pre = post = k - c
    dead = set()

    def rec(state, rem_pre, rem_post):
        mode, j, qset, du = state
        if mode == 2 and j == length and rem_post == 0:
            if du and not (qset & space.doomed):
                return ()
            return None
        key = (state, rem_pre, rem_post)
        if key in dead:
            return None
        for s in space.symbols:
            du2 = apply_mask(space.ut[s], du)
            if not du2:
                continue
            if mode == 0 and rem_pre > 0:
                q2 = frozenset(q for q in
                               (space.free_step(p, s) for p in qset)
                               if q is not None)
                sub = rec((0, 0, q2, du2), rem_pre - 1, rem_post)
                if sub is not None:
                    return (s,) + sub
            if mode in (0, 1) and rem_pre == 0 and j < length:
                xi = u.word[j]
                q2 = frozenset(q for q in
                               (space.zone_step(p, s, xi) for p in qset)
                               if q is not None)
                nm = 2 if j + 1 == length else 1
                sub = rec((nm, j + 1, q2, du2), 0, rem_post)
                if sub is not None:
                    return (s,) + sub
            if mode == 2 and rem_post > 0:
                q2 = frozenset(q for q in
                               (space.free_step(p, s) for p in qset)
                               if q is not None)
                sub = rec((2, length, q2, du2), 0, rem_post - 1)
                if sub is not None:
                    return (s,) + sub
        dead.add(key)
        return None

    sigma0 = (0, 0, frozenset(space.left_pairs), space.full)
    return rec(sigma0, pre, post)


def _escape_samples(space, u, limit=2):
    """For refuted interiors: sample candidate windows together with
    escape windows showing an admissible image word the cylinder image
    misses."""
    length = len(u.word)
    c = u.center
    samples = []
    # enumerate zone-width candidates lexicographically
    stack = [((), {p: p for p in space.left_pairs}, space.full)]
    while stack and len(samples) < limit:
        word, origin, du = stack.pop()
        j = len(word)
        if j == length:
            if not du:
                continue
            hit = next((q for q in origin if q in space.doomed), None)
            if hit is None:
                continue
            left = space.left_word(origin[hit])
            doom = space.doom_word(hit)
            window = CenteredWord(left + word + doom, len(left) + c)
            samples.append({
                "cylinder": CenteredWord(word, c).to_json(),
                "escape": window.to_json(),
            })
            continue
        xi = u.word[j]
        for s in reversed(space.symbols):
            du2 = apply_mask(space.ut[s], du)
            nxt = {}
            for q, src in origin.items():
                q2 = space.zone_step(q, s, xi)
                if q2 is not None and q2 not in nxt:
                    nxt[q2] = src
            if nxt and du2:
                stack.append((word + (s,), nxt, du2))
    return samples


# -- level sweeps over transfer profiles --------------------------------------


def _compose(t1, t2):
    return tuple(apply_mask(t2, m) for m in t1)


def _join(space, p1, p2):
    """Transfer profile of a concatenation of zone words with profiles p1
    and p2: joint tables compose pairwise, admissibility tables compose."""
    pairs = set()
    for tu1, ts1 in p1[0]:
        for tu2, ts2 in p2[0]:
            space.budget.spend()
            pairs.add((_compose(tu1, tu2), _compose(ts1, ts2)))
    return (frozenset(pairs), _compose(p1[1], p2[1]))


def _profile_levels(space):
    """The distinct transfer profiles of admissible zone words of length
    1, 3, 5, ..., one level at a time.

    A profile is the set of joint (image, zone-thread) transfer tables
    over all same-length image words, plus the zone-only admissibility
    table; a word is admissible when that table is nonzero. Equal
    profiles give identical interior verdicts and witness offsets k - l.
    Profiles compose, so level l+1 holds exactly the admissible joins
    x.P.y of level-l profiles P with single symbols x, y. Each level is
    a dict from profile to its lexicographically least zone word, in
    order of those words: enumerating (x, P, y) lexicographically visits
    x + rep(P) + y in word order, so a profile's first hit is its least
    word.
    """
    sym = {xi: (frozenset((space.ut[s], space.zt.get((s, xi), space._zero))
                          for s in space.symbols), space.xt[xi])
           for xi in space.xsymbols}
    level = {}
    for xi in space.xsymbols:
        level.setdefault(sym[xi], (xi,))
    while True:
        yield level
        nxt = {}
        for x in space.xsymbols:
            for prof, word in level.items():
                if not any(_compose(sym[x][1], prof[1])):
                    continue
                left = _join(space, sym[x], prof)
                for y in space.xsymbols:
                    if any(_compose(left[1], sym[y][1])):
                        nxt.setdefault(_join(space, left, sym[y]),
                                       (x,) + word + (y,))
        level = nxt


@dataclass(frozen=True)
class LiftingTable:
    """Per-level summary of a sweep: the uniform witness half-length at
    each zone level, witness data per level profile keyed by its least
    zone word, and whether the level profiles saturated (no new transfer
    behavior can appear deeper)."""

    entries: tuple
    witnesses: dict
    uniform: object
    saturated: bool
    saturation_level: object

    def to_json(self):
        return {
            "entries": [list(e) for e in self.entries],
            "witnesses": self.witnesses,
            "uniform": self.uniform,
            "saturated": self.saturated,
            "saturation_level": self.saturation_level,
        }


def _empty_table():
    return LiftingTable((), {}, None, False, None)


def _level_sweep(space, l_max, visit):
    """Visit the profiles of levels 0..l_max in order of least zone word.

    visit(level, word, first) gets the profile's least word at this level
    and, for a profile met at an earlier level, first = (that level, the
    entry visit returned there), else None. It returns the profile's
    witness entry, which carries its half-length "k", or a Decision that
    ends the sweep. A level that brings no new profile proves saturation.
    Returns (decision, table).
    """
    entries = []
    witnesses = {}
    firsts = {}
    saturation_level = None
    levels = _profile_levels(space)
    try:
        for level in range(l_max + 1):
            k_level = 0
            grew = False
            for prof, word in next(levels).items():
                first = firsts.get(prof)
                entry = visit(level, word, first)
                if isinstance(entry, Decision):
                    return entry, LiftingTable(tuple(entries), witnesses,
                                               None, False, None)
                if first is None:
                    firsts[prof] = (level, entry)
                    grew = True
                witnesses[",".join(word)] = entry
                k_level = max(k_level, entry["k"])
            entries.append((level, k_level))
            if level > 0 and not grew:
                saturation_level = level
                break
    except BudgetExceeded as exc:
        table = LiftingTable(tuple(entries), witnesses, None, False, None)
        return inconclusive({"reason": "budget", "detail": str(exc)}), table
    uniform = max((k - l for l, k in entries), default=0)
    if saturation_level is not None:
        return proved({
            "levels": len(entries),
            "saturation_level": saturation_level,
            "uniform_offset": uniform,
        }), LiftingTable(tuple(entries), witnesses, uniform, True,
                         saturation_level)
    return inconclusive({
        "reason": "level profiles did not saturate",
        "levels_checked": l_max + 1,
    }), LiftingTable(tuple(entries), witnesses, uniform, False, None)


def check_semi_open(code, l_max=4, k_max=12, budget=None):
    """Is every central-cylinder image interior-nonempty in the image
    shift? Refuted exactly on the first failing zone word; proved when
    every level verdict is positive and the level profiles saturate
    within l_max levels; inconclusive otherwise.

    A profile's interior is scanned once, on its least word at the level
    it first appears; at later levels only the witness search runs, at
    the recorded offset k - l.
    """
    try:
        space = SweepSpace(code, budget)
    except BudgetExceeded as exc:
        return inconclusive({"reason": "budget", "detail": str(exc)}), \
            _empty_table()

    def visit(level, word, first):
        zone = CenteredWord.central(word)
        if first is None:
            dec = interior_nonempty(space, zone, k_max)
            if dec.is_refuted:
                return refuted({"zone": list(word), "level": level,
                                "interior": dec.payload})
            k = dec.payload["k"]
            cylinder = dec.payload["cylinder"]
        else:
            first_level, entry = first
            k = level + entry["k"] - first_level
            found = _witness_search(space, zone, k)
            if found is None:
                raise InvariantViolation(
                    "profile-equal zones share interior verdicts",
                    f"zone {','.join(word)}")
            cylinder = CenteredWord(found, k).to_json()
        return {"k": k, "cylinder": cylinder, "beyond_k_max": k > k_max}

    return _level_sweep(space, l_max, visit)


# -- openness ------------------------------------------------------------


def _orbit_tail(start, step):
    """Recurrent values of the orbit start, step(start), ... of a
    deterministic map on hashable values."""
    seen = {}
    order = []
    cur = start
    while cur not in seen:
        seen[cur] = len(order)
        order.append(cur)
        cur = step(cur)
    return order[seen[cur]:]


def _skeleton_pattern(space, c1, b1, anchor, b2, c2, h):
    """Exact check of one limit-escape skeleton: is the point reading
    rho along c1^inf b1 anchor b2 c2^inf a limit of points escaping the
    image of its own zone window of half-width h?

    Deep pair values at the chain start are the recurrent values of the
    full-restart scan along the past cycle; a skeleton succeeds when
    some deep value, pushed through the zone, recurs inside the doomed
    region along the future cycle. Every success embeds genuine escapes
    at all scales.
    """
    rho = {e.id: e.label for e in space.g.edges}
    # pad bridges with whole cycles so the zone fits inside them
    eff_b1 = list(b1)
    while len(eff_b1) < h:
        eff_b1 = list(c1) + eff_b1
    eff_b2 = list(b2)
    while len(eff_b2) < h:
        eff_b2 = eff_b2 + list(c2)
    zone_left = eff_b1[len(eff_b1) - h:] if h else []
    free_left = eff_b1[:len(eff_b1) - h] if h else eff_b1
    zone_right = eff_b2[:h]
    free_right = eff_b2[h:]
    u_word = tuple(space.x_sym[e.id]
                   for e in zone_left + [anchor] + zone_right)

    def free_scan(p, elist):
        for e in elist:
            p = space.free_step(p, rho[e.id])
            if p is None:
                raise InvariantViolation("admissible scan stays live", e.id)
        return p

    deep = set()
    for phase in range(len(c1)):
        seed = free_scan(space.p0, c1[len(c1) - phase:])
        deep.update(_orbit_tail(seed, lambda p: free_scan(p, c1)))
    for q in sorted(deep):
        space.budget.spend()
        q2 = free_scan(q, free_left)
        for e in zone_left + [anchor] + zone_right:
            q2 = space.zone_step(q2, rho[e.id], space.x_sym[e.id])
            if q2 is None:
                raise InvariantViolation("admissible scan stays live", e.id)
        q2 = free_scan(q2, free_right)
        # recurrent pair values along the future cycle, all phases
        tail = _orbit_tail((q2, 0),
                           lambda t: (free_scan(t[0], [c2[t[1]]]),
                                      (t[1] + 1) % len(c2)))
        if any(p in space.doomed for p, _ in tail):
            return {
                "past_cycle": [rho[e.id] for e in c1],
                "chain": [rho[e.id] for e in b1 + [anchor] + b2],
                "anchor_step": len(b1),
                "future_cycle": [rho[e.id] for e in c2],
                "zone": CenteredWord(u_word, h),
            }
    return None


def _limit_escape_pattern(space, h_max=2):
    """Search over skeletons (past cycle, bridge, anchor edge, bridge,
    future cycle) for a verified limit-escape pattern. Finding one is
    sound; exhausting the catalogue is best effort only, so the caller
    must not conclude openness from a miss."""
    g = space.g
    vx = g.vindex
    n = g.n
    eadj = [[] for _ in range(n)]
    for e in sorted(g.edges, key=lambda e: e.id):
        eadj[vx[e.src]].append((vx[e.dst], e))
    cycles = {}
    for i in sorted(cycle_nodes(n, g.adj)):
        cycles[i] = shortest_cycle(eadj, i)
        if cycles[i] is None:
            raise InvariantViolation("cycle exists through cycle node")
    # a search tree's path to a node is its shortest path from the root,
    # so one tree per vertex gives every bridge
    trees = [bfs_tree([v], eadj.__getitem__)[0] for v in range(n)]
    for anchor in sorted(g.edges, key=lambda e: e.id):
        after = trees[vx[anchor.dst]]
        ends = [(j, tree_path(after, j)[1]) for j in cycles if j in after]
        for i in cycles:
            if vx[anchor.src] not in trees[i]:
                continue
            b1 = tree_path(trees[i], vx[anchor.src])[1]
            for j, b2 in ends:
                for h in range(h_max + 1):
                    space.budget.spend()
                    pat = _skeleton_pattern(space, cycles[i], b1, anchor,
                                            b2, cycles[j], h)
                    if pat is not None:
                        return pat
    return None


def _pattern_payload(code, space, pat, direction):
    """Attach verified escape probes to a pattern and serialize it. The
    probes re-derive, with the independent containment scanner, that the
    limit point's windows escape the zone's cylinder image at two
    scales; any failure signals an internal bug."""
    u = pat["zone"]
    anchor = pat["anchor_step"]
    chain = pat["chain"]

    def rho_at(i):
        if 0 <= i < len(chain):
            return chain[i]
        if i < 0:
            cycv = pat["past_cycle"]
            return cycv[i % len(cycv)]
        cycv = pat["future_cycle"]
        return cycv[(i - len(chain)) % len(cycv)]

    au = cylinder_image(code, u)
    y = space.image
    probes = []
    for t in (u.center + 1, u.center + 3):
        window = tuple(rho_at(anchor + d) for d in range(-t, t + 1))
        esc = cylinder_escape(au, y, CenteredWord(window, t),
                              space.budget)
        if esc is None:
            raise InvariantViolation(
                "pattern escape at every scale",
                f"scale {t} zone {u.word}")
        probes.append({"scale": t, "window": list(window),
                       "escape": esc.to_json()})
    return {
        "direction": direction,
        "zone": u.to_json(),
        "limit_point": {
            "past_cycle": pat["past_cycle"],
            "chain": chain,
            "anchor_step": anchor,
            "future_cycle": pat["future_cycle"],
        },
        "probes": probes,
    }


def check_open(code, l_max=4, k_max=12, budget=None):
    """Is the code an open map onto its image? Refuted via a verified
    limit-escape pattern; proved when every cylinder image up to the
    saturation level is open with a uniform witness length at most
    k_max; inconclusive otherwise."""
    try:
        space = SweepSpace(code, budget)
    except BudgetExceeded as exc:
        return inconclusive({"reason": "budget", "detail": str(exc)}), \
            _empty_table()
    try:
        pat = _limit_escape_pattern(space)
        if pat is not None:
            return refuted(_pattern_payload(code, space, pat, "right")), \
                _empty_table()
        rcode = reversed_code(code)
        rspace = SweepSpace(rcode, space.budget)
        pat = _limit_escape_pattern(rspace)
        if pat is not None:
            return refuted(_pattern_payload(rcode, rspace, pat, "left")), \
                _empty_table()
    except BudgetExceeded as exc:
        return inconclusive({"reason": "budget", "detail": str(exc)}), \
            _empty_table()

    y = space.image

    def visit(level, word, first):
        if first is not None:
            return {"k": first[1]["k"]}
        k_u = _uniform_open_bound(code, y, word, k_max, space)
        if k_u is None:
            return inconclusive({
                "reason": "no uniform witness length within bound",
                "zone": list(word),
                "k_max": k_max,
            })
        return {"k": k_u}

    return _level_sweep(space, l_max, visit)


def _uniform_open_bound(code, y, word, k_max, space):
    """Least k <= k_max such that every central (2k+1)-window of the
    cylinder image spans a cylinder inside it, or None. Such a k exists
    for some (possibly larger) bound iff the image set is open."""
    au = cylinder_image(code, CenteredWord.central(word))
    return uniform_window_bound(au, y, k_max, space.budget)


# -- right/left continuing with retract ---------------------------------------


@dataclass(frozen=True)
class RetractDecision:
    """Continuing-with-retract verdict at one window size.

    Proved at retract n persists for every wider window: enlarging n
    only shrinks the locked zone the escape hunt has to survive, so
    monotonicity holds by construction of the checker.
    """

    side: str
    retract: int
    verdict: Decision

    @property
    def is_proved(self):
        return self.verdict.is_proved

    @property
    def is_refuted(self):
        return self.verdict.is_refuted

    @property
    def is_inconclusive(self):
        return self.verdict.is_inconclusive

    def to_json(self):
        return {"side": self.side, "retract": self.retract,
                "verdict": self.verdict.to_json()}


def check_right_continuing_retract(code, retract=0, side="right"):
    """Can every image point agreeing with a code image on the past be
    lifted to a point agreeing upstream up to the retract bound?

    Sides: "right" is the property as stated, "left" checks the
    reversed code, "bi" demands both.
    """
    if retract < 0:
        raise InvariantViolation("retract must be >= 0", retract)
    return RetractDecision(side, retract, _retract_verdict(code, retract, side))


def _retract_verdict(code, retract, side):
    """The machine tracks, along an adversarial upstream point, which image
    states can read its image past and which arrow states can still
    carry a lift locked to it outside the retract window. Limit states
    arise from stabilized cycles, so refutations come with genuine
    bi-infinite witnesses; a failed free hunt for a live-image dead-lift
    pair proves liftability by a compactness argument on lift threads.
    """
    if side == "bi":
        right = _retract_verdict(code, retract, "right")
        if right.is_refuted:
            return refuted({"side": "right", "inner": right.payload})
        left = _retract_verdict(code, retract, "left")
        if left.is_refuted:
            return refuted({"side": "left", "inner": left.payload})
        if right.is_proved and left.is_proved:
            return proved({"retract": retract,
                           "right": right.payload, "left": left.payload})
        return inconclusive({"retract": retract,
                             "right": right.to_json(),
                             "left": left.to_json()})
    if side == "left":
        dec = _retract_verdict(reversed_code(code), retract, "right")
        payload = dict(dec.payload)
        payload["side"] = "left"
        return Decision(dec.verdict, payload, dec.provenance)
    if side != "right":
        raise InvariantViolation("side in right|left|bi", side)
    try:
        return _right_retract_verdict(code, retract)
    except BudgetExceeded as exc:
        return inconclusive({"reason": "budget", "detail": str(exc)})


def _right_retract_verdict(code, retract):
    a = arrow_graph(code)
    g = a.graph
    xs = a.x_sym
    budget = Budget(where="retract check")
    ut, zt, _ = _step_tables(g, xs)
    zero = (0,) * g.n
    full = g.full_mask
    out_edges = {v: sorted(g.out[v], key=lambda e: e.id) for v in g.vertices}

    def locked_step(t, e):
        return (e.dst, apply_mask(ut[e.label], t[1]),
                apply_mask(zt.get((e.label, xs[e.id]), zero), t[2]))

    def free_lift_step(t, e):
        return (e.dst, apply_mask(ut[e.label], t[1]),
                apply_mask(ut[e.label], t[2]))

    # locked-phase closure from full restarts
    succ = {}

    def locked_moves(t):
        succ[t] = [locked_step(t, e) for e in out_edges[t[0]]]
        return succ[t]

    order = sorted(bfs_closure([(v, full, full) for v in g.vertices],
                               locked_moves, budget))
    index = {t: i for i, t in enumerate(order)}
    eadj = [[(index[t2], e) for t2, e in zip(succ[t], out_edges[t[0]])]
            for t in order]
    adj = [[j for j, _ in row] for row in eadj]
    cyc = cycle_nodes(len(order), adj)

    # every true limit triple is reachable from a cycle of the restart
    # closure, so this overapproximates them
    upper = [order[i] for i in bfs_closure(sorted(cyc), adj.__getitem__)]

    # stabilized cycle scans are genuine limits, and so is anything
    # they reach: an underapproximation with realizable witnesses
    lower = set()
    # a cycle through i stays inside its strongly connected component
    cyc_rows = [[(j, e) for j, e in row if j in cyc] for row in eadj]
    for i in sorted(cyc):
        cyc_edges = shortest_cycle(cyc_rows, i)
        if cyc_edges is None:
            raise InvariantViolation("cycle exists through cycle node")
        cur = (order[i][0], full, full)
        while True:
            nxt = cur
            for e in cyc_edges:
                nxt = locked_step(nxt, e)
            if nxt == cur:
                break
            cur = nxt
        lower.add(index[cur])
    lower = [order[i]
             for i in bfs_closure(sorted(lower), adj.__getitem__, budget)]

    symbols = g.symbols

    def free_moves(p):
        out = []
        for s in symbols:
            u2 = apply_mask(ut[s], p[0])
            if u2:
                out.append(((u2, apply_mask(ut[s], p[1])), s))
        return out

    def hunt(triples):
        # retract window first: the lift may deviate, the image is
        # still locked to the upstream point
        frontier = set(triples)
        for _ in range(retract):
            nxt = set()
            for t in frontier:
                for e in out_edges[t[0]]:
                    nxt.add(free_lift_step(t, e))
            budget.spend()
            frontier = nxt
        # then a free hunt for an admissible continuation with no lift
        seen, bad = bfs_tree(sorted({(t[1], t[2]) for t in frontier}),
                             free_moves, budget,
                             lambda p: p[0] and not p[1])
        return bad is not None, len(seen)

    escaped, states = hunt(lower)
    if escaped:
        return refuted({"side": "right", "retract": retract,
                        "limit_states": len(lower), "states": states})
    escaped, states = hunt(upper)
    if not escaped:
        return proved({"side": "right", "retract": retract,
                       "limit_states": len(upper), "states": states})
    return inconclusive({
        "side": "right",
        "retract": retract,
        "reason": "escape only from the limit overapproximation",
    })


# -- magic-word lifting witnesses ----------------------------------------


def witness_from_magic(g, alpha, pi):
    """Build a central image word that forces every presenting run
    through the given path: magic word, connector, the path, connector,
    magic word again. The center sits on the path's middle edge.

    Requires an irreducible right-resolving presentation, a word alpha
    whose full-subset read ends in a single state, and a nonempty edge
    path pi.
    """
    if not gr.is_irreducible(g):
        raise NotIrreducible()
    gr.check_right_resolving(g)
    alpha = tuple(alpha)
    mask = g.full_mask
    for s in alpha:
        if s not in g.sym_index:
            raise NotMagic(alpha, ())
        mask = g.ops.step(mask, g.sym_index[s])
    reached = g.names_of(mask)
    if len(reached) != 1:
        raise NotMagic(alpha, tuple(reached))
    focus = reached[0]
    pi = list(pi)
    if not pi:
        raise InvariantViolation("path is nonempty")
    edges = []
    for eid in pi:
        if eid not in g.by_id:
            raise InvariantViolation("path edge exists", eid)
        edges.append(g.by_id[eid])
    for e1, e2 in zip(edges, edges[1:]):
        if e1.dst != e2.src:
            raise InvariantViolation("path is consecutive",
                                     f"{e1.id} then {e2.id}")

    rows = {v: [(e.dst, e) for e in sorted(g.out[v], key=lambda e: e.id)]
            for v in g.vertices}

    def edge_path(src, dst):
        found = shortest_path(rows, [src], lambda v: v == dst)
        if found is None:
            raise NotIrreducible()
        return found[2]

    lam = _first_presenting_path(g, alpha)
    lam_end = lam[-1].dst if lam else _least_alpha_start(g, alpha)
    xi = edge_path(lam_end, edges[0].src)
    gam = edge_path(edges[-1].dst, lam[0].src if lam else lam_end)
    word = (alpha + tuple(e.label for e in xi) + tuple(e.label for e in edges)
            + tuple(e.label for e in gam) + alpha)
    center = len(alpha) + len(xi) + (len(edges) - 1) // 2
    return CenteredWord(word, center)


def _least_alpha_start(g, alpha):
    for v in sorted(g.vertices):
        mask = 1 << g.vindex[v]
        for s in alpha:
            mask = g.ops.step(mask, g.sym_index[s])
            if not mask:
                break
        if mask:
            return v
    raise NotMagic(alpha, ())


def _first_presenting_path(g, alpha):
    if not alpha:
        return []
    start = _least_alpha_start(g, alpha)
    path = []
    cur = start
    for s in alpha:
        nxt = None
        for e in sorted(g.out[cur], key=lambda e: e.id):
            if e.label == s:
                mask = 1 << g.vindex[e.dst]
                for s2 in alpha[len(path) + 1:]:
                    mask = g.ops.step(mask, g.sym_index[s2])
                    if not mask:
                        break
                if mask:
                    nxt = e
                    break
        if nxt is None:
            raise NotMagic(alpha, ())
        path.append(nxt)
        cur = nxt.dst
    return path
