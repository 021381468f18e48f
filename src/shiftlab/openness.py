"""Semi-openness, openness, and continuing-with-retract checks for codes.

The common machinery scans subset pairs (U, S): U tracks which states of
the image presentation can read the word scanned so far, S tracks which
arrow-graph states can present it with the constrained zone aligned to
its position. A pair with live U and dead S certifies a window that is
admissible downstairs but not liftable through the zone; compactness
turns the absence of such windows into genuine containment of points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import count
from math import inf

from . import graph as gr
from .automata import (Budget, apply_mask, bfs_closure, cycle_nodes, explore,
                       longest_runs, memoized, shortest_cycle, shortest_path)
from .codes import arrow_graph, image_presentation, reversed_code
from .decision import (Decision, inconclusive, inconclusive_on_budget,
                       out_of_budget, proved, refuted)
from .errors import (BudgetExceeded, InvariantViolation, NotIrreducible,
                     NotMagic, WordNotAdmissible)
from .pointed import (CenteredWord, cylinder_escape, cylinder_image,
                      reads_window)


def _step_tables(g, x_sym):
    """Successor bitmask tables of an arrow graph per (produced, consumed)
    symbol pair (zt) and per consumed symbol (xt), each only where an
    edge carries it. The per-produced-symbol tables are g.fwd."""
    n = g.n
    vx = g.vindex
    zt = {}
    xt = {}
    for e in g.edges:
        si, di = vx[e.src], vx[e.dst]
        xi = x_sym[e.id]
        zt.setdefault((e.label, xi), [0] * n)[si] |= 1 << di
        xt.setdefault(xi, [0] * n)[si] |= 1 << di
    return tuple({k: tuple(t) for k, t in tables.items()}
                 for tables in (zt, xt))


class _Memo(dict):
    """A dict that computes a missing value as make(key) and keeps it;
    a hit stays a plain dict lookup."""

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


def _intern(tables, ids, table):
    """The id of a universe table, appended to tables when new."""
    i = ids.get(table)
    if i is None:
        i = ids[table] = len(tables)
        tables.append(table)
    return i


class SweepSpace:
    """Subset-pair machinery for one code: step tables, the pair universe
    and the transfer monoid. The arrow graph steps per produced symbol by
    its own fwd (ut), and per (produced, consumed) symbol pair (zt) and
    per consumed symbol (xt) by _step_tables. The universe's (U, S) pairs
    are indexed in discovery order: the left-context pairs first, the
    full restart (full, full) at index 0, then the closure under free and
    zone steps. Over those indexes, free[s] and zone[s, xi] map each pair
    to the bit of its successor (0 where the image side dies), and left
    and doomed are the masks of the left-context pairs and of the pairs
    from which a free scan can reach a live-U dead-S pair; live is the
    mask of the pairs with live S. The space also holds one sweep's
    memos, each spending its budget: the monoid's products, and the
    layers, distances, bad runs and per-(layer, id) bad-run maxima of the
    interior and openness decisions, whose states are scan masks over
    the universe (see interior_nonempty and _open_offset).

    The monoid's ids are universe tables of the same kind. An image word
    and a zone word of one length carry joint vertex tables (tu, ts),
    which map a pair (U, S) to (tu U, ts S), or kill it where tu U = 0.
    They compose the words' zone steps, and the universe is closed under
    zone steps, so they map each universe pair into the universe or kill
    it: each (tu, ts) has a universe table, and the table of a product is
    the composition of the tables, a monoid homomorphism. The decisions
    read an id only through its action on scan masks (reached, distance,
    id_run, bad_run, _limit_point), and profiles keep their admissibility
    tables, so joint tables that act alike give equal verdicts and
    offsets, and share one id."""

    def __init__(self, code, budget=None):
        self.code = code
        a = arrow_graph(code)
        g = a.graph
        self.g = g
        self.x_sym = dict(a.x_sym)
        self.budget = budget if budget is not None else Budget(
            where="openness sweep")
        self.full = g.full_mask
        self.symbols = g.symbols
        self.ut = g.fwd
        self.zt, self.xt = _step_tables(g, self.x_sym)
        self.xsymbols = sorted(self.xt)
        self._zero = (0,) * g.n
        # the left-context pairs: the free closure of the full restart
        left = bfs_closure(
            [(self.full, self.full)],
            lambda p: [(u, apply_mask(self.ut[s], p[1])) for s in self.symbols
                       if (u := apply_mask(self.ut[s], p[0]))],
            self.budget)
        self.left = (1 << len(left)) - 1
        # the universe: per live symbol, the free step, then every zone
        # step. Pairs are expanded in index order, so each expansion
        # appends the pair's entry to every table, and new successors are
        # indexed in the order the closure discovers them. Rows of a
        # symbol that share an S table (often the all-zero one) share
        # their successor, so rows are grouped by S table in order of
        # first occurrence and each group steps once
        index = {p: i for i, p in enumerate(left)}
        self.free = {s: [] for s in self.symbols}
        self.zone = {(s, xi): [] for s in self.symbols
                     for xi in self.xsymbols}
        moves = []
        for s in self.symbols:
            groups = {self.ut[s]: [self.free[s]]}
            for xi in self.xsymbols:
                groups.setdefault(self.zt.get((s, xi), self._zero),
                                  []).append(self.zone[s, xi])
            moves.append((self.ut[s], list(groups.items())))

        def steps(p):
            out = []
            for u_table, groups in moves:
                u = apply_mask(u_table, p[0])
                for s_table, tables in groups:
                    bit = 0
                    if u:
                        q = (u, apply_mask(s_table, p[1]))
                        out.append(q)
                        bit = 1 << index.setdefault(q, len(index))
                    for table in tables:
                        table.append(bit)
            return out
        self.pairs = list(bfs_closure(left, steps, self.budget))
        # doomed: the backward closure of the live-U dead-S pairs
        back = [[] for _ in self.pairs]
        for i in range(len(self.pairs)):
            for s in self.symbols:
                q = self.free[s][i]
                if q:
                    back[q.bit_length() - 1].append(i)
        self.doomed = sum(1 << i for i in bfs_closure(
            [i for i, (u, v) in enumerate(self.pairs) if u and not v],
            back.__getitem__))
        self.live = sum(1 << i for i, (_, v) in enumerate(self.pairs) if v)
        # the transfer monoid: universe tables as ids, and per pair (i, j)
        # the id of table i then table j, composed once by indexing table
        # j at each entry's one bit. The memo holds no reference to the
        # space, so a space is freed as soon as its last user ends
        self.tables, self.ids = tables, ids = [], {}

        def product(pair):
            second = tables[pair[1]]
            return _intern(tables, ids, tuple(
                second[b.bit_length() - 1] if b else 0
                for b in tables[pair[0]]))
        self.products = _Memo(product)
        self.layers = [frozenset([self.left])]
        self.cycle_start = None
        self._reached, self._distances, self._runs = {}, {}, {}
        # per stored layer, the runs id_run has computed from it by id
        self.id_runs = [{}]

    @cached_property
    def symbol_profiles(self):
        """Per zone symbol xi, its profile: the ids of its tables zone[s,
        xi], one per image symbol s, and its admissibility table."""
        return {xi: (frozenset(_intern(self.tables, self.ids,
                                       tuple(self.zone[s, xi]))
                               for s in self.symbols), self.xt[xi])
                for xi in self.xsymbols}

    def profile(self, word):
        """The ids of a zone word's profile; spends no budget."""
        sym = self.symbol_profiles
        ids = sym[word[0]][0]
        for xi in word[1:]:
            ids = frozenset(self.products[i, j]
                            for i in ids for j in sym[xi][0])
        return ids

    def free_moves(self, q):
        """The interior states one free symbol after scan mask q, in
        symbol order: the nonzero masks (the image dies with the scan,
        see _least_window)."""
        return [q2 for s in self.symbols
                if (q2 := apply_mask(self.free[s], q))]

    def layer(self, m):
        """(j, F_m): the scan masks m free steps after left, stored as
        layers[j]. A new layer spends a budget state per state; the
        first layer equal to an earlier one closes the cycle from
        layers[cycle_start] on, which every later layer repeats."""
        layers = self.layers
        while self.cycle_start is None and m >= len(layers):
            nxt = frozenset(y for x in layers[-1] for y in self.free_moves(x))
            if nxt in layers:
                self.cycle_start = layers.index(nxt)
            else:
                self.budget.spend(len(nxt))
                layers.append(nxt)
                self.id_runs.append({})
        if m >= len(layers):
            r = self.cycle_start
            m = r + (m - r) % (len(layers) - r)
        return m, layers[m]

    def action(self, q, i):
        """Scan mask q mapped across the zone by id i: the union of table
        i's entries over q's pairs. Spends no budget."""
        return apply_mask(self.tables[i], q)

    def reached(self, q, ids):
        """The ids met at layer state q so far, ids included, grouped by
        the distance of the state each maps q to (inf where it maps q to
        0)."""
        seen, by = self._reached.setdefault(q, (set(), {}))
        for i in ids - seen:
            q2 = self.action(q, i)
            by.setdefault(self.distance(q2) if q2 else inf, set()).add(i)
        seen |= ids
        return by

    def distance(self, q):
        """Least number of free steps from scan mask q to one with no
        doomed pair, or inf. The unclean states reachable from q whose
        distance is unknown are explored together and relaxed until no
        distance drops."""
        known = self._distances
        if q not in known:
            new, succ = explore(known, [q], self.free_moves,
                                lambda x: x & self.doomed, self.budget)
            known.update((x, inf if x in succ else 0) for x in new)
            drops = True
            while drops:
                drops = [(x, d) for x, ys in succ.items()
                         if (d := 1 + min(known[y] for y in ys)) < known[x]]
                known.update(drops)
        return known[q]

    def bad_run(self, q):
        """Longest run of free steps from scan mask q through bad masks,
        those holding a live-S pair and a doomed pair (see
        automata.longest_runs)."""
        if q not in self._runs:
            longest_runs(self._runs, [q], self.free_moves,
                         lambda x: x & self.doomed and x & self.live,
                         self.budget)
        return self._runs[q]

    def id_run(self, j, i):
        """Longest bad run of a mask that id i maps a state of layers[j]
        to, or -1 where it maps none to a bad mask; it does not depend on
        the profile holding i. Memoized per (j, i), so a pair met again
        spends nothing."""
        runs = self.id_runs[j]
        run = runs.get(i)
        if run is None:
            run = runs[i] = max(
                (self.bad_run(q) for x in self.layers[j]
                 if (q := self.action(x, i))), default=-1)
        return run


# -- interior of a cylinder image ---------------------------------------------


def interior_nonempty(space, u, *, profile=None):
    """Exact decision: does the image of the central cylinder of u
    contain a nonempty central cylinder of the image shift?

    A window of half-length c + m around the zone (c its center), read
    from every left-context pair, certifies interior exactly when the
    image states stay live and no scan result ends doomed. Left of the
    zone the scan reaches a state of the layer F_m, an id of u's
    profile maps it across the zone, and the rest reaches no doomed pair
    exactly when the state lies in G_m = {distance <= m}. So the least
    offset is the least m at which an id of the profile maps F_m into
    G_m. profile is u's set of ids in the space's monoid; when it is not
    given, u is checked admissible and its profile composed. The memos
    stay on the space, so a profile decided again spends no budget but a
    refuted word's escape search. Proved payloads carry the least witness
    cylinder (see _interior_cylinder), searched here, and k = c + m;
    refuted payloads carry one escape (see _escape_window).
    """
    if not isinstance(u, CenteredWord):
        u = CenteredWord.central(u)
    length = len(u.word)
    c = u.center
    if length != 2 * c + 1:
        raise InvariantViolation("central zone word",
                                 f"length {length} center {c}")
    if profile is None:
        if not space.code.domain.accepts(u.word):
            raise WordNotAdmissible(u.word)
        profile = space.profile(u.word)
    m = _interior_offset(space, profile)
    if m is None:
        return refuted(_escape_window(space, u))
    return proved({
        "zone": u.to_json(),
        "cylinder": _interior_cylinder(space, u, m),
        "k": c + m,
    })


def _interior_offset(space, profile):
    """Least m at which an id of profile maps F_m into G_m, or None.

    Free steps keep a pair that is not doomed out of the doomed ones, and
    the arrow graph is essential, so G_m only grows with m. The layers
    repeat from space.cycle_start on, so once every layer has been met, a
    hit is still to come exactly when an id maps a state of a cycle layer
    to a finite distance d: that layer recurs at some m >= d.
    """
    reach = -1  # the latest stored layer mapped to a finite distance
    for m in count():
        j, layer = space.layer(m)
        if j < m and reach < space.cycle_start:
            return None
        for x in layer:
            for d, ids in space.reached(x, profile).items():
                if d < inf and not profile.isdisjoint(ids):
                    if d <= m:
                        return m
                    reach = max(reach, j)


def _least_window(space, u, m, goal, start=None):
    """The lexicographically least window of m free symbols, the zone
    word u and m free symbols whose scan from the mask start (default:
    the left-context pairs) ends on a mask q with goal(q), as a
    CenteredWord centered on u's center. Depth-first over the window's
    positions, free steps outside the zone and zone steps inside it,
    with a fruitless-state memo. Such a window must exist. It builds
    every zone-word witness: the interior and escape cylinders and the
    limit point's v (see _limit_point).

    The scan holds the image of the full restart (full, full), whose
    image side is the set of image states that can read the window, and
    every other pair's image side lies inside it; so the scan dies
    exactly when the window leaves the image language."""
    end = len(u.word) + 2 * m
    dead = set()

    def rec(t, q):
        if t == end:
            return () if goal(q) else None
        if (t, q) in dead:
            return None
        for s in space.symbols:
            table = space.zone[s, u.word[t - m]] \
                if m <= t < end - m else space.free[s]
            q2 = apply_mask(table, q)
            if q2:
                sub = rec(t + 1, q2)
                if sub is not None:
                    return (s,) + sub
        dead.add((t, q))
        return None

    word = rec(0, space.left if start is None else start)
    if word is None:
        raise InvariantViolation("window at the decided offset",
                                 f"zone {u.word} m {m}")
    return CenteredWord(word, u.center + m)


def _interior_cylinder(space, u, m):
    """The least witness cylinder of u's interior at offset m, as JSON:
    the least window of half-length c + m whose scan ends on a mask with
    no doomed pair. Spends no budget."""
    return _least_window(space, u, m, lambda q: not q & space.doomed).to_json()


def _escape_window(space, u):
    """A refuted interior's payload: the zone, the least zone-width
    candidate whose scan ends on a doomed pair, and the window
    cylinder_escape writes around it, an admissible image word the
    cylinder image f([u]) misses. The escape search spends the sweep's
    budget; a candidate that does not escape signals an internal bug."""
    cylinder = _least_window(space, u, 0, lambda q: q & space.doomed)
    escape = cylinder_escape(cylinder_image(space.code, u),
                             image_presentation(space.code), cylinder,
                             space.budget)
    if escape is None:
        raise InvariantViolation("a doomed zone scan escapes the cylinder "
                                 "image", f"zone {u.word}")
    return {"zone": u.to_json(), "cylinder": cylinder.to_json(),
            "escape": escape.to_json()}


# -- level sweeps over transfer profiles --------------------------------------


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

    The joint tables are held as ids, their universe tables (see
    SweepSpace), so a profile is a frozenset of ids with its
    admissibility table: the image of the fine profile under the
    homomorphism. Such coarse profiles compose as fine ones do, so the
    joins below build each level's coarse profiles, a level with no new
    one proves saturation, and coarse levels saturate no later than fine
    ones. A word's verdict depends only on its coarse profile, so a
    level's least failing word is the same in both sweeps, and so is the
    first failing level: a coarse sweep that saturated before it would
    have met a failing word at an earlier level.

    The product of two ids is composed once. Per zone symbol x and id j,
    the row x.j holds the products of x's ids with j, and per zone
    symbol y and id i, the row i.y those of i with y's, each built on
    first use; so x.P is the union of P's x-rows, and (x.P).y the union
    of x.P's y-rows. Admissibility tables are composed once per pair.
    The joins of each (x, P) are kept for the whole sweep, so a profile
    met again at a later level costs no join. A join spends one budget
    state per pair product, before it is built.
    """
    sym = space.symbol_profiles
    products = space.products
    # per zone symbol, its left rows x.j and its right rows i.y by id
    left = {x: {} for x in space.xsymbols}
    right = {y: {} for y in space.xsymbols}
    # per pair of admissibility tables, their composition, or None where
    # it is all zero: the joined word is not admissible
    adms = _Memo(lambda pair: (
        t if any(t := tuple(apply_mask(pair[1], m) for m in pair[0]))
        else None))
    spend = space.budget.spend

    def joins_of(x, prof):
        """The admissible joins (y, x.P.y) of x and P, in order of y."""
        ids, adm = prof
        adm = adms[sym[x][1], adm]
        if adm is None:
            return ()
        xs, rows = sym[x][0], left[x]
        spend(len(xs) * len(ids))
        for j in ids.difference(rows):
            rows[j] = frozenset([products[i, j] for i in xs])
        xp = frozenset().union(*map(rows.__getitem__, ids))
        out = []
        for y in space.xsymbols:
            adm_y = adms[adm, sym[y][1]]
            if adm_y is not None:
                ys, rows = sym[y][0], right[y]
                spend(len(xp) * len(ys))
                for i in xp.difference(rows):
                    rows[i] = frozenset([products[i, k] for k in ys])
                out.append((y, (frozenset().union(*map(rows.__getitem__, xp)),
                                adm_y)))
        return out

    joins = {x: {} for x in space.xsymbols}
    level = {}
    for xi in space.xsymbols:
        level.setdefault(sym[xi], (xi,))
    while True:
        yield level
        nxt = {}
        for x in space.xsymbols:
            known = joins[x]
            for prof, word in level.items():
                found = known.get(prof)
                if found is None:
                    found = known[prof] = joins_of(x, prof)
                for y, joined in found:
                    nxt.setdefault(joined, (x,) + word + (y,))
        level = nxt


@dataclass(frozen=True)
class LiftingTable:
    """Per-level summary of a sweep: the uniform witness half-length at
    each zone level, witness data per level profile keyed by its least
    zone word, and the level at which the level profiles saturated (no
    new transfer behavior can appear deeper), or None.

    found holds each profile's least word and the entry its visit
    returned. witnesses is built on its first read: where the sweep gave
    a completion, it runs on every entry then. check_semi_open's
    searches each Proved profile's witness cylinder (see
    _interior_cylinder), so a table no caller reads runs no window
    search, and a kept table keeps its sweep's space. The search spends
    no budget, so a table whose sweep stopped early, Refuted or out of
    budget, completes its entries all the same."""

    entries: tuple
    found: dict
    uniform: object
    saturation_level: object
    complete: object = field(default=None, repr=False, compare=False)

    @cached_property
    def witnesses(self):
        complete = self.complete or (lambda word, entry: entry)
        return {key: complete(word, entry)
                for key, (word, entry) in self.found.items()}

    def to_json(self):
        return {
            "entries": [list(e) for e in self.entries],
            "witnesses": self.witnesses,
            "uniform": self.uniform,
            "saturation_level": self.saturation_level,
        }


def _level_sweep(code, budget, l_max, visit, complete=None):
    """Visit the profiles of levels 0..l_max in order of least zone word.

    visit(space, level, prof, word) gets the code's SweepSpace, the
    profile and its least word at this level, whether the profile is new
    or met at an earlier level; it returns the profile's witness entry,
    which carries its half-length "k", or a Decision that ends the sweep
    with the table of the levels visited. complete(space, word, entry),
    when given, builds each entry's witness data on the table's first
    read (see LiftingTable). A level that brings no new profile proves
    saturation. A budget running out anywhere, in the space or in a
    visit, ends the check Inconclusive. A negative l_max raises
    InvariantViolation. Returns (decision, table).
    """
    if l_max < 0:
        raise InvariantViolation("l_max must be >= 0", l_max)
    entries = []
    found = {}
    space = None

    def table(uniform=None, saturation_level=None):
        return LiftingTable(tuple(entries), found, uniform, saturation_level,
                            complete and partial(complete, space))
    try:
        space = SweepSpace(code, budget)
        seen = set()
        saturation_level = None
        for level, profiles in zip(range(l_max + 1), _profile_levels(space)):
            k_level = 0
            grew = False
            for prof, word in profiles.items():
                entry = visit(space, level, prof, word)
                if isinstance(entry, Decision):
                    return entry, table()
                grew |= prof not in seen
                seen.add(prof)
                found[",".join(word)] = word, entry
                k_level = max(k_level, entry["k"])
            entries.append((level, k_level))
            if level > 0 and not grew:
                saturation_level = level
                break
    except BudgetExceeded as exc:
        return out_of_budget(exc), table()
    uniform = max((k - l for l, k in entries), default=0)
    if saturation_level is None:
        return inconclusive({
            "reason": "level profiles did not saturate",
            "levels_checked": l_max + 1,
        }), table(uniform)
    return proved({
        "levels": len(entries),
        "saturation_level": saturation_level,
        "uniform_offset": uniform,
    }), table(uniform, saturation_level)


def check_semi_open(code, l_max=4, *, budget=None):
    """Is every central-cylinder image interior-nonempty in the image
    shift? Refuted exactly on the first failing zone word, with its
    interior payload and one escape; proved when every level verdict is
    positive and the level profiles saturate within l_max levels;
    inconclusive otherwise. No bound on the witness half-length applies:
    each profile's least offset is decided exactly.

    Every level profile, new or met again, is decided as
    interior_nonempty decides its least word at that level. The
    decision's layers, reached ids and distances are kept on the space
    for the whole sweep, and an id's action on a scan mask is one
    apply_mask that spends nothing, so a profile met again spends no
    budget and runs no search. A Proved profile's entry holds its
    half-length k = c + m; its witness cylinder, the one
    interior_nonempty writes, is searched only when the table's
    witnesses are read (see LiftingTable). A refuted profile's escape is
    searched at once, since it spends budget and the decision carries
    it.
    """
    def visit(space, level, prof, word):
        m = _interior_offset(space, prof[0])
        if m is None:
            return refuted({"zone": list(word), "level": level,
                            "interior": _escape_window(
                                space, CenteredWord.central(word))})
        return {"k": level + m}

    def complete(space, word, entry):
        u = CenteredWord.central(word)
        return {**entry, "cylinder": _interior_cylinder(
            space, u, entry["k"] - u.center)}

    return _level_sweep(code, budget, l_max, visit, complete)


# -- openness ------------------------------------------------------------


def _limit_point(space, word, profile):
    """The labels c1^inf b1 v b2 c2^inf of a limit point for a zone word
    whose profile has an infinite offset (see check_open), as the past
    cycle c1, the chain b1 v b2, the index in the chain of the zone's
    center and the future cycle c2; v is an image word read across the
    zone. Every bad run it reads is already in a memo of the sweep, and
    its actions and steps are plain apply_mask calls, so it spends no
    budget.

    j is the first cycle layer and i the least id of the profile whose
    run from layers[j] is infinite (SweepSpace.id_run), and x the least
    state of layers[j] that i maps to a mask with an infinite bad run.
    The past walks back from x, each state to the least state of the
    layer before it that steps to it, until a (layer, state) repeats:
    the walk's cycle reads c1, and its way back to x reads b1. v is the
    least image word across the zone whose scan from x ends on a mask q
    with an infinite bad run (_least_window at m = 0). Every image word
    read across the zone has its table in the profile, so the search
    ends only on masks whose bad runs id_run has memoized, and a word
    with table i meets its goal (see check_open). The future takes the
    least free step from q to a mask whose bad run is infinite until a
    mask repeats: b2, then the cycle c2. A missing step raises
    InvariantViolation."""
    layers, start, runs = space.layers, space.cycle_start, space._runs
    found = next(((j, i) for j in range(start, len(layers))
                  for i in sorted(profile) if space.id_run(j, i) == inf), None)
    if found is None:
        raise InvariantViolation("an infinite run from a cycle layer", word)
    j, i = found
    x = min(x for x in layers[j] if runs.get(space.action(x, i)) == inf)

    def walk(state, step):
        # the symbols step reads from state until a state repeats, cut
        # where the repeated state was first met
        seen, read = {}, []
        while state not in seen:
            seen[state] = len(read)
            moved = step(state)
            if moved is None:
                raise InvariantViolation("a step of the limit point", word)
            state, s = moved
            read.append(s)
        return read[:seen[state]], read[seen[state]:]

    def back(state):
        j, q = state
        j = j - 1 if j > start else len(layers) - 1
        return next((((j, p), s) for p in sorted(layers[j])
                     for s in space.symbols
                     if apply_mask(space.free[s], p) == q), None)

    def forth(q):
        return next(((q2, s) for s in space.symbols
                     if runs.get(q2 := apply_mask(space.free[s], q)) == inf),
                    None)
    u = CenteredWord.central(word)
    v = _least_window(space, u, 0, lambda q: runs.get(q) == inf, x).word
    b1, c1 = walk((j, x), back)
    q = x
    for s, xi in zip(v, word):
        q = apply_mask(space.zone[s, xi], q)
    b2, c2 = walk(q, forth)
    return {
        "past_cycle": c1[::-1],
        "chain": b1[::-1] + list(v) + b2,
        "anchor_step": len(b1) + u.center,
        "future_cycle": c2,
    }


def _refutation(code, space, word, profile):
    """The Refuted payload of a zone word whose profile has an infinite
    offset: the zone, its limit point (see _limit_point) and probes.
    Each probe is the limit point's window at half-length c + 1 or c + 3,
    checked with the containment engine to be a word of the cylinder
    image f([u]) that escapes it; a failure signals an internal bug. The
    escape searches spend the sweep's budget."""
    point = _limit_point(space, word, profile)
    u = CenteredWord.central(word)
    chain = point["chain"]

    def label(i):
        if i < 0:
            return point["past_cycle"][i % len(point["past_cycle"])]
        if i < len(chain):
            return chain[i]
        cycle = point["future_cycle"]
        return cycle[(i - len(chain)) % len(cycle)]

    au = cylinder_image(code, u)
    y = image_presentation(code)
    probes = []
    for t in (u.center + 1, u.center + 3):
        window = CenteredWord(tuple(label(point["anchor_step"] + d)
                                    for d in range(-t, t + 1)), t)
        esc = cylinder_escape(au, y, window, space.budget) \
            if reads_window(au, window) else None
        if esc is None:
            raise InvariantViolation("limit point windows read in the "
                                     "cylinder image escape it",
                                     f"scale {t} zone {u.word}")
        probes.append({"scale": t, "window": list(window.word),
                       "escape": esc.to_json()})
    return {"direction": "right", "zone": u.to_json(), "limit_point": point,
            "probes": probes}


def _open_offset(space, profile):
    """Least m such that no id of profile maps a state of F_m to a mask
    whose bad run is m or longer, or None: then c + m is the least
    uniform window half-length, at least the zone's center c, of the
    zone's cylinder image f([u]).

    Windows of m free symbols, an image word across the zone and m free
    symbols scan, from the left-context pairs, to exactly the m-step
    free continuations of id images of states of F_m. A scan holds the
    full restart's image, whose S holds every other pair's, so (the
    arrow graph being essential) it holds a live-S pair exactly when the
    window is read in f([u]), and a doomed pair exactly when some left
    context and right continuation leave f([u]): when the window's
    cylinder does. A pair whose free step is live-S or doomed is so
    itself, so every mask before a bad one is bad, and some m-step
    continuation of z ends bad exactly when z's bad run is m or longer.
    F_m and the runs are the same for every zone word, so m depends on
    the profile alone, and the longest run is a max over the profile's
    ids of each id's run from F_m (SweepSpace.id_run). Longer windows
    span smaller cylinders, so the test is monotone in m; the layers
    repeat from space.cycle_start on, so an infinite run from a cycle
    layer fails it at infinitely many m, hence at all, and otherwise it
    passes past the cycle layers' runs.
    """
    for m in count():
        j, _ = space.layer(m)
        run = max((space.id_run(j, i) for i in profile), default=-1)
        if run < m:
            return m
        if j < m and run == inf:
            return None


def check_open(code, l_max=4, k_max=12, budget=None):
    """Is the code an open map onto its image? Proved when every cylinder
    image up to the saturation level is open, each profile's offset (see
    _open_offset) at most k_max; a zone word of half-width c reports the
    half-length k = c + offset. Refuted on the first visited profile
    whose offset is infinite, with that zone's limit point and its
    verified escape probes (see _refutation), and the table of the
    levels the sweep visited. Inconclusive when a finite offset exceeds
    k_max, when the level profiles do not saturate within l_max levels,
    or out of budget. A negative l_max or k_max raises
    InvariantViolation.

    Openness is decided cylinder by cylinder: f is open exactly when
    every cylinder image f([u]) is, since cylinders form a base. A finite
    offset m for u's profile shows that every window of half-length
    c + m read in f([u]) spans a cylinder inside it, so f([u]) is open;
    past the saturation level every profile repeats one already decided.

    An infinite offset always yields the limit point, so the builder
    never fails on it. _open_offset returns None only at a cycle layer
    j (one that recurs), where an id i of the profile maps a state x of
    layers[j] to a mask with an infinite bad run. Past: every state of
    a cycle layer is a free step of a state of the cycle layer before
    it, so the walk back from x never stops and, the states being
    finitely many, repeats a (layer, state) z: z reads the cycle c1 back
    to itself and b1 on to x. Zone: every image word read across u has
    its universe table in the profile, so a scan from x across u ends on
    the action on x of an id of the profile, whose bad run id_run
    memoized before _open_offset returned None. A word with table i ends
    on a mask with an infinite bad run, so the least such word v exists
    and ends on a mask q with an infinite bad run. Future: a mask with an
    infinite bad run is bad and has a free successor with an infinite bad
    run, so the walk forward from q never stops and repeats a mask: b2,
    then c2. Every run is in a memo, so nothing is spent.

    The point p = c1^inf b1 . v . b2 c2^inf lies in f([u]) and no
    cylinder around it does. z is the scan from the left-context pairs
    along some word w, so x is the scan along w c1^n b1 for every n.
    Scans only shrink along longer left words, since a free step keeps
    the left-context pairs among themselves, so the scan along any
    suffix of c1^inf b1 contains x. Scans are monotone, so the scan of
    p's window of any half-length t >= c contains the mask reached from
    q along the first t - c symbols of b2 c2^inf, which is bad; and a
    superset of a bad mask is bad. A bad scan holds a live-S pair, so
    the window is read in f([u]), and a doomed pair, so the window's
    cylinder leaves f([u]). f([u]) is closed, so p lies in it, with no
    cylinder around p inside it: f([u]) is not open, and neither is f.
    """
    if k_max < 0:
        raise InvariantViolation("k_max must be >= 0", k_max)

    def visit(space, level, prof, word):
        m = _open_offset(space, prof[0])
        if m is None:
            return refuted(_refutation(code, space, word, prof[0]))
        if m > k_max:
            return inconclusive({
                "reason": "no uniform witness length within bound",
                "zone": list(word),
                "k_max": k_max,
            })
        return {"k": level + m}

    return _level_sweep(code, budget, l_max, visit)


# -- right/left continuing with retract ---------------------------------------


@dataclass(frozen=True)
class RetractDecision:
    """Continuing-with-retract verdict at one window size.

    The verdict compares n with two run lengths per side (see
    _retract_verdict): Proved when n exceeds the upper one, Refuted when
    n is at most the lower one. So Proved at n persists for every wider
    window and Refuted for every narrower one, by construction.
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
    reversed code, "bi" demands both. A call compares retract with two
    numbers memoized per side, the longest runs of free steps through
    doomed states from the lower and upper limit sets.
    """
    if retract < 0:
        raise InvariantViolation("retract must be >= 0", retract)
    return RetractDecision(side, retract, _retract_verdict(code, retract, side))


def _retract_verdict(code, retract, side):
    """Right side: along an upstream point, the locked phase scans the
    sweep's (U, S) pairs by zone steps; a limit state is an upstream
    vertex with its pair. After the retract window of free steps, a state
    escapes when its pair is doomed. Refuted when a state reached from a
    stabilized cycle scan (a genuine limit) escapes; Proved when none
    reached from a cycle of the restart closure (an overapproximation)
    does, by compactness on lift threads; Inconclusive otherwise or out
    of budget. The payload holds side, retract and, when decided, the
    count of limit states behind the verdict; no witness point. "left"
    is the reversed code's right side; "bi" needs both sides.

    Why two run lengths per code decide it exactly: a pair whose free
    successor is doomed is doomed itself, so a free step never takes a
    state with no doomed pair to one with a doomed pair. So n free steps
    from a set reach a doomed pair exactly when a run of n steps through
    doomed states starts in it: the set escapes at retract n exactly when
    n is at most its longest run, monotone in n by construction. Those
    runs are memoized per code (see _retract_limits), so verdicts,
    payloads and the budget boundary are those of a fresh build.
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
    return _right_retract_verdict(code, retract)


def _retract_limits(code, budget):
    """((lower run, lower size), (upper run, upper size)) of the code's
    right-side limit-state sets, built under budget, each run the longest
    from the set's states (-1 where none is doomed). The retract check
    memoizes these numbers in code.memo through automata.memoized."""
    space = SweepSpace(code, budget)
    g = space.g
    out_edges = {v: sorted(g.out[v], key=lambda e: e.id) for v in g.vertices}
    lock = {e.id: space.zone[e.label, space.x_sym[e.id]] for e in g.edges}

    def locked_moves(state):
        v, p = state
        return [(e.dst, apply_mask(lock[e.id], p)) for e in out_edges[v]]

    # locked-phase closure of (upstream vertex, pair bit) from full
    # restarts; bit 0 is the (full, full) pair
    order = list(bfs_closure([(v, 1) for v in g.vertices], locked_moves,
                             budget))
    index = {t: i for i, t in enumerate(order)}
    eadj = [[(index[e.dst, apply_mask(lock[e.id], p)], e)
             for e in out_edges[v]] for v, p in order]
    adj = [[j for j, _ in row] for row in eadj]
    cyc = cycle_nodes(len(order), adj)

    # every true limit state is reachable from a cycle of the restart
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
        # a monotone scan from the full pair ends in one fixed point
        p, q = None, 1
        while q != p:
            p = q
            for e in cyc_edges:
                q = apply_mask(lock[e.id], q)
        lower.add(index[order[i][0], p])
    lower = [order[i] for i in bfs_closure(sorted(lower), adj.__getitem__,
                                           budget)]

    def free_moves(state):
        v, p = state
        return [(e.dst, apply_mask(space.free[e.label], p))
                for e in out_edges[v]]
    # each fixed point lies on a cycle of the closure, so lower lies in
    # upper and upper's doomed states seed every run either set reads
    runs = {}
    longest_runs(runs, [t for t in upper if t[1] & space.doomed],
                 free_moves, lambda t: t[1] & space.doomed, budget)
    return tuple((max((runs.get(t, -1) for t in states), default=-1),
                  len(states)) for states in (lower, upper))


@inconclusive_on_budget
def _right_retract_verdict(code, retract):
    budget = Budget(where="retract check")
    (lower_run, lower_states), (upper_run, upper_states) = memoized(
        code.memo, "retract limits", lambda: _retract_limits(code, budget),
        budget)
    if retract <= lower_run:
        return refuted({"side": "right", "retract": retract,
                        "limit_states": lower_states})
    if retract > upper_run:
        return proved({"side": "right", "retract": retract,
                       "limit_states": upper_states})
    return inconclusive({
        "side": "right",
        "retract": retract,
        "reason": "escape only from the limit overapproximation",
    })


# -- magic-word lifting witnesses ----------------------------------------


def witness_from_magic(g, alpha, pi):
    """Build a central image word that forces every presenting run
    through the given path: magic word, connector, the path, connector,
    magic word again. The center sits on the path's middle edge. Every
    path reading the magic word ends at its focus, where the first
    connector starts; the second ends at the least vertex that reads it.

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
        if s not in g.fwd:
            raise NotMagic(alpha, ())
        mask = apply_mask(g.fwd[s], mask)
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

    xi = edge_path(focus, edges[0].src)
    gam = edge_path(edges[-1].dst, _least_alpha_start(g, alpha))
    word = (alpha + tuple(e.label for e in xi) + tuple(e.label for e in edges)
            + tuple(e.label for e in gam) + alpha)
    center = len(alpha) + len(xi) + (len(edges) - 1) // 2
    return CenteredWord(word, center)


def _least_alpha_start(g, alpha):
    for v in sorted(g.vertices):
        mask = 1 << g.vindex[v]
        for s in alpha:
            mask = apply_mask(g.fwd[s], mask)
            if not mask:
                break
        if mask:
            return v
    raise NotMagic(alpha, ())
