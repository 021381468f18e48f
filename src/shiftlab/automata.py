"""Low-level kernels: SCCs on integer adjacency, subset (bitmask) stepping,
breadth-first closures and search trees, shortest paths and cycles, longest
runs, the global exploration budget and the memo that replays a build's spend.

Everything here works on small integers so the graph layer can stay
immutable and hashable while searches run on flat arrays.
"""

from __future__ import annotations

import os
from math import inf

from .errors import BudgetExceeded, ParseError

DEFAULT_BUDGET = 10**6


class Budget:
    """Counts states touched by a search and aborts past the limit.

    The limit comes from SHIFTLAB_STATE_BUDGET when set, which must be a
    nonnegative integer (ParseError otherwise); engines convert the
    BudgetExceeded into an Inconclusive decision rather than failing.
    """

    def __init__(self, limit=None, where="search"):
        if limit is None:
            raw = os.environ.get("SHIFTLAB_STATE_BUDGET", DEFAULT_BUDGET)
            try:
                limit = int(raw)
                if limit < 0:
                    raise ValueError(raw)
            except ValueError:
                raise ParseError(f"not a nonnegative integer: {raw!r}",
                                 field="SHIFTLAB_STATE_BUDGET") from None
        self.limit = limit
        self.used = 0
        self.where = where

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(self.limit, self.where)


def memoized(memo, key, build, budget):
    """memo[key]'s value, built by build() under budget on a miss.

    The memo keeps (value, states the build spent on budget). A hit spends
    those states on the budget it is given, so a warm call spends, and
    runs out, exactly where a cold one does; a build that runs out of
    budget stores nothing.
    """
    entry = memo.get(key)
    if entry is not None:
        value, cost = entry
        budget.spend(cost)
        return value
    spent = budget.used
    value = build()
    memo[key] = (value, budget.used - spent)
    return value


def tarjan_scc(n, adj):
    """Strongly connected components of vertices 0..n-1.

    adj[v] is an iterable of successors. Returns (comp, order) where
    comp[v] is the component index of v and order is the number of
    components; indices are in reverse topological order (a component's
    successors have smaller indices). Iterative so deep graphs are fine.
    """
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp = [-1] * n
    count = 0
    next_index = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # frame: (vertex, iterator position into adj[vertex])
        work = [(root, 0)]
        while work:
            v, pos = work[-1]
            if pos == 0:
                index[v] = low[v] = next_index
                next_index += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            succs = adj[v]
            while pos < len(succs):
                w = succs[pos]
                pos += 1
                if index[w] == -1:
                    work[-1] = (v, pos)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    if index[w] < low[v]:
                        low[v] = index[w]
            if advanced:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = count
                    if w == v:
                        break
                count += 1
            if work:
                u, _ = work[-1]
                if low[v] < low[u]:
                    low[u] = low[v]
    return comp, count


def nontrivial_components(n, adj, comp):
    """Component indices that contain a cycle (an edge within themselves)."""
    alive = set()
    for v in range(n):
        for w in adj[v]:
            if comp[v] == comp[w]:
                alive.add(comp[v])
                break
    return alive


def cycle_nodes(n, adj):
    """Vertices of 0..n-1 that lie on a cycle."""
    comp, _ = tarjan_scc(n, adj)
    alive = nontrivial_components(n, adj, comp)
    return {v for v in range(n) if comp[v] in alive}


def apply_mask(table, mask):
    """Union of table[v] over the vertices v in the bitmask."""
    out = 0
    while mask:
        low = mask & -mask
        out |= table[low.bit_length() - 1]
        mask ^= low
    return out


def pair_moves(rows):
    """bfs_tree expand over (U, T) pairs of bitmasks, from rows of (label,
    U table, T table): for every row in order whose U table keeps U live,
    the pair moved by both tables, with the row's label."""
    def expand(pair):
        u, t = pair
        out = []
        for label, u_table, t_table in rows:
            u2 = apply_mask(u_table, u)
            if u2:
                out.append(((u2, apply_mask(t_table, t)), label))
        return out
    return expand


def bfs_closure(seeds, expand, budget=None):
    """Closure of seeds under expand, as a dict whose keys are in
    discovery order, so callers can use it both as a set and as a stable
    ordering. expand(x) returns successors; each discovered node that is
    not a seed spends one budget unit."""
    seen = {}
    queue = []
    for s in seeds:
        if s not in seen:
            seen[s] = None
            queue.append(s)
    spend = None if budget is None else budget.spend
    # the queue grows while it is walked; list iteration sees appends
    for x in queue:
        for y in expand(x):
            if y not in seen:
                if spend is not None:
                    spend()
                seen[y] = None
                queue.append(y)
    return seen


def bfs_tree(seeds, expand, budget=None, is_goal=None):
    """Breadth-first search tree from the seeds, in FIFO order.

    expand(x) returns (successor, label) pairs. Returns (parent, goal):
    parent maps every discovered node, in discovery order, to None for a
    seed or to (predecessor, label); goal is the first dequeued node that
    satisfies is_goal, at which the search stops, or None. Each discovered
    node that is not a seed spends one budget unit. Over ordered rows the
    tree path to each node is its lexicographically least shortest path.
    """
    parent = {}
    queue = []
    for s in seeds:
        if s not in parent:
            parent[s] = None
            queue.append(s)
    spend = None if budget is None else budget.spend
    # the queue grows while it is walked; list iteration sees appends
    for x in queue:
        if is_goal is not None and is_goal(x):
            return parent, x
        for y, label in expand(x):
            if y not in parent:
                if spend is not None:
                    spend()
                parent[y] = (x, label)
                queue.append(y)
    return parent, None


def until_goal(expand, is_goal):
    """expand for a bfs_tree with this is_goal, cut once a goal is queued:
    in FIFO order the first goal discovered is the first dequeued, so the
    search finds the same goal and path and spends nothing after it."""
    found = []

    def cut(x):
        out = []
        for y, label in () if found else expand(x):
            out.append((y, label))
            if is_goal(y):
                found.append(y)
                break
        return out
    return cut


def explore(known, seeds, moves, inner, budget):
    """The nodes reachable from the seeds through inner nodes (those with
    inner(x)) whose value is not in known, a budget state each, and the
    successors moves(x) of the inner ones among them."""
    succ = {}

    def expand(x):
        if x in known or not inner(x):
            return ()
        succ[x] = moves(x)
        return succ[x]
    new = [x for x in bfs_closure(seeds, expand) if x not in known]
    budget.spend(len(new))
    return new, succ


def longest_runs(known, seeds, moves, inner, budget):
    """Fill known with each node's longest run of steps through inner
    nodes, for the nodes reachable from the seeds through inner ones: -1
    off the inner nodes, inf where an inner cycle is reachable. Values in
    known stay; the new ones are explored together (see explore) and
    decided by strongly connected component, successors first."""
    new, succ = explore(known, seeds, moves, inner, budget)
    known.update((x, -1) for x in new if x not in succ)
    runs = list(succ)
    at = {x: i for i, x in enumerate(runs)}
    adj = [[at[y] for y in succ[x] if y in at] for x in runs]
    comp, _ = tarjan_scc(len(runs), adj)
    cyclic = nontrivial_components(len(runs), adj, comp)
    for i in sorted(range(len(runs)), key=comp.__getitem__):
        known[runs[i]] = inf if comp[i] in cyclic else \
            1 + max((known[y] for y in succ[runs[i]]), default=-1)


def tree_path(parent, node):
    """(seed, labels): the seed a bfs_tree path to node starts from, and
    the labels along it in forward order."""
    labels = []
    while parent[node] is not None:
        node, label = parent[node]
        labels.append(label)
    labels.reverse()
    return node, labels


def shortest_path(rows, sources, is_goal):
    """Lexicographically least shortest path from the sources to a goal
    over rows[x] = [(successor, label), ...], as (source, goal, labels);
    labels is empty when a source is a goal. None if no goal is
    reachable."""
    parent, goal = bfs_tree(sources, rows.__getitem__, is_goal=is_goal)
    if goal is None:
        return None
    source, labels = tree_path(parent, goal)
    return source, goal, labels


def shortest_cycle(rows, entry):
    """Labels of the lexicographically least shortest nonempty cycle
    through entry over rows, or None. The search is seeded with entry's
    successors, each remembering the first step that reaches it."""
    first = {}
    for succ, label in rows[entry]:
        first.setdefault(succ, label)
    parent, goal = bfs_tree(first, rows.__getitem__,
                            is_goal=lambda x: x == entry)
    if goal is None:
        return None
    seed, labels = tree_path(parent, goal)
    return [first[seed]] + labels
