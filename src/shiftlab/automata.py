"""Low-level kernels: SCCs on integer adjacency, subset (bitmask) stepping,
generic BFS closures, and the global exploration budget.

Everything here works on small integers so the graph layer can stay
immutable and hashable while searches run on flat arrays.
"""

from __future__ import annotations

import os

from .errors import BudgetExceeded

DEFAULT_BUDGET = 10**6


class Budget:
    """Counts states touched by a search and aborts past the limit.

    The limit comes from SHIFTLAB_STATE_BUDGET when set; engines convert
    the BudgetExceeded into an Inconclusive decision rather than failing.
    """

    def __init__(self, limit=None, where="search"):
        if limit is None:
            limit = int(os.environ.get("SHIFTLAB_STATE_BUDGET", DEFAULT_BUDGET))
        self.limit = limit
        self.used = 0
        self.where = where

    def spend(self, amount=1):
        self.used += amount
        if self.used > self.limit:
            raise BudgetExceeded(self.limit, self.where)


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


def nontrivial_components(n, adj, comp, count):
    """Component indices that contain a cycle (an edge within themselves)."""
    alive = set()
    for v in range(n):
        for w in adj[v]:
            if comp[v] == comp[w]:
                alive.add(comp[v])
                break
    return alive


class SubsetOps:
    """Per-symbol forward/backward images of vertex subsets as bitmasks.

    Built once from integer edge triples (src, sym, dst); symbols are
    integers 0..k-1. step/costep are the delta and delta-inverse maps of
    the subset automaton.
    """

    def __init__(self, n_vertices, n_symbols, edges):
        self.n = n_vertices
        self.full = (1 << n_vertices) - 1
        # fwd[s][v] = bitmask of successors of v under symbol s
        self.fwd = [[0] * n_vertices for _ in range(n_symbols)]
        self.bwd = [[0] * n_vertices for _ in range(n_symbols)]
        for src, sym, dst in edges:
            self.fwd[sym][src] |= 1 << dst
            self.bwd[sym][dst] |= 1 << src

    def step(self, mask, sym):
        out = 0
        table = self.fwd[sym]
        m = mask
        while m:
            low = m & -m
            out |= table[low.bit_length() - 1]
            m ^= low
        return out

    def costep(self, mask, sym):
        out = 0
        table = self.bwd[sym]
        m = mask
        while m:
            low = m & -m
            out |= table[low.bit_length() - 1]
            m ^= low
        return out

    def step_any(self, mask):
        out = 0
        for table in self.fwd:
            m = mask
            while m:
                low = m & -m
                out |= table[low.bit_length() - 1]
                m ^= low
        return out


def bfs_closure(seeds, expand, budget=None):
    """Closure of seeds under expand, insertion ordered.

    expand(x) yields successors; returns the dict node -> discovery index
    so callers can use it both as a set and as a stable ordering.
    """
    seen = {}
    queue = []
    for s in seeds:
        if s not in seen:
            seen[s] = len(seen)
            queue.append(s)
    head = 0
    while head < len(queue):
        x = queue[head]
        head += 1
        for y in expand(x):
            if y not in seen:
                if budget is not None:
                    budget.spend()
                seen[y] = len(seen)
                queue.append(y)
    return seen
