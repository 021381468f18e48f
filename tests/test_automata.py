import random
from math import inf

import pytest

from shiftlab.automata import (Budget, bfs_closure, bfs_tree, cycle_nodes,
                               longest_runs, memoized, shortest_cycle,
                               shortest_path)
from shiftlab.errors import BudgetExceeded


def random_rows(rng, n):
    """Ordered rows of (successor, label) over 0..n-1, with self-loops and
    parallel edges; the label is the edge's position in its row."""
    rows = []
    for _ in range(n):
        succs = [rng.randrange(n) for _ in range(rng.randint(0, 3))]
        rows.append([(t, k) for k, t in enumerate(succs)])
    return rows


def walks(rows, start, length):
    """Every walk of exactly length steps from start, as (end, labels),
    in lexicographic order of row positions."""
    if length == 0:
        yield start, []
        return
    for t, label in rows[start]:
        for end, rest in walks(rows, t, length - 1):
            yield end, [label] + rest


def oracle_path(rows, sources, goals):
    """Least (length, source position, row positions) walk to a goal."""
    for length in range(len(rows) + 1):
        for src in sources:
            for end, labels in walks(rows, src, length):
                if end in goals:
                    return src, end, labels
    return None


def oracle_cycle(rows, entry):
    for length in range(1, len(rows) + 1):
        for end, labels in walks(rows, entry, length):
            if end == entry:
                return labels
    return None


def test_shortest_path_and_cycle_match_a_brute_force_oracle():
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        rows = random_rows(rng, n)
        sources = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        goals = set(rng.sample(range(n), rng.randint(0, min(n, 2))))
        assert shortest_path(rows, sources, goals.__contains__) == \
            oracle_path(rows, sources, goals), f"seed {seed}"
        for entry in range(n):
            assert shortest_cycle(rows, entry) == oracle_cycle(rows, entry), \
                f"seed {seed} entry {entry}"


def test_shortest_path_edge_cases():
    rows = [[(0, "a"), (1, "b")], [(1, "c")], []]
    # a source that is a goal gives the empty path
    assert shortest_path(rows, [1], lambda v: v == 1) == (1, 1, [])
    assert shortest_path(rows, [0], lambda v: v == 1) == (0, 1, ["b"])
    assert shortest_path(rows, [0], lambda v: v == 2) is None
    # the first self-loop in row order is the shortest cycle
    assert shortest_cycle([[(0, "x"), (0, "y")]], 0) == ["x"]
    assert shortest_cycle(rows, 0) == ["a"]
    assert shortest_cycle(rows, 2) is None


def test_cycle_nodes():
    assert cycle_nodes(4, [[1], [0], [2, 3], []]) == {0, 1, 2}
    assert cycle_nodes(2, [[1], []]) == set()


def test_bfs_tree_spends_per_new_node_and_stops_at_the_first_goal():
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        rows = random_rows(rng, n)
        seeds = [rng.randrange(n) for _ in range(rng.randint(1, 3))]
        goals = set(rng.sample(range(n), rng.randint(0, min(n, 2))))
        expanded = []

        def expand(x):
            expanded.append(x)
            return rows[x]

        budget = Budget(10**6)
        parent, goal = bfs_tree(seeds, expand, budget, goals.__contains__)
        order = list(parent)
        assert budget.used == sum(p is not None for p in parent.values()), \
            f"seed {seed}"
        # the goal-free search discovers the same nodes in the same order
        # with the same tree, and runs on past the goal
        full, _ = bfs_tree(seeds, rows.__getitem__)
        assert list(full.items())[:len(order)] == list(parent.items()), \
            f"seed {seed}"
        reached = [x for x in full if x in goals]
        if goal is None:
            assert not reached and expanded == order == list(full), \
                f"seed {seed}"
        elif parent[goal] is None:
            # a seed that is a goal: nothing expanded, nothing spent
            assert goal == reached[0] == order[-1], f"seed {seed}"
            assert expanded == [] and budget.used == 0, f"seed {seed}"
        else:
            # the first goal discovered ends the search, and nothing
            # after the goal's parent was expanded
            assert goal == reached[0] == order[-1], f"seed {seed}"
            assert expanded == order[:order.index(parent[goal][0]) + 1], \
                f"seed {seed}"


def test_bfs_tree_budget_raises_past_the_limit():
    rows = [[(1, 0)], [(2, 0)], [(3, 0)], []]
    with pytest.raises(BudgetExceeded):
        bfs_tree([0], rows.__getitem__, Budget(2))
    budget = Budget(3)
    bfs_tree([0], rows.__getitem__, budget)
    assert budget.used == 3


def oracle_run(rows, inner, start):
    """Longest walk through inner nodes from start, by stepping every such
    walk one more step until none is left or one is longer than the node
    count, so that it repeats a node."""
    front = {start} & inner
    for length in range(len(rows) + 1):
        if not front:
            return length - 1
        front = {t for x in front for t, _ in rows[x] if t in inner}
    return inf


def test_longest_runs_match_a_brute_force_longest_walk():
    runs = set()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randint(1, 8)
        rows = random_rows(rng, n)
        inner = {x for x in range(n) if rng.random() < 0.7}

        def moves(x):
            return [t for t, _ in rows[x]]

        known = {}
        seeds = rng.sample(range(n), rng.randint(1, n))
        for _ in range(2):
            # a second call from overlapping seeds keeps the known runs and
            # spends one state per new one
            before = dict(known)
            budget = Budget(10**6)
            longest_runs(known, seeds, moves, inner.__contains__, budget)
            assert known.items() >= before.items(), f"seed {seed}"
            reach = bfs_closure(seeds,
                                lambda x: moves(x) if x in inner else ())
            assert known.keys() == reach.keys() | before.keys(), \
                f"seed {seed}"
            assert budget.used == len(known) - len(before), f"seed {seed}"
            for x, run in known.items():
                assert run == oracle_run(rows, inner, x), f"seed {seed} {x}"
            runs |= set(known.values())
            seeds = rng.sample(range(n), rng.randint(1, n)) + seeds[:1]
    assert {-1, 0, 1, 2, inf} <= runs


def _spending_build(states, builds):
    """A build that spends states one at a time on the budget it is
    handed, records the call and returns the count."""
    def build(budget):
        builds.append(states)
        for _ in range(states):
            budget.spend()
        return states
    return build


def _call(memo, build, budget):
    return memoized(memo, "key", lambda: build(budget), budget)


def test_memoized_stores_nothing_when_the_build_runs_out():
    memo, builds = {}, []
    build = _spending_build(5, builds)
    with pytest.raises(BudgetExceeded):
        _call(memo, build, Budget(4))
    assert memo == {} and builds == [5]
    budget = Budget(5)
    assert _call(memo, build, budget) == 5
    assert builds == [5, 5] and budget.used == 5
    assert memo == {"key": (5, 5)}


def test_memoized_hit_runs_out_exactly_where_a_build_does():
    for cost in range(4):
        warm, builds = {}, []
        build = _spending_build(cost, builds)
        _call(warm, build, Budget(10**6))
        for limit in range(max(cost - 1, 0), cost + 2):
            # a budget that has not run out yet, fresh or part spent
            for used in range(min(limit, 1) + 1):
                outcomes = []
                for memo in ({}, warm):
                    builds.clear()
                    budget = Budget(limit)
                    budget.used = used
                    try:
                        value = _call(memo, build, budget)
                    except BudgetExceeded as exc:
                        outcomes.append(("raised", str(exc)))
                    else:
                        outcomes.append((value, budget.used))
                # the warm memo never builds again
                assert builds == [], (cost, limit, used)
                cold, hit = outcomes
                assert hit == cold, (cost, limit, used)
                assert (cold[0] == "raised") == (used + cost > limit)
        assert warm == {"key": (cost, cost)}


def test_memoized_zero_cost_entry_spends_nothing():
    """A hit on an entry whose build spent nothing leaves even a budget
    that is spent to its limit as it is."""
    memo = {}
    assert _call(memo, _spending_build(0, []), Budget(0)) == 0
    assert memo == {"key": (0, 0)}
    budget = Budget(3)
    budget.used = 3
    assert memoized(memo, "key", lambda: pytest.fail("built"), budget) == 0
    assert budget.used == 3
