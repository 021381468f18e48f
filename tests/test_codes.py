import gc
import itertools
import random
import weakref
from collections import Counter

import pytest

from shiftlab import codes, fixtures
from shiftlab import graph as gr
from shiftlab import shifts as sh
from shiftlab.automata import Budget
from shiftlab.codes import (
    SlidingBlockCode,
    code_equal,
    compose,
    count_preimages_of_periodic,
    cover_code,
    degree,
    fiber_product,
    identity_code,
    image_presentation,
    is_bi_closing,
    is_cover_map,
    is_finite_to_one,
    is_left_closing,
    is_right_closing,
    is_surjective_onto,
    lift_code,
    _lift_search,
    _windows,
)
from shiftlab.decision import Decision
from shiftlab.errors import (BudgetExceeded, DomainMismatch,
                             InvariantViolation, NotFiniteToOne, ParseError,
                             PeriodicPointNotInShift, ReducibleShift)
from shiftlab.graph import Edge, LabeledGraph
from shiftlab.io import code_to_json, graph_from_json, graph_to_json
from shiftlab.openness import check_open, check_right_continuing_retract
from shiftlab.properties import gen_labeled_graph, gen_right_resolving_graph
from shiftlab.shifts import (SoficShift, fischer_cover, full_shift, is_sft,
                             shift_equal)
from test_openness import _fresh, _small_codes


def test_table_must_cover_admissible_windows():
    x = fixtures.golden_shift()
    with pytest.raises(DomainMismatch):
        SlidingBlockCode.make(x, 0, 0, {("0",): "a"})
    with pytest.raises(DomainMismatch):
        # "11" is not admissible, so the key is rejected
        SlidingBlockCode.make(x, 0, 1, {
            ("0", "0"): "a", ("0", "1"): "b", ("1", "0"): "c",
            ("1", "1"): "d"})


def test_identity_and_composition():
    x = fixtures.golden_shift()
    ident = identity_code(x)
    assert code_equal(compose(ident, ident), ident)
    f = fixtures.fig1_code()
    assert code_equal(compose(identity_code(image_presentation(f)), f), f)


def test_composition_window_adds():
    x = full_shift(["0", "1"])
    # xor with the next symbol, applied twice
    table = {("0", "0"): "0", ("0", "1"): "1",
             ("1", "0"): "1", ("1", "1"): "0"}
    f = SlidingBlockCode.make(x, 0, 1, table)
    ff = compose(f, f)
    assert (ff.memory, ff.anticipation) == (0, 2)


def test_image_presentation_collapses_fig1():
    f = fixtures.fig1_code()
    img = image_presentation(f)
    assert shift_equal(img, fixtures.golden_shift())
    assert is_surjective_onto(f, fixtures.golden_shift())
    assert not is_surjective_onto(f, full_shift(["0", "1"]))


def test_arrow_graph_and_reversed_code_are_built_once():
    rng = random.Random(4)
    xor = SlidingBlockCode.make(
        full_shift(["0", "1"]), 0, 1,
        {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "0"})
    pool = [xor, fixtures.fig1_code()]
    for _ in range(20):
        g = gen_labeled_graph(rng, 5, 3)
        pool.append(cover_code(g))
        pool.append(SlidingBlockCode.make(
            SoficShift.from_graph(g), 0, 0,
            {(s,): rng.choice("01") for s in {e.label for e in g.edges}}))
    for code in pool:
        a = codes.arrow_graph(code)
        assert codes.arrow_graph(code) is a
        # an explicit base builds afresh, with the same content
        b = codes.arrow_graph(code, code.domain.presentation)
        assert b is not a
        assert (b.graph, dict(b.x_sym)) == (a.graph, dict(a.x_sym))
        eid = a.graph.edges[0].id
        with pytest.raises(TypeError):
            a.x_sym[eid] = None
        with pytest.raises(TypeError):
            del a.x_sym[eid]
        r = codes.reversed_code(code)
        assert codes.reversed_code(code) is r
        assert (r.memory, r.anticipation) == (code.anticipation, code.memory)
        assert r.table == {k[::-1]: v for k, v in code.table.items()}


def test_cover_codes():
    g = fixtures.even_graph()
    c = cover_code(g)
    assert is_cover_map(c)
    assert shift_equal(image_presentation(c), fixtures.even_shift())
    assert not is_cover_map(fixtures.fig1_code())


def test_degree_fixtures():
    assert degree(fixtures.even_cover()).degree == 1
    assert degree(fixtures.phase_doubling_code()).degree == 2
    assert degree(fixtures.golden_cover()).degree == 1


def test_infinite_to_one_counterexample():
    code = fixtures.right_closing_counterexample_code()
    assert is_finite_to_one(code).is_refuted
    with pytest.raises(NotFiniteToOne):
        degree(code)
    assert is_right_closing(code).is_refuted
    assert is_left_closing(code).is_refuted


def test_closing_fixtures():
    even = fixtures.even_cover()
    assert is_right_closing(even).is_proved
    assert is_left_closing(even).is_proved
    assert is_bi_closing(even).is_proved
    # the doubling map identifies the two loops only after one step
    pd = fixtures.phase_doubling_code()
    assert is_right_closing(pd).is_proved


def _random_code(rng):
    """A cover code, or a random block code of window 1 or 2 on the shift
    of a random graph (reducible domains included)."""
    g = gen_labeled_graph(rng, 5, 3)
    kind = rng.randrange(3)
    if kind == 0:
        return cover_code(g)
    x = SoficShift.from_graph(g)
    outs = [str(i) for i in range(rng.randint(1, 3))]
    table = {w: rng.choice(outs) for w in x.language(kind)}
    return SlidingBlockCode.make(x, kind - 1, 0, table)


def test_closing_refutations_give_two_image_equal_points():
    # a refutation is (past)^inf bridge split tail (future)^inf on two
    # domain points; every truncation with r periods on each side must be
    # admissible on both, have equal images and differ at the split
    rng = random.Random(11)
    refuted = 0
    for trial in range(150):
        code = _random_code(rng)
        for check in (is_right_closing, is_left_closing):
            dec = check(code)
            if not dec.is_refuted:
                continue
            refuted += 1
            p = dec.payload
            at = len(p["bridge"])
            for r in (1, 2, 3):
                words = []
                for k in (0, 1):
                    w = (p["past_cycle"] * r + p["bridge"] + [p["split"][k]]
                         + p["tail"][k] + p["future_cycle"][k] * r)
                    words.append(tuple(w if p["side"] == "right"
                                       else w[::-1]))
                split = len(p["past_cycle"]) * r + at
                if p["side"] == "left":
                    split = len(words[0]) - 1 - split
                where = f"trial {trial} {p['side']} r={r}"
                assert all(code.domain.accepts(w) for w in words), where
                assert code.apply_block(words[0]) == \
                    code.apply_block(words[1]), where
                assert words[0][split] != words[1][split], where
    assert refuted >= 20


def _cold_then_warm(monkeypatch, build, fill, limit):
    """build()'s objects twice, with SHIFTLAB_STATE_BUDGET set to limit:
    first fresh, then with their memos filled by fill(objects) at the
    default budget. A memo hit replays the states a fresh build spends,
    so both passes must run out at the same place."""
    for warm in (False, True):
        monkeypatch.delenv("SHIFTLAB_STATE_BUDGET", raising=False)
        objects = build()
        if warm:
            fill(objects)
        monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", str(limit))
        yield objects


def _decide_all(pairs):
    return [check(x) for check, x in pairs]


def test_exhausted_default_budget_is_inconclusive(monkeypatch):
    """A one-state budget runs out in determinize, before any search of
    is_sft or is_finite_to_one; both checks return the budget
    Inconclusive instead of raising, cold or warm."""
    def build():
        return [(is_sft, fixtures.even_shift()),
                (is_sft, fixtures.golden_shift()),
                (is_finite_to_one, fixtures.even_cover()),
                (is_finite_to_one, fixtures.phase_doubling_code())]
    for pairs in _cold_then_warm(monkeypatch, build, _decide_all, 1):
        for dec in _decide_all(pairs):
            assert dec.is_inconclusive
            assert dec.payload == {
                "reason": "budget",
                "detail": "state budget 1 exceeded in determinize"}


def test_closing_checks_are_inconclusive_on_exhausted_budget(monkeypatch):
    """A one-state budget runs out in determinize on either side; every
    closing check returns the budget Inconclusive instead of raising,
    cold or warm."""
    checks = (is_right_closing, is_left_closing, is_bi_closing)

    def fill(even):
        for check in checks:
            assert check(even).is_proved
    for even in _cold_then_warm(monkeypatch, fixtures.even_cover, fill, 1):
        for check in checks:
            dec = check(even)
            assert dec.is_inconclusive, check.__name__
            assert dec.payload == {
                "reason": "budget",
                "detail": "state budget 1 exceeded in determinize"}


@pytest.mark.parametrize("right, left, verdict", [
    ("Proved", "Proved", "Proved"),
    ("Refuted", "Inconclusive", "Refuted"),
    ("Inconclusive", "Refuted", "Refuted"),
    ("Inconclusive", "Proved", "Inconclusive"),
    ("Proved", "Inconclusive", "Inconclusive"),
])
def test_bi_closing_is_proved_only_when_both_sides_are(monkeypatch, right,
                                                       left, verdict):
    monkeypatch.setattr(codes, "is_right_closing",
                        lambda code: Decision(right))
    monkeypatch.setattr(codes, "is_left_closing",
                        lambda code: Decision(left))
    assert is_bi_closing(fixtures.even_cover()).verdict == verdict


def test_degree_raises_budget_exceeded_not_not_finite_to_one(monkeypatch):
    """An exhausted budget is not a refutation: degree lets BudgetExceeded
    through, whether the finite-to-one check runs out in determinize or in
    its ambiguity search, cold or warm."""
    def fill(code):
        assert "exceeded" not in str(_outcome(degree, code))
    for even in _cold_then_warm(monkeypatch, fixtures.even_cover, fill, 1):
        with pytest.raises(BudgetExceeded, match="in determinize"):
            degree(even)

    def build():
        return cover_code(gen_labeled_graph(random.Random(21), 4, 2))
    for code in _cold_then_warm(monkeypatch, build, fill, 2):
        assert is_finite_to_one(code).payload["detail"] == (
            "state budget 2 exceeded in ambiguity pattern")
        with pytest.raises(BudgetExceeded, match="in ambiguity pattern"):
            degree(code)


def _outcome(check, *args):
    """JSON of a check's result, or the text of the exception it raised."""
    try:
        out = check(*args)
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    if isinstance(out, Decision):
        return out.to_json()
    if isinstance(out, LabeledGraph):
        return graph_to_json(out)
    if isinstance(out, codes.DegreeResult):
        return [out.degree, out.word, out.index, out.fiber_edges]
    return out


_MEMO_CHECKS = (
    ("is_finite_to_one", is_finite_to_one),
    ("degree", degree),
    ("is_sft(image)", lambda code: is_sft(image_presentation(code))),
    ("entropy", lambda code: sh.entropy(code.domain)),
    ("fischer_cover(domain)", lambda code: fischer_cover(code.domain)),
    ("fischer_cover(image)",
     lambda code: fischer_cover(image_presentation(code))),
    ("is_irreducible_shift(image)",
     lambda code: sh.is_irreducible_shift(image_presentation(code))),
    ("is_bi_closing", is_bi_closing),
)


def test_memo_hits_replay_what_a_fresh_build_spends(monkeypatch):
    """On the code fixtures and 40 seeded cover codes, every budget from
    1 to 100 gives each check the same outcome on a code whose memos a
    default budget filled as on a freshly built one. Past the first
    budget where a fresh build does not run out, nothing can change, so
    the sweep over budgets stops there."""
    rng = random.Random(21)
    builders = list(fixtures.COVERS.values())
    for _ in range(40):
        g = gen_labeled_graph(rng, 5, 3)
        builders.append(lambda g=g: cover_code(LabeledGraph.make(
            g.alphabet, g.vertices, g.edges)))
    compared = exhausted = 0
    for build in builders:
        warm = build()
        for _, check in _MEMO_CHECKS:
            _outcome(check, warm)
        for name, check in _MEMO_CHECKS:
            for limit in range(1, 101):
                monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", str(limit))
                cold = _outcome(check, build())
                assert _outcome(check, warm) == cold, (name, limit)
                compared += 1
                if "exceeded in" not in str(cold):
                    break
                exhausted += 1
            monkeypatch.delenv("SHIFTLAB_STATE_BUDGET")
    assert exhausted > 300 and compared > exhausted


def _lift_outcome(code):
    try:
        lifted = lift_code(code, code.domain, image_presentation(code))
    except ReducibleShift as exc:
        return f"ReducibleShift: {exc}"
    return None if lifted is None else code_to_json(lifted,
                                                    embed_domain=True)


def test_degree_and_lift_on_memoized_covers_match_fresh_codes():
    """degree and lift_code read both Fischer covers from the memo once a
    code has been decided; their results equal those of a fresh copy of
    the code, with no memo filled."""
    checks = ((lambda code: _outcome(degree, code)), _lift_outcome)
    lifted = 0
    for code in _small_codes(60):
        for check in checks:
            check(code)
        for check in checks:
            assert check(code) == check(_fresh(code))
        lifted += isinstance(_lift_outcome(code), dict)
    assert 30 < lifted < 60


def test_malformed_budget_is_a_parse_error_on_a_memo_hit(monkeypatch):
    code = fixtures.even_cover()
    assert is_finite_to_one(code).is_proved
    d = gr.determinize(code.domain.presentation)
    assert gr.determinize(code.domain.presentation) is d
    monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", "lots")
    for check in (lambda: gr.determinize(code.domain.presentation),
                  lambda: sh.entropy(code.domain),
                  lambda: is_finite_to_one(code)):
        with pytest.raises(ParseError, match="SHIFTLAB_STATE_BUDGET: not a nonnegative"):
            check()


def test_memoized_machinery_is_freed_by_reference_counting():
    """No memo makes a reference cycle: with the cycle collector off, a
    code, its presentations and the graphs memoized on them die as soon
    as the last outside reference goes. Determinizing a graph with no
    cycle returns its empty trim and leaves nothing on either graph. The
    Fischer cover of the image, and the ReducibleShift reason of the
    reducible domain, are memoized on the determinized presentations."""
    gc.disable()
    try:
        code = cover_code(gen_labeled_graph(random.Random(21), 5, 3))
        for _, check in _MEMO_CHECKS:
            _outcome(check, code)
        check_right_continuing_retract(code, 1, "bi")
        presentation = code.domain.presentation
        image = image_presentation(code).presentation
        cover = fischer_cover(image_presentation(code))
        assert "finite-to-one" in code.memo
        assert "determinized" in presentation.memo
        assert gr.determinize(image).memo["fischer cover"][0] is cover
        reason, _ = gr.determinize(presentation).memo["fischer cover"]
        assert reason == "no strongly connected piece presents the shift"
        assert "fischer cover" not in presentation.memo
        refs = [weakref.ref(x) for x in (
            code, presentation, image, gr.determinize(presentation),
            gr.determinize(image), code.reversal, cover)]
        del code, presentation, image, cover
        assert [ref() for ref in refs] == [None] * len(refs)

        g = LabeledGraph.make(["0"], ["a", "b"], [("e", "a", "b", "0")])
        t = gr.determinize(g)
        assert t.n == 0 and t is gr.trim(g)
        assert "determinized" not in g.memo
        assert "determinized" not in t.memo
        ref = weakref.ref(g)
        del g, t
        assert ref() is None
    finally:
        gc.enable()


def test_periodic_preimage_counts():
    g = fixtures.even_graph()
    assert count_preimages_of_periodic(g, ("0",)) == 2
    assert count_preimages_of_periodic(g, ("1",)) == 1
    assert count_preimages_of_periodic(g, ("0", "0")) == 2


def _least_infinite_fiber_period(g, max_period):
    """The least period p <= max_period of a periodic point with
    infinitely many preimages under g's cover code, or None."""
    labels = sorted({e.label for e in g.edges})
    for p in range(1, max_period + 1):
        for block in itertools.product(labels, repeat=p):
            try:
                if count_preimages_of_periodic(g, block) == float("inf"):
                    return p
            except PeriodicPointNotInShift:
                pass
    return None


def test_finite_to_one_matches_periodic_fibers():
    """is_finite_to_one against an engine it does not use: the periodic
    phase graph behind count_preimages_of_periodic. A finite-to-one code
    has only finite fibers, so a Proved code has no periodic point of
    period <= 4 with an infinite fiber. A code that is not finite-to-one
    has some point with an infinite fiber, but no period bound for it is
    proved: on this fixed seed every Refuted code has one at period <= 3,
    a bound found empirically."""
    rng = random.Random(11)
    periods = Counter()
    for _ in range(300):
        g = gen_labeled_graph(rng, 5, 3, accept=gr.is_irreducible)
        dec = is_finite_to_one(cover_code(g))
        period = _least_infinite_fiber_period(g, 4)
        if dec.is_proved:
            assert period is None, graph_to_json(g)
        else:
            assert dec.is_refuted and period is not None and period <= 3, \
                graph_to_json(g)
        periods[dec.verdict, period] += 1
    assert periods == {("Proved", None): 140, ("Refuted", 1): 146,
                       ("Refuted", 2): 9, ("Refuted", 3): 5}


def test_open_matches_constant_periodic_fibers():
    """check_open against periodic fibers, on the finite-to-one codes of
    test_finite_to_one_matches_periodic_fibers. Every primitive periodic
    point of period <= 3 has at least degree d preimages; an open code
    (Proved) has exactly d for each, and a code refuted open has one with
    more than d, at period <= 2 on this seed. That period bound is
    empirical, and open <=> constant-to-one stays a test-only oracle
    until its source is quoted. The pins key each code by its verdict
    and the least period with a count above d."""
    rng = random.Random(11)
    outcomes = Counter()
    for _ in range(300):
        g = gen_labeled_graph(rng, 5, 3, accept=gr.is_irreducible)
        code = cover_code(g)
        if not is_finite_to_one(code).is_proved:
            continue
        d = degree(code).degree
        dec, _ = check_open(code)
        labels = sorted({e.label for e in g.edges})
        above = None
        for p in range(1, 4):
            for block in itertools.product(labels, repeat=p):
                if any(block == block[:q] * (p // q)
                       for q in range(1, p) if p % q == 0):
                    continue  # not primitive
                try:
                    count = count_preimages_of_periodic(g, block)
                except PeriodicPointNotInShift:
                    continue
                assert count >= d, graph_to_json(g)
                if count > d and above is None:
                    above = p
        if dec.is_proved:
            assert above is None, graph_to_json(g)
        elif dec.is_refuted:
            assert above is not None and above <= 2, graph_to_json(g)
        outcomes[dec.verdict, above] += 1
    assert outcomes == {("Proved", None): 124, ("Refuted", 1): 13,
                        ("Refuted", 2): 1, ("Inconclusive", None): 2}


def test_fiber_product_diagonal():
    cover = fixtures.golden_cover()
    product = fiber_product(cover, cover)
    sigma = product.sigma
    # live pair symbols only: trimming must not leave dead alphabet
    assert set(sigma.alphabet) == {e.label for e in sigma.presentation.edges}
    assert is_surjective_onto(product.psi1, cover.domain)
    assert is_surjective_onto(product.psi2, cover.domain)
    # projections then original maps commute on the product
    left = compose(cover, product.psi1)
    right = compose(cover, product.psi2)
    assert code_equal(left, right)


def test_fiber_product_mixed_covers():
    product = fiber_product(fixtures.even_cover(), fixtures.golden_cover())
    assert not product.sigma.is_empty
    assert code_equal(compose(fixtures.even_cover(), product.psi1),
                      compose(fixtures.golden_cover(), product.psi2))


def test_lift_identity_to_covers():
    x = fixtures.golden_shift()
    f = identity_code(x)
    lifted = lift_code(f, x, x)
    assert lifted is not None
    with pytest.raises(InvariantViolation):
        lift_code(f, x, x, w_max=0)
    # the lift's codomain alphabet is the cover's edge set
    assert all(len(s) > 0 for s in lifted.codomain_alphabet)


# a cover code with more lift windows than Python's default recursion
# limit; no window up to w_max = 6 lifts
DEEP_LIFT_GRAPH = {
    "alphabet": ["0", "1", "2"],
    "vertices": ["v0", "v1", "v2"],
    "edges": [
        {"id": "e0", "src": "v0", "dst": "v0", "label": "2"},
        {"id": "e1", "src": "v2", "dst": "v0", "label": "2"},
        {"id": "e2", "src": "v0", "dst": "v1", "label": "2"},
        {"id": "e3", "src": "v0", "dst": "v1", "label": "0"},
        {"id": "e4", "src": "v0", "dst": "v2", "label": "2"},
        {"id": "e5", "src": "v1", "dst": "v0", "label": "0"},
        {"id": "e6", "src": "v1", "dst": "v0", "label": "1"},
        {"id": "e8", "src": "v2", "dst": "v1", "label": "1"},
    ],
}


def test_lift_search_deeper_than_the_recursion_limit():
    code = cover_code(graph_from_json(DEEP_LIFT_GRAPH))
    lifted = lift_code(code, code.domain, image_presentation(code),
                       budget=Budget(150_000, "lift"))
    assert lifted is None


# small-decisions pool unit small#38: a cover code whose lift at memory 4
# a backtracking window search does not find within Budget(150_000)
LONG_LIFT_GRAPH = {
    "alphabet": ["0", "1"],
    "vertices": ["v1", "v2", "v3", "v4"],
    "edges": [
        {"id": "e0", "src": "v3", "dst": "v2", "label": "1"},
        {"id": "e1", "src": "v1", "dst": "v3", "label": "1"},
        {"id": "e2", "src": "v4", "dst": "v1", "label": "1"},
        {"id": "e3", "src": "v3", "dst": "v2", "label": "0"},
        {"id": "e4", "src": "v1", "dst": "v4", "label": "1"},
        {"id": "e5", "src": "v2", "dst": "v1", "label": "1"},
    ],
}


def test_lift_at_memory_four_within_budget():
    code = cover_code(graph_from_json(LONG_LIFT_GRAPH))
    lifted = lift_code(code, code.domain, image_presentation(code),
                       budget=Budget(150_000, "lift"))
    assert lifted is not None
    assert (lifted.memory, lifted.anticipation) == (4, 0)


def _brute_force_lift(f, g1, g2, mem, ant):
    """The least lift table in (window name, edge id) order by trying
    every assignment: window paths of g1, each mapped to an edge of g2
    with its target label, such that a window's edge ends where the edge
    of every other window beginning with its last w - 1 edges starts."""
    w = mem + ant + 1
    paths = [(e,) for e in g1.edges]
    for _ in range(w - 1):
        paths = [p + (q,) for p in paths for q in g1.out[p[-1].dst]]
    paths.sort(key=lambda p: "~".join(e.id for e in p))
    lo = mem - f.memory
    domains = []
    for p in paths:
        target = f.table[tuple(e.label for e in p)[lo:lo + f.window]]
        domains.append(sorted(e.id for e in g2.edges if e.label == target))
    pairs = [(a, b) for a, p in enumerate(paths)
             for b, q in enumerate(paths) if a != b and q[:-1] == p[1:]]
    e2 = g2.by_id
    for choice in itertools.product(*domains):
        if all(e2[choice[a]].dst == e2[choice[b]].src for a, b in pairs):
            return {tuple(e.id for e in p): v for p, v in zip(paths, choice)}
    return None


def _two_copies(g, rng):
    """A right-resolving graph with two copies of g's vertices: each edge
    of g leaves both copies of its source and enters a random copy of its
    target, so that a code can have several lifts into it."""
    return LabeledGraph.make(
        g.alphabet, [v + c for c in "ab" for v in g.vertices],
        [Edge(e.id + c, e.src + c, e.dst + rng.choice("ab"), e.label)
         for c in "ab" for e in g.edges])


def test_lift_search_matches_brute_force():
    # sources of at most 3 vertices and 4 edges keep the product small;
    # targets are the image cover and a two-copy graph over it
    rng = random.Random(7)
    checked = found = 0
    while checked < 200:
        g = gen_labeled_graph(rng, 3, 3, accept=gr.is_irreducible)
        if rng.randrange(2):
            f = cover_code(g)
        else:
            x = SoficShift.from_graph(g)
            outs = [str(i) for i in range(rng.randint(1, 2))]
            table = {w: rng.choice(outs) for w in x.language(1)}
            f = SlidingBlockCode.make(x, 0, 0, table)
        g1 = fischer_cover(f.domain)
        cover2 = fischer_cover(image_presentation(f))
        if g1.n > 3 or cover2.n > 3 or len(g1.edges) > 4:
            continue
        for g2 in (cover2, _two_copies(cover2, rng)):
            for w in (1, 2):
                windows = _windows(g1, w, Budget(10**6))
                for mem in range(w):
                    want = _brute_force_lift(f, g1, g2, mem, w - 1 - mem)
                    got = _lift_search(f, windows, g2, mem, Budget(10**6))
                    assert got == want, (g.edges, g2.edges, w, mem)
                    checked += 1
                    found += want is not None
    assert 0 < found < checked


def _reference_degree(code):
    """degree as a search over sets of (start vertex, marked edge, end
    vertex) triples, encoded as integers; returns the DegreeResult fields
    and the states spent."""
    if codes._finite_to_one(code).is_refuted:
        raise NotFiniteToOne("degree needs a finite-to-one code")
    g = codes.arrow_graph(code, fischer_cover(code.domain)).graph
    vx = g.vindex
    eix = {e.id: k for k, e in enumerate(g.edges)}
    n, m = g.n, len(g.edges)

    def encode(si, ek, ti):
        return (si * m + ek) * n + ti

    by_label_out = {}
    by_label_in = {}
    for e in g.edges:
        by_label_out.setdefault((e.label, e.src), []).append(e)
        by_label_in.setdefault((e.label, e.dst), []).append(e)

    def middles(rel):
        return {t // n % m for t in rel}

    seeds = {}
    for s in g.symbols:
        rel = frozenset(encode(vx[e.src], eix[e.id], vx[e.dst])
                        for e in g.edges if e.label == s)
        if rel:
            seeds.setdefault(rel, s)

    def extensions(rel):
        out = []
        for s in g.symbols:
            right, left = set(), set()
            for t in rel:
                ti, ek, si = t % n, t // n % m, t // n // m
                for e in by_label_out.get((s, g.vertices[ti]), ()):
                    right.add(encode(si, ek, vx[e.dst]))
                for e in by_label_in.get((s, g.vertices[si]), ()):
                    left.add(encode(vx[e.src], ek, ti))
            for rel2, side in ((right, 0), (left, 1)):
                if rel2:
                    out.append((frozenset(rel2), (s, side)))
        return out

    best = []

    def is_least_possible(rel):
        size = len(middles(rel))
        if not best or size < best[0]:
            best[:] = [size, rel]
        return size == 1

    budget = Budget(where="degree")
    parent, _ = codes.bfs_tree(seeds, extensions, budget, is_least_possible)
    size, rel = best
    seed, steps = codes.tree_path(parent, rel)
    word, idx = (seeds[seed],), 0
    for s, side in steps:
        word = (s,) + word if side else word + (s,)
        idx += side
    fiber = tuple(sorted(g.edges[k].id for k in middles(rel)))
    return (size, word, idx, fiber), budget.used


def _degree_pool():
    """The code fixtures and 300 seeded codes on small graphs: cover
    codes, cover codes of right-resolving graphs (finite-to-one) and
    codes with a two-symbol window."""
    rng = random.Random(17)
    pool = [fixtures.even_cover(), fixtures.golden_cover(),
            fixtures.phase_doubling_code(), fixtures.fig1_code(),
            fixtures.right_closing_counterexample_code()]
    for i in range(300):
        if i % 3 == 0:
            pool.append(cover_code(gen_labeled_graph(rng, 5, 3)))
        elif i % 3 == 1:
            pool.append(cover_code(gen_right_resolving_graph(rng, 5, 3)))
        else:
            x = SoficShift.from_graph(gen_labeled_graph(rng, 4, 2))
            pool.append(SlidingBlockCode.make(
                x, 1, 0, {w: rng.choice("ab") for w in x.language(2)}))
    return pool


def test_degree_matches_the_triple_relation_search(monkeypatch):
    spent = []

    class Recording(Budget):
        def __init__(self, limit=None, where="search"):
            super().__init__(limit, where)
            if where == "degree":
                spent.append(self)

    monkeypatch.setattr(codes, "Budget", Recording)
    decided = 0
    for code in _degree_pool():
        try:
            want, want_used = _reference_degree(code)
        except (NotFiniteToOne, ReducibleShift) as exc:
            with pytest.raises(type(exc)):
                degree(code)
            continue
        spent.clear()
        res = degree(code)
        assert (res.degree, res.word, res.index, res.fiber_edges) == want
        assert [b.used for b in spent] == [want_used]
        decided += 1
    assert decided > 150


def _reference_follower_merge(g):
    """The follower merge on dicts: label sets first, then successor
    blocks, renumbered in sorted key order each round."""
    sig0 = {v: tuple(sorted({e.label for e in g.out[v]})) for v in g.vertices}
    blocks = {}
    for v in g.vertices:
        blocks.setdefault(sig0[v], []).append(v)
    block_of = {v: i for i, key in enumerate(sorted(blocks))
                for v in blocks[key]}
    step = {v: {e.label: e.dst for e in g.out[v]} for v in g.vertices}
    while True:
        regroup = {}
        for v in g.vertices:
            sig = tuple(sorted((s, block_of[w]) for s, w in step[v].items()))
            regroup.setdefault((block_of[v], sig), []).append(v)
        if len(regroup) == len(set(block_of.values())):
            break
        block_of = {v: i for i, key in enumerate(sorted(regroup))
                    for v in regroup[key]}
    reps = {}
    for v in g.vertices:
        reps.setdefault(block_of[v], v)
    edges = [Edge(f"{reps[b]}>{e.label}", reps[b], reps[block_of[e.dst]],
                  e.label)
             for b in sorted(reps)
             for e in sorted(g.out[reps[b]], key=lambda e: e.label)]
    return LabeledGraph.make(g.symbols, [reps[b] for b in sorted(reps)],
                             edges)


def test_fischer_cover_matches_the_dict_follower_merge(monkeypatch):
    graphs = []
    for code in _degree_pool():
        graphs += [code.domain.presentation,
                   image_presentation(code).presentation]

    def covers():
        # fresh shifts each time, so no memoized cover carries over
        out = []
        for g in graphs:
            x = SoficShift.from_graph(
                LabeledGraph.make(g.alphabet, g.vertices, g.edges))
            try:
                out.append(graph_to_json(fischer_cover(x)))
            except ReducibleShift:
                out.append(None)
        return out

    got = covers()
    monkeypatch.setattr(sh, "_follower_merge", _reference_follower_merge)
    assert got == covers()
    assert sum(c is not None for c in got) > 300
