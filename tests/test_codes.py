import random

import pytest

from shiftlab import fixtures
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
)
from shiftlab.errors import DomainMismatch, NotFiniteToOne
from shiftlab.io import graph_from_json
from shiftlab.properties import gen_labeled_graph
from shiftlab.shifts import SoficShift, full_shift, shift_equal


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


def test_periodic_preimage_counts():
    g = fixtures.even_graph()
    assert count_preimages_of_periodic(g, ("0",)) == 2
    assert count_preimages_of_periodic(g, ("1",)) == 1
    assert count_preimages_of_periodic(g, ("0", "0")) == 2


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
    # the lift's codomain alphabet is the cover's edge set
    assert all(len(s) > 0 for s in lifted.codomain_alphabet)


# a cover code whose lift search has more path variables than Python's
# default recursion limit
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
