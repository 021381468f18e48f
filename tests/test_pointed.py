"""Containment engine against a deliberately naive reimplementation.

The oracle below re-decides cylinder containment with plain frozensets
and per-window path lifting, sharing no code with the subset engine;
agreement over a large randomized corpus is the correctness argument
for both.
"""

import random

import pytest

from shiftlab import fixtures
from shiftlab.codes import SlidingBlockCode, image_presentation
from shiftlab.errors import InvariantViolation, WordNotAdmissible
from shiftlab.graph import accepts_word, words_of_length
from shiftlab.pointed import (
    CenteredWord,
    contains_cylinder,
    contains_periodic_point,
    cylinder_escape,
    cylinder_image,
    reads_window,
    window_language,
)
from shiftlab.properties import gen_labeled_graph
from shiftlab.shifts import SoficShift


def _oracle_contains(a, y, w):
    """Textbook three-phase subset scan over explicit tuples."""
    yg = y.presentation
    ag = a.graph
    marked = a.origins
    start = (frozenset(yg.vertices),
             frozenset((v, False) for v in ag.vertices))

    def step(pair, s, trigger):
        ys, threads = pair
        ys2 = frozenset(e.dst for v in ys for e in yg.out[v]
                        if e.label == s)
        if not ys2:
            return None
        threads2 = set()
        for v, bit in threads:
            for e in ag.out[v]:
                if e.label == s:
                    threads2.add((e.dst, bit or (trigger and e.id in marked)))
        return (ys2, frozenset(threads2))

    seen = {start}
    queue = [start]
    while queue:
        p = queue.pop()
        for s in yg.symbols:
            q = step(p, s, False)
            if q is not None and q not in seen:
                seen.add(q)
                queue.append(q)

    level = set(seen)
    for j, s in enumerate(w.word):
        level = {q for p in level
                 for q in (step(p, s, j == w.center),) if q is not None}
        if not level:
            return True  # no y-point carries w at this offset

    seen3 = set(level)
    queue = list(level)
    while queue:
        p = queue.pop()
        ys, threads = p
        if ys and not any(bit for _, bit in threads):
            return False
        for s in yg.symbols:
            q = step(p, s, False)
            if q is not None and q not in seen3:
                seen3.add(q)
                queue.append(q)
    return True


def _lifts(a, word, origin):
    """Direct check: some path of a.graph reads the word with a marked
    edge at the origin index. Plain DFS over edge tuples."""
    marked = a.origins
    stack = [(v, 0, False) for v in a.graph.vertices]
    while stack:
        v, j, hit = stack.pop()
        if j == len(word):
            if hit:
                return True
            continue
        for e in a.graph.out[v]:
            if e.label == word[j]:
                stack.append((e.dst, j + 1, hit or (j == origin
                                                    and e.id in marked)))
    return False


def _random_instance(rng):
    g = gen_labeled_graph(rng, 4, 3)
    used = sorted({e.label for e in g.edges})
    out_letters = [str(i) for i in range(rng.randint(1, 3))]
    table = {(s,): rng.choice(out_letters) for s in used}
    code = SlidingBlockCode.make(SoficShift.from_graph(g), 0, 0, table)
    u_len = rng.choice((1, 3, 5))
    u_words = words_of_length(g, u_len)
    u = CenteredWord.central(rng.choice(u_words))
    a = cylinder_image(code, u)
    y = image_presentation(code)
    w_len = rng.choice((1, 3, 5))
    w_words = words_of_length(y.presentation, w_len)
    w = CenteredWord.central(rng.choice(w_words))
    return a, y, w


def test_engine_agrees_with_oracle_on_500_instances():
    rng = random.Random(5)
    agreements = 0
    for _ in range(500):
        a, y, w = _random_instance(rng)
        assert contains_cylinder(a, y, w) == _oracle_contains(a, y, w)
        agreements += 1
    assert agreements == 500


def test_escape_witnesses_and_exhaustive_lifting():
    rng = random.Random(6)
    sigma_cache = {}
    for _ in range(60):
        a, y, w = _random_instance(rng)
        yg = y.presentation
        witness = cylinder_escape(a, y, w)
        if witness is None:
            # containment: every admissible extension must lift
            for m in range(3):
                for left in _all_words(yg.symbols, m, sigma_cache):
                    for right in _all_words(yg.symbols, m, sigma_cache):
                        v = left + tuple(w.word) + right
                        if not accepts_word(yg, v):
                            continue
                        assert _lifts(a, v, m + w.center)
        else:
            # the witness itself must be admissible, extend w, and fail
            assert accepts_word(yg, witness.word)
            offset = witness.center - w.center
            assert witness.word[offset:offset + len(w.word)] == tuple(w.word)
            assert not _lifts(a, witness.word, witness.center)


def _all_words(symbols, n, cache):
    key = (symbols, n)
    if key not in cache:
        words = [()]
        for _ in range(n):
            words = [w + (s,) for w in words for s in symbols]
        cache[key] = words
    return cache[key]


def test_centered_word_validation():
    with pytest.raises(WordNotAdmissible):
        CenteredWord((), 0)
    with pytest.raises(InvariantViolation):
        CenteredWord(("0",), 1)
    with pytest.raises(InvariantViolation):
        CenteredWord.central(("0", "1"))
    assert CenteredWord.central(("0", "1", "0")).center == 1


def test_cylinder_image_rejects_inadmissible_zone():
    with pytest.raises(WordNotAdmissible):
        cylinder_image(fixtures.golden_cover(), ("1", "1", "1"))


def test_even_cover_cylinder_facts():
    cover = fixtures.even_cover()
    y = fixtures.even_shift()
    # the image of [f2] (the A->B zero edge) forces an odd phase:
    # the all-zero point is the only one carrying every window
    a = cylinder_image(cover, CenteredWord.central(("f2",)))
    assert contains_periodic_point(a, ("0",))
    assert not contains_cylinder(a, y, CenteredWord.central(("1",)))


def test_window_language_matches_escape_verdicts():
    cover = fixtures.golden_cover()
    a = cylinder_image(cover, CenteredWord.central(("e1",)))
    y = fixtures.golden_shift()
    wins = window_language(a, 1)
    for word in words_of_length(y.presentation, 3):
        inside = contains_cylinder(a, y, CenteredWord.central(word))
        if inside:
            assert word in wins


def test_reads_window_matches_window_language():
    """A positioned word is read in a cylinder image exactly when it is
    one of the image's central windows: every word of length 1, 3 and 5
    over the image alphabet, on 60 random cylinder images."""
    rng = random.Random(7)
    cache = {}
    read = 0
    for _ in range(60):
        a, y, _ = _random_instance(rng)
        for k in range(3):
            windows = set(window_language(a, k))
            for word in _all_words(y.presentation.symbols, 2 * k + 1, cache):
                inside = reads_window(a, CenteredWord(word, k))
                assert inside == (word in windows)
                read += inside
    assert read > 200
