import random

import pytest

from shiftlab import fixtures
from shiftlab.automata import Budget
from shiftlab.codes import SlidingBlockCode, cover_code, image_presentation
from shiftlab.decision import inconclusive, refuted
from shiftlab.errors import InvariantViolation
from shiftlab.io import graph_from_json
from shiftlab.openness import (
    RetractDecision,
    SweepSpace,
    _uniform_open_bound,
    check_open,
    check_right_continuing_retract,
    check_semi_open,
    interior_nonempty,
    witness_from_magic,
)
from shiftlab.pointed import (
    CenteredWord,
    contains_cylinder,
    contains_periodic_point,
    cylinder_image,
    window_language,
)
from shiftlab.properties import gen_labeled_graph
from shiftlab.shifts import SoficShift


def test_fig1_semi_open_refuted_on_the_isolated_loop():
    dec, _ = check_semi_open(fixtures.fig1_code())
    assert dec.is_refuted
    assert dec.payload["zone"] == ["2"]
    assert dec.payload["level"] == 0


def test_fig1_image_of_the_loop_cylinder_is_one_point():
    code = fixtures.fig1_code()
    a = cylinder_image(code, ("2",))
    assert contains_periodic_point(a, ("0",))
    assert not contains_periodic_point(a, ("1",))
    assert not contains_periodic_point(a, ("0", "1"))
    # every window of the denotation is forced to zeros: the image of
    # the cylinder is exactly the fixed all-zero point
    for k in (1, 2, 3):
        assert window_language(a, k) == [("0",) * (2 * k + 1)]


def test_fig1_refutation_reverifies_through_interior():
    code = fixtures.fig1_code()
    space = SweepSpace(code)
    dec = interior_nonempty(space, CenteredWord.central(("2",)), 12)
    assert dec.is_refuted


def test_even_cover_semi_open_table():
    dec, table = check_semi_open(fixtures.even_cover())
    assert dec.is_proved
    # k grows one per level: witnesses live just past the zone edge
    assert table.entries == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert table.uniform == 1
    assert table.saturated and table.saturation_level == 3


def test_golden_cover_semi_open_table():
    dec, table = check_semi_open(fixtures.golden_cover())
    assert dec.is_proved
    assert table.entries == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert table.uniform == 1
    assert table.saturated


def test_proved_witnesses_reverify_by_containment():
    for code in (fixtures.even_cover(), fixtures.golden_cover()):
        dec, table = check_semi_open(code)
        assert dec.is_proved
        y = image_presentation(code)
        for zone_text, info in table.witnesses.items():
            zone = CenteredWord.central(tuple(zone_text.split(",")))
            target = CenteredWord(tuple(info["cylinder"]["word"]),
                                  info["cylinder"]["center"])
            assert contains_cylinder(cylinder_image(code, zone), y, target)


def test_open_fixture_verdicts():
    refutation, _ = check_open(fixtures.even_cover(), l_max=4, k_max=6)
    assert refutation.is_refuted
    assert refutation.payload["zone"]["word"] == ["f2"]
    assert refutation.payload["direction"] == "right"
    proof, table = check_open(fixtures.golden_cover(), l_max=4, k_max=6)
    assert proof.is_proved
    assert table.uniform == 1


def test_open_proved_implies_semi_open_proved():
    for code in (fixtures.golden_cover(), fixtures.even_cover()):
        open_dec, _ = check_open(code, l_max=4, k_max=6)
        semi_dec, _ = check_semi_open(code)
        if open_dec.is_proved:
            assert semi_dec.is_proved


def test_retract_decisions_even_cover():
    for n in range(4):
        rd = check_right_continuing_retract(fixtures.even_cover(), n)
        assert isinstance(rd, RetractDecision)
        assert (rd.side, rd.retract) == ("right", n)
        assert rd.is_refuted


def test_retract_monotone_golden_cover():
    code = fixtures.golden_cover()
    proved_at = {}
    for side, bound in (("right", 0), ("left", 1), ("bi", 1)):
        for n in range(3):
            rd = check_right_continuing_retract(code, n, side)
            if n < bound:
                assert rd.is_refuted
            else:
                assert rd.is_proved
            # Proved persists once reached: the monotonicity contract
            if proved_at.get(side) is not None:
                assert rd.is_proved
            if rd.is_proved and proved_at.get(side) is None:
                proved_at[side] = n
    assert proved_at == {"right": 0, "left": 1, "bi": 1}


def test_retract_rejects_negative():
    with pytest.raises(InvariantViolation):
        check_right_continuing_retract(fixtures.golden_cover(), -1)


def test_retract_decision_json_shape():
    rd = check_right_continuing_retract(fixtures.golden_cover(), 1, "bi")
    obj = rd.to_json()
    assert set(obj) == {"side", "retract", "verdict"}
    assert obj["side"] == "bi" and obj["retract"] == 1
    assert obj["verdict"]["verdict"] == "Proved"


def test_witness_from_magic_frozen_values():
    even = fixtures.even_graph()
    w1 = witness_from_magic(even, ("1",), ["f1"])
    assert (w1.word, w1.center) == (("1", "1", "1"), 1)
    w2 = witness_from_magic(even, ("1",), ["f2"])
    assert (w2.word, w2.center) == (("1", "0", "0", "1"), 1)
    golden = fixtures.golden_graph()
    w3 = witness_from_magic(golden, ("0",), ["e2", "e3"])
    assert (w3.word, w3.center) == (("0", "1", "0", "0"), 1)


def test_witness_from_magic_reverifies():
    from shiftlab.codes import cover_code
    from shiftlab.shifts import SoficShift

    g = fixtures.even_graph()
    code = cover_code(g)
    y = SoficShift.from_graph(g)
    for path in (["f1"], ["f2"], ["f2", "f3"], ["f1", "f2", "f3"]):
        witness = witness_from_magic(g, ("1",), path)
        zone = CenteredWord(tuple(path), (len(path) - 1) // 2)
        assert contains_cylinder(cylinder_image(code, zone), y, witness)


def test_budget_exhaustion_is_inconclusive():
    dec, table = check_semi_open(fixtures.even_cover(),
                                 budget=Budget(2, "test"))
    assert dec.is_inconclusive
    assert dec.payload["reason"] == "budget"


def test_retract_budget_exhaustion_is_inconclusive(monkeypatch):
    monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", "2")
    rd = check_right_continuing_retract(fixtures.golden_cover(), 1, "bi")
    assert rd.is_inconclusive
    for side in ("right", "left"):
        assert rd.verdict.payload[side]["payload"]["reason"] == "budget"


# -- the profile sweep against a per-word reference sweep ---------------------


def _image(table, mask):
    out = 0
    for i in range(len(table)):
        if mask >> i & 1:
            out |= table[i]
    return out


def _then(t1, t2):
    return tuple(_image(t2, m) for m in t1)


def _zone_words(space, length):
    """Every admissible zone word of the given length, lexicographically."""
    level = [((), space.full)]
    for _ in range(length):
        level = [(w + (xi,), _image(space.xt[xi], m))
                 for w, m in level for xi in space.xsymbols
                 if _image(space.xt[xi], m)]
    return [w for w, _ in level]


def _word_profile(space, word):
    """Joint (image, zone-thread) transfer tables over all image words of
    the zone's length, plus the zone-only admissibility table."""
    ident = tuple(1 << i for i in range(space.g.n))
    pairs = {(ident, ident)}
    xt = ident
    for xi in word:
        pairs = {(_then(tu, space.ut[s]),
                  _then(ts, space.zt.get((s, xi), space._zero)))
                 for tu, ts in pairs for s in space.symbols}
        xt = _then(xt, space.xt[xi])
    return frozenset(pairs), xt


def _per_word_sweep(space, l_max, verdict):
    """The sweep one zone word at a time. verdict(level, word, profile)
    runs on every admissible word and returns (a witness entry or a
    Decision that ends the sweep, the word's summary that profile-equal
    words must share). Returns (decision, entries, witnesses, saturation
    level, per-word (level, word, profile, entry, summary) in visiting
    order)."""
    entries, witnesses, seen, visited = [], {}, set(), []
    for level in range(l_max + 1):
        level_profiles = set()
        k_level = 0
        for word in _zone_words(space, 2 * level + 1):
            prof = _word_profile(space, word)
            level_profiles.add(prof)
            got, summary = verdict(level, word, prof)
            visited.append((level, word, prof, got, summary))
            if not isinstance(got, dict):
                return got, entries, witnesses, None, visited
            witnesses[",".join(word)] = got
            k_level = max(k_level, got["k"])
        entries.append((level, k_level))
        if level > 0 and level_profiles <= seen:
            return None, entries, witnesses, level, visited
        seen |= level_profiles
    return None, entries, witnesses, None, visited


def _small_codes(count, seed=3):
    """Seeded cover and one-block codes on graphs of at most 4 vertices,
    reducible domains included. At the default seed every outcome of
    both sweeps occurs among 60 codes."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        g = gen_labeled_graph(rng, 4, 3)
        if i % 2 == 0:
            out.append(cover_code(g))
            continue
        images = [str(j) for j in range(rng.randint(1, 3))]
        table = {(s,): rng.choice(images)
                 for s in sorted({e.label for e in g.edges})}
        out.append(SlidingBlockCode.make(SoficShift.from_graph(g), 0, 0,
                                         table))
    return out


def _assert_sweeps_agree(dec, table, reference):
    stop, entries, witnesses, saturation_level, visited = reference
    if stop is not None:
        assert dec.to_json() == stop.to_json()
    elif saturation_level is not None:
        assert dec.is_proved
    else:
        assert dec.payload["reason"] == "level profiles did not saturate"
    assert table.entries == tuple(entries)
    assert table.saturated == (saturation_level is not None)
    assert table.saturation_level == saturation_level
    if stop is None:
        assert table.uniform == max(k - l for l, k in entries)
    # one witness entry per level profile, on its least word, equal to
    # that word's entry in the per-word sweep
    least = {}
    for level, word, prof, got, _ in visited:
        least.setdefault((level, prof), (word, got))
    kept = {",".join(w): got for w, got in least.values()
            if isinstance(got, dict)}
    assert table.witnesses == kept
    for key, entry in table.witnesses.items():
        assert entry == witnesses[key]
    # every word's verdict is its profile's verdict, at every level
    shared = {}
    for _, word, prof, _, summary in visited:
        assert shared.setdefault(prof, summary) == summary, word


def test_semi_open_profile_sweep_matches_per_word_sweep():
    verdicts = set()
    for code in _small_codes(60):
        space = SweepSpace(code)

        def verdict(level, word, prof):
            dec = interior_nonempty(space, CenteredWord.central(word), 12)
            if dec.is_refuted:
                return refuted({"zone": list(word), "level": level,
                                "interior": dec.payload}), dec.verdict
            entry = {key: dec.payload[key]
                     for key in ("k", "cylinder", "beyond_k_max")}
            # the witness offset k - l is shared too
            return entry, (dec.verdict, entry["k"] - level)

        dec, table = check_semi_open(code, l_max=2)
        _assert_sweeps_agree(dec, table, _per_word_sweep(space, 2, verdict))
        verdicts.add(dec.verdict)
    assert verdicts == {"Proved", "Refuted", "Inconclusive"}


def test_open_profile_sweep_matches_per_word_sweep():
    outcomes = set()
    for code in _small_codes(60):
        dec, table = check_open(code, l_max=2, k_max=4)
        if "direction" in dec.payload:
            continue  # refuted by a limit-escape pattern before any sweep
        outcomes.add((dec.verdict, dec.payload.get("reason")))
        space = SweepSpace(code)
        bounds = {}

        def verdict(level, word, prof):
            # whether a uniform window half-length within k_max exists is
            # shared by profile-equal words, but the least one is not: as
            # check_open does, the entry takes the profile's first bound
            k_word = _uniform_open_bound(code, space.image, word, 4, space)
            k_u = bounds.setdefault(prof, k_word)
            if k_u is None:
                return inconclusive({
                    "reason": "no uniform witness length within bound",
                    "zone": list(word), "k_max": 4}), k_word is None
            return {"k": k_u}, k_word is None

        _assert_sweeps_agree(dec, table, _per_word_sweep(space, 2, verdict))
    assert outcomes == {
        ("Proved", None),
        ("Inconclusive", "no uniform witness length within bound"),
        ("Inconclusive", "level profiles did not saturate"),
    }


def _per_window_bound(code, y, word, k_max):
    """The uniform bound one window at a time: the containment scan on
    every central window of the cylinder image, radius by radius."""
    au = cylinder_image(code, CenteredWord.central(word))
    for k in range(k_max + 1):
        if all(contains_cylinder(au, y, CenteredWord.central(win))
               for win in window_language(au, k)):
            return k
    return None


def test_uniform_bound_matches_per_window_reference():
    bounds = set()
    for code in _small_codes(60):
        space = SweepSpace(code, Budget(10**8))
        for level in range(3):
            for word in _zone_words(space, 2 * level + 1):
                got = _uniform_open_bound(code, space.image, word, 4, space)
                assert got == _per_window_bound(code, space.image, word, 4), \
                    word
                bounds.add(got)
    assert {None, 0, 1, 2, 3} <= bounds


# a two-vertex cover code whose window lists grow fast with the radius:
# listing the windows of every radius up to the default k_max takes minutes
STALLING_GRAPH = {
    "alphabet": ["0", "1", "2"],
    "vertices": ["v0", "v2"],
    "edges": [
        {"id": "e0", "src": "v2", "dst": "v0", "label": "2"},
        {"id": "e1", "src": "v0", "dst": "v2", "label": "2"},
        {"id": "e3", "src": "v2", "dst": "v0", "label": "0"},
        {"id": "e4", "src": "v0", "dst": "v0", "label": "1"},
        {"id": "e5", "src": "v2", "dst": "v2", "label": "0"},
    ],
}


def test_stalling_cover_is_decided_within_the_budget():
    code = cover_code(graph_from_json(STALLING_GRAPH))
    dec, _ = check_open(code, budget=Budget(150_000))
    assert dec.to_json()["payload"] == {
        "reason": "no uniform witness length within bound",
        "zone": ["e0"], "k_max": 12}
    # the sweep spends about 250 states before the window scan, the scan
    # about 650 more
    dec, _ = check_open(code, budget=Budget(500))
    assert dec.is_inconclusive
    assert dec.payload["reason"] == "budget"
