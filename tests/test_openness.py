import itertools
import random
from collections import Counter

import pytest

from shiftlab import fixtures, openness
from shiftlab import graph as gr
from shiftlab.automata import (Budget, apply_mask, bfs_closure, bfs_tree,
                               cycle_nodes, pair_moves, shortest_cycle,
                               tree_path)
from shiftlab.codes import (SlidingBlockCode, arrow_graph, cover_code,
                            image_presentation, is_bi_closing,
                            is_finite_to_one, reversed_code)
from shiftlab.decision import inconclusive, proved, refuted
from shiftlab.errors import InvariantViolation
from shiftlab.graph import (Edge, LabeledGraph, is_irreducible,
                            words_of_length)
from shiftlab.io import graph_from_json
from shiftlab.openness import (
    RetractDecision,
    SweepSpace,
    check_open,
    check_right_continuing_retract,
    check_semi_open,
    interior_nonempty,
    witness_from_magic,
)
from shiftlab.pointed import (
    CenteredWord,
    _thread_tables,
    contains_cylinder,
    contains_periodic_point,
    cylinder_escape,
    cylinder_image,
    window_language,
)
from shiftlab.properties import gen_labeled_graph
from shiftlab.shifts import SoficShift, is_sft


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
    zone = CenteredWord.central(("2",))
    dec = interior_nonempty(space, zone)
    assert dec.is_refuted
    esc = dec.payload["escape"]
    assert not contains_cylinder(cylinder_image(code, zone),
                                 image_presentation(code),
                                 CenteredWord(tuple(esc["word"]),
                                              esc["center"]))


def test_even_cover_semi_open_table():
    dec, table = check_semi_open(fixtures.even_cover())
    assert dec.is_proved
    # k grows one per level: witnesses live just past the zone edge
    assert table.entries == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert table.uniform == 1
    assert table.saturation_level == 3


def test_golden_cover_semi_open_table():
    dec, table = check_semi_open(fixtures.golden_cover())
    assert dec.is_proved
    assert table.entries == ((0, 1), (1, 2), (2, 3), (3, 4))
    assert table.uniform == 1
    assert table.saturation_level is not None


def test_proved_witnesses_reverify_by_containment():
    """Every witness of a Proved or budget-Inconclusive lifting table,
    revisited profiles at later levels included, spans a cylinder inside
    its zone's cylinder image; the escape window of a Refuted sweep does
    not."""
    outcomes, checked, escapes = set(), 0, 0
    for code in _with_fixtures(_small_codes(40, seed=6, vertices=3)):
        for budget in (Budget(10**6), Budget(400)):
            dec, table = check_semi_open(code, budget=budget)
            y = image_presentation(code)
            if dec.is_refuted:
                au = cylinder_image(code, CenteredWord.central(
                    tuple(dec.payload["zone"])))
                esc = dec.payload["interior"]["escape"]
                assert not contains_cylinder(au, y, CenteredWord(
                    tuple(esc["word"]), esc["center"]))
                escapes += 1
            reason = dec.payload.get("reason")
            outcomes.add((dec.verdict, reason))
            if not (dec.is_proved or reason == "budget"):
                continue
            for zone_text, info in table.witnesses.items():
                zone = CenteredWord.central(tuple(zone_text.split(",")))
                target = CenteredWord(tuple(info["cylinder"]["word"]),
                                      info["cylinder"]["center"])
                assert contains_cylinder(cylinder_image(code, zone), y,
                                         target), zone_text
                checked += 1
    assert {("Proved", None), ("Refuted", None),
            ("Inconclusive", "budget")} <= outcomes
    assert checked > 500 and escapes >= 6


def test_open_fixture_verdicts():
    refutation, _ = check_open(fixtures.even_cover(), l_max=4, k_max=6)
    assert refutation.is_refuted
    assert refutation.payload["zone"]["word"] == ["f2"]
    assert refutation.payload["direction"] == "right"
    proof, table = check_open(fixtures.golden_cover(), l_max=4, k_max=6)
    assert proof.is_proved
    assert table.uniform == 1


def test_open_proved_implies_semi_open_proved():
    """An open code maps every cylinder to an open set, which has
    nonempty interior, so an open code is semi-open: on 200 seeded codes
    of at most 5 vertices and the fixtures, no code is open-Proved while
    semi-open-Refuted."""
    pairs = Counter()
    for code in _with_fixtures(_small_codes(200, vertices=5)):
        open_dec, _ = check_open(code, l_max=4, k_max=6)
        semi_dec, _ = check_semi_open(code)
        pairs[open_dec.verdict, semi_dec.verdict] += 1
    assert pairs["Proved", "Refuted"] == 0
    assert pairs["Proved", "Proved"] > 150
    assert pairs["Refuted", "Refuted"] > 5


def test_open_agrees_with_bi_closing_on_sft_images():
    """An oracle that runs none of check_open's machinery: a finite-to-one
    factor code from an irreducible shift of finite type onto a shift of
    finite type is open exactly when it is constant-to-one, exactly when
    it is bi-closing (Lind and Marcus, An Introduction to Symbolic
    Dynamics and Coding, ch. 8; Jung, "Open maps between shift spaces",
    Ergodic Theory Dynam. Systems 29 (2009)). Where the domain graph is
    irreducible and is_sft of the domain, is_sft of the image and
    is_finite_to_one are all Proved, check_open and is_bi_closing never
    decide opposite verdicts. The image hypothesis is needed: the even
    cover's image is strictly sofic, and it is bi-closing but not open."""
    rng = random.Random(1)
    pairs = Counter()
    for i in range(400):
        g = gen_labeled_graph(rng, 6, 3, accept=is_irreducible)
        if i % 2 == 0:
            code = cover_code(g)
        else:
            images = [str(j) for j in range(rng.randint(1, 3))]
            code = SlidingBlockCode.make(
                SoficShift.from_graph(g), 0, 0,
                {(s,): rng.choice(images)
                 for s in sorted({e.label for e in g.edges})})
        if not (is_sft(code.domain).is_proved
                and is_sft(image_presentation(code)).is_proved
                and is_finite_to_one(code).is_proved):
            continue
        opened, _ = check_open(code)
        closing = is_bi_closing(code)
        pair = (opened.verdict, closing.verdict)
        assert pair not in {("Proved", "Refuted"), ("Refuted", "Proved")}, i
        pairs[pair] += 1
    assert pairs["Proved", "Proved"] > 200
    assert pairs["Refuted", "Refuted"] >= 1
    even = fixtures.even_cover()
    assert not is_sft(image_presentation(even)).is_proved
    assert check_open(even)[0].is_refuted and is_bi_closing(even).is_proved


def test_open_agrees_with_bi_continuing():
    """An oracle between two engines that share only the pair universe:
    check_open (the offset sweep) and the retract machine. An open code
    is right- and left-continuing with retract its uniform offset, and a
    code that is not open fails continuing on some side at every
    retract. On 200 seeded codes of at most 5 vertices, reducible domains
    included, and the fixtures: a Proved check_open has both sides
    Proved at retract uniform_offset, and a Refuted one is bi Refuted at
    retracts 0-8."""
    outcomes = Counter()
    for code in _with_fixtures(_small_codes(200, vertices=5)):
        dec, _ = check_open(code, budget=Budget(150_000))
        if dec.is_proved:
            n = dec.payload["uniform_offset"]
            for side in ("right", "left"):
                assert check_right_continuing_retract(code, n, side) \
                    .is_proved, (code, side, n)
        elif dec.is_refuted:
            for n in range(9):
                assert check_right_continuing_retract(code, n, "bi") \
                    .is_refuted, (code, n)
        outcomes[dec.verdict] += 1
    assert outcomes["Proved"] > 150
    assert outcomes["Refuted"] > 5


def test_sweeps_reject_negative_bounds():
    code = fixtures.golden_cover()
    for check in (check_semi_open, check_open):
        with pytest.raises(InvariantViolation):
            check(code, -1)
    with pytest.raises(InvariantViolation):
        check_open(code, k_max=-1)


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


def _fresh(code):
    """The same code rebuilt from scratch, so no memo carries over."""
    g = code.domain.presentation
    domain = SoficShift.from_graph(
        LabeledGraph.make(g.alphabet, g.vertices, g.edges))
    return SlidingBlockCode.make(domain, code.memory, code.anticipation,
                                 code.table, code.codomain_alphabet)


def _retract_cost(code):
    """The budget states the code's memoized retract analysis spent."""
    _, cost = code.memo["retract limits"]
    return cost


def test_retract_memo_hit_changes_nothing(monkeypatch):
    """A code asked again answers from its memoized limit sets exactly
    as a fresh code does: verdicts, payloads and, at budgets around the
    recorded analysis cost, the budget Inconclusive."""
    codes = [_undecided_retract_code()] + _small_codes(60, seed=5)
    verdicts = set()
    for code in codes:
        for side in ("right", "left", "bi"):
            for n in range(4):
                got = check_right_continuing_retract(code, n, side)
                want = check_right_continuing_retract(_fresh(code), n, side)
                assert got.to_json() == want.to_json()
                verdicts.add(got.verdict.verdict)
    assert verdicts == {"Proved", "Refuted", "Inconclusive"}
    outcomes = set()
    for code in codes[:20]:
        costs = {"right": [_retract_cost(code)],
                 "left": [_retract_cost(reversed_code(code))]}
        costs["bi"] = costs["right"] + costs["left"]
        for side, cs in costs.items():
            for limit in {max(c + d, 0) for c in cs for d in (-1, 0, 1)}:
                monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", str(limit))
                for n in range(4):
                    got = check_right_continuing_retract(code, n, side)
                    want = check_right_continuing_retract(_fresh(code), n,
                                                          side)
                    assert got.to_json() == want.to_json()
                    outcomes.add(got.verdict.payload.get("reason"))
    assert "budget" in outcomes and None in outcomes


def test_retract_budget_out_leaves_no_memo(monkeypatch):
    code = _fresh(fixtures.golden_cover())
    monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", "1")
    rd = check_right_continuing_retract(code, 1)
    assert rd.verdict.payload["reason"] == "budget"
    assert "retract limits" not in code.memo
    monkeypatch.delenv("SHIFTLAB_STATE_BUDGET")
    rd = check_right_continuing_retract(code, 1)
    assert rd.is_proved
    assert rd.to_json() == check_right_continuing_retract(
        fixtures.golden_cover(), 1).to_json()


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


def _fine_profile(space, word):
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


def _universe_action(index, joint):
    """A joint table's action on the pair universe, given as the index of
    its pairs: per pair (U, S), the bit of (tu U, ts S), or 0 where
    tu U = 0."""
    tu, ts = joint
    out = []
    for u, v in index:
        u2 = _image(tu, u)
        out.append(1 << index[u2, _image(ts, v)] if u2 else 0)
    return tuple(out)


def _coarse(space, fine):
    """A fine profile with each joint table mapped to its universe
    action."""
    index = {p: i for i, p in enumerate(space.pairs)}
    return (frozenset(_universe_action(index, t) for t in fine[0]),
            fine[1])


def _word_profile(space, word):
    return _coarse(space, _fine_profile(space, word))


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


def _small_codes(count, seed=3, vertices=4, alphabet=3):
    """Seeded cover and one-block codes on graphs of at most `vertices`
    vertices and `alphabet` symbols, reducible domains included. At the
    default seed every outcome of both sweeps occurs among 60 codes."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        g = gen_labeled_graph(rng, vertices, alphabet)
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
            dec = interior_nonempty(space, CenteredWord.central(word))
            if dec.is_refuted:
                return refuted({"zone": list(word), "level": level,
                                "interior": dec.payload}), dec.verdict
            entry = {key: dec.payload[key] for key in ("k", "cylinder")}
            # the witness offset k - l is shared too
            return entry, (dec.verdict, entry["k"] - level)

        dec, table = check_semi_open(code, l_max=2)
        _assert_sweeps_agree(dec, table, _per_word_sweep(space, 2, verdict))
        verdicts.add(dec.verdict)
    assert verdicts == {"Proved", "Refuted", "Inconclusive"}


def test_semi_open_witness_windows_wait_for_a_table_read(monkeypatch):
    calls = []  # the offset m of each window search
    search = openness._least_window

    def spy(space, u, m, goal, start=None):
        calls.append(m)
        return search(space, u, m, goal, start)
    monkeypatch.setattr(openness, "_least_window", spy)
    # a Refuted sweep searches its escape, at offset 0, and nothing else
    dec, table = check_semi_open(fixtures.fig1_code())
    assert dec.is_refuted and calls == [0]
    calls.clear()
    dec, table = check_semi_open(fixtures.golden_cover())
    assert dec.is_proved and calls == []
    # the first read searches one window per entry, the second none
    witnesses = table.witnesses
    assert len(calls) == len(witnesses) == 21
    assert table.witnesses is witnesses
    assert table.to_json()["witnesses"] == witnesses
    assert len(calls) == 21
    assert all("cylinder" in entry for entry in witnesses.values())


def test_stopped_sweep_tables_build_their_witnesses_afterwards():
    """A table returned with a Refuted or out-of-budget decision builds
    its witness cylinders after the sweep has stopped, at a budget spent
    past its limit, and they are the eager per-word reference's."""
    stopped = Counter()
    for code in _small_codes(60):
        full = Budget(10**9)
        check_semi_open(code, l_max=2, budget=full)
        # half the spend stops the sweep; the whole of it lets a Refuted
        # sweep reach its refutation
        tables = []
        for limit in (full.used // 2, full.used):
            budget = Budget(limit)
            dec, table = check_semi_open(code, l_max=2, budget=budget)
            reason = dec.payload.get("reason", dec.verdict)
            if reason in ("budget", "Refuted") and table.found:
                tables.append(table)
                stopped[reason] += 1
            if reason == "budget":
                assert budget.used > budget.limit
        if not tables:
            continue
        space = SweepSpace(code)

        def verdict(level, word, prof):
            got = interior_nonempty(space, CenteredWord.central(word))
            if got.is_refuted:
                return got, None
            return {key: got.payload[key] for key in ("k", "cylinder")}, None

        levels = max(min(len(t.entries), 2) for t in tables)
        witnesses = _per_word_sweep(space, levels, verdict)[2]
        for table in tables:
            assert table.witnesses
            for key, entry in table.witnesses.items():
                assert entry == witnesses[key]
    assert stopped.keys() == {"budget", "Refuted"}
    assert stopped["budget"] >= 40


def test_open_profile_sweep_matches_per_word_sweep():
    outcomes = set()
    for code in _small_codes(60):
        dec, table = check_open(code, l_max=2, k_max=4)
        outcomes.add((dec.verdict, dec.payload.get("reason")))
        space = SweepSpace(code)
        y = image_presentation(code)

        def verdict(level, word, prof):
            # each word's own least bound b, sought up to k_max beyond
            # the zone's half-width; the offset max(b - c, 0) is shared
            # by profile-equal words
            b = _uniform_bound(code, y, word, level + 4)
            if b is None:
                return inconclusive({
                    "reason": "no uniform witness length within bound",
                    "zone": list(word), "k_max": 4}), None
            offset = max(b - level, 0)
            return {"k": level + offset}, offset

        reference = _per_word_sweep(space, 2, verdict)
        if dec.is_refuted:
            # an infinite offset: the reference finds no bound either,
            # first on the same zone word
            assert reference[0].payload["zone"] == dec.payload["zone"]["word"]
            dec = reference[0]
        _assert_sweeps_agree(dec, table, reference)
    assert outcomes == {
        ("Proved", None),
        ("Refuted", None),
        ("Inconclusive", "no uniform witness length within bound"),
        ("Inconclusive", "level profiles did not saturate"),
    }


def test_smaller_budget_only_truncates(monkeypatch):
    """Below the budget an unbounded run uses, both sweep checks stop
    Inconclusive "budget" with a truncated table: its entries a prefix
    of the unbounded table's, its witnesses a subset. At that budget they
    return the unbounded decision and table. The limits step through
    every phase that spends: the pair universe and the level sweep, then,
    for check_open codes the sweep does not prove, the limit-escape
    search on the code, the reversed code's pair universe and its
    search. Every code of the seed-4 corpus the sweep does not prove is
    refuted on the right side, so the corpus adds a code refuted only on
    the left side, which reaches the reversed code's phases."""
    running = []
    exits = set()

    def tracked(fn):
        calls = itertools.count()

        def run(*args):
            running.append(f"{fn.__name__} {next(calls)}")
            out = fn(*args)
            running.pop()
            return out
        return run
    for code in _with_fixtures(_small_codes(8, seed=4, vertices=3)):
        for check in (check_semi_open, check_open):
            budget = Budget(10**9)
            dec, table = check(code, budget=budget)
            used = budget.used
            for limit in sorted({*range(min(used, 120)),
                                 *range(0, used, used // 60 + 1), used}):
                with monkeypatch.context() as m:
                    m.setattr(openness, "SweepSpace", tracked(SweepSpace))
                    m.setattr(openness, "_refutation",
                              tracked(openness._refutation))
                    got, got_table = check(code, budget=Budget(limit))
                if limit == used:
                    assert got.to_json() == dec.to_json()
                    assert got_table.to_json() == table.to_json()
                    continue
                assert got.is_inconclusive
                assert got.payload["reason"] == "budget", (limit, used)
                entries = got_table.entries
                assert entries == table.entries[:len(entries)]
                assert got_table.witnesses.items() <= table.witnesses.items()
                assert got_table.uniform is None
                assert got_table.saturation_level is None
                exits.add(running[-1] if running else "other")
                running.clear()
    assert exits == {"SweepSpace 0", "_refutation 0", "other"}


# -- the level sweep against joins of explicit tables -------------------------


LEVELS = 6  # levels 0-5


def _table_join(p1, p2):
    """Join of two profiles held as explicit tables: joint tables compose
    pairwise, admissibility tables compose."""
    return (frozenset((_then(tu1, tu2), _then(ts1, ts2))
                      for tu1, ts1 in p1[0] for tu2, ts2 in p2[0]),
            _then(p1[1], p2[1]))


def _table_levels(space, count):
    """The first count levels of the sweep over profiles of universe
    actions, every join recomputed on explicit tables: per level, the
    dict from profile (the universe actions of a fine profile's joint
    tables, see _coarse) to least zone word, and the (x, P, pair
    products) of the joins x.P and (x.P).y that build the next level
    from it. A level's profile is joined through the fine profile of its
    least word, and a join is charged by the sizes of the coarse
    profiles it joins."""
    sym = {xi: (frozenset((space.ut[s], space.zt.get((s, xi), space._zero))
                          for s in space.symbols), space.xt[xi])
           for xi in space.xsymbols}
    coarse = {xi: _coarse(space, sym[xi]) for xi in space.xsymbols}
    level = {}
    for xi in space.xsymbols:
        level.setdefault(coarse[xi], ((xi,), sym[xi]))
    levels, joins = [level], []
    while len(levels) < count:
        nxt, made = {}, []
        for x in space.xsymbols:
            for prof, (word, fine) in level.items():
                products = 0
                if any(_then(sym[x][1], fine[1])):
                    left = _table_join(sym[x], fine)
                    products = len(coarse[x][0]) * len(prof[0])
                    left_ids = _coarse(space, left)[0]
                    for y in space.xsymbols:
                        if any(_then(left[1], sym[y][1])):
                            products += len(left_ids) * len(coarse[y][0])
                            joined = _table_join(left, sym[y])
                            nxt.setdefault(_coarse(space, joined),
                                           ((x,) + word + (y,), joined))
                made.append((x, prof, products))
        level = nxt
        levels.append(level)
        joins.append(made)
    return [{prof: word for prof, (word, _) in level.items()}
            for level in levels], joins


def _with_fixtures(codes):
    return codes + [
        fixtures.fig1_code(), fixtures.even_cover(), fixtures.golden_cover(),
        fixtures.phase_doubling_code(),
        fixtures.right_closing_counterexample_code()]


def _level_codes():
    """Seeded tiny cover and one-block codes, reducible domains included,
    and the code fixtures."""
    return _with_fixtures(_small_codes(40, seed=5, vertices=3))


def test_monoid_levels_match_explicit_table_levels():
    words = recurring = 0
    for code in _level_codes():
        space = SweepSpace(code, Budget(10**9))
        reference, _ = _table_levels(space, LEVELS)
        levels = openness._profile_levels(space)
        shared = set()
        for ref in reference:
            level = next(levels)
            assert list(level.values()) == list(ref.values())
            shared.update(zip(level, ref))
        # interning is a bijection: words share a monoid profile exactly
        # when their explicit tables act alike on the pair universe
        assert len({p for p, _ in shared}) == len(shared) \
            == len({r for _, r in shared})
        # profiles met again at later levels
        count = sum(map(len, reference))
        words += count
        recurring += count - len(shared)
    assert words > 850 and recurring > 600


def test_each_profile_joins_once_per_sweep():
    revisited = mixed = 0
    for code in _level_codes():
        space = SweepSpace(code, Budget(10**9))
        reference, joins = _table_levels(space, LEVELS)
        # the pair universe spends before the first level
        levels = openness._profile_levels(space)
        used = space.budget.used
        next(levels)
        assert space.budget.used == used
        joined, seen = set(), set()
        for ref, made in zip(reference, joins):
            # level l+1 spends the products of its first-time joins only
            first = [n for x, prof, n in made if (x, prof) not in joined]
            joined.update((x, prof) for x, prof, _ in made)
            next(levels)
            assert space.budget.used - used == sum(first)
            if ref and seen.issuperset(ref):
                # a level of revisited profiles spends nothing
                assert space.budget.used == used
                revisited += 1
            elif len(first) < len(made):
                # a level of new and revisited profiles
                mixed += 1
            used = space.budget.used
            seen.update(ref)
    assert revisited > 100 and mixed > 5


def test_monoid_tables_are_universe_actions_of_explicit_profiles():
    """The monoid is a homomorphic image of the explicit tables: on every
    admissible zone word of levels 0-2, the tables of the word's profile
    are exactly the universe actions of its explicit joint tables, one id
    per action, each entry one bit or 0."""
    words = merged = 0
    for code in _level_codes():
        space = SweepSpace(code, Budget(10**9))
        for length in (1, 3, 5):
            for word in _zone_words(space, length):
                fine = _fine_profile(space, word)
                ids = space.profile(word)
                tables = {space.tables[i] for i in ids}
                assert tables == _coarse(space, fine)[0], word
                assert len(tables) == len(ids)
                words += 1
                merged += len(ids) < len(fine[0])
        assert all(space.ids[t] == i for i, t in enumerate(space.tables))
        assert all(b & (b - 1) == 0 for t in space.tables for b in t)
    assert words > 3000 and merged > 500


def _least_interior_window(code, zone, y, k_limit):
    """The least half-length k >= the zone's center, then the
    lexicographically least image word of length 2k + 1, whose central
    cylinder lies inside the zone's cylinder image, by the containment
    scanner on every image word; None if there is none with k <= k_limit."""
    au = cylinder_image(code, zone)
    for k in range(zone.center, k_limit + 1):
        for word in words_of_length(y.presentation, 2 * k + 1):
            if contains_cylinder(au, y, CenteredWord.central(word)):
                return k, word
    return None


def test_interior_witnesses_match_containment_oracle():
    # the containment scanner of pointed.py shares no code with the
    # interior scan; witnesses far from the zone are skipped, because the
    # oracle lists every image word up to their length
    checked = refuted_zones = 0
    for code in _small_codes(120, seed=8, vertices=3, alphabet=2):
        space = SweepSpace(code)
        y = image_presentation(code)
        for word in _zone_words(space, 1) + _zone_words(space, 3):
            zone = CenteredWord.central(word)
            dec = interior_nonempty(space, zone)
            if dec.is_refuted:
                refuted_zones += 1
                au = cylinder_image(code, zone)
                esc = dec.payload["escape"]
                assert not contains_cylinder(
                    au, y, CenteredWord(tuple(esc["word"]),
                                        esc["center"])), word
                continue
            k = dec.payload["k"]
            if k - zone.center > 4:
                continue
            cylinder = dec.payload["cylinder"]
            assert cylinder["center"] == k
            assert _least_interior_window(code, zone, y, k) == \
                (k, tuple(cylinder["word"])), word
            checked += 1
    assert checked > 1000 and refuted_zones > 20


# -- the interior decision against the breadth-first reference ---------------


# the reference interior scan: a breadth-first decision over (mode, j, q, du)
# states, a depth-first witness search per half-length and escape samples,
# all on one move function over the zone word


def _ref_moves(space, u):
    """bfs_tree expand of the interior scan over zone word u. A state is
    (mode, j, q, du): mode 0 left of the zone, 1 inside it before
    position j, 2 past it; q the mask of scan results over the universe
    pairs; du the image states that can read the window. Moves are
    ((mode, j, q, du), s) in symbol order, the free move before the zone
    move, for every symbol that keeps du live."""
    free, zone, ut = space.free, space.zone, space.ut
    word = u.word
    length = len(word)

    def moves(state):
        mode, j, q, du = state
        out = []
        for s in space.symbols:
            du2 = apply_mask(ut[s], du)
            if not du2:
                continue
            if mode != 1:
                out.append(((mode, j, apply_mask(free[s], q), du2), s))
            if mode != 2:
                out.append(((2 if j + 1 == length else 1, j + 1,
                             apply_mask(zone[s, word[j]], q), du2), s))
        return out
    return moves


def _ref_witness(space, u, k):
    """Lexicographically least central witness of half-length exactly k,
    or None. Depth-first over the interior scan's moves, with pre and
    post symbols left to read before and after the zone, and a
    fruitless-state memo."""
    moves = _ref_moves(space, u)
    doomed = space.doomed
    dead = set()

    def rec(state, pre, post):
        mode, _, q, _ = state
        if mode == 2 and post == 0:
            return None if q & doomed else ()
        key = (state, pre, post)
        if key in dead:
            return None
        for nxt, s in moves(state):
            if nxt[0] == 0:
                if not pre:
                    continue
                sub = rec(nxt, pre - 1, post)
            elif mode == 2:
                sub = rec(nxt, 0, post - 1)
            elif pre:
                continue
            else:
                sub = rec(nxt, 0, post)
            if sub is not None:
                return (s,) + sub
        dead.add(key)
        return None

    return rec((0, 0, space.left, space.full), k - u.center, k - u.center)


def _ref_escapes(space, u, limit=2):
    """For refuted interiors: sample the escape candidates, the
    zone-width windows in lexicographic order, read by the interior
    scan's zone moves, whose scan ends on a doomed pair."""
    moves = _ref_moves(space, u)
    samples = []
    stack = [((), (0, 0, space.left, space.full))]
    while stack and len(samples) < limit:
        word, state = stack.pop()
        mode, _, q, _ = state
        if mode != 2:
            stack.extend((word + (s,), nxt)
                         for nxt, s in reversed(moves(state))
                         if nxt[0] and nxt[2])
        elif q & space.doomed:
            samples.append(CenteredWord(word, u.center).to_json())
    return samples


def _bfs_interior(space, u):
    """The interior decision by a breadth-first search for any state past
    the zone with no doomed pair, then the least witness by one
    depth-first search per half-length k from the zone's center up, or
    the first escape sample."""
    seen, found = bfs_tree(
        [(0, 0, space.left, space.full)], _ref_moves(space, u), space.budget,
        lambda state: state[0] == 2 and not state[2] & space.doomed)
    if found is None:
        return refuted({"zone": u.to_json(),
                        "cylinder": _ref_escapes(space, u, 1)[0]})
    for k in range(u.center, u.center + len(seen) + 2):
        word = _ref_witness(space, u, k)
        if word is not None:
            return proved({
                "zone": u.to_json(),
                "cylinder": CenteredWord(word, k).to_json(),
                "k": k,
            })
    raise AssertionError(f"no witness within the pigeonhole cap: {u.word}")


def _interior_zones():
    """(space, level, zone) for every zone word of levels 0-3 of 30 seeded
    3-vertex alphabet-2 codes, the code fixtures and one 5-vertex code.
    Seven domains are reducible; one of these codes and fig1 refute. In
    the last code the layers cycle from layer 1 with period 1, and some
    offsets reach 2, past the stored layers."""
    codes = _small_codes(30, seed=12, vertices=3, alphabet=2)
    for code in _with_fixtures(codes) + _small_codes(3, 22, 5)[2:]:
        space = SweepSpace(code, Budget(10**9))
        for level in range(4):
            for word in _zone_words(space, 2 * level + 1):
                yield space, level, CenteredWord.central(word)


def test_interior_decision_matches_bfs_reference():
    """The whole payload of every zone word of levels 0-3: verdict, k and
    cylinder; a refuted zone's escape extends its cylinder at the zone
    and leaves the zone's cylinder image."""
    verdicts, offsets = set(), set()
    for space, level, zone in _interior_zones():
        got = interior_nonempty(space, zone).to_json()
        escape = got["payload"].pop("escape", None)
        assert got == _bfs_interior(space, zone).to_json(), zone
        if escape is not None:
            cylinder = got["payload"]["cylinder"]
            at = escape["center"] - cylinder["center"]
            assert at >= 0 and escape["word"][at:at + len(
                cylinder["word"])] == cylinder["word"], zone
            code = space.code
            assert not contains_cylinder(
                cylinder_image(code, zone), image_presentation(code),
                CenteredWord(tuple(escape["word"]), escape["center"])), zone
        verdicts.add(got["verdict"])
        offsets.add(got["payload"].get("k", level) - level)
    assert verdicts == {"Proved", "Refuted"} and {0, 1, 2} <= offsets


def test_least_doomed_window_matches_first_reference_escape():
    """On every zone word of levels 0-3, proved or refuted, the least
    zone-width window ending on a doomed pair is the reference's first
    escape candidate; with no candidate the search raises."""
    found = missing = 0
    for space, _, zone in _interior_zones():
        samples = _ref_escapes(space, zone, 1)
        if samples:
            got = openness._least_window(space, zone, 0,
                                         lambda q: q & space.doomed)
            assert got.to_json() == samples[0], zone
            found += 1
        else:
            with pytest.raises(InvariantViolation):
                openness._least_window(space, zone, 0,
                                       lambda q: q & space.doomed)
            missing += 1
    assert found > 5000 and missing > 5000


def test_interior_states_are_scan_masks():
    """On every zone word of levels 0-3, each state (mode, j, q, du) of
    the reference scan has q != 0 and du the union of the image sides of
    q's pairs, so the scan mask q determines du; and each stored layer
    of the space is the reference's layer of left-zone states (q, du)
    after as many free steps, projected to q."""
    layers = 0
    for space, _, zone in _interior_zones():
        moves = _ref_moves(space, zone)
        for _, _, q, du in bfs_closure([(0, 0, space.left, space.full)],
                                       lambda x: [y for y, _ in moves(x)]):
            assert q, zone
            image_sides = 0
            for b in range(q.bit_length()):
                if q >> b & 1:
                    image_sides |= space.pairs[b][0]
            assert du == image_sides, zone
        interior_nonempty(space, zone)
        ref = {(0, 0, space.left, space.full)}
        for stored in space.layers:
            assert stored == {q for _, _, q, _ in ref}, zone
            ref = {y for x in ref for y, _ in moves(x) if y[0] == 0}
            layers += 1
    assert layers > 15000


def _memo_entries(space):
    # the first layer is the seed, not a memo entry
    return sum(map(len, space.layers)) - 1 + len(space._distances)


def _escape_spend(code, interior):
    """The states a refuted interior payload's escape search spends,
    replayed by cylinder_escape on a fresh budget; 0 when proved."""
    if "escape" not in interior:
        return 0
    zone, cylinder = (CenteredWord(tuple(interior[k]["word"]),
                                   interior[k]["center"])
                      for k in ("zone", "cylinder"))
    budget = Budget(10**9)
    cylinder_escape(cylinder_image(code, zone), image_presentation(code),
                    cylinder, budget)
    return budget.used


def test_interior_decisions_spend_once_per_memo_entry(monkeypatch):
    """Deciding a profile again, on the same word or on a profile-equal
    one, spends nothing but a refuted word's escape search; a whole sweep
    spends its pair universe, its joins, one state per new memo entry of
    its interior decisions and, when refuted, its escape search."""
    again = escapes = entries = 0
    for code in _level_codes():
        space = SweepSpace(code, Budget(10**9))
        words = {}
        for word in _zone_words(space, 3) + _zone_words(space, 5):
            words.setdefault(space.profile(word), []).append(word)
        for same in words.values():
            zones = [CenteredWord.central(w) for w in same]
            interior_nonempty(space, zones[0])
            for zone in zones[:2]:
                used = space.budget.used
                dec = interior_nonempty(space, zone)
                spend = _escape_spend(code, dec.payload)
                assert space.budget.used == used + spend
                escapes += spend > 0
            again += len(zones) > 1

        made = []

        def recording(code, budget=None):
            made.append(SweepSpace(code, budget))
            return made[-1]
        with monkeypatch.context() as m:
            m.setattr(openness, "SweepSpace", recording)
            dec, table = check_semi_open(code, budget=Budget(10**9))
        fresh = SweepSpace(code, Budget(10**9))
        levels = openness._profile_levels(fresh)
        for _ in range(len(table.entries) + dec.is_refuted):
            next(levels)
        escape = _escape_spend(code, dec.payload.get("interior", {}))
        assert made[0].budget.used == fresh.budget.used \
            + _memo_entries(made[0]) + escape
        escapes += escape > 0
        entries += _memo_entries(made[0])
    assert again > 100 and escapes >= 3 and entries > 150


# -- the pair universe and its doomed set against brute force -----------


def _pair_step(space, p, s, thread_table):
    """One step of a (U, S) pair: U by the image table of s, S by
    thread_table; None where U dies."""
    u = _image(space.ut[s], p[0])
    return (u, _image(thread_table, p[1])) if u else None


def _free_closure(space, seeds, zone_steps):
    """Pairs reachable from the seeds by free steps, and by zone steps
    too when zone_steps is set."""
    seen = set(seeds)
    todo = list(seeds)
    while todo:
        p = todo.pop()
        for s in space.symbols:
            tables = [space.ut[s]]
            if zone_steps:
                tables += [space.zt.get((s, xi), space._zero)
                           for xi in space.xsymbols]
            for table in tables:
                q = _pair_step(space, p, s, table)
                if q is not None and q not in seen:
                    seen.add(q)
                    todo.append(q)
    return seen


def _escape_distance(space, p):
    """Least number of free steps from p to a live-U dead-S pair, by a
    forward breadth-first search, or None."""
    level, seen, depth = {p}, {p}, 0
    while level:
        if any(u and not v for u, v in level):
            return depth
        level = {q for r in level for s in space.symbols
                 if (q := _pair_step(space, r, s, space.ut[s])) is not None}
        level -= seen
        seen |= level
        depth += 1
    return None


def test_pair_universe_and_doom_tree_match_brute_force():
    walked = 0
    for code in _small_codes(200, seed=8):
        space = SweepSpace(code)
        pairs = space.pairs
        p0 = (space.full, space.full)
        left = _free_closure(space, [p0], False)
        # the left-context pairs come first, the full restart at index 0,
        # and the universe is their closure under free and zone steps
        assert pairs[0] == p0
        assert set(pairs[:len(left)]) == left
        assert space.left == (1 << len(left)) - 1
        assert len(set(pairs)) == len(pairs)
        assert set(pairs) == _free_closure(space, left, True)
        for i, p in enumerate(pairs):
            dist = _escape_distance(space, p)
            assert bool(space.doomed >> i & 1) == (dist is not None), p
            walked += bool(dist)
    assert walked > 100


# -- check_open's uniform bound against the window scan ----------------------


def uniform_window_bound(a, y, k_max, budget):
    """The reference uniform bound: the least k <= k_max such that every
    central (2k+1)-window of the denotation of a spans a cylinder of y
    inside the denotation, or None.

    The answer of cylinder_escape on every window of window_language,
    from one subset-product scan per k. A state (U, S, T) holds the
    y-states that can read the word so far, the threads of
    cylinder_escape after an arbitrary left context, and the window
    threads of window_language, started at every vertex at coordinate -k.
    Phase one is the left-context closure of (U, S). Phase two reads the
    2k+1 window symbols, dropping a state whose U or T empties; the layer
    of the k symbols left of the origin grows by one symbol per k, so
    phase one and those layers are built once for every k. Phase three
    hunts, from the final (U, S) pairs, a right context that keeps U live
    and leaves no marked thread: some window escapes exactly when the
    hunt succeeds. Every discovered state spends one budget unit.
    """
    if a.is_empty:
        return 0  # no windows at all
    yg = y.presentation
    plain, origin, unmarked, marked = _thread_tables(a, yg.symbols)
    free = pair_moves([(s, table, plain[s]) for s, table in yg.fwd.items()])
    left, _ = bfs_tree([(yg.full_mask, unmarked)], free, budget)
    spend = budget.spend

    def advance(layer, tables, keep):
        moves = [(u_table, tables[sym]) for sym, u_table in yg.fwd.items()]
        nxt = {}
        for u, s, t in layer:
            for u_table, table in moves:
                u2 = apply_mask(u_table, u)
                if not u2:
                    continue
                t2 = apply_mask(table, t) & keep
                if t2:
                    q = (u2, apply_mask(table, s), t2)
                    if q not in nxt:
                        spend()
                        nxt[q] = None
        return nxt

    # the k symbols left of the origin, extended by one symbol per k
    before = [(u, s, unmarked) for u, s in left]
    for k in range(k_max + 1):
        if k:
            before = advance(before, plain, -1)
        # from the origin on only marked threads can still witness
        layer = advance(before, origin, marked)
        for _ in range(k):
            layer = advance(layer, plain, marked)
        seeds = {(u, s): None for u, s, _ in layer}
        _, bad = bfs_tree(seeds, free, budget, lambda p: not p[1] & marked)
        if bad is None:
            return k
    return None


def _uniform_bound(code, y, word, k_max):
    """The uniform bound of one zone word, by the window scan; y is the
    code's image."""
    au = cylinder_image(code, CenteredWord.central(word))
    return uniform_window_bound(au, y, k_max, Budget(10**9))


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
        space = SweepSpace(code)
        y = image_presentation(code)
        for level in range(3):
            for word in _zone_words(space, 2 * level + 1):
                got = _uniform_bound(code, y, word, 4)
                assert got == _per_window_bound(code, y, word, 4), word
                bounds.add(got)
    assert {None, 0, 1, 2, 3} <= bounds


def test_open_offset_matches_uniform_window_bound():
    """On every zone word of levels 0-3, the offset decided on the sweep's
    memos is max(b - c, 0) for the window scan's least bound b <= 8; where
    the scan finds none, the offset is infinite or puts c + offset past
    8. The scan runs up to c + offset only, which checks the same.
    Deciding a profile again spends no budget."""
    seen = set()
    for code in _small_codes(60):
        space = SweepSpace(code, Budget(10**9))
        y = image_presentation(code)
        for level in range(4):
            for word in _zone_words(space, 2 * level + 1):
                profile = space.profile(word)
                offset = openness._open_offset(space, profile)
                used = space.budget.used
                assert openness._open_offset(space, profile) == offset
                assert space.budget.used == used
                within = offset is not None and level + offset <= 8
                b = _uniform_bound(code, y, word,
                                   level + offset if within else 8)
                if within:
                    assert b is not None and max(b - level, 0) == offset, \
                        word
                else:
                    assert b is None, word
                seen.add(offset if offset is None else min(offset, 1))
    assert seen == {None, 0, 1}


def test_one_block_arrow_graph_is_a_trimmed_relabeling():
    """At window 1 the arrow graph is the trimmed domain presentation
    with each edge labeled by the code's table, and it is its own trim,
    no trim run on it again: equal, vertex and edge order included, to
    a freshly built relabeling trimmed from scratch."""
    checked = 0
    for code in _with_fixtures(_small_codes(60)):
        if code.window != 1:
            continue
        pres = code.domain.presentation
        fresh = gr.trim(LabeledGraph.make(
            code.codomain_alphabet, pres.vertices,
            [Edge(e.id, e.src, e.dst, code.table[(e.label,)])
             for e in pres.edges]))
        a = arrow_graph(code)
        # graphs compare their vertex and edge tuples, order included
        assert a.graph == fresh
        assert gr.trim(a.graph) is a.graph
        assert dict(a.x_sym) == {e.id: pres.by_id[e.id].label
                                 for e in fresh.edges}
        checked += 1
    assert checked > 60


# -- check_open's refutations against the limit-escape pattern search --------


def _edge_scan(space, p, edges, zone_steps=False):
    """Pair value p, a single bit over the universe indexes, scanned
    along edges by free steps, or by zone steps with zone_steps set. The
    edges read an admissible word, so the scan stays live."""
    for e in edges:
        p = apply_mask(space.zone[e.label, space.x_sym[e.id]] if zone_steps
                       else space.free[e.label], p)
        if not p:
            raise InvariantViolation("admissible scan stays live", e.id)
    return p


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


def _deep_values(space, c1):
    """Deep pair values at a chain start after the past cycle c1: the
    recurrent values of the full-restart scan along c1, at every phase,
    in order of the pairs themselves."""
    deep = set()
    for phase in range(len(c1)):
        # bit 0 is the full restart pair
        seed = _edge_scan(space, 1, c1[len(c1) - phase:])
        deep.update(_orbit_tail(
            seed, lambda p: _edge_scan(space, p, c1)))
    return sorted(deep, key=lambda q: space.pairs[q.bit_length() - 1])


def _skeleton_pattern(space, c1, deep, b1, anchor, b2, c2, h):
    """Exact check of one limit-escape skeleton: is the point reading
    the labels along c1^inf b1 anchor b2 c2^inf a limit of points
    escaping the image of its own zone window of half-width h? It is
    when some deep value of the past cycle, pushed through the zone,
    recurs inside the doomed region along the future cycle."""
    # pad bridges with whole cycles so the zone fits inside them
    eff_b1 = list(b1)
    while len(eff_b1) < h:
        eff_b1 = list(c1) + eff_b1
    eff_b2 = list(b2)
    while len(eff_b2) < h:
        eff_b2 = eff_b2 + list(c2)
    zone_left = eff_b1[len(eff_b1) - h:] if h else []
    free_left = eff_b1[:len(eff_b1) - h] if h else eff_b1
    zone = zone_left + [anchor] + eff_b2[:h]
    free_right = eff_b2[h:]
    for q in deep:
        q2 = _edge_scan(space, _edge_scan(space, q, free_left), zone,
                        zone_steps=True)
        q2 = _edge_scan(space, q2, free_right)
        # recurrent pair values along the future cycle, all phases
        tail = _orbit_tail(
            (q2, 0), lambda t: (_edge_scan(space, t[0], [c2[t[1]]]),
                                (t[1] + 1) % len(c2)))
        if any(p & space.doomed for p, _ in tail):
            return CenteredWord(tuple(space.x_sym[e.id] for e in zone), h)
    return None


# the zone half-widths tried per skeleton
ESCAPE_H_MAX = 2


def _limit_escape_pattern(space):
    """The zone of the first verified limit-escape pattern over the
    skeletons (shortest past cycle, bridge, anchor edge, bridge, shortest
    future cycle) and zone half-widths up to ESCAPE_H_MAX, or None. A
    pattern is sound; a miss decides nothing."""
    g = space.g
    vx = g.vindex
    n = g.n
    eadj = [[] for _ in range(n)]
    for e in sorted(g.edges, key=lambda e: e.id):
        eadj[vx[e.src]].append((vx[e.dst], e))
    cycles = {i: shortest_cycle(eadj, i) for i in sorted(cycle_nodes(n, g.adj))}
    # a search tree's path to a node is its shortest path from the root,
    # so one tree per vertex gives every bridge
    trees = [bfs_tree([v], eadj.__getitem__)[0] for v in range(n)]
    deep = {}  # per past cycle, computed on first use
    for anchor in sorted(g.edges, key=lambda e: e.id):
        after = trees[vx[anchor.dst]]
        ends = [(j, tree_path(after, j)[1]) for j in cycles if j in after]
        for i in cycles:
            if vx[anchor.src] not in trees[i]:
                continue
            b1 = tree_path(trees[i], vx[anchor.src])[1]
            if ends and i not in deep:
                deep[i] = _deep_values(space, cycles[i])
            for j, b2 in ends:
                for h in range(ESCAPE_H_MAX + 1):
                    zone = _skeleton_pattern(space, cycles[i], deep[i], b1,
                                             anchor, b2, cycles[j], h)
                    if zone is not None:
                        return zone
    return None


def _unmemoized_open_offset(space, profile):
    """_open_offset with the max over F_m taken over every (state, id)
    pair at every m, not over each id's memoized run."""
    for m in itertools.count():
        j, layer = space.layer(m)
        run = max((space.bad_run(q) for x in layer for i in profile
                   if (q := space.action(x, i))), default=-1)
        if run < m:
            return m
        if j < m and run == float("inf"):
            return None


def _sweep_alone(code, l_max=4, k_max=12, budget=None):
    """(decision, table) of check_open's level sweep with the unmemoized
    offsets, stopping Inconclusive on any offset past k_max, infinite
    ones included, at an ample budget."""
    def visit(space, level, prof, word):
        m = _unmemoized_open_offset(space, prof[0])
        if m is None or m > k_max:
            return inconclusive({
                "reason": "no uniform witness length within bound",
                "zone": list(word), "k_max": k_max})
        return {"k": level + m}
    budget = budget if budget is not None else Budget(10**9)
    return openness._level_sweep(code, budget, l_max, visit)


def _pattern_first_check_open(code, l_max=4, k_max=12):
    """The decision of the check_open that searched for limit-escape
    patterns before its sweep, on the code and then on its reversed code:
    Refuted with the pattern's side and zone, else the sweep's decision."""
    budget = Budget(10**9)
    for side, searched in (("right", code), ("left", reversed_code(code))):
        zone = _limit_escape_pattern(SweepSpace(searched, budget))
        if zone is not None:
            return refuted({"direction": side, "zone": zone.to_json()})
    return _sweep_alone(code, l_max, k_max, budget)[0]


def _open_corpus():
    """_small_codes(60), reducible domains included, the fixtures, a code
    that only the reversed code's pattern search refutes, two codes whose
    first infinite offset is at level 1 (most are at level 0), and the
    pool codes the pattern search misses."""
    return _with_fixtures(_small_codes(60)) + [
        _small_codes(8, seed=3, vertices=3)[7],
        _small_codes(6, seed=74, vertices=5, alphabet=4)[5],
        _small_codes(4, seed=76, vertices=6, alphabet=3)[3],
        *_pattern_misses()]


def test_sweep_refutes_what_the_pattern_search_refutes(monkeypatch):
    """The limit-point builder against the pattern search it replaced, at
    l_max 1, 2 and 4 on _open_corpus(): check_open refutes every code the
    pattern-first reference refutes, and the six codes it misses, and no
    verdict is Proved on one side and Refuted on the other. A decision
    that is not Refuted is the
    sweep's alone, table and spend included; a Refuted one has the
    table of the sweep alone, which stops on no bound at the same zone.
    The builder spends no budget and composes no new product."""
    build = openness._limit_point
    built = []

    def spy(space, word, profile):
        def state():
            return space.budget.used, len(space.products), len(space.tables)
        before = state()
        point = build(space, word, profile)
        assert state() == before
        built.append(point)
        return point
    monkeypatch.setattr(openness, "_limit_point", spy)
    reducible_refuted = 0
    for l_max in (1, 2, 4):
        outcomes = Counter()
        for code in _open_corpus():
            budget = Budget(10**9)
            dec, table = check_open(code, l_max, budget=budget)
            alone_budget = Budget(10**9)
            alone, alone_table = _sweep_alone(code, l_max,
                                              budget=alone_budget)
            reference = _pattern_first_check_open(code, l_max)
            assert {dec.verdict, reference.verdict} != {"Proved", "Refuted"}
            assert dec.is_refuted or not reference.is_refuted, code
            assert table.to_json() == alone_table.to_json()
            if dec.is_refuted:
                assert alone.payload == {
                    "reason": "no uniform witness length within bound",
                    "zone": dec.payload["zone"]["word"], "k_max": 12}
                reducible_refuted += not is_irreducible(
                    code.domain.presentation)
            else:
                assert dec.to_json() == alone.to_json()
                assert budget.used == alone_budget.used
            outcomes[dec.verdict, reference.payload.get("direction")] += 1
        assert {("Proved", None), ("Refuted", "right"), ("Refuted", "left"),
                ("Inconclusive", None)} <= set(outcomes), l_max
        assert outcomes["Refuted", None] >= 6
    assert built and reducible_refuted


def test_open_offset_memo_matches_unmemoized_max(monkeypatch):
    """Every level profile's offset from the per-(layer, id) runs equals
    the unmemoized max over F_m, spending the same budget in step with
    it; so does a whole check_open, decision and table included."""
    offsets = set()
    for code in _with_fixtures(_small_codes(60)):
        memo = SweepSpace(code, Budget(10**9))
        plain = SweepSpace(code, Budget(10**9))
        for _, level, other in zip(range(4), openness._profile_levels(memo),
                                   openness._profile_levels(plain)):
            assert list(level) == list(other)
            for prof in level:
                offset = openness._open_offset(memo, prof[0])
                assert _unmemoized_open_offset(plain, prof[0]) == offset
                assert memo.budget.used == plain.budget.used
                offsets.add(offset)
        budget = Budget(10**9)
        dec, table = check_open(code, budget=budget)
        with monkeypatch.context() as m:
            m.setattr(openness, "_open_offset", _unmemoized_open_offset)
            reference = Budget(10**9)
            ref_dec, ref_table = check_open(code, budget=reference)
        assert dec.to_json() == ref_dec.to_json()
        assert table.to_json() == ref_table.to_json()
        assert budget.used == reference.used
    assert {None, 0, 1} <= offsets


# a two-vertex cover code whose window lists grow fast with the radius:
# the window scan that once decided its uniform bound listed them for
# minutes; the offset sweep decides it in milliseconds
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
    budget = Budget(150_000)
    dec, _ = check_open(code, budget=budget)
    assert dec.is_refuted
    assert dec.payload["zone"]["word"] == ["e0"]
    # the sweep and the probes spend a few dozen states
    small, _ = check_open(code, budget=Budget(270))
    assert small.to_json() == dec.to_json()
    short, _ = check_open(code, budget=Budget(budget.used - 1))
    assert short.payload["reason"] == "budget"


# open-check pool codes (bench/workloads.py) that the pattern search does
# not refute, though each has an infinite offset at level 0; with the
# stall they are all such codes of the pool. Edges as (id, src, dst, label)
PATTERN_MISSES = {
    "open#97": ("012", [("e0", "v1", "v1", "1"), ("e1", "v1", "v0", "0"),
                        ("e2", "v0", "v1", "1"), ("e3", "v0", "v1", "0")]),
    "open#240": ("01", [
        ("e0", "v3", "v0", "0"), ("e1", "v4", "v1", "1"),
        ("e2", "v1", "v2", "1"), ("e3", "v2", "v3", "1"),
        ("e4", "v2", "v4", "0"), ("e5", "v1", "v2", "1"),
        ("e6", "v4", "v0", "1"), ("e7", "v1", "v0", "1"),
        ("e8", "v0", "v1", "1"), ("e9", "v2", "v4", "0"),
        ("e10", "v1", "v0", "0")]),
    "open#285": ("012", [("e0", "v2", "v3", "0"), ("e3", "v2", "v2", "2"),
                         ("e4", "v3", "v2", "0"), ("e6", "v3", "v3", "1")]),
    "open#468": ("012", [
        ("e0", "v1", "v2", "2"), ("e1", "v2", "v1", "1"),
        ("e3", "v2", "v4", "1"), ("e5", "v1", "v2", "1"),
        ("e6", "v4", "v4", "0"), ("e7", "v4", "v2", "2")]),
    "open#556": ("012", [
        ("e0", "v0", "v1", "1"), ("e1", "v1", "v2", "2"),
        ("e2", "v0", "v2", "2"), ("e3", "v0", "v2", "0"),
        ("e4", "v1", "v1", "2"), ("e5", "v1", "v2", "2"),
        ("e6", "v2", "v0", "0")]),
}


def _pattern_misses():
    """The cover codes of the stall and of PATTERN_MISSES."""
    graphs = [STALLING_GRAPH]
    for alphabet, edges in PATTERN_MISSES.values():
        graphs.append({
            "alphabet": list(alphabet),
            "vertices": sorted({v for _, *ends, _ in edges for v in ends}),
            "edges": [{"id": i, "src": a, "dst": b, "label": s}
                      for i, a, b, s in edges]})
    return [cover_code(graph_from_json(g)) for g in graphs]


def _limit_label(point, i):
    """The limit point's label at index i of its chain."""
    chain = point["chain"]
    if i < 0:
        return point["past_cycle"][i % len(point["past_cycle"])]
    if i < len(chain):
        return chain[i]
    return point["future_cycle"][(i - len(chain)) % len(point["future_cycle"])]


def _future_masks(code, payload):
    """The scan masks of the limit point right of its zone, from the
    left-context pairs, one per state (position, cycle phase) until a
    state repeats: the scan holds the past cycle's stable mask, then
    reads the rest of the chain, the zone by zone steps, then the
    future cycle."""
    space = SweepSpace(code)
    point = payload["limit_point"]
    u = payload["zone"]["word"]

    def scan(q, word):
        for s in word:
            q = apply_mask(space.free[s], q)
        return q
    past = _orbit_tail(space.left,
                                lambda q: scan(q, point["past_cycle"]))
    assert len(past) == 1  # scans shrink to a fixed point
    chain = point["chain"]
    start = point["anchor_step"] - len(u) // 2
    q = scan(past[0], chain[:start])
    for s, xi in zip(chain[start:], u):
        q = apply_mask(space.zone[s, xi], q)
    masks = []
    for s in chain[start + len(u):]:
        masks.append(q)
        q = scan(q, s)
    cycle = point["future_cycle"]
    seen = set()
    phase = 0
    while (q, phase) not in seen:
        seen.add((q, phase))
        masks.append(q)
        q = scan(q, cycle[phase])
        phase = (phase + 1) % len(cycle)
    return space, masks


def test_refutation_probes_recheck():
    """Every Refuted check_open of _open_corpus(), re-checked apart from
    the sweep. Each probe is
    the limit point's window at its scale; it is a central window of the
    zone's cylinder image (window_language) and escapes that image
    (cylinder_escape, at a budget of its own). On the pair universe, the
    limit point's scan right of the zone stays bad (a live-S pair and a
    doomed pair) at every position, so its windows at every scale are
    read in the cylinder image and escape it."""
    codes, decisions = [], []
    for code in _open_corpus():
        dec, _ = check_open(code, budget=Budget(150_000))
        if dec.is_refuted:
            codes.append(code)
            decisions.append(dec)
    assert len(decisions) > 15
    assert {dec.payload["zone"]["center"] for dec in decisions} == {0, 1}
    for code, dec in zip(codes, decisions):
        payload = dec.payload
        point = payload["limit_point"]
        u = CenteredWord(tuple(payload["zone"]["word"]),
                         payload["zone"]["center"])
        au = cylinder_image(code, u)
        y = image_presentation(code)
        assert [p["scale"] for p in payload["probes"]] == \
            [u.center + 1, u.center + 3]
        for probe in payload["probes"]:
            t = probe["scale"]
            window = tuple(_limit_label(point, point["anchor_step"] + d)
                           for d in range(-t, t + 1))
            assert list(window) == probe["window"]
            assert window in window_language(au, t)
            esc = openness.cylinder_escape(au, y, CenteredWord(window, t))
            assert esc is not None and esc.to_json() == probe["escape"]
        space, masks = _future_masks(code, payload)
        assert all(q & space.doomed and q & space.live for q in masks), \
            payload


# -- the retract check against the triple machine -----------------------------


def _triple_retract_verdict(code, retract):
    """The right-side retract machine over (vertex, U, S) triples, with
    its own locked and free steps, a fixed-point loop for stabilized
    cycle scans and a breadth-first hunt for a live-U dead-S pair. Its
    payload also counts the hunt's states."""
    a = arrow_graph(code)
    g = a.graph
    budget = Budget(where="retract check")
    ut = {s: [0] * g.n for s in g.symbols}
    zt = {}
    for e in g.edges:
        si, di = g.vindex[e.src], g.vindex[e.dst]
        ut[e.label][si] |= 1 << di
        zt.setdefault((e.label, a.x_sym[e.id]), [0] * g.n)[si] |= 1 << di
    full = g.full_mask
    out_edges = {v: sorted(g.out[v], key=lambda e: e.id) for v in g.vertices}

    def locked_step(t, e):
        return (e.dst, _image(ut[e.label], t[1]),
                _image(zt[e.label, a.x_sym[e.id]], t[2]))

    def free_lift_step(t, e):
        return (e.dst, _image(ut[e.label], t[1]), _image(ut[e.label], t[2]))

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
    upper = [order[i] for i in bfs_closure(sorted(cyc), adj.__getitem__)]
    lower = set()
    cyc_rows = [[(j, e) for j, e in row if j in cyc] for row in eadj]
    for i in sorted(cyc):
        cyc_edges = shortest_cycle(cyc_rows, i)
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
    free_moves = pair_moves([(s, ut[s], ut[s]) for s in g.symbols])

    def hunt(triples):
        frontier = set(triples)
        for _ in range(retract):
            frontier = {free_lift_step(t, e)
                        for t in frontier for e in out_edges[t[0]]}
            budget.spend()
        seen, bad = bfs_tree(sorted({(t[1], t[2]) for t in frontier}),
                             free_moves, budget, lambda p: p[0] and not p[1])
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


def _without_states(value):
    if isinstance(value, dict):
        return {k: _without_states(v) for k, v in value.items()
                if k != "states"}
    if isinstance(value, list):
        return [_without_states(v) for v in value]
    return value


# a one-block code whose retract check escapes only from the limit
# overapproximation, at retract 1 and 2 on both sides
UNDECIDED_RETRACT_GRAPH = {
    "alphabet": ["0", "1", "2"],
    "vertices": ["v1", "v2", "v3", "v6"],
    "edges": [
        {"id": "e0", "src": "v1", "dst": "v6", "label": "1"},
        {"id": "e1", "src": "v6", "dst": "v2", "label": "1"},
        {"id": "e4", "src": "v6", "dst": "v3", "label": "0"},
        {"id": "e5", "src": "v2", "dst": "v1", "label": "2"},
        {"id": "e6", "src": "v3", "dst": "v6", "label": "0"},
    ],
}


def _undecided_retract_code():
    return SlidingBlockCode.make(
        SoficShift.from_graph(graph_from_json(UNDECIDED_RETRACT_GRAPH)),
        0, 0, {("0",): "1", ("1",): "1", ("2",): "0"})


def test_retract_check_matches_triple_machine(monkeypatch):
    """Same verdict, limit_states and every other payload key as the
    triple machine, on every side and retract 0-8 and 40; only the hunt's
    state count is gone. Some sides have an infinite lower run, and some
    a lower run of 0 with an infinite upper run, so retract 40 is still
    Refuted on some and Inconclusive on others."""
    verdicts = set()
    for code in _small_codes(60, seed=11) + [_undecided_retract_code()]:
        for side in ("right", "left", "bi"):
            for n in (*range(9), 40):
                got = check_right_continuing_retract(code, n, side).to_json()
                with monkeypatch.context() as m:
                    m.setattr(openness, "_right_retract_verdict",
                              _triple_retract_verdict)
                    want = check_right_continuing_retract(code, n, side)
                assert got == _without_states(want.to_json())
                verdicts.add((n, got["verdict"]["verdict"]))
    assert {v for _, v in verdicts} == {"Proved", "Refuted", "Inconclusive"}
    assert {(40, "Refuted"), (40, "Inconclusive")} <= verdicts
