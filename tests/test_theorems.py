import math

import pytest

from shiftlab import codes, fixtures, shifts, theorems
from shiftlab import graph as gr
from shiftlab.codes import fiber_product
from shiftlab.decision import PROVED, Decision, audit, proved, refuted
from shiftlab.errors import ConsistencyFault, NotFiniteToOne
from shiftlab.graph import LabeledGraph
from shiftlab.openness import check_right_continuing_retract, check_semi_open
from shiftlab.shifts import SoficShift
from shiftlab.theorems import (
    certificates,
    check_nonwandering_maximal,
)

EVEN_TAGS = {
    "CorollaryNew", "ThmFiniteCover", "ThmRRMagic", "LemmaOnto", "ThmSToS",
    "ThmSFTFiniteToOne", "ThmSemiAE", "ThmSynBiCont", "LemmaDoubly",
    "ThmFischer",
}


def test_even_cover_certificate_battery():
    code = fixtures.even_cover()
    semi, _ = check_semi_open(code)
    certs = certificates(code, {"semi_open": semi})
    assert {c.tag for c in certs} == EVEN_TAGS
    for cert in certs:
        assert cert.hypotheses
        for line in cert.hypotheses:
            assert line.endswith(": Proved")


def test_golden_cover_adds_sft_and_ballier_certificates():
    code = fixtures.golden_cover()
    semi, _ = check_semi_open(code)
    rd = check_right_continuing_retract(code, 0)
    assert rd.is_proved
    certs = certificates(code, {"semi_open": semi, "retract": rd})
    tags = {c.tag for c in certs}
    assert "ThmRightClosing" in tags  # codomain golden shift is an SFT
    assert "ThmBallier" in tags
    ballier = next(c for c in certs if c.tag == "ThmBallier")
    assert ballier.conclusion == "right-continuing everywhere with retract 0"


def test_even_cover_omits_sft_conclusion():
    # the even shift is strictly sofic, so the SFT-codomain theorem
    # cannot fire no matter how nice the map is
    code = fixtures.even_cover()
    semi, _ = check_semi_open(code)
    certs = certificates(code, {"semi_open": semi})
    assert "ThmRightClosing" not in {c.tag for c in certs}


def test_refuted_map_emits_nothing_semi_open():
    code = fixtures.fig1_code()
    semi, _ = check_semi_open(code)
    assert semi.is_refuted
    certs = certificates(code, {"semi_open": semi})
    assert not any(c.conclusion == "semi-open" for c in certs)


def test_planted_inconsistency_trips_the_audit():
    code = fixtures.even_cover()
    with pytest.raises(ConsistencyFault):
        certificates(code, {"semi_open": refuted({"zone": ["fake"]})})


def test_audit_primitive():
    with pytest.raises(ConsistencyFault):
        audit(Decision(PROVED, {}, "certificate:X"), refuted({}), "X")
    # agreeing and inconclusive pairs pass through
    audit(proved({}), proved({}), "ok")
    audit(proved({}), proved({}).__class__("Inconclusive", None, "c"), "ok")


def test_fiber_context_certificates():
    cover = fixtures.golden_cover()
    product = fiber_product(cover, cover)
    semi, _ = check_semi_open(cover)
    ctx = {"fiber": {
        "psi1_semi_open": semi,
        "phi1_semi_open": semi,
        "psi2_onto": proved({"checked": "fixture"}),
    }}
    tags = {c.tag for c in certificates(product.psi2, ctx)}
    assert "ThmFiber" in tags


def test_lift_context_certificates():
    x = fixtures.golden_shift()
    code = fixtures.golden_cover()
    cover_semi, _ = check_semi_open(code)
    certs = certificates(code, {"lift": {"cover_semi_open": cover_semi}})
    assert "ThmLiftt" in {c.tag for c in certs}


def test_certificates_on_exhausted_budget_rest_on_proved_hypotheses(
        monkeypatch):
    # determinize, the semi-open sweep and the SFT check all run out at
    # budget 1, also on a code whose memos a default budget filled; only
    # certificates whose checks spend no budget remain
    for warm in (False, True):
        monkeypatch.delenv("SHIFTLAB_STATE_BUDGET", raising=False)
        code = fixtures.even_cover()
        if warm:
            assert {c.tag for c in certificates(code)} == EVEN_TAGS
        monkeypatch.setenv("SHIFTLAB_STATE_BUDGET", "1")
        certs = certificates(code)
        assert {c.tag for c in certs} == {"ThmFiniteCover", "ThmRRMagic"}
        for cert in certs:
            for line in cert.hypotheses:
                assert line.endswith(": Proved")


def test_certificates_build_each_subset_construction_once(monkeypatch):
    """The hypotheses certificates checks all start from determinized
    presentations; each presentation is determinized at most once, and
    each code's ambiguity patterns are searched at most once."""
    built, searched = [], []
    subset_construction = gr._subset_construction
    ambiguity_verdict = codes._ambiguity_verdict

    def spy_subsets(t, budget):
        built.append(t)
        return subset_construction(t, budget)

    def spy_ambiguity(g, budget):
        searched.append(g)
        return ambiguity_verdict(g, budget)
    monkeypatch.setattr(gr, "_subset_construction", spy_subsets)
    monkeypatch.setattr(codes, "_ambiguity_verdict", spy_ambiguity)
    for name, build in fixtures.COVERS.items():
        built.clear()
        searched.clear()
        certificates(build())
        assert built, name
        assert len({id(t) for t in built}) == len(built), name
        assert len(searched) == 1, name


def test_fischer_cover_is_built_once_per_presentation(monkeypatch):
    """degree, fischer_cover, lift_code and certificates on one code all
    read the covers of its domain and its image from the memo on the
    determinized presentation: each is built at most once."""
    built = []
    verified_cover = shifts._verified_cover

    def spy(d, budget):
        built.append(d)
        return verified_cover(d, budget)
    monkeypatch.setattr(shifts, "_verified_cover", spy)
    for name, build in fixtures.COVERS.items():
        built.clear()
        code = build()
        image = codes.image_presentation(code)
        try:
            codes.degree(code)
        except NotFiniteToOne:
            pass
        shifts.fischer_cover(code.domain)
        shifts.fischer_cover(image)
        codes.lift_code(code, code.domain, image)
        certificates(code)
        assert sorted(map(id, built)) == sorted(
            id(gr.determinize(x.presentation)) for x in (code.domain, image)
        ), name


def test_nonwandering_report_fig1():
    report = check_nonwandering_maximal(fixtures.fig1_shift())
    assert report["nonwandering"] is True
    assert report["all_maximal"] is False
    comps = {tuple(c["vertices"]): c for c in report["components"]}
    assert comps[("v1", "v2")]["maximal"] is True
    assert abs(comps[("v1", "v2")]["entropy"] - report["entropy"]) < 1e-9
    assert comps[("w",)]["entropy"] == 0.0
    assert comps[("w",)]["maximal"] is False


def test_nonwandering_two_equal_components():
    g = LabeledGraph.make(
        ["0", "1"], ["a", "b"],
        [("e1", "a", "a", "0"), ("e2", "a", "a", "1"),
         ("e3", "b", "b", "0"), ("e4", "b", "b", "1")])
    report = check_nonwandering_maximal(SoficShift(g))
    assert report["nonwandering"] is True
    assert report["all_maximal"] is True
    assert len(report["components"]) == 2
    assert abs(report["entropy"] - math.log(2)) < 1e-12


def test_bridged_loops_wander():
    # a path between two loops is admissible only in the bridge shift,
    # so the union of components misses it
    g = LabeledGraph.make(
        ["a", "b"], ["u", "w"],
        [("e1", "u", "u", "a"), ("e2", "w", "w", "b"),
         ("e3", "u", "w", "a")])
    report = check_nonwandering_maximal(SoficShift(g))
    assert report["nonwandering"] is False


def test_irreducible_shift_is_nonwandering_and_maximal():
    report = check_nonwandering_maximal(fixtures.golden_shift())
    assert report["nonwandering"] is True
    assert report["all_maximal"] is True
    assert len(report["components"]) == 1


def test_degree_one_lets_a_defect_in_degree_through(monkeypatch):
    """Only NotFiniteToOne and ReducibleShift make the degree-one
    hypothesis Inconclusive; any other exception from degree surfaces."""
    def broken(code):
        raise KeyError("defect")

    monkeypatch.setattr(theorems, "degree", broken)
    with pytest.raises(KeyError, match="defect"):
        certificates(fixtures.even_cover())
