import json
import random

import pytest

from shiftlab import openness, properties
from shiftlab.decision import refuted
from shiftlab.errors import GenerationExhausted, InvariantViolation
from shiftlab.graph import is_irreducible, is_right_resolving
from shiftlab.properties import (
    PROPERTIES,
    TrialConfig,
    gen_labeled_graph,
    gen_right_resolving_graph,
    proptest,
    replay,
)

ALL_PROPERTIES = tuple(PROPERTIES)


def test_registry_names():
    assert set(ALL_PROPERTIES) == {
        "finite-cover-semi-open", "factor-semi-open", "right-closing-sft",
        "semi-ae-constant", "magic-witness", "fiber-transfer",
        "lift-consistency",
    }


@pytest.mark.parametrize("prop", ALL_PROPERTIES)
def test_no_forbidden_verdicts_on_short_batches(prop):
    report = proptest(TrialConfig(prop, seed=11, trials=30))
    assert report["counts"]["forbidden"] == 0
    assert report["failures"] == []


def test_reports_are_deterministic():
    cfg = TrialConfig("right-closing-sft", seed=9, trials=25)
    first = json.dumps(proptest(cfg), sort_keys=True)
    second = json.dumps(proptest(cfg), sort_keys=True)
    assert first == second


@pytest.mark.parametrize("prop", ALL_PROPERTIES)
def test_instances_serialize_to_json(prop):
    rng = random.Random(13)
    cfg = TrialConfig(prop, seed=13, trials=3)
    for _ in range(3):
        instance = PROPERTIES[prop].generate(rng, cfg)
        assert json.loads(json.dumps(instance)) == instance


def test_generators_respect_acceptance_predicates():
    rng = random.Random(17)
    for _ in range(20):
        g = gen_labeled_graph(rng, 5, 3, accept=is_irreducible)
        assert is_irreducible(g)
        r = gen_right_resolving_graph(rng, 5, 3)
        assert is_right_resolving(r)


def test_generator_exhaustion_raises_after_cap():
    rng = random.Random(1)
    with pytest.raises(GenerationExhausted) as err:
        gen_labeled_graph(rng, 3, 2, accept=lambda g: False)
    assert err.value.attempts == properties.ATTEMPT_CAP


def test_exhausted_trials_are_counted_not_fatal(monkeypatch):
    def starved(rng, cfg):
        raise GenerationExhausted(properties.ATTEMPT_CAP)

    monkeypatch.setitem(
        properties.PROPERTIES, "factor-semi-open",
        properties.Property("factor-semi-open", starved,
                            PROPERTIES["factor-semi-open"].check))
    report = proptest(TrialConfig("factor-semi-open", seed=2, trials=4))
    assert report["generation_exhausted"] == 4
    assert report["counts"]["skipped"] == 4


def test_unknown_property_rejected():
    with pytest.raises(InvariantViolation):
        proptest(TrialConfig("no-such-suite"))


def test_mutant_harness_is_caught_and_replays(monkeypatch):
    # break the checker on purpose: the suite must notice and the
    # serialized failures must replay to the same classification
    monkeypatch.setattr(
        properties, "_sweep",
        lambda code: (refuted({"zone": ["mutant"]}), None))
    report = proptest(TrialConfig("factor-semi-open", seed=4, trials=6))
    assert report["counts"]["forbidden"] >= 1
    assert report["failures"]
    for failure in report["failures"]:
        assert replay(failure)["status"] == "forbidden"


def test_suite_sweeps_still_check_every_proved_offset_has_a_window(
        monkeypatch):
    # the suite reads the witness tables of a fixed subset of its sweeps,
    # so a window search that fails at a decided offset reaches proptest;
    # no finite-cover sweep is Refuted, so only those reads search
    def no_window(space, u, m, goal, start=None):
        raise InvariantViolation("window at the decided offset", u.word)
    monkeypatch.setattr(openness, "_least_window", no_window)
    with pytest.raises(InvariantViolation):
        proptest(TrialConfig("finite-cover-semi-open"))
