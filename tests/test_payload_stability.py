"""Payload stability: the full payload of every closing, SFT, openness,
retract, magic-witness and degree result on a seeded corpus of small codes,
pinned by one sha256 per (code, call) in tests/data/payload_digests.json.

The verdict tests and the benchmark gate compare verdicts only; this test
catches a change in any witness, table or count. Regenerate the file only
for an intended payload change:

    PYTHONPATH=src python tests/test_payload_stability.py > tests/data/payload_digests.json
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from shiftlab import fixtures
from shiftlab import graph as gr
from shiftlab import io
from shiftlab.automata import Budget
from shiftlab.codes import (SlidingBlockCode, cover_code, degree,
                            image_presentation, is_left_closing,
                            is_right_closing)
from shiftlab.openness import (check_open, check_right_continuing_retract,
                               check_semi_open, witness_from_magic)
from shiftlab.properties import gen_labeled_graph
from shiftlab.shifts import SoficShift, fischer_cover, is_sft

DIGESTS = Path(__file__).resolve().parent / "data" / "payload_digests.json"
SEED = 2024
CODES = 100
MAX_VERTICES = 5
MAX_ALPHABET = 3
SWEEP_BUDGET = 50_000
# check_open is pinned at the bounds its digests were taken at; other
# bounds give other tables
OPEN_BOUNDS = {"l_max": 2, "k_max": 4}


def corpus():
    """Seeded code descriptions, cycling through cover codes of irreducible
    and arbitrary graphs and one-block codes on irreducible and arbitrary
    graphs (arbitrary graphs give reducible domains)."""
    rng = random.Random(SEED)
    out = []
    for i in range(CODES):
        kind = i % 4
        accept = gr.is_irreducible if kind in (0, 2) else None
        g = gen_labeled_graph(rng, MAX_VERTICES, MAX_ALPHABET, accept=accept)
        desc = {"graph": io.graph_to_json(g)}
        if kind in (2, 3):
            outs = [str(s) for s in range(rng.randint(1, MAX_ALPHABET))]
            desc["table"] = {s: rng.choice(outs)
                             for s in sorted({e.label for e in g.edges})}
        out.append(desc)
    return out


def build_code(desc):
    g = io.graph_from_json(desc["graph"])
    if "table" not in desc:
        return cover_code(g)
    table = {(s,): v for s, v in desc["table"].items()}
    return SlidingBlockCode.make(SoficShift.from_graph(g), 0, 0, table)


# few random codes refute openness or semi-openness; these fixtures do
FIXTURES = ("fig1_code", "golden_cover", "even_cover", "phase_doubling_code",
            "right_closing_counterexample_code")


def codes():
    """(key, code) for the seeded corpus, then the code fixtures."""
    out = [(f"code#{i}", build_code(d)) for i, d in enumerate(corpus())]
    out += [(name, getattr(fixtures, name)()) for name in FIXTURES]
    return out


def _magic(code):
    g = fischer_cover(image_presentation(code))
    first = min(g.edges, key=lambda e: e.id)
    second = min(g.out[first.dst], key=lambda e: e.id)
    return witness_from_magic(g, gr.find_magic_word(g),
                              [first.id, second.id])


def _degree(code):
    d = degree(code)
    return [d.degree, list(d.word), d.index, list(d.fiber_edges)]


def calls(code):
    """(name, thunk) for every call whose payload is pinned; each thunk
    returns a JSON-able value."""
    out = [
        ("closing.right", lambda: is_right_closing(code).to_json()),
        ("closing.left", lambda: is_left_closing(code).to_json()),
        ("sft.image", lambda: is_sft(image_presentation(code)).to_json()),
        ("sft.domain", lambda: is_sft(code.domain).to_json()),
    ]
    for name, check, bounds in (("open", check_open, OPEN_BOUNDS),
                                ("semi-open", check_semi_open, {})):
        def sweep(check=check, bounds=bounds):
            dec, table = check(code, budget=Budget(SWEEP_BUDGET), **bounds)
            return [dec.to_json(), table.to_json()]
        out.append((name, sweep))
    for side in ("right", "left", "bi"):
        for n in range(3):
            out.append((f"retract.{side}.{n}",
                        lambda s=side, n=n: check_right_continuing_retract(
                            code, n, s).to_json()))
    out.append(("magic", lambda: _magic(code).to_json()))
    out.append(("degree", lambda: _degree(code)))
    return out


def digest(thunk):
    try:
        value = thunk()
    except Exception as exc:  # a raise is part of the pinned behaviour
        value = {"raises": type(exc).__name__, "message": str(exc)}
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def corpus_digest(descs):
    blob = json.dumps(descs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def snapshot():
    return {
        "corpus": corpus_digest(corpus()),
        "digests": {key: {name: digest(thunk) for name, thunk in calls(code)}
                    for key, code in codes()},
    }


def test_payloads_are_stable():
    pinned = json.loads(DIGESTS.read_text())
    assert corpus_digest(corpus()) == pinned["corpus"], "the corpus changed"
    drift = [f"{key} {name}"
             for key, code in codes()
             for name, thunk in calls(code)
             if digest(thunk) != pinned["digests"][key][name]]
    assert not drift, "payloads drifted: " + ", ".join(drift)


if __name__ == "__main__":
    json.dump(snapshot(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
