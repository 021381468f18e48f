"""Seeded random instances and the theorem-consistency property suite.

Every property pairs a deterministic instance generator with a checker
that classifies one instance as satisfied, skipped (hypotheses failed,
implication vacuous), inconclusive (some verdict hit its bound) or
forbidden (hypotheses proved, conclusion refuted: a genuine fault in
either an engine or a theorem). Instances serialize to plain JSON so a
failure can be replayed bit-for-bit.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass

from . import graph as gr
from . import io
from .codes import (
    SlidingBlockCode,
    cover_code,
    degree,
    fiber_product,
    image_presentation,
    is_finite_to_one,
    is_right_closing,
    is_surjective_onto,
    lift_code,
)
from .decision import proved
from .errors import (
    BudgetExceeded,
    GenerationExhausted,
    InvariantViolation,
    NotFiniteToOne,
    ParseError,
)
from .automata import Budget
from .graph import LabeledGraph
from .openness import (
    check_right_continuing_retract,
    check_semi_open,
    witness_from_magic,
)
from .pointed import CenteredWord, contains_cylinder, cylinder_image
from .shifts import SoficShift, fischer_cover, is_irreducible_shift, is_sft
from .theorems import certificates, check_nonwandering_maximal

ATTEMPT_CAP = 1000
# per-check state allowance; oversize instances classify as inconclusive
# instead of stalling a batch
SWEEP_BUDGET = 150_000

SATISFIED = "satisfied"
SKIPPED = "skipped"
INCONCLUSIVE = "inconclusive"
FORBIDDEN = "forbidden"


@dataclass(frozen=True)
class TrialConfig:
    prop: str
    seed: int = 42
    trials: int = 200
    max_vertices: int = 6
    max_alphabet: int = 3

    def __post_init__(self):
        for name, least in (("trials", 0), ("max_vertices", 1),
                            ("max_alphabet", 1)):
            if (value := getattr(self, name)) < least:
                raise ParseError(f"must be at least {least}, got {value}",
                                 field=name)


# -- generators --------------------------------------------------------------


def gen_labeled_graph(rng, max_vertices, max_alphabet, accept=None):
    """One random trimmed nonempty graph, rejection-sampled until accept
    passes; deterministic given the generator state."""
    for _ in range(ATTEMPT_CAP):
        n = rng.randint(1, max_vertices)
        k = rng.randint(1, max_alphabet)
        alphabet = [str(i) for i in range(k)]
        vertices = [f"v{i}" for i in range(n)]
        m = rng.randint(n, 2 * n + 1)
        edges = [
            (f"e{j}", rng.choice(vertices), rng.choice(vertices),
             rng.choice(alphabet))
            for j in range(m)
        ]
        g = gr.trim(LabeledGraph.make(alphabet, vertices, edges))
        if g.n == 0:
            continue
        if accept is None or accept(g):
            return g
    raise GenerationExhausted(ATTEMPT_CAP)


def gen_right_resolving_graph(rng, max_vertices, max_alphabet, accept=None):
    """Right-resolving by construction: out-edges at a vertex get distinct
    labels, so only the accept predicate is rejection-sampled."""
    for _ in range(ATTEMPT_CAP):
        n = rng.randint(1, max_vertices)
        k = rng.randint(1, max_alphabet)
        alphabet = [str(i) for i in range(k)]
        vertices = [f"v{i}" for i in range(n)]
        edges = []
        for v in vertices:
            for s in rng.sample(alphabet, rng.randint(1, k)):
                edges.append((f"e{len(edges)}", v, rng.choice(vertices), s))
        g = gr.trim(LabeledGraph.make(alphabet, vertices, edges))
        if g.n == 0:
            continue
        if accept is None or accept(g):
            return g
    raise GenerationExhausted(ATTEMPT_CAP)


def _gen_irreducible(rng, cfg):
    return gen_labeled_graph(rng, cfg.max_vertices, cfg.max_alphabet,
                             accept=gr.is_irreducible)


def _gen_one_block_instance(rng, cfg, irreducible=True):
    if irreducible:
        g = _gen_irreducible(rng, cfg)
    else:
        g = gen_labeled_graph(rng, cfg.max_vertices, cfg.max_alphabet)
    out = [str(i) for i in range(rng.randint(1, cfg.max_alphabet))]
    used = sorted({e.label for e in g.edges})
    table = {s: rng.choice(out) for s in used}
    return {"graph": io.graph_to_json(g), "table": table}


def _one_block_code(instance):
    x = SoficShift.from_graph(io.graph_from_json(instance["graph"]))
    table = io._string_table(instance["table"], "table")
    return SlidingBlockCode.make(x, 0, 0, {(s,): v for s, v in table.items()})


def _sweep(code):
    """check_semi_open at the suite's budget. Its table's witness cylinders
    are built only when read, and no property reads them, so the tables
    of about one sweep in eight are read here: those whose code's
    canonical JSON has a CRC-32 divisible by 8. Each build checks that
    every Proved offset has a window (_least_window raises
    InvariantViolation otherwise). The rule reads the code alone, so
    replay audits exactly the sweeps proptest does."""
    dec, table = check_semi_open(code, budget=Budget(SWEEP_BUDGET,
                                                     "property sweep"))
    if zlib.crc32(io.dumps(io.code_to_json(code, embed_domain=True))
                  .encode()) % 8 == 0:
        table.witnesses
    return dec, table


def _classify_hypotheses(decisions):
    """None when all Proved; SKIPPED on any Refuted (vacuous implication);
    INCONCLUSIVE when undecided hypotheses block classification."""
    if any(d.is_refuted for d in decisions):
        return SKIPPED
    if any(d.is_inconclusive for d in decisions):
        return INCONCLUSIVE
    return None


# -- property (a): cover maps of irreducible finite covers are semi-open ------


def _a_generate(rng, cfg):
    return {"graph": io.graph_to_json(_gen_irreducible(rng, cfg))}


def _a_check(instance):
    code = cover_code(io.graph_from_json(instance["graph"]))
    dec, _ = _sweep(code)
    if dec.is_refuted:
        return {"status": FORBIDDEN, "detail": {"semi_open": dec.to_json()}}
    # route through the certificate audit; a clash raises ConsistencyFault
    retract = check_right_continuing_retract(code, 1, "right")
    certificates(code, {"semi_open": dec, "retract": retract})
    return {"status": INCONCLUSIVE if dec.is_inconclusive else SATISFIED}


# -- property (b): one-block factor codes from irreducible sofic --------------


def _b_generate(rng, cfg):
    return _gen_one_block_instance(rng, cfg)


def _b_check(instance):
    code = _one_block_code(instance)
    dec, _ = _sweep(code)
    if dec.is_refuted:
        return {"status": FORBIDDEN, "detail": {"semi_open": dec.to_json()}}
    certificates(code, {"semi_open": dec})
    return {"status": INCONCLUSIVE if dec.is_inconclusive else SATISFIED}


# -- property (c): right-closing semi-open onto an irreducible SFT ------------


def _c_check(instance):
    code = _one_block_code(instance)
    semi, _ = _sweep(code)
    closing = is_right_closing(code)
    y = image_presentation(code)
    y_sft = is_sft(y)
    gate = _classify_hypotheses([semi, closing, y_sft])
    if gate is not None:
        return {"status": gate}
    if not is_irreducible_shift(y):
        return {"status": SKIPPED}
    dom_sft = is_sft(code.domain)
    if dom_sft.is_refuted:
        return {"status": FORBIDDEN, "detail": {"domain_sft": dom_sft.to_json()}}
    if dom_sft.is_inconclusive:
        return {"status": INCONCLUSIVE}
    return {"status": SATISFIED}


# -- property (d): finite-to-one semi-open SFT-to-sofic is a.e. constant ------


def _d_generate(rng, cfg):
    return _gen_one_block_instance(rng, cfg, irreducible=False)


def _d_check(instance):
    code = _one_block_code(instance)
    x = code.domain
    dom_sft = is_sft(x)
    f2o = is_finite_to_one(code)
    semi, _ = _sweep(code)
    gate = _classify_hypotheses([dom_sft, f2o, semi])
    if gate is not None:
        return {"status": gate}
    y = image_presentation(code)
    if not is_irreducible_shift(y):
        return {"status": SKIPPED}
    # constancy over doubly transitive fibers: each maximal component that
    # still covers the image must carry a well-defined degree
    report = check_nonwandering_maximal(x)
    fibers = []
    for comp in report["components"]:
        if not comp["maximal"]:
            continue
        sub = gr.subgraph(gr.trim(x.presentation), comp["vertices"])
        xc = SoficShift.from_graph(sub)
        table = {w: code.table[w] for w in xc.language(code.window)}
        restricted = SlidingBlockCode.make(xc, code.memory, code.anticipation,
                                           table, code.codomain_alphabet)
        if not is_surjective_onto(restricted, y):
            continue
        try:
            fibers.append(degree(restricted).degree)
        except NotFiniteToOne:
            return {"status": FORBIDDEN,
                    "detail": {"component": comp["vertices"]}}
    if fibers and min(fibers) < 1:
        return {"status": FORBIDDEN, "detail": {"fibers": fibers}}
    return {"status": SATISFIED, "detail": {"fibers": fibers}}


# -- property (e): magic-word witnesses re-verify ------------------------------


def _e_generate(rng, cfg):
    def accept(g):
        return gr.is_irreducible(g) and gr.find_magic_word(g) is not None

    g = gen_right_resolving_graph(rng, cfg.max_vertices, cfg.max_alphabet,
                                  accept)
    edges = sorted(g.edges, key=lambda e: e.id)
    path = [rng.choice(edges)]
    for _ in range(rng.randint(0, 3)):
        path.append(rng.choice([e for e in edges if e.src == path[-1].dst]))
    return {"graph": io.graph_to_json(g), "path": [e.id for e in path]}


def _e_check(instance):
    g = io.graph_from_json(instance["graph"])
    path = tuple(io._string_list(instance["path"], "path"))
    alpha = gr.find_magic_word(g)
    witness = witness_from_magic(g, alpha, path)
    code = cover_code(g)
    automaton = cylinder_image(code, CenteredWord(path, (len(path) - 1) // 2))
    if contains_cylinder(automaton, SoficShift.from_graph(g), witness):
        return {"status": SATISFIED}
    return {"status": FORBIDDEN, "detail": {"witness": witness.to_json()}}


# -- property (f): semi-openness transfers across a fiber product -------------


def _f_generate(rng, cfg):
    base = TrialConfig(cfg.prop, cfg.seed, cfg.trials,
                       min(cfg.max_vertices, 4), cfg.max_alphabet)
    g1 = _gen_irreducible(rng, base)
    mode = rng.choice(["same", "determinized", "fischer"])
    if mode == "same":
        g2 = g1
    elif mode == "determinized":
        g2 = gr.determinize(g1)
    else:
        g2 = fischer_cover(SoficShift.from_graph(g1))
    return {"graph1": io.graph_to_json(g1), "graph2": io.graph_to_json(g2)}


def _f_check(instance):
    phi1 = cover_code(io.graph_from_json(instance["graph1"]))
    phi2 = cover_code(io.graph_from_json(instance["graph2"]))
    product = fiber_product(phi1, phi2)
    psi1_semi, _ = _sweep(product.psi1)
    phi1_semi, _ = _sweep(phi1)
    onto = is_surjective_onto(product.psi2, phi2.domain)
    gate = _classify_hypotheses([psi1_semi, phi1_semi])
    if gate is not None:
        return {"status": gate}
    if not onto:
        return {"status": SKIPPED}
    psi2_semi, _ = _sweep(product.psi2)
    phi2_semi, _ = _sweep(phi2)
    if psi2_semi.is_refuted or phi2_semi.is_refuted:
        return {"status": FORBIDDEN,
                "detail": {"psi2": psi2_semi.to_json(),
                           "phi2": phi2_semi.to_json()}}
    context = {"fiber": {"psi1_semi_open": psi1_semi,
                         "phi1_semi_open": phi1_semi,
                         "psi2_onto": proved({"checked": "shift equality"})}}
    certificates(product.psi2, dict(context, semi_open=psi2_semi))
    certificates(phi2, dict(context, semi_open=phi2_semi))
    undecided = psi2_semi.is_inconclusive or phi2_semi.is_inconclusive
    return {"status": INCONCLUSIVE if undecided else SATISFIED}


# -- property (g): semi-openness descends from the lifted cover code ----------


def _g_generate(rng, cfg):
    return _gen_one_block_instance(rng, cfg)


def _g_check(instance):
    code = _one_block_code(instance)
    x2 = image_presentation(code)
    lifted = lift_code(code, code.domain, x2,
                       budget=Budget(SWEEP_BUDGET, "property lift"))
    if lifted is None:
        return {"status": SKIPPED}
    cover_semi, _ = _sweep(lifted)
    if cover_semi.is_refuted:
        return {"status": SKIPPED}
    if cover_semi.is_inconclusive:
        return {"status": INCONCLUSIVE}
    semi, _ = _sweep(code)
    if semi.is_refuted:
        return {"status": FORBIDDEN, "detail": {"semi_open": semi.to_json()}}
    certificates(code, {"semi_open": semi,
                        "lift": {"cover_semi_open": cover_semi}})
    return {"status": INCONCLUSIVE if semi.is_inconclusive else SATISFIED}


@dataclass(frozen=True)
class Property:
    name: str
    generate: object
    check: object
    keys: tuple = ()  # the instance keys generate writes and check reads


PROPERTIES = {name: Property(name, generate, check, keys)
              for name, generate, check, keys in (
    ("finite-cover-semi-open", _a_generate, _a_check, ("graph",)),
    ("factor-semi-open", _b_generate, _b_check, ("graph", "table")),
    ("right-closing-sft", _b_generate, _c_check, ("graph", "table")),
    ("semi-ae-constant", _d_generate, _d_check, ("graph", "table")),
    ("magic-witness", _e_generate, _e_check, ("graph", "path")),
    ("fiber-transfer", _f_generate, _f_check, ("graph1", "graph2")),
    ("lift-consistency", _g_generate, _g_check, ("graph", "table")))}


def proptest(cfg):
    """Run one registered property; the report is plain JSON and
    byte-stable for a fixed TrialConfig."""
    if cfg.prop not in PROPERTIES:
        raise InvariantViolation("unknown property", cfg.prop)
    prop = PROPERTIES[cfg.prop]
    rng = random.Random(cfg.seed)
    counts = {SATISFIED: 0, SKIPPED: 0, INCONCLUSIVE: 0, FORBIDDEN: 0}
    failures = []
    exhausted = 0
    for index in range(cfg.trials):
        try:
            instance = prop.generate(rng, cfg)
        except GenerationExhausted:
            exhausted += 1
            counts[SKIPPED] += 1
            continue
        try:
            result = prop.check(instance)
        except BudgetExceeded:
            result = {"status": INCONCLUSIVE}
        counts[result["status"]] += 1
        if result["status"] == FORBIDDEN:
            failures.append({"property": cfg.prop, "trial": index,
                             "instance": instance,
                             "detail": result.get("detail", {})})
    return {
        "property": cfg.prop,
        "seed": cfg.seed,
        "trials": cfg.trials,
        "max_vertices": cfg.max_vertices,
        "max_alphabet": cfg.max_alphabet,
        "counts": counts,
        "generation_exhausted": exhausted,
        "inconclusive_rate": (counts[INCONCLUSIVE] / cfg.trials
                              if cfg.trials else 0.0),
        "failures": failures,
    }


def replay(failure):
    """Re-run one serialized failure instance; same classification comes
    back for a faithful record, and ParseError for a malformed one."""
    if not (isinstance(failure, dict)
            and {"property", "instance"} <= failure.keys()):
        raise ParseError("a failure record is an object with property and "
                         "instance")
    prop = PROPERTIES.get(failure["property"])
    if prop is None:
        raise InvariantViolation("unknown property",
                                 str(failure["property"]))
    instance = failure["instance"]
    if not (isinstance(instance, dict) and set(prop.keys) <= instance.keys()):
        raise ParseError(f"an object with {' and '.join(prop.keys)}",
                         "instance")
    return prop.check(instance)
