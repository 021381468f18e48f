"""Theorem certificates and the consistency audit.

Each certificate packages one closure implication as a checklist of
hypothesis verdicts plus the conclusion the implication licenses. A
certificate is emitted only when every hypothesis on its list lands
Proved by a computational check; conclusions are then audited against
the matching direct computation whenever one is available, and a
Proved-against-Refuted clash raises ConsistencyFault instead of being
smoothed over. Certificates never substitute for computation; they
cross-check it.
"""

from __future__ import annotations

from . import graph as gr
from .codes import (
    degree,
    image_presentation,
    is_cover_map,
    is_finite_to_one,
    is_right_closing,
)
from .decision import (Certificate, audit, inconclusive,
                       inconclusive_on_budget, proved, refuted)
from .errors import BudgetExceeded, NotFiniteToOne, ReducibleShift
from .openness import check_semi_open
from .shifts import (ENTROPY_TOL, SoficShift, entropy, is_irreducible_shift,
                     is_sft)

# conclusion strings; the audit dispatches on these
SEMI_OPEN = "semi-open"
ONTO = "onto (factor code)"
SYNCHRONIZED = "codomain synchronized"
NONWANDERING_SFT = "domain is a non-wandering shift of finite type"
NONWANDERING_MAXIMAL = "domain is non-wandering with all components maximal"
CONSTANT_TO_ONE_AE = "constant-to-one almost everywhere"
BI_CONTINUING_AE = "bi-continuing almost everywhere"
DOUBLY_TRANSITIVE = "doubly transitive points correspond under the map"
IRREDUCIBLE_MAP = "irreducible map (proper closed subsets have proper images)"


def _bool_dec(flag):
    return proved() if flag else refuted()


class _Facts:
    """Shared hypothesis verdicts for one code, computed lazily.

    Builders pull from here so that a hypothesis checked by several
    certificates runs once, and so that expensive checks are skipped
    entirely when a cheaper hypothesis ahead of them already failed.
    A hypothesis whose check runs out of state budget is the budget
    Inconclusive, so no certificate rests on it.
    """

    def __init__(self, code, ctx):
        self.code = code
        self.ctx = ctx
        self._memo = {}

    def _get(self, key, thunk):
        if key not in self._memo:
            self._memo[key] = thunk()
        return self._memo[key]

    def _decide(self, key, check):
        """_get for a Decision-valued hypothesis; the budget wrapper is
        built only when the memo misses."""
        return self._get(key, lambda: inconclusive_on_budget(check)())

    @property
    def domain(self):
        return self.code.domain

    @property
    def image(self):
        return self._get("image", lambda: image_presentation(self.code))

    def domain_irreducible(self):
        return self._decide(
            "dom_irr", lambda: _bool_dec(is_irreducible_shift(self.domain)))

    def codomain_irreducible(self):
        return self._decide(
            "cod_irr",
            lambda: _bool_dec(is_irreducible_shift(self.image)))

    def onto(self):
        # the codomain is the image presentation: onto by construction
        return proved({"note": "codomain is the image presentation"})

    def cover_map(self):
        return self._decide("cover",
                            lambda: _bool_dec(is_cover_map(self.code)))

    def presentation_irreducible(self):
        return self._decide(
            "pres_irr",
            lambda: _bool_dec(gr.is_irreducible(self.domain.presentation)))

    def right_resolving(self):
        return self._decide(
            "rres",
            lambda: _bool_dec(gr.is_right_resolving(self.domain.presentation)))

    def magic_word(self):
        def check():
            # only called behind a right-resolving gate, where the subset
            # search is exhaustive and None is a genuine refutation
            word = gr.find_magic_word(self.domain.presentation)
            if word is None:
                return refuted({"reason": "no focusing word exists"})
            return proved({"word": list(word)})
        return self._decide("magic", check)

    def finite_to_one(self):
        return self._decide("f2o", lambda: is_finite_to_one(self.code))

    def right_closing(self):
        return self._decide("rclose", lambda: is_right_closing(self.code))

    def sft_domain(self):
        return self._decide("sft_dom", lambda: is_sft(self.domain))

    def sft_codomain(self):
        return self._decide("sft_cod", lambda: is_sft(self.image))

    def semi_open(self):
        def check():
            if "semi_open" in self.ctx:
                return self.ctx["semi_open"]
            verdict, _ = check_semi_open(self.code)
            return verdict
        return self._decide("semi_open", check)

    def peek_semi_open(self):
        """The semi-open verdict if one is already on hand, else None."""
        return self.ctx.get("semi_open", self._memo.get("semi_open"))

    def nonwandering(self):
        """check_nonwandering_maximal's report on the domain, or None when
        the state budget runs out first."""
        def check():
            try:
                return check_nonwandering_maximal(self.domain)
            except BudgetExceeded:
                return None
        return self._get("nonwander", check)

    def degree_one(self):
        def check():
            try:
                res = degree(self.code)
            except (NotFiniteToOne, ReducibleShift) as exc:
                return inconclusive({"reason": type(exc).__name__})
            payload = {"degree": res.degree}
            return proved(payload) if res.degree == 1 else refuted(payload)
        return self._decide("deg1", check)


def _emit(tag, conclusion, *checks):
    """A certificate when every hypothesis lands Proved, else None.

    Evaluation stops at the first miss so expensive checks never run
    under a failed cheap one.
    """
    lines = []
    for name, thunk in checks:
        dec = thunk()
        lines.append(f"{name}: {dec.verdict}")
        if not dec.is_proved:
            return None
    return Certificate(tag, tuple(lines), conclusion)


# -- certificate builders ------------------------------------------------


def _cert_corollary_new(f):
    # a factor code on an irreducible sofic domain is semi-open
    return _emit(
        "CorollaryNew", SEMI_OPEN,
        ("domain irreducible sofic", f.domain_irreducible),
        ("onto the codomain", f.onto),
    )


def _cert_finite_cover(f):
    # the label map of an irreducible finite cover is semi-open
    return _emit(
        "ThmFiniteCover", SEMI_OPEN,
        ("finite cover (one-block labeling of an edge shift)", f.cover_map),
        ("cover presentation irreducible", f.presentation_irreducible),
    )


def _cert_rr_magic(f):
    return _emit(
        "ThmRRMagic", SEMI_OPEN,
        ("finite cover (one-block labeling of an edge shift)", f.cover_map),
        ("cover presentation irreducible", f.presentation_irreducible),
        ("labeling right-resolving", f.right_resolving),
        ("magic word exists", f.magic_word),
    )


def _cert_onto(f):
    return _emit(
        "LemmaOnto", ONTO,
        ("codomain irreducible", f.codomain_irreducible),
        ("semi-open", f.semi_open),
    )


def _cert_s_to_s(f):
    # synchronized = irreducible for the sofic shifts handled here
    return _emit(
        "ThmSToS", SYNCHRONIZED,
        ("domain irreducible sofic (synchronized)", f.domain_irreducible),
        ("semi-open", f.semi_open),
        ("onto the codomain", f.onto),
    )


def _cert_right_closing(f):
    return _emit(
        "ThmRightClosing", NONWANDERING_SFT,
        ("semi-open", f.semi_open),
        ("right-closing", f.right_closing),
        ("codomain irreducible", f.codomain_irreducible),
        ("codomain shift of finite type", f.sft_codomain),
    )


def _sft_finite_to_one_checks(f):
    return (
        ("domain shift of finite type", f.sft_domain),
        ("codomain irreducible sofic", f.codomain_irreducible),
        ("finite-to-one", f.finite_to_one),
        ("semi-open", f.semi_open),
    )


def _cert_sft_finite_to_one(f):
    return _emit("ThmSFTFiniteToOne", NONWANDERING_MAXIMAL,
                 *_sft_finite_to_one_checks(f))


def _cert_semi_ae(f):
    return _emit("ThmSemiAE", CONSTANT_TO_ONE_AE, *_sft_finite_to_one_checks(f))


def _cert_syn_bi_cont(f):
    # theorem-mediated: no direct almost-everywhere computation exists here
    return _emit(
        "ThmSynBiCont", BI_CONTINUING_AE,
        ("domain irreducible sofic (synchronized)", f.domain_irreducible),
        ("semi-open", f.semi_open),
    )


def _cert_ballier(f):
    rd = f.ctx.get("retract")
    if rd is None or rd.side != "right":
        return None
    return _emit(
        "ThmBallier",
        f"right-continuing everywhere with retract {rd.retract}",
        ("domain irreducible", f.domain_irreducible),
        ("codomain irreducible", f.codomain_irreducible),
        ("codomain shift of finite type", f.sft_codomain),
        ("onto the codomain", f.onto),
        (f"right-continuing with retract {rd.retract}", lambda: rd.verdict),
    )


def _cert_doubly(f):
    base = (("finite-to-one", f.finite_to_one),
            ("onto the codomain", f.onto))
    cert = _emit(
        "LemmaDoubly", DOUBLY_TRANSITIVE, *base,
        ("domain irreducible sofic (proper subsystems drop entropy)",
         f.domain_irreducible),
    )
    if cert is not None:
        return cert
    # fallback branch: irreducibility of the map itself also suffices
    return _emit(
        "LemmaDoubly", DOUBLY_TRANSITIVE, *base,
        ("map irreducible (degree one)", f.degree_one),
    )


def _cert_fischer(f):
    return _emit(
        "ThmFischer", IRREDUCIBLE_MAP,
        ("onto the codomain", f.onto),
        ("codomain irreducible", f.codomain_irreducible),
        ("degree one", f.degree_one),
    )


def _cert_fiber(f):
    fib = f.ctx.get("fiber")
    if not fib:
        return None
    return _emit(
        "ThmFiber", SEMI_OPEN,
        ("first projection semi-open", lambda: fib["psi1_semi_open"]),
        ("first factor semi-open", lambda: fib["phi1_semi_open"]),
        ("second projection onto", lambda: fib["psi2_onto"]),
    )


def _cert_liftt(f):
    lift = f.ctx.get("lift")
    if not lift:
        return None
    return _emit(
        "ThmLiftt", SEMI_OPEN,
        ("domain synchronized (irreducible sofic)", f.domain_irreducible),
        ("codomain synchronized (irreducible sofic)", f.codomain_irreducible),
        ("lifted code between the covers semi-open",
         lambda: lift["cover_semi_open"]),
    )


_BUILDERS = (
    _cert_corollary_new,
    _cert_finite_cover,
    _cert_rr_magic,
    _cert_onto,
    _cert_s_to_s,
    _cert_right_closing,
    _cert_sft_finite_to_one,
    _cert_semi_ae,
    _cert_syn_bi_cont,
    _cert_ballier,
    _cert_doubly,
    _cert_fischer,
    _cert_fiber,
    _cert_liftt,
)


def certificates(code, context=None):
    """Every certificate whose hypothesis checklist is fully Proved.

    The codomain is the code's image presentation, so the code is onto
    it by construction. The context supplies any verdicts already
    computed elsewhere:

      semi_open    Decision from check_semi_open on this code
      retract      RetractDecision (right side) for this code
      fiber        dict with psi1_semi_open, phi1_semi_open, psi2_onto
                   when this code is a leg of a fiber product
      lift         dict with cover_semi_open when this code lives between
                   synchronized systems and lifts to their covers

    After collection every conclusion is audited against the matching
    direct computation when one exists; a Proved certificate over a
    Refuted computation raises ConsistencyFault.
    """
    ctx = dict(context or {})
    f = _Facts(code, ctx)
    found = [c for c in (build(f) for build in _BUILDERS) if c is not None]
    _audit_all(found, f)
    return found


def _audit_all(certs, f):
    for cert in certs:
        claimed = cert.to_decision()
        if cert.conclusion == SEMI_OPEN:
            known = f.peek_semi_open()
            if known is not None:
                audit(claimed, known, cert.tag)
        elif cert.tag == "ThmSToS":
            audit(claimed, f.codomain_irreducible(), cert.tag)
        elif cert.tag == "ThmRightClosing":
            audit(claimed, f.sft_domain(), cert.tag)
            report = f.nonwandering()
            if report is not None:
                audit(claimed, _bool_dec(report["nonwandering"]),
                      cert.tag + " (non-wandering)")
        elif cert.tag == "ThmSFTFiniteToOne":
            report = f.nonwandering()
            if report is not None:
                good = report["nonwandering"] and report["all_maximal"]
                audit(claimed, _bool_dec(good), cert.tag)
        elif cert.tag == "ThmBallier":
            audit(claimed, f.ctx["retract"].verdict, cert.tag)


def check_nonwandering_maximal(x):
    """Component report backing the non-wandering and maximality checks.

    Components are the subshifts presented by the nontrivial strongly
    connected pieces of the trimmed presentation. The shift is
    non-wandering exactly when its language is already carried by the
    disjoint union of those pieces; a word realized only along a
    transition between pieces witnesses a wandering point. A component
    is maximal when its entropy reaches the entropy of the whole shift.
    """
    g = gr.trim(x.presentation)
    h = entropy(x)
    comps = [c for c in gr.scc_components(g) if not c.trivial]
    parts = [gr.subgraph(g, c.vertices) for c in comps]
    components = []
    for c, sub in zip(comps, parts):
        hc = entropy(SoficShift.from_graph(sub))
        components.append({
            "vertices": list(c.vertices),
            "entropy": hc,
            "maximal": abs(hc - h) <= ENTROPY_TOL,
        })
    if parts:
        nonwandering = gr.is_sublanguage(g, gr.disjoint_union(parts))
    else:
        nonwandering = True  # nothing wanders in the empty shift
    return {
        "entropy": h,
        "components": components,
        "nonwandering": nonwandering,
        "all_maximal": all(c["maximal"] for c in components),
    }
