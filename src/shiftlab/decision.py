"""Verdict values returned by the decision procedures.

A Decision is Proved, Refuted or Inconclusive together with a payload of
evidence (witnesses, bounds, statistics) and a provenance string saying
whether it was computed directly or derived through a theorem
certificate. Proved and Refuted are exact claims; Inconclusive only ever
means a search budget or depth bound ran out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import wraps

from .errors import BudgetExceeded, ConsistencyFault

PROVED = "Proved"
REFUTED = "Refuted"
INCONCLUSIVE = "Inconclusive"

COMPUTATIONAL = "computational"


@dataclass(frozen=True, eq=False)
class Decision:
    verdict: str
    payload: dict = field(default_factory=dict)
    provenance: str = COMPUTATIONAL

    @property
    def is_proved(self):
        return self.verdict == PROVED

    @property
    def is_refuted(self):
        return self.verdict == REFUTED

    @property
    def is_inconclusive(self):
        return self.verdict == INCONCLUSIVE

    def to_json(self):
        return {
            "verdict": self.verdict,
            "payload": _jsonable(self.payload),
            "provenance": self.provenance,
        }


def proved(payload=None):
    return Decision(PROVED, payload or {})


def refuted(payload=None):
    return Decision(REFUTED, payload or {})


def inconclusive(payload=None):
    return Decision(INCONCLUSIVE, payload or {})


def out_of_budget(exc):
    """The Inconclusive of a check whose state budget ran out."""
    return inconclusive({"reason": "budget", "detail": str(exc)})


def inconclusive_on_budget(check):
    """The check, returning out_of_budget for a BudgetExceeded raised
    anywhere in it."""
    @wraps(check)
    def run(*args, **kwargs):
        try:
            return check(*args, **kwargs)
        except BudgetExceeded as exc:
            return out_of_budget(exc)
    return run


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple, set, frozenset)):
        items = [_jsonable(v) for v in x]
        if isinstance(x, (set, frozenset)):
            items.sort(key=repr)
        return items
    if isinstance(x, Decision):
        return x.to_json()
    if isinstance(x, float) and x == float("inf"):
        return "infinity"
    return x


@dataclass(frozen=True, eq=False)
class Certificate:
    """A conclusion justified by a named closure theorem.

    Emitted only when every hypothesis was itself established by a
    Proved decision; carries enough text to audit against a direct
    computation afterwards.
    """

    tag: str
    hypotheses: tuple
    conclusion: str

    def to_decision(self):
        payload = {
            "certificate": self.tag,
            "hypotheses": list(self.hypotheses),
            "conclusion": self.conclusion,
        }
        return Decision(PROVED, payload, provenance=f"certificate:{self.tag}")


def audit(certified, computed, context=""):
    """Cross-check a certified decision against a computed one.

    A Proved certificate against a Refuted computation (or vice versa)
    is a hard fault: one of the two engines is wrong.
    """
    pair = {certified.verdict, computed.verdict}
    if PROVED in pair and REFUTED in pair:
        raise ConsistencyFault(
            certified.provenance,
            f"{context}: certificate says {certified.verdict}, "
            f"computation says {computed.verdict}",
        )
    return computed if computed.verdict != INCONCLUSIVE else certified
