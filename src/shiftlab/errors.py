"""Exception types shared across the package.

Everything raised on purpose derives from ShiftLabError so callers can
catch the library's own failures without swallowing genuine bugs.
"""


class ShiftLabError(Exception):
    pass


class InvariantViolation(ShiftLabError):
    """An internal consistency check failed.

    These guard relationships that are supposed to be theorems; seeing one
    means either the inputs are corrupt or there is a bug.
    """

    def __init__(self, invariant, detail=""):
        msg = invariant if not detail else f"{invariant}: {detail}"
        super().__init__(msg)
        self.invariant = invariant


class UnknownVertex(InvariantViolation):
    def __init__(self, vertex):
        super().__init__("edge endpoints are declared vertices",
                         f"got {vertex!r}")
        self.vertex = vertex


class AlphabetMismatch(InvariantViolation):
    def __init__(self, detail):
        super().__init__("edge labels belong to the alphabet", detail)


class ReducibleShift(ShiftLabError):
    """The operation needs an irreducible shift and got a reducible one."""


class NotRightResolving(ShiftLabError):
    def __init__(self, vertex, symbol):
        super().__init__(
            f"vertex {vertex!r} has two out-edges labeled {symbol!r}"
        )
        self.vertex = vertex
        self.symbol = symbol


class NotIrreducible(ShiftLabError):
    pass


class NotMagic(ShiftLabError):
    def __init__(self, word, reached):
        super().__init__(
            f"word {''.join(word)!r} focuses to {sorted(reached)} (need a singleton)"
        )
        self.word = word
        self.reached = reached


class WordTooShort(ShiftLabError):
    pass


class WordNotAdmissible(ShiftLabError):
    def __init__(self, word):
        super().__init__(f"word is not admissible here: {''.join(word)!r}")
        self.word = word


class PeriodicPointNotInShift(ShiftLabError):
    def __init__(self, word):
        super().__init__(
            f"periodic point with repeating block {''.join(word)!r} is not in the shift"
        )
        self.word = word


class DomainMismatch(ShiftLabError):
    pass


class NotFiniteToOne(ShiftLabError):
    pass


class ParseError(ShiftLabError):
    def __init__(self, message, field=None):
        if field is not None:
            message = f"{field}: {message}"
        super().__init__(message)
        self.field = field


class ConsistencyFault(ShiftLabError):
    """A certified conclusion disagrees with a direct computation."""

    def __init__(self, certificate, detail):
        super().__init__(f"certificate {certificate} contradicted: {detail}")
        self.certificate = certificate


class GenerationExhausted(ShiftLabError):
    def __init__(self, attempts):
        super().__init__(
            f"no admissible random instance found in {attempts} attempts"
        )
        self.attempts = attempts


class BudgetExceeded(ShiftLabError):
    def __init__(self, budget, where):
        super().__init__(f"state budget {budget} exceeded in {where}")
        self.budget = budget
        self.where = where
