"""Exception types shared across the library."""

from __future__ import annotations


class ParseError(ValueError):
    """Malformed textual input; carries the offending position."""

    def __init__(self, text: str, pos: int, expected: str):
        self.text = text
        self.pos = pos
        self.expected = expected
        super().__init__(f"parse error at position {pos}: expected {expected} in {text!r}")


class InvalidDenominatorError(ValueError):
    """A rational coefficient has a prime in its denominator with no torsion slot to absorb it."""


class GroupMismatchError(ValueError):
    """Two values bound to different parent groups were combined."""


class UnsupportedCaseError(ValueError):
    """The operation was called outside the case it is defined for."""


class NotAMemberError(ValueError):
    """A membership precondition failed."""


class RingIsAIError(ValueError):
    """No witness exists: every ideal of the ring is already an absolute ideal."""


class FactorizationBudgetError(ValueError):
    """Brent's method used up its fixed step budget before the integer split."""


class InvariantError(ArithmeticError):
    """A recomputation check failed: the library broke one of its own invariants.

    The message ends with the canonical inputs as ``name=value`` pairs, named after the
    command-line flags (``cochar``, ``m``, ``g``, ``b``) so that the call can be replayed.
    """

    def __init__(self, message: str, **inputs):
        self.inputs = {name: str(value) for name, value in inputs.items()}
        super().__init__(" ".join([message, *(f"{n}={v}" for n, v in self.inputs.items())]))
