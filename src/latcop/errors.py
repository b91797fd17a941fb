"""Exception types shared across the library."""

from __future__ import annotations


class LatcopError(Exception):
    """Base class for all latcop errors."""


class SignatureMismatch(LatcopError):
    """Two algebras were expected to share a signature but do not."""


class UnknownSymbol(LatcopError):
    """An operation symbol is not part of the ambient signature."""


class InternalError(LatcopError):
    """A consistency check on latcop's own results failed: a bug, not bad input."""


class CapExceeded(LatcopError):
    """A configured size cap was exceeded; carries the search stage, the
    budget it hit and the size that would be needed."""

    def __init__(self, message: str, *, required: int, stage: str, budget: int):
        super().__init__(message)
        self.required = required
        self.stage = stage
        self.budget = budget

    def budget_note(self) -> str:
        """The stage, budget and required size, as reports print them."""
        return f"stage {self.stage!r}, budget {self.budget}, required {self.required}"

    def budget_doc(self) -> dict:
        """The stage, budget and required size, as JSON reports hold them."""
        return {"stage": self.stage, "budget": self.budget, "required": self.required}


class MembershipError(LatcopError):
    """An algebra is not a member of the quasivariety generated by the given set."""


class LatticeAxiomError(LatcopError):
    """A candidate lattice reduct violates a bounded-distributive-lattice identity."""

    def __init__(self, identity: str, witness: tuple):
        super().__init__(f"lattice identity {identity!r} fails at {witness}")
        self.identity = identity
        self.witness = witness


class SeparationError(LatcopError):
    """The separation condition fails; carries the unseparated pair."""

    def __init__(self, message: str, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class ParseError(LatcopError):
    """Algebra file syntax error with source location."""

    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column
