"""Exception types shared across the library."""

from __future__ import annotations


class SelfSimError(Exception):
    """Base class for all library errors."""


class CompositionError(SelfSimError):
    """Paths with mismatched endpoints cannot be concatenated."""


class DepthExceededError(SelfSimError):
    """A stream-backed value was queried beyond its declared depth."""


class BackendMismatchError(SelfSimError):
    """A group element does not belong to the backend operating on it."""


class SourceConditionError(SelfSimError):
    """Triple (alpha, g, beta) violates d(alpha) = g d(beta), or the action breaks the laws behind it."""


class NotIdempotentError(SelfSimError):
    """An operation restricted to idempotents received a non-idempotent."""


class NotComposableError(SelfSimError):
    """Germ composition attempted where source and range provably diverge."""


class UndecidedError(SelfSimError):
    """A strict operation could not decide its precondition at the given depth."""


class EmptySetError(SelfSimError):
    """A basic open set description denotes the empty set."""


class InvalidMatricesError(SelfSimError):
    """Matrix pair violates the two-matrix construction constraints."""


class NonBijectiveOutputError(SelfSimError):
    """An automaton state's output map is not a permutation of the alphabet."""


class FreenessNotVerifiedError(SelfSimError):
    """Germ-level operations refused over a triple with a known freeness counterexample."""


class SpecFileError(SelfSimError):
    """Problem parsing or resolving a spec file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
