"""Exception types, and the immutable value bases, shared across the library."""

from __future__ import annotations


class Value:
    """Base of the slotted value types: repr ``Name(field=value, ...)`` leaves out ``_hidden``."""

    __slots__ = ()
    _hidden: tuple[str, ...] = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n not in self._hidden)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Value):
    """Immutable value: assignment and deletion raise AttributeError.

    ``__init__`` sets the fields past ``__setattr__``: through ``_setters``,
    the ``__set__`` of each slot bound once per class (the fastest way), or
    through ``object.__setattr__``, as copy and pickle do.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "__slots__" in cls.__dict__:  # a subclass without slots keeps its base's
            cls._setters = tuple(cls.__dict__[name].__set__ for name in cls.__slots__)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"field {name!r} of {type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __setstate__(self, state):
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class Record(Frozen):
    """Frozen value built, compared and hashed by its ``__slots__`` in order.

    For report types and LagValue, which writes out only ``__init__``; other hot path types write all out.
    """

    __slots__ = ()

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(f"{type(self).__name__} takes {len(self.__slots__)} fields, got {len(values)}")
        for setter, value in zip(self._setters, values):
            setter(self, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return other.__class__ is self.__class__ and self._values() == other._values()

    def __hash__(self):
        return hash(self._values())


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


class SpecFileError(SelfSimError):
    """Problem parsing or resolving a spec file."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
