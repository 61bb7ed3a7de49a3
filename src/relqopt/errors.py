"""Exception types and the immutable `Record` base, shared across the toolkit.

Three failure categories: bad configuration (files, unit tags, schema),
inputs outside a formula's domain, and numerical breakdown (non-convergence,
non-finite intermediates).
"""


class ConfigurationError(ValueError):
    """Bad scenario/config input: unknown key, unknown unit tag, bad value."""


class DomainError(ValueError):
    """Input outside the mathematical domain of an operation."""


class NumericFailure(ArithmeticError):
    """Iteration failed to converge or produced non-finite values."""


class EffectError(NumericFailure):
    """A report effect failed to evaluate; carries the effect name."""

    def __init__(self, effect: str, message: str):
        super().__init__(f"effect '{effect}' failed: {message}")
        self.effect = effect


class Record:
    """Immutable value type: a subclass names its fields in `__slots__` and sets them
    once in `__init__` with `object.__setattr__`; records compare and hash by value."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot change {name!r}")

    __delattr__ = __setattr__  # `del record.field` passes no value

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._values()))})"

    def __reduce__(self):  # the default restores slots with setattr, which a record refuses
        return _rebuild, (type(self), self._values())


def _rebuild(cls, values):
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record
