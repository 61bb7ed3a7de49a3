"""Exception types and the immutable `Record` base, shared across the toolkit.

Three failure categories: bad configuration (files, unit tags, schema),
inputs outside a formula's domain, and numerical breakdown (non-convergence,
non-finite intermediates).  The `check_*` functions are the argument rules
every module shares: each returns its value as a float or raises `DomainError`
naming it.  The numeric ones are built on `is_finite`, the one rule for what a
number is; only what it accepts is converted (`float` would also parse text), and
a range is compared on that float.  Each comparison is written so that NaN fails it.
"""

import math
import numbers


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


_NOT_A_NUMBER = (TypeError, ValueError, OverflowError)


def is_finite(x) -> bool:
    """Whether `x` is a finite real number: `math.isfinite` accepts it and returns True.
    Text, None, complex numbers (a `TypeError` there), a signaling-NaN `Decimal` (a
    `ValueError`) and an int past the float range (an `OverflowError`) are not."""
    try:
        return math.isfinite(x)
    except _NOT_A_NUMBER:
        return False


def check_finite(name: str, x) -> float:
    if not is_finite(x):
        raise DomainError(f"{name} must be finite")
    return float(x)


def check_positive(name: str, x) -> float:
    if not (is_finite(x) and (x := float(x)) > 0.0):
        raise DomainError(f"{name} must be positive and finite")
    return x


def check_nonnegative(name: str, x) -> float:
    if not (is_finite(x) and (x := float(x)) >= 0.0):
        raise DomainError(f"{name} must be nonnegative and finite")
    return x


def check_integer(name: str, v) -> int:
    """`v` as an `int`: any `numbers.Integral` (numpy integers too) but a `bool`."""
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise DomainError(f"{name} must be an integer")
    return int(v)


def check_vector(name: str, v) -> tuple:
    """The three components of `v`, held to `is_finite`'s rule in this one frame, as floats."""
    try:
        x, y, z = v
        if math.isfinite(x) and math.isfinite(y) and math.isfinite(z):
            return float(x), float(y), float(z)
    except _NOT_A_NUMBER:  # also a `v` that does not unpack into three
        pass
    raise DomainError(f"{name} must be a finite 3-vector")


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


def set_finite_fields(record: Record, *values) -> None:
    """Set `record`'s fields in `__slots__` order, each to what `check_finite` returns."""
    for name, x in zip(record.__slots__, values):
        object.__setattr__(record, name, check_finite(name, x))


def _rebuild(cls, values):
    record = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(record, name, value)
    return record
