"""Verification reports, their JSON-ready encoding, and the balanced-shape guard.

Every checked claim in the package ends as a VerificationReport; exact
values (Fractions, integer polynomials, partitions, cells) are lowered to
strings or integers only when the report is serialized.  Record, the
immutable base of the reports, of the bijection triples and of the tableau
fillings, is written out by hand: the dataclasses module would pull inspect,
ast, dis and tokenize into every import of the package.
"""

from fractions import Fraction
from operator import attrgetter, methodcaller

from .exactmath import IntPolynomial
from .shapes import Cell, NotBalancedError, Partition, is_balanced

__all__ = ["Record", "VerificationReport", "require_balanced"]


def _same(value):
    return value


def _encode_fraction(value):
    if value.denominator == 1:
        return int(value)
    return f"{value.numerator}/{value.denominator}"


def _encode_dict(value):
    return {_encode_key(k): _encode(v) for k, v in value.items()}


def _encode_sequence(value):
    return [_encode(v) for v in value]


# The types that reports hold, each with its lowering, in the order of the
# isinstance chain that lowers any other value: Cell ahead of tuple, its base.
_LOWER = {
    bool: _same, type(None): _same, str: _same, int: _same,
    Cell: "{0.row},{0.col}".format, Fraction: _encode_fraction, IntPolynomial: str,
    Partition: methodcaller("to_text"), dict: _encode_dict, list: _encode_sequence,
    tuple: _encode_sequence,
}


def _encode(value):
    """Lower a report value to JSON-ready data; exact types become strings.
    A value of one of the table's exact types is lowered by one lookup; any
    other, a subclass such as Counter included, by the first table type it
    is an instance of."""
    lower = _LOWER.get(type(value))
    if lower is not None:
        return lower(value)
    for cls, lower in _LOWER.items():
        if isinstance(value, cls):
            return lower(value)
    raise TypeError(f"cannot encode {value!r} into a report")


def _encode_key(key):
    encoded = _encode(key)
    return encoded if isinstance(encoded, str) else str(encoded)


class Record:
    """Immutable slots named by the class's _fields, equal when the class
    and every field are; a subclass's __init__ sets each field once with
    object.__setattr__."""

    __slots__ = ()
    _fields = ()

    def __init_subclass__(cls):
        # the field values as one tuple, read in C; _fields names two or more
        cls._values = property(attrgetter(*cls._fields))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values == other._values

    def __hash__(self):
        return hash(self._values)

    def __reduce__(self):
        # copy and pickle rebuild through __init__, which a subclass may check
        return type(self), self._values

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class VerificationReport(Record):
    """One checked claim: exact left and right values plus their equality."""

    __slots__ = _fields = ("claim", "params", "lhs", "rhs", "equal")

    def __init__(self, claim, params, lhs, rhs, equal):
        set_field = object.__setattr__
        set_field(self, "claim", claim)
        set_field(self, "params", params)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)
        set_field(self, "equal", equal)

    def as_dict(self):
        return {
            "claim": self.claim,
            "params": _encode(self.params),
            "lhs": _encode(self.lhs),
            "rhs": _encode(self.rhs),
            "equal": self.equal,
        }


def require_balanced(lam):
    """Raise NotBalancedError unless lam is a nonempty balanced shape."""
    if not lam.parts:
        raise NotBalancedError("the empty shape is not balanced")
    if not is_balanced(lam):
        raise NotBalancedError(f"{lam!r} is not balanced")
