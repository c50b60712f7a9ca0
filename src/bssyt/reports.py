"""Verification reports, their JSON-ready encoding, and the balanced-shape guard.

Every checked claim in the package ends as a VerificationReport; exact
values (Fractions, integer polynomials, partitions, cells) are lowered to
strings or integers only when the report is serialized.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Any

from .exactmath import IntPolynomial
from .shapes import Cell, NotBalancedError, Partition, is_balanced

__all__ = ["VerificationReport", "require_balanced"]


def _encode(value):
    """Lower a report value to JSON-ready data; exact types become strings."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return int(value)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, IntPolynomial):
        return str(value)
    if isinstance(value, Partition):
        return value.to_text()
    if isinstance(value, Cell):
        return f"{value.row},{value.col}"
    if isinstance(value, dict):
        return {_encode_key(k): _encode(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    raise TypeError(f"cannot encode {value!r} into a report")


def _encode_key(key):
    encoded = _encode(key)
    return encoded if isinstance(encoded, str) else str(encoded)


@dataclass(frozen=True)
class VerificationReport:
    """One checked claim: exact left and right values plus their equality."""

    claim: str
    params: dict
    lhs: Any
    rhs: Any
    equal: bool

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
