"""Exact arithmetic building blocks: integers, rationals, integer polynomials.

Python ints are arbitrary precision natively, so they serve as the integer
type throughout the package.  Rationals are fractions.Fraction, which keeps
gcd(numerator, denominator) == 1 and the denominator positive after every
operation.  What this module adds is a small dense polynomial type over the
integers (the identity checks multiply long chains of linear factors, so a
dense coefficient list is the right shape) and a binomial helper with the
domain conventions the verification code relies on.
"""

import math
from fractions import Fraction

# Exact rational type; always reduced, denominator > 0.
Rational = Fraction

__all__ = ["IntPolynomial", "Rational", "binomial"]


class IntPolynomial:
    """Dense univariate polynomial in x with integer coefficients.

    coeffs[d] is the coefficient of x**d.  The highest-degree coefficient is
    never zero; the zero polynomial has an empty coefficient tuple.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        for c in coeffs:
            if not isinstance(c, int):
                raise TypeError(f"integer coefficients required, got {c!r}")
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def one(cls):
        return cls((1,))

    @classmethod
    def constant(cls, c):
        return cls((c,))

    @classmethod
    def linear(cls, constant, slope=1):
        """The polynomial slope*x + constant."""
        return cls((constant, slope))

    @property
    def degree(self):
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def leading_coefficient(self):
        return self.coeffs[-1] if self.coeffs else 0

    def coefficient(self, d):
        """Coefficient of x**d (0 beyond the stored range)."""
        return self.coeffs[d] if 0 <= d < len(self.coeffs) else 0

    def evaluate(self, k):
        """Horner evaluation at the integer k; exact."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * k + c
        return acc

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    __rmul__ = __mul__

    def __repr__(self):
        return f"IntPolynomial({self.coeffs!r})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        terms = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if c == 0:
                continue
            sign = "-" if c < 0 else ("+" if terms else "")
            mag = abs(c)
            if d == 0:
                body = str(mag)
            else:
                head = "" if mag == 1 else str(mag)
                body = f"{head}x" if d == 1 else f"{head}x^{d}"
            terms.append(sign + body)
        return "".join(terms)


def binomial(n, r):
    """Exact binomial coefficient, 0 whenever r < 0 or r > n.

    Negative n is rejected: every use site counts subsets of a real set.
    """
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got {n}")
    if r < 0 or r > n:
        return 0
    return math.comb(n, r)
