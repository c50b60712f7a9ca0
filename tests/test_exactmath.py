import random
from fractions import Fraction
from math import gcd

import pytest

from bssyt.exactmath import IntPolynomial, Rational, binomial, determinant

X_PLUS_1 = IntPolynomial((1, 1))
X_PLUS_2 = IntPolynomial((2, 1))


def test_add_examples():
    assert X_PLUS_1 + X_PLUS_2 == IntPolynomial((3, 2))
    p = IntPolynomial((5, 0, 7))
    assert p + IntPolynomial.zero() == p
    assert IntPolynomial((0, 0, 1)) + IntPolynomial((0, 0, -1)) == IntPolynomial.zero()
    assert (IntPolynomial((0, 0, 1)) + IntPolynomial((0, 0, -1))).coeffs == ()


def test_mul_examples():
    assert X_PLUS_1 * X_PLUS_2 == IntPolynomial((2, 3, 1))
    assert X_PLUS_1 * X_PLUS_2 * IntPolynomial((3, 2)) == IntPolynomial((6, 13, 9, 2))
    p = IntPolynomial((4, -1, 3))
    assert p * IntPolynomial.one() == p
    assert p * IntPolynomial.zero() == IntPolynomial.zero()


def test_eval_examples():
    assert X_PLUS_1.evaluate(0) == 1
    assert IntPolynomial((6, 13, 9, 2)).evaluate(1) == 30
    assert IntPolynomial.zero().evaluate(12345) == 0


def test_linear_and_constant():
    assert IntPolynomial.linear(7) == IntPolynomial((7, 1))
    assert IntPolynomial.linear(7, 2) == IntPolynomial((7, 2))
    assert IntPolynomial.constant(-3) == IntPolynomial((-3,))
    assert IntPolynomial.constant(0) == IntPolynomial.zero()


def test_degree_and_leading():
    assert IntPolynomial.zero().degree == -1
    assert IntPolynomial.zero().leading_coefficient() == 0
    p = IntPolynomial((1, 2, 3))
    assert p.degree == 2
    assert p.leading_coefficient() == 3
    assert p.coefficient(1) == 2
    assert p.coefficient(9) == 0


def test_trailing_zeros_stripped():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0,)).coeffs == ()


def test_non_integer_coefficients_rejected():
    with pytest.raises(TypeError):
        IntPolynomial((1.5,))


def test_int_scaling():
    p = IntPolynomial((1, 2))
    assert p * 3 == IntPolynomial((3, 6))
    assert 3 * p == IntPolynomial((3, 6))
    assert p * 0 == IntPolynomial.zero()


def test_str_forms():
    assert str(IntPolynomial.zero()) == "0"
    assert str(IntPolynomial((6, 13, 9, 2))) == "2x^3+9x^2+13x+6"
    assert str(IntPolynomial((-1, 1))) == "x-1"
    assert str(IntPolynomial((0, -1))) == "-x"


def _random_poly(rng):
    return IntPolynomial(rng.randint(-6, 6) for _ in range(rng.randint(0, 5)))


def test_ring_axioms_random():
    rng = random.Random(20240817)
    for _ in range(200):
        p, q, r = _random_poly(rng), _random_poly(rng), _random_poly(rng)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert (p + q) * r == p * r + q * r
        if p and q:
            assert (p * q).degree == p.degree + q.degree


def test_eval_is_ring_homomorphism():
    rng = random.Random(99)
    for _ in range(200):
        p, q = _random_poly(rng), _random_poly(rng)
        k = rng.randint(-9, 9)
        assert (p * q).evaluate(k) == p.evaluate(k) * q.evaluate(k)
        assert (p + q).evaluate(k) == p.evaluate(k) + q.evaluate(k)


def test_binomial_examples():
    assert binomial(4, 2) == 6
    assert binomial(2, 2) == 1
    assert binomial(0, 0) == 1
    assert binomial(5, -1) == 0
    assert binomial(5, 6) == 0
    from math import factorial

    assert factorial(binomial(3, 2)) == 6  # composed form used by the ratio scales
    with pytest.raises(ValueError):
        binomial(-1, 0)


def test_rational_always_reduced():
    rng = random.Random(7)
    for _ in range(300):
        a = Rational(rng.randint(-30, 30), rng.randint(1, 30))
        b = Rational(rng.randint(-30, 30), rng.randint(1, 30))
        for value in (a + b, a - b, a * b):
            assert value.denominator > 0
            assert gcd(value.numerator, value.denominator) == 1
    assert Rational is Fraction


def _leibniz(matrix):
    """The permutation expansion: the definition, for small matrices only."""
    from itertools import permutations

    n = len(matrix)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= matrix[row][col]
        total += term
    return total


def test_determinant_examples():
    assert determinant([]) == 1
    assert determinant([[7]]) == 7
    assert determinant([[2, 3], [1, 4]]) == 5
    assert determinant([[1, 2], [2, 4]]) == 0
    assert determinant([[0, 0, 1], [0, 1, 0], [1, 0, 0]]) == -1
    with pytest.raises(ValueError):
        determinant([[1, 2], [3]])


def test_determinant_swaps_rows_on_zero_pivot():
    # a zero pivot before the last step; without the swap the next step divides by 0
    assert determinant([[0, 1, 0], [1, 0, 0], [0, 0, 1]]) == -1
    assert determinant([[1, 2, 3], [2, 4, 7], [1, 3, 5]]) == -1
    assert determinant([[0, 0, 2], [0, 3, 1], [0, 5, 4]]) == 0
    assert determinant([[0, 2], [3, 1]]) == -6


def test_determinant_against_leibniz_random():
    rng = random.Random(170)
    for _ in range(300):
        n = rng.randint(1, 5)
        matrix = [[rng.choice((0, 0, rng.randint(-9, 9))) for _ in range(n)] for _ in range(n)]
        before = [row[:] for row in matrix]
        assert determinant(matrix) == _leibniz(matrix)
        assert matrix == before  # the input is not eliminated in place
