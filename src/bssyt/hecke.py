"""Permutations, Demazure products, and polynomials over 0-Hecke words.

Permutations are plain tuples in one-line notation on {1..n}.  A word of
generator indices folds through demazure_step, which applies a simple
transposition only when it increases the inversion count; the polynomial
attached to a permutation w and a word length sums the product of (x + i)
over the letters of every length-matching word that folds to w.

The polynomial is computed by a dynamic program keyed on permutations
level by level instead of walking all (n-1)**length letter sequences.  It
keeps only the states that can still fold to w: a Demazure product only
goes up in Bruhat order, so every prefix state lies in the interval [e, w],
and a letter adds at most one inversion, so a state needs a length of at
least length(w) minus the letters left.  Both cuts are exact at every
level, not only the last.  The plain walk is kept as
fk_polynomial_bruteforce and serves as the test oracle for the dynamic
program.  Every level of the program is the polynomial at one word length,
so the ratio identities read lengths ell and ell + 1 off a single pass.
They are checked in cleared-denominator form over integer polynomials,
never by dividing.
"""

import itertools
import math
from operator import le

from .exactmath import IntPolynomial, binomial
from .reports import VerificationReport, require_balanced
from .tableaux import count_bssyt, count_ssyt, require_bound

__all__ = [
    "count_reduced_words",
    "demazure_step",
    "dominant_from_partition",
    "fk_polynomial",
    "fk_polynomial_bruteforce",
    "format_permutation",
    "hecke_product",
    "identity",
    "is_dominant",
    "lehmer_code",
    "length",
    "longest_permutation",
    "parse_permutation",
    "permutation",
    "verify_fk_bssyt_relation",
    "verify_fk_longest",
    "verify_fk_ratio",
]

# The reports' "method": the word DP kept to [e, w] and the length budget.
_DP_METHOD = "bruhat-pruned-dp"


def permutation(values):
    """Validate and return one-line notation as a tuple of ints (bools rejected)."""
    w = tuple(values)
    integers = not any(isinstance(v, bool) or not isinstance(v, int) for v in w)
    if not integers or sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"{w!r} is not a permutation of 1..{len(w)}")
    return w


def identity(n):
    return tuple(range(1, n + 1))


def longest_permutation(n):
    return tuple(range(n, 0, -1))


def parse_permutation(text):
    """One-line text form: bare digits for n <= 9, comma-separated beyond."""
    text = text.strip()
    if "," in text:
        return permutation(int(piece) for piece in text.split(","))
    return permutation(int(ch) for ch in text)


def format_permutation(w):
    if len(w) <= 9:
        return "".join(str(v) for v in w)
    return ",".join(str(v) for v in w)


def length(w):
    """Number of inversions.

    >>> length((2, 4, 1, 3))
    3
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def lehmer_code(w):
    """Per position, how many smaller values sit to the right; sums to length(w)."""
    n = len(w)
    return tuple(
        sum(1 for j in range(i + 1, n) if w[j] < w[i]) for i in range(n)
    )


def is_dominant(w):
    """True iff w avoids the pattern 132."""
    n = len(w)
    smallest_left = None
    for j in range(n):
        if smallest_left is not None:
            for m in range(j + 1, n):
                if smallest_left < w[m] < w[j]:
                    return False
        v = w[j]
        if smallest_left is None or v < smallest_left:
            smallest_left = v
    return True


def dominant_from_partition(lam, n=None):
    """The unique 132-avoiding permutation whose inversion code is lam, zero padded.

    The code entry at position i can be at most n - i, so the smallest
    workable n is max over rows of (part + row index); a larger n pads with
    fixed points.
    """
    minimal = 1
    for i, p in enumerate(lam.parts, start=1):
        minimal = max(minimal, p + i)
    if n is None:
        n = minimal
    elif n < minimal:
        raise ValueError(f"partition {lam!r} needs n >= {minimal}, got {n}")
    available = list(range(1, n + 1))
    return tuple(available.pop(lam.part(i)) for i in range(1, n + 1))


def demazure_step(u, i):
    """u times the i-th simple transposition if that increases length, else u.

    >>> demazure_step((2, 1, 3), 2)
    (2, 3, 1)
    >>> demazure_step((2, 1), 1)
    (2, 1)
    """
    if not 1 <= i <= len(u) - 1:
        raise ValueError(f"generator index {i} outside [1, {len(u) - 1}]")
    if u[i - 1] < u[i]:
        return u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :]
    return u


def hecke_product(word, n):
    """Fold the word through demazure_step starting from the identity.

    >>> hecke_product((1, 2, 1), 3)
    (3, 2, 1)
    >>> hecke_product((1, 1, 1, 1), 2)
    (2, 1)
    """
    u = identity(n)
    for i in word:
        u = demazure_step(u, i)
    return u


def _fk_levels(w, top):
    """The word polynomials of w at every length 0..top, from one DP pass,
    and the most states the pass kept on one level.

    A state at level L is kept only if it lies below w in Bruhat order and
    its length is at least length(w) - (top - L).  Each state carries its
    length and its polynomial as a coefficient list.  A step v = u s_i with
    u[i-1] < u[i] changes only the i-prefix of u, and u <= w is already
    known, so v <= w exactly when sorted(v[:i]) lies entrywise below
    sorted(w[:i]) (the tableau criterion).  Such a step adds one inversion,
    so it always meets the length budget; a letter that leaves u fixed must
    meet it again at the next level.
    """
    w = permutation(w)
    if top < 0:
        raise ValueError("word length must be nonnegative")
    n = len(w)
    goal = length(w)
    prefixes = [sorted(w[:i]) for i in range(n)]
    states = {identity(n): (0, [1])} if goal <= top else {}
    found = [states[w][1] if w in states else ()]
    peak = len(states)
    for level in range(1, top + 1):
        floor = goal - (top - level)
        out = {}
        for u, (ell, poly) in states.items():
            # letters fixing u add (slope * x + constant) * poly to u itself
            slope = constant = 0
            for i in range(1, n):
                a, b = u[i - 1], u[i]
                if a > b:
                    slope += 1
                    constant += i
                    continue
                head = u[: i - 1] + (b,)
                if all(map(le, sorted(head), prefixes[i])):
                    _add_times_linear(out, head + (a,) + u[i + 1 :], ell + 1, poly, 1, i)
            if slope and ell >= floor:
                _add_times_linear(out, u, ell, poly, slope, constant)
        states = out
        peak = max(peak, len(states))
        found.append(states[w][1] if w in states else ())
    return [IntPolynomial(coeffs) for coeffs in found], peak


def _add_times_linear(states, v, ell, poly, slope, constant):
    """states[v] += (slope * x + constant) * poly, by shift-add on the lists."""
    entry = states.get(v)
    if entry is None:
        acc = [0] * (len(poly) + 1)
        states[v] = (ell, acc)
    else:
        acc = entry[1]
    for d, c in enumerate(poly):
        acc[d] += constant * c
        acc[d + 1] += slope * c


def fk_polynomial(w, ell):
    """Sum of the letter products (x + i_1)...(x + i_ell) over all length-ell
    words folding to w; the zero polynomial when no such word exists."""
    levels, _ = _fk_levels(w, ell)
    return levels[ell]


def fk_polynomial_bruteforce(w, ell):
    """Reference walk over all (n-1)**ell letter sequences; oracle for the DP."""
    w = permutation(w)
    if ell < 0:
        raise ValueError("word length must be nonnegative")
    n = len(w)
    total = IntPolynomial.zero()
    for word in itertools.product(range(1, n), repeat=ell):
        if hecke_product(word, n) == w:
            product = IntPolynomial.one()
            for i in word:
                product = product * IntPolynomial.linear(i)
            total = total + product
    return total


def count_reduced_words(w):
    """Number of reduced expressions, by descent recursion with memoization.

    Independent of both polynomial routes; the count must reappear as the
    leading coefficient of the length-ell(w) polynomial.
    """
    memo = {}

    def count(u):
        if u in memo:
            return memo[u]
        total = 0
        for i in range(1, len(u)):
            if u[i - 1] > u[i]:
                total += count(u[: i - 1] + (u[i], u[i - 1]) + u[i + 1 :])
        memo[u] = total if total else 1
        return memo[u]

    return count(permutation(w))


def verify_fk_longest(n):
    """Longest-permutation polynomial against the hook-style product formula.

    Two right-hand sides are compared in cleared form: the formula as
    printed in the source, with numerator x + i + j - 1, and the variant
    with numerator 2x + i + j - 1.  Direct computation shows the printed
    form fails already at n = 2 while the doubled-x variant matches for
    every n <= 8, so the variant is treated as the reference (equal
    reflects it) and both outcomes are reported.
    """
    if not 2 <= n <= 8:
        raise ValueError("n must be in [2, 8]")
    ell0 = n * (n - 1) // 2
    levels, peak = _fk_levels(longest_permutation(n), ell0)
    lhs = levels[ell0]
    denominator = 1
    printed = IntPolynomial.one()
    doubled = IntPolynomial.one()
    for i in range(1, n):
        for j in range(i + 1, n + 1):
            denominator *= i + j - 1
            printed = printed * IntPolynomial.linear(i + j - 1)
            doubled = doubled * IntPolynomial.linear(i + j - 1, 2)
    scale = math.factorial(ell0)
    lhs_cleared = lhs * denominator
    as_printed_equal = lhs_cleared == printed * scale
    doubled_equal = lhs_cleared == doubled * scale
    return VerificationReport(
        claim="fk_longest_product_formula",
        params={
            "n": n,
            "word_length": ell0,
            "as_printed_equal": as_printed_equal,
            "doubled_x_equal": doubled_equal,
            "leading_coefficient": lhs.leading_coefficient(),
            "method": _DP_METHOD,
            "peak_states": peak,
        },
        lhs=lhs_cleared,
        rhs=doubled * scale,
        equal=doubled_equal,
    )


def verify_fk_ratio(lam):
    """Consecutive-length polynomial ratio for a dominant permutation whose
    code is a balanced shape, as a cleared-denominator identity of integer
    polynomials.  Equal polynomials agree at every x = k, so no evaluation
    point is checked."""
    require_balanced(lam)
    w = dominant_from_partition(lam)
    ell = length(w)
    r, c = lam.rows, lam.cols
    levels, peak = _fk_levels(w, ell + 1)
    f_ell, f_next = levels[ell:]
    clear = ell * (r + c)
    lhs = f_next * clear
    rhs = f_ell * IntPolynomial.linear(clear, 2 * r * c) * binomial(ell + 1, 2)
    return VerificationReport(
        claim="fk_ratio_balanced_code",
        params={
            "shape": lam,
            "permutation": format_permutation(w),
            "word_length": ell,
            "rows": r,
            "cols": c,
            "method": _DP_METHOD,
            "peak_states": peak,
        },
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
    )


def verify_fk_bssyt_relation(lam, k):
    """Cross-module bridge: polynomial evaluations at k against the two
    tableau counts, in cleared integer form; dominance comes free from the
    code being a partition, no balance needed."""
    require_bound(k)
    w = dominant_from_partition(lam)
    ell = length(w)
    levels, peak = _fk_levels(w, ell + 1)
    f_ell, f_next = levels[ell:]
    value_ell, value_next = f_ell.evaluate(k), f_next.evaluate(k)
    ssyt = count_ssyt(lam, k)
    bssyt = count_bssyt(lam, k)
    lhs = value_next * ssyt
    rhs = value_ell * (binomial(ell + 1, 2) * ssyt + (ell + 1) * bssyt)
    return VerificationReport(
        claim="fk_ratio_counts_tableaux",
        params={
            "shape": lam,
            "k": k,
            "permutation": format_permutation(w),
            "word_length": ell,
            "ssyt_count": ssyt,
            "bssyt_count": bssyt,
            "fk_at_k": value_ell,
            "fk_next_at_k": value_next,
            "method": _DP_METHOD,
            "peak_states": peak,
        },
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
    )
