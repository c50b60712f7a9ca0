"""Acceptance suite: every advertised identity at desk scale, tolerance zero.

Each criterion is one test that prints a single PASS/FAIL line (visible with
pytest -s) and then asserts.  All comparisons are exact integer or rational
equality; there are no tolerances to tune.
"""

import itertools
from fractions import Fraction

from bssyt.bijections import verify_roundtrip
from bssyt.hecke import (
    count_reduced_words,
    fk_polynomial,
    fk_polynomial_bruteforce,
    length,
    longest_permutation,
    verify_fk_bssyt_relation,
    verify_fk_longest,
    verify_fk_ratio,
)
from bssyt.jaggedness import (
    check_toggle_symmetric,
    expected_jaggedness_weak,
    verify_balanced_expectation,
    verify_conjecture_rect,
    verify_count_identity,
    verify_double_sums,
    verify_ensemble_size,
    verify_weak_expectation_by_subshape,
)
from bssyt.shapes import Partition, all_subshapes, is_balanced, rect_staircase

P = Partition

BOX_4X4 = P((4, 4, 4, 4))
BOX_3ROWS = P((4, 4, 4))


def _conclude(number, label, failures, checked):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number} {label}: {status} ({checked} checks)")
    assert not failures, f"criterion {number} failed on: {failures}"


def test_criterion_1_rect_staircase_count():
    cases = [
        (a, b, d, k)
        for a in (1, 2)
        for b in (1, 2)
        for d in (1, 2, 3)
        for k in (1, 2)
        if rect_staircase(a, b, d).rows <= 4 and rect_staircase(a, b, d).cols <= 4
    ]
    cases += [(1, 1, 3, k) for k in (1, 2, 3)]
    failures = []
    for a, b, d, k in cases:
        report = verify_conjecture_rect(a, b, d, k)
        if not report.equal:
            failures.append((a, b, d, k))
    _conclude(1, "rect staircase count identity", failures, len(cases))


def test_criterion_2_balanced_count_identity():
    checked = 0
    failures = []
    shapes = [lam for lam in all_subshapes(BOX_4X4) if lam.parts and is_balanced(lam)]
    assert P((4, 4, 2, 1)) in shapes  # non-staircase balanced shape present
    for lam in shapes:
        for k in (1, 2):
            checked += 1
            report = verify_count_identity(lam, k)
            if not report.equal:
                failures.append((lam.parts, k))
    _conclude(2, "balanced bssyt count identity", failures, checked)


def test_criterion_3_bijection_roundtrips_and_triple_counts():
    named_unbalanced = {(3, 1), (3, 2, 2)}
    seen = set()
    checked = 0
    failures = []
    for lam in all_subshapes(BOX_4X4):
        seen.add(lam.parts)
        for k in (1, 2, 3):
            checked += 1
            roundtrip = verify_roundtrip(lam, k)
            sums = verify_double_sums(lam, k)
            if not (roundtrip.equal and sums.equal):
                failures.append((lam.parts, k))
            elif sums.lhs[0] != roundtrip.params["tableaux"]:
                failures.append((lam.parts, k, "triple count vs enumeration"))
    assert named_unbalanced <= seen
    _conclude(3, "bijection round-trips and triple counts", failures, checked)


def test_criterion_4_expected_jaggedness_balanced():
    reference = expected_jaggedness_weak(P((2, 2, 1, 1)), 2)
    failures = [] if reference == Fraction(8, 3) else ["reference 8/3"]
    checked = 1
    for parts in ((1,), (2, 1), (2, 2, 1, 1), (4, 4, 2, 1)):
        for k in (1, 2):
            checked += 2
            direct = verify_balanced_expectation(P(parts), k)
            aggregated = verify_weak_expectation_by_subshape(P(parts), k)
            if not (direct.equal and aggregated.equal):
                failures.append((parts, k))
    _conclude(4, "expected jaggedness 2rc/(r+c)", failures, checked)


def test_criterion_5_toggle_symmetry():
    checked = 0
    failures = []
    for lam in all_subshapes(BOX_3ROWS):
        for k in (1, 2, 3):
            report = check_toggle_symmetric(lam, k)
            checked += len(report.lhs)
            for cell in lam.cells():
                if report.lhs[cell] != report.rhs[cell]:
                    failures.append((lam.parts, k, cell))
            if not report.equal:
                failures.append((lam.parts, k, "equal"))
    _conclude(5, "per-cell toggle symmetry", failures, checked)


def test_criterion_6_pair_count_identity():
    checked = 0
    failures = []
    for lam in all_subshapes(BOX_3ROWS):
        for k in (1, 2, 3):
            checked += 1
            if not verify_ensemble_size(lam, k).equal:
                failures.append((lam.parts, k))
    _conclude(6, "pair count equals k * ssyt count", failures, checked)


def test_criterion_7_fk_dynamic_program():
    failures = []
    checked = 0
    for n in (2, 3, 4):
        perms = list(itertools.permutations(range(1, n + 1)))
        for ell in range(7):
            for w in perms:
                checked += 1
                if fk_polynomial(w, ell) != fk_polynomial_bruteforce(w, ell):
                    failures.append((w, ell))
    for n, expected in ((3, 2), (4, 16)):
        w0 = longest_permutation(n)
        ell0 = length(w0)
        lead = fk_polynomial(w0, ell0).leading_coefficient()
        checked += 1
        if lead != expected or count_reduced_words(w0) != expected:
            failures.append((n, "leading coefficient", lead))
    _conclude(7, "fk dynamic program vs brute force", failures, checked)


def test_criterion_8_fk_ratio_identities():
    failures = []
    checked = 0
    for parts in ((1,), (2, 1), (2, 2, 1, 1)):
        checked += 1
        report = verify_fk_ratio(P(parts))
        if not report.equal:
            failures.append(("ratio", parts))
    for lam in all_subshapes(P((3, 2, 1))):
        for k in (1, 2):
            checked += 1
            if not verify_fk_bssyt_relation(lam, k).equal:
                failures.append(("counts", lam.parts, k))
    _conclude(8, "fk ratio identities", failures, checked)


def test_criterion_9_fk_product_formula_discrepancy():
    failures = []
    for n in (2, 3, 4):
        report = verify_fk_longest(n)
        if report.params["as_printed_equal"] is not False:
            failures.append((n, "printed form unexpectedly matches"))
        if report.params["doubled_x_equal"] is not True:
            failures.append((n, "doubled-x form fails"))
    _conclude(9, "product formula documented discrepancy", failures, 3)
