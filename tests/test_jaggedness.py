import types
from fractions import Fraction

import pytest

from bssyt.jaggedness import (
    check_toggle_symmetric,
    expected_jaggedness_weak,
    verify_balanced_expectation,
    verify_conjecture_rect,
    verify_count_identity,
    verify_double_sums,
    verify_ensemble_size,
    verify_weak_expectation_by_subshape,
    weak_histogram,
    weak_probability,
)
from bssyt.reports import VerificationReport
from bssyt.shapes import NotBalancedError, Partition, all_subshapes
from bssyt.tableaux import count_bssyt, count_ssyt, enumerate_rpp, induced_subshape

P = Partition


def test_weak_histogram_against_pair_walk():
    for parts in ((1,), (2, 1), (3, 1), (2, 2, 1, 1), (4, 4, 2, 1)):
        lam = P(parts)
        subshapes = {mu.parts for mu in all_subshapes(lam)}
        for k in (1, 2):
            histogram = weak_histogram(lam, k)
            walked = {}
            for rpp in enumerate_rpp(lam, k):
                for i in range(1, k + 1):
                    mu = induced_subshape(rpp, i).parts
                    walked[mu] = walked.get(mu, 0) + 1
            assert set(histogram) <= subshapes
            assert sum(histogram.values()) == k * count_ssyt(lam, k)
            assert dict(histogram) == walked
    with pytest.raises(ValueError):
        weak_histogram(P((1,)), 0)


def test_package_jaggedness_is_the_submodule():
    import bssyt
    import bssyt.shapes

    assert isinstance(bssyt.jaggedness, types.ModuleType)
    assert bssyt.jaggedness.verify_double_sums is verify_double_sums
    assert isinstance(bssyt.shapes.jaggedness, types.FunctionType)


def test_weak_probability_single_cell():
    assert weak_probability(P(()), P((1,)), 1) == Fraction(1, 2)
    assert weak_probability(P((1,)), P((1,)), 1) == Fraction(1, 2)
    assert weak_probability(P((1,)), P((1,)), 2) == Fraction(1, 2)
    with pytest.raises(ValueError):
        weak_probability(P((2,)), P((1,)), 1)


def test_weak_probabilities_normalize():
    for lam, k in ((P((2, 1)), 2), (P((3, 1)), 1)):
        total = sum(weak_probability(mu, lam, k) for mu in all_subshapes(lam))
        assert total == 1


def test_expected_jaggedness_examples():
    assert expected_jaggedness_weak(P((1,)), 1) == 1
    assert expected_jaggedness_weak(P((2, 2, 1, 1)), 2) == Fraction(8, 3)
    value = expected_jaggedness_weak(P((3, 1)), 1)
    assert value == Fraction(16, 7)
    assert value != Fraction(2 * 2 * 3, 2 + 3)
    assert expected_jaggedness_weak(P(()), 2) == 0


def test_unconditional_bridge_identity():
    # twice the barely set-valued count equals k * ssyt * expected jaggedness,
    # with no balance assumption
    for parts in ((1,), (2, 1), (3, 1), (3, 2, 2), (2, 2), (4, 4, 2, 1)):
        lam = P(parts)
        for k in (1, 2):
            expectation = expected_jaggedness_weak(lam, k)
            assert 2 * count_bssyt(lam, k) == k * count_ssyt(lam, k) * expectation


def test_toggle_symmetry_small():
    reports = check_toggle_symmetric(P((1,)), 1)
    assert len(reports) == 1
    assert reports[0].lhs == reports[0].rhs == 1
    for lam, k in ((P((2, 1)), 2), (P((4, 4, 2, 1)), 2)):
        reports = check_toggle_symmetric(lam, k)
        assert len(reports) == lam.ncells
        assert all(r.equal for r in reports)


def test_toggle_symmetry_full_grid():
    for lam in all_subshapes(P((4, 4, 4, 4))):
        for k in (1, 2, 3):
            assert all(r.equal for r in check_toggle_symmetric(lam, k))


def test_balanced_expectation():
    report = verify_balanced_expectation(P((2, 1)), 1)
    assert report.equal and report.rhs == 2
    report = verify_balanced_expectation(P((1,)), 3)
    assert report.equal and report.rhs == 1
    report = verify_balanced_expectation(P((4, 4, 2, 1)), 2)
    assert report.equal and report.rhs == 4
    with pytest.raises(NotBalancedError):
        verify_balanced_expectation(P((3, 1)), 1)
    with pytest.raises(NotBalancedError):
        verify_balanced_expectation(P(()), 1)


def test_weak_expectation_by_subshape_agrees():
    for lam, k in ((P((2, 1)), 1), (P((2, 2, 1, 1)), 2), (P((4, 4, 2, 1)), 1)):
        direct = verify_balanced_expectation(lam, k)
        aggregated = verify_weak_expectation_by_subshape(lam, k)
        assert aggregated.equal
        assert aggregated.lhs == direct.lhs
        assert aggregated.params["normalized"] is True
    with pytest.raises(NotBalancedError):
        verify_weak_expectation_by_subshape(P((3, 1)), 1)


def test_count_identity():
    report = verify_count_identity(P((1,)), 3)
    assert report.equal
    assert report.params["ssyt_count"] == 4
    assert report.lhs == 6
    report = verify_count_identity(P((2, 1)), 1)
    assert report.equal and report.lhs == 5
    report = verify_count_identity(P((2, 2, 1, 1)), 1)
    assert report.equal
    assert 3 * report.lhs == 4 * report.params["ssyt_count"]
    with pytest.raises(NotBalancedError):
        verify_count_identity(P((3, 1)), 1)


def test_count_identity_carries_pair_count():
    # the pair count k * |RPP| is k * |SSYT| by the row shift, so the report
    # carries it as k_times_ssyt without recounting reverse plane partitions
    report = verify_count_identity(P((2, 1)), 2)
    assert report.params["k_times_ssyt"] == 2 * report.params["ssyt_count"] == 28
    assert not {"rpp_count", "pair_count", "pair_count_equal"} & report.params.keys()


def test_conjecture_rect():
    report = verify_conjecture_rect(1, 1, 3, 1)
    assert report.equal and report.lhs == 5
    report = verify_conjecture_rect(1, 2, 2, 1)
    assert report.equal
    assert report.lhs == 2 and report.params["ssyt_count"] == 3
    for k in range(1, 6):
        report = verify_conjecture_rect(1, 1, 2, k)
        assert report.equal
        assert report.params["ssyt_count"] == k + 1
        assert report.lhs == (k + 1) * k // 2
    with pytest.raises(ValueError):
        verify_conjecture_rect(0, 1, 2, 1)
    with pytest.raises(ValueError):
        verify_conjecture_rect(1, 1, 2, 0)


def test_conjecture_rect_degenerate():
    report = verify_conjecture_rect(2, 2, 1, 3)
    assert report.equal
    assert report.lhs == 0 and report.rhs == 0
    assert report.params["vacuous"] is True


def test_double_sums():
    report = verify_double_sums(P((1,)), 1)
    assert report.equal and report.lhs == [1, 1] and report.rhs == [1, 1]
    for lam, k in ((P((3, 1)), 2), (P((4, 4, 2, 1)), 2)):
        report = verify_double_sums(lam, k)
        assert report.equal
        assert report.params["both_sums_total"] == 2 * report.rhs[0]


def test_ensemble_size():
    for parts in ((), (1,), (2, 1), (3, 1), (3, 2, 2)):
        for k in (1, 2):
            report = verify_ensemble_size(P(parts), k)
            assert report.equal


def test_report_serialization():
    report = verify_balanced_expectation(P((2, 2, 1, 1)), 2)
    doc = report.as_dict()
    assert doc["claim"] == "balanced_expected_jaggedness"
    assert doc["lhs"] == "8/3" and doc["rhs"] == "8/3"
    assert doc["equal"] is True
    assert doc["params"]["shape"] == "2,2,1,1"
    plain = VerificationReport("demo", {"n": 1}, 2, 2, True).as_dict()
    assert plain == {"claim": "demo", "params": {"n": 1}, "lhs": 2, "rhs": 2, "equal": True}
