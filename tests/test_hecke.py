import itertools
import random

import pytest

from bssyt import hecke
from bssyt.exactmath import IntPolynomial
from bssyt.hecke import (
    count_reduced_words,
    demazure_step,
    dominant_from_partition,
    fk_polynomial,
    fk_polynomial_bruteforce,
    format_permutation,
    hecke_product,
    identity,
    is_dominant,
    lehmer_code,
    length,
    longest_permutation,
    parse_permutation,
    permutation,
    verify_fk_bssyt_relation,
    verify_fk_longest,
    verify_fk_ratio,
)
from bssyt.shapes import NotBalancedError, Partition, all_subshapes, rect_staircase

P = Partition


def test_permutation_validation():
    assert permutation([2, 1, 3]) == (2, 1, 3)
    with pytest.raises(ValueError):
        permutation((1, 1, 2))
    with pytest.raises(ValueError):
        permutation((0, 1))
    # a bool would pass as 1 and print as "True"; a float would be kept as is
    for values in ((2, True), (False, 1), (2.0, 1), (1, "2")):
        with pytest.raises(ValueError):
            permutation(values)


def test_permutation_text_forms():
    assert parse_permutation("321") == (3, 2, 1)
    assert format_permutation((3, 2, 1)) == "321"
    big = tuple(range(10, 0, -1))
    assert parse_permutation(format_permutation(big)) == big


def test_length():
    assert length(identity(4)) == 0
    assert length((3, 2, 1)) == 3
    assert length((2, 4, 1, 3)) == 3


def test_lehmer_code():
    assert lehmer_code((3, 2, 1)) == (2, 1, 0)
    for w in itertools.permutations(range(1, 5)):
        assert sum(lehmer_code(w)) == length(w)


def test_dominant_from_partition():
    assert dominant_from_partition(P((1,)), 2) == (2, 1)
    assert dominant_from_partition(P((2, 1)), 3) == (3, 2, 1)
    assert dominant_from_partition(P((2, 1))) == (3, 2, 1)
    assert dominant_from_partition(P((2, 2))) == (3, 4, 1, 2)
    assert dominant_from_partition(P(())) == (1,)
    with pytest.raises(ValueError):
        dominant_from_partition(P((3,)), 2)


def test_dominant_code_round_trip():
    for lam in list(all_subshapes(P((3, 2, 1)))) + [P((2, 2)), P((2, 2, 1, 1))]:
        w = dominant_from_partition(lam)
        assert is_dominant(w)
        code = lehmer_code(w)
        assert code[: lam.rows] == lam.parts
        assert all(c == 0 for c in code[lam.rows :])
        assert length(w) == lam.ncells
        padded = dominant_from_partition(lam, len(w) + 2)
        assert lehmer_code(padded)[: lam.rows] == lam.parts


def test_is_dominant_examples():
    assert not is_dominant((1, 3, 2))
    assert is_dominant((3, 2, 1))
    assert not is_dominant((3, 1, 4, 2))


def test_is_dominant_matches_code_characterization():
    for n in range(1, 7):
        for w in itertools.permutations(range(1, n + 1)):
            code = lehmer_code(w)
            nonincreasing = all(code[i] >= code[i + 1] for i in range(n - 1))
            assert is_dominant(w) == nonincreasing


def test_demazure_step():
    assert demazure_step(identity(2), 1) == (2, 1)
    assert demazure_step((2, 1), 1) == (2, 1)
    assert demazure_step((2, 1, 3), 2) == (2, 3, 1)
    with pytest.raises(ValueError):
        demazure_step((2, 1), 2)
    with pytest.raises(ValueError):
        demazure_step((2, 1), 0)


def test_hecke_product():
    assert hecke_product((1, 2, 1), 3) == (3, 2, 1)
    assert hecke_product((1, 1, 1, 1), 2) == (2, 1)
    assert hecke_product((1, 2, 1, 2), 3) == (3, 2, 1)
    assert hecke_product((), 3) == identity(3)


def test_hecke_product_collapses_repeats():
    rng = random.Random(11)
    for _ in range(100):
        word = [rng.randint(1, 3) for _ in range(rng.randint(1, 8))]
        spot = rng.randrange(len(word))
        doubled = word[:spot] + [word[spot]] + word[spot:]
        assert hecke_product(tuple(doubled), 4) == hecke_product(tuple(word), 4)


def test_hecke_length_weakly_increasing_along_prefixes():
    for word in itertools.product((1, 2, 3), repeat=5):
        u = identity(4)
        previous = 0
        for letter in word:
            u = demazure_step(u, letter)
            now = length(u)
            assert now in (previous, previous + 1)
            previous = now


def test_minimal_length_hecke_words_are_reduced():
    for n, w in ((3, (3, 2, 1)), (4, (2, 4, 3, 1))):
        ell = length(w)
        for word in itertools.product(range(1, n), repeat=ell):
            u = identity(n)
            strictly_increasing = True
            for letter in word:
                nxt = demazure_step(u, letter)
                if nxt == u:
                    strictly_increasing = False
                u = nxt
            if u == w:
                assert strictly_increasing


def test_fk_polynomial_examples():
    assert fk_polynomial((2, 1), 1) == IntPolynomial((1, 1))
    assert fk_polynomial((2, 1), 2) == IntPolynomial((1, 2, 1))
    assert fk_polynomial((3, 2, 1), 3) == IntPolynomial((6, 13, 9, 2))
    four = fk_polynomial((3, 2, 1), 4)
    assert four.coefficient(0) == 36
    assert four.leading_coefficient() == 8
    assert fk_polynomial((3, 2, 1), 2) == IntPolynomial.zero()
    assert fk_polynomial(identity(3), 0) == IntPolynomial.one()
    with pytest.raises(ValueError):
        fk_polynomial((2, 1), -1)


def test_fk_polynomial_matches_bruteforce():
    for n in (2, 3):
        for ell in range(5):
            for w in itertools.permutations(range(1, n + 1)):
                assert fk_polynomial(w, ell) == fk_polynomial_bruteforce(w, ell)


def test_every_dp_level_matches_bruteforce():
    # every level of one pass, not only the top: fk36 and fk37 read levels
    # ell and ell + 1 off one pass, so a cut too deep at a lower level must show
    for n in (2, 3, 4):
        for w in itertools.permutations(range(1, n + 1)):
            walked = [fk_polynomial_bruteforce(w, ell) for ell in range(7)]
            for top in range(7):
                levels, _ = hecke._fk_levels(w, top)
                assert levels == walked[: top + 1], (w, top)


def test_dp_reports_method_and_peak_states():
    # fk14 at n = 4 keeps the permutations of length L at level L, whose
    # largest count is the Mahonian number 6; without the Bruhat cut fk37
    # on (3,1) would keep 11 states on some level
    for report, peak in (
        (verify_fk_longest(4), 6),
        (verify_fk_bssyt_relation(P((3, 1)), 2), 7),
        (verify_fk_ratio(P((2, 1))), 4),
    ):
        assert report.params["method"] == "bruhat-pruned-dp"
        assert report.params["peak_states"] == peak


def test_reduced_word_counts():
    assert count_reduced_words(identity(3)) == 1
    assert count_reduced_words(longest_permutation(3)) == 2
    assert count_reduced_words(longest_permutation(4)) == 16
    for w in itertools.permutations(range(1, 5)):
        lead = fk_polynomial(w, length(w)).leading_coefficient()
        assert lead == count_reduced_words(w)


def test_fk_longest_reports_both_forms():
    report = verify_fk_longest(2)
    assert report.params["as_printed_equal"] is False
    assert report.params["doubled_x_equal"] is True
    assert report.equal
    report = verify_fk_longest(3)
    assert report.params["as_printed_equal"] is False
    assert report.params["doubled_x_equal"] is True
    assert report.params["leading_coefficient"] == 2
    with pytest.raises(ValueError):
        verify_fk_longest(1)
    with pytest.raises(ValueError):
        verify_fk_longest(9)


def test_fk_longest_beyond_five():
    # the leading coefficient counts the reduced words of the longest element
    for n, reduced_words in ((6, 292864), (7, 1100742656)):
        report = verify_fk_longest(n)
        assert report.equal and report.params["doubled_x_equal"] is True
        assert count_reduced_words(longest_permutation(n)) == reduced_words
        assert report.params["leading_coefficient"] == reduced_words


def test_fk_ratio_single_box():
    report = verify_fk_ratio(P((1,)))
    assert report.equal
    # cleared identity collapses to 2*(x+1)^2 on both sides
    assert report.lhs == IntPolynomial((2, 4, 2))
    assert report.rhs == report.lhs


def test_fk_ratio_staircase():
    report = verify_fk_ratio(P((2, 1)))
    assert report.equal
    assert report.lhs == report.rhs  # the identity of integer polynomials
    assert report.params["permutation"] == "321"
    with pytest.raises(NotBalancedError):
        verify_fk_ratio(P((3, 1)))


def test_staircase_ratio_factor_rewrite():
    # on a rectangular staircase the balanced ratio factor 2rc/(ell(r+c))
    # collapses to 4/(d(a+b)): cross-multiplied integer identity
    for a in range(1, 5):
        for b in range(1, 5):
            for d in range(2, 5):
                lam = rect_staircase(a, b, d)
                r, c, ell = lam.rows, lam.cols, lam.ncells
                assert 2 * r * c * d * (a + b) == 4 * ell * (r + c)


def test_fk_bssyt_relation(monkeypatch):
    report = verify_fk_bssyt_relation(P((1,)), 2)
    assert report.equal
    assert report.params["fk_next_at_k"] == 9 and report.params["fk_at_k"] == 3
    report = verify_fk_bssyt_relation(P((2, 1)), 1)
    assert report.equal
    assert report.params["fk_next_at_k"] == 10 * report.params["fk_at_k"]
    report = verify_fk_bssyt_relation(P((3, 1)), 1)
    assert report.equal
    report = verify_fk_bssyt_relation(P(()), 2)
    assert report.equal and report.lhs == 0 and report.rhs == 0
    # a bad bound is refused before the word DP runs
    monkeypatch.setattr(hecke, "_fk_levels", None)
    for bad in (0, True, 2.0, "2"):
        with pytest.raises(ValueError):
            verify_fk_bssyt_relation(P((3, 3, 2, 2)), bad)
