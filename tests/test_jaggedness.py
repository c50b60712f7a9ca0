import types
from fractions import Fraction
from itertools import repeat
from operator import add, and_, gt, lt, sub

import pytest

import bssyt.jaggedness
import bssyt.shapes
from bssyt.jaggedness import (
    check_toggle_symmetric,
    expected_jaggedness_weak,
    verify_balanced_expectation,
    verify_conjecture_rect,
    verify_count_identity,
    verify_double_sums,
    verify_ensemble_size,
    verify_weak_expectation_by_subshape,
    weak_distribution,
    weak_histogram,
    weak_probability,
)
from bssyt.lattice import subshape_count, subshape_lattice, subshapes
from bssyt.reports import VerificationReport
from bssyt.shapes import (
    Cell,
    NotBalancedError,
    Partition,
    all_subshapes,
    corners,
    jaggedness as shape_jaggedness,
    proper_outside_corners,
)
from bssyt.tableaux import (
    count_bssyt,
    count_rpp,
    count_ssyt,
    enumerate_rpp,
    induced_subshape,
)

P = Partition


def _pair_walk(lam, k):
    """The weak histogram by walking every (reverse plane partition, level) pair."""
    walked = {}
    for rpp in enumerate_rpp(lam, k):
        for i in range(1, k + 1):
            mu = induced_subshape(rpp, i).parts
            walked[mu] = walked.get(mu, 0) + 1
    return walked


def test_weak_histogram_against_pair_walk():
    # every subshape of the 3x4 and 4x3 boxes, the empty shape included, at
    # k <= 3, and (4, 4, 2, 1) at k <= 2
    grid = [
        (lam, k)
        for box in (P((4, 4, 4)), P((3, 3, 3, 3)))
        for lam in all_subshapes(box)
        for k in (1, 2, 3)
    ]
    grid += [(P((4, 4, 2, 1)), 1), (P((4, 4, 2, 1)), 2)]
    for lam, k in grid:
        histogram = weak_histogram(lam, k)
        assert set(histogram) == {mu.parts for mu in all_subshapes(lam)}
        assert sum(histogram.values()) == k * count_rpp(lam, k)
        assert dict(histogram) == _pair_walk(lam, k), (lam, k)
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
    for lam, k in ((P((2, 1)), 2), (P((3, 1)), 1), (P((5,) * 5), 3)):
        distribution = weak_distribution(lam, k)
        assert sum(distribution.values()) == 1
        assert set(distribution) == {mu.parts for mu in all_subshapes(lam)}
    lam, k = P((2, 1)), 2
    for mu in all_subshapes(lam):
        assert weak_probability(mu, lam, k) == weak_distribution(lam, k)[mu.parts]


def test_expected_jaggedness_examples():
    # each value by the cover rows and by the jaggedness of every subshape
    examples = (
        ((1,), 1, 1),
        ((2, 2, 1, 1), 2, Fraction(8, 3)),
        ((3, 1), 1, Fraction(16, 7)),
        ((3, 1), 2, Fraction(57, 25)),
        ((3, 1), 3, Fraction(148, 65)),
        ((3, 1), 4, Fraction(91, 40)),
        ((5, 3, 1), 1, Fraction(18, 5)),
        ((5, 3, 1), 2, Fraction(1167, 325)),
        ((), 2, 0),
    )
    for parts, k, value in examples:
        lam = P(parts)
        histogram = weak_histogram(lam, k)
        walked = sum(n * shape_jaggedness(P(mu), lam) for mu, n in histogram.items())
        assert expected_jaggedness_weak(lam, k) == value, (parts, k)
        assert Fraction(walked, sum(histogram.values())) == value, (parts, k)
    assert expected_jaggedness_weak(P((3, 1)), 1) != Fraction(2 * 2 * 3, 2 + 3)


def test_unconditional_bridge_identity():
    # twice the barely set-valued count equals k * ssyt * expected jaggedness,
    # with no balance assumption
    for parts in ((1,), (2, 1), (3, 1), (3, 2, 2), (2, 2), (4, 4, 2, 1)):
        lam = P(parts)
        for k in (1, 2):
            expectation = expected_jaggedness_weak(lam, k)
            assert 2 * count_bssyt(lam, k) == k * count_ssyt(lam, k) * expectation


def test_toggle_symmetry_small():
    report = check_toggle_symmetric(P((1,)), 1)
    assert list(report.lhs) == list(report.rhs) == [Cell(1, 1)]
    assert report.lhs[Cell(1, 1)] == report.rhs[Cell(1, 1)] == 1
    for lam, k in ((P((2, 1)), 2), (P((4, 4, 2, 1)), 2)):
        report = check_toggle_symmetric(lam, k)
        assert list(report.lhs) == list(report.rhs) == list(lam.cells())
        assert report.params["cells"] == lam.ncells
        assert all(report.lhs[cell] == report.rhs[cell] for cell in lam.cells())
        assert report.equal


def test_toggle_symmetry_full_grid():
    for lam in all_subshapes(P((4, 4, 4, 4))):
        for k in (1, 2, 3):
            report = check_toggle_symmetric(lam, k)
            assert all(report.lhs[cell] == report.rhs[cell] for cell in lam.cells())
            assert report.equal


def _cover_cells(lam):
    """Per subshape index: its corner cells and its proper outside corner
    cells, read off the targets of each cell's covers, with every cover's
    source checked to be the subshape less the cell, or with it."""
    lattice, shapes = subshape_lattice(lam), subshapes(lam)
    corner_cells = {n: [] for n in range(lattice.size)}
    outside_cells = {n: [] for n in range(lattice.size)}
    for i, (lowered, raised) in enumerate(zip(lattice.down, lattice.up)):
        for m, (offset, targets) in enumerate(lowered, start=1):
            for n in targets:
                corner_cells[n].append((i + 1, m))
                assert shapes[n - offset] == shapes[n][:i] + (m - 1,) + shapes[n][i + 1 :]
        for m, (offset, targets) in enumerate(raised):
            for n in targets:
                outside_cells[n].append((i + 1, m + 1))
                assert shapes[n + offset] == shapes[n][:i] + (m + 1,) + shapes[n][i + 1 :]
    return shapes, corner_cells, outside_cells


_BOX_SUBSHAPES = [lam for box in (P((4, 4, 4)), P((3, 3, 3, 3))) for lam in all_subshapes(box)]


def test_cover_rows_against_shapes():
    for lam in _BOX_SUBSHAPES + [P((6, 6, 3, 3)), P((5, 3, 1))]:
        shapes, corner_cells, outside_cells = _cover_cells(lam)
        assert [P(mu) for mu in shapes] == list(all_subshapes(lam))
        for n, parts in enumerate(shapes):
            mu = P(parts)
            assert corner_cells[n] == [tuple(c) for c in corners(mu)], (lam, mu)
            assert outside_cells[n] == [
                tuple(c) for c in proper_outside_corners(mu, lam)
            ], (lam, mu)


def _subshape_walk(lam, k):
    """The corner sums and per-cell toggle sums by building every subshape."""
    corner_sum = outside_sum = 0
    ins, outs = {}, {}
    for parts, n in weak_histogram(lam, k).items():
        mu = P(parts)
        for cell in corners(mu):
            corner_sum += n
            outs[cell] = outs.get(cell, 0) + n
        for cell in proper_outside_corners(mu, lam):
            outside_sum += n
            ins[cell] = ins.get(cell, 0) + n
    return corner_sum, outside_sum, ins, outs


def test_cover_sums_against_subshape_walk():
    for lam in _BOX_SUBSHAPES:
        for k in (1, 2, 3):
            corner_sum, outside_sum, ins, outs = _subshape_walk(lam, k)
            assert verify_double_sums(lam, k).lhs == [corner_sum, outside_sum], (lam, k)
            report = check_toggle_symmetric(lam, k)
            for cell in lam.cells():
                assert (report.lhs[cell], report.rhs[cell]) == (
                    ins.get(cell, 0),
                    outs.get(cell, 0),
                )


@pytest.mark.parametrize("covers", ["corners", "outside"])
def test_double_sums_see_a_dropped_cover(monkeypatch, covers):
    # a lattice whose last cell loses one target undercounts one sum
    def dropped(lam):
        lattice = subshape_lattice(lam)
        row = (lattice.down if covers == "corners" else lattice.up)[-1]
        offset, targets = row[-1]
        row[-1] = offset, targets[1:]
        return lattice

    monkeypatch.setattr(bssyt.jaggedness, "subshape_lattice", dropped)
    for parts, k in (((1,), 1), ((2, 1), 2), ((3, 1), 2), ((4, 4, 2, 1), 2)):
        report = verify_double_sums(P(parts), k)
        assert not report.equal, (parts, k)
        assert report.lhs[covers == "outside"] < report.rhs[0]


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


def _jaggedness_plus_one(mu, lam, jaggedness=shape_jaggedness):
    return jaggedness(mu, lam) + 1


def _corner_flags_off_by_one(parts):
    # a row's end is taken as a corner only when the row is two longer than the next
    return map(gt, parts, map(add, parts[1:] + (0,), repeat(1)))


def _outside_flags_off_by_one(parts, bounds):
    # a row one cell short of lam's row is taken as having no outside corner
    short = map(lt, parts, map(sub, bounds, repeat(1)))
    return map(and_, short, map(gt, bounds[:1] + parts, parts))


@pytest.mark.parametrize(
    "module, name, mutant",
    [
        (bssyt.jaggedness, "shape_jaggedness", _jaggedness_plus_one),
        (bssyt.shapes, "_corner_flags", _corner_flags_off_by_one),
        (bssyt.shapes, "_outside_flags", _outside_flags_off_by_one),
    ],
    ids=["shape_jaggedness", "corner_rule", "outside_rule"],
)
def test_theorem22_measures_jaggedness_on_its_own(monkeypatch, module, name, mutant):
    # theorem22 reads every subshape's jaggedness from shapes; theorem21 and
    # doublesums read the lattice's covers, so a slip in shapes fails only it
    cases = ((P((2, 2)), 2), (P((3, 3, 3)), 1), (P((4, 4, 2, 1)), 2), (P((6, 6, 3, 3)), 1))
    for lam, k in cases:
        walked = verify_weak_expectation_by_subshape(lam, k)
        assert walked.equal and walked.params["subshapes_seen"] == subshape_count(lam)
    monkeypatch.setattr(module, name, mutant)
    for lam, k in cases:
        walked = verify_weak_expectation_by_subshape(lam, k)
        assert not walked.equal and walked.lhs != walked.rhs, (lam, k)
        assert walked.params["normalized"] is True
        assert walked.params["subshapes_seen"] == subshape_count(lam)
        assert verify_balanced_expectation(lam, k).equal
        assert verify_double_sums(lam, k).equal


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
    # a, b and d are checked once, by rect_staircase
    for bad in ((0, 1, 2, 1), (True, 1, 2, 1), (1, 1, 2.0, 1)):
        with pytest.raises(ValueError):
            verify_conjecture_rect(*bad)
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
    plain = VerificationReport("demo", {"n": 1}, 2, 2, True)
    assert plain.as_dict() == {
        "claim": "demo", "params": {"n": 1}, "lhs": 2, "rhs": 2, "equal": True
    }
    assert plain == VerificationReport(claim="demo", params={"n": 1}, lhs=2, rhs=2, equal=True)
    assert plain != VerificationReport("demo", {"n": 1}, 2, 3, False)
    assert repr(plain) == (
        "VerificationReport(claim='demo', params={'n': 1}, lhs=2, rhs=2, equal=True)"
    )
    with pytest.raises(AttributeError):
        plain.equal = False
