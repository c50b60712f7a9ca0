import pytest

from bssyt.shapes import (
    Cell,
    Partition,
    all_subshapes,
    can_toggle_in,
    can_toggle_out,
    corner_count,
    corners,
    is_balanced,
    jaggedness,
    lattice_path,
    outside_corners,
    proper_outside_corner_count,
    proper_outside_corners,
    rect_staircase,
    subshape_contained,
)

P = Partition


def test_partition_construction():
    assert P((4, 4, 2, 1)).parts == (4, 4, 2, 1)
    assert P(()).parts == ()
    assert P((3, 2, 0, 0)).parts == (3, 2)
    with pytest.raises(ValueError):
        P((1, 2))
    with pytest.raises(ValueError):
        P((3, -1))
    with pytest.raises(ValueError):
        P((3, 0, 2))
    for bad in ((True,), (2, True), (1, False), (2, 0.0), (2, 0.0, 0)):
        with pytest.raises(ValueError):
            P(bad)


def test_partition_accessors():
    lam = P((4, 4, 2, 1))
    assert (lam.rows, lam.cols, lam.ncells) == (4, 4, 11)
    assert lam.part(1) == 4 and lam.part(4) == 1 and lam.part(5) == 0
    assert lam.contains_cell(Cell(2, 4)) and not lam.contains_cell(Cell(3, 3))
    assert len(list(lam.cells())) == 11
    empty = P(())
    assert (empty.rows, empty.cols, empty.ncells) == (0, 0, 0)


def test_partition_text_round_trip():
    assert P.from_text("4,4,2,1").parts == (4, 4, 2, 1)
    assert P.from_text("").parts == ()
    assert P((4, 4, 2, 1)).to_text() == "4,4,2,1"
    assert P(()).to_text() == ""
    with pytest.raises(ValueError):
        P.from_text("4,x")
    with pytest.raises(ValueError):
        P.from_text("1,2")


def test_rect_staircase():
    assert rect_staircase(1, 1, 3).parts == (2, 1)
    assert rect_staircase(1, 2, 2).parts == (2,)
    assert rect_staircase(2, 1, 3).parts == (2, 2, 1, 1)
    assert rect_staircase(1, 1, 1).parts == ()
    with pytest.raises(ValueError):
        rect_staircase(0, 1, 2)
    with pytest.raises(ValueError):
        rect_staircase(1, 1, 0)


def test_rect_staircase_dimensions_and_balance():
    for a in range(1, 6):
        for b in range(1, 6):
            for d in range(2, 6):
                lam = rect_staircase(a, b, d)
                assert lam.rows == a * (d - 1)
                assert lam.cols == b * (d - 1)
                assert is_balanced(lam)


def test_subshape_contained():
    assert subshape_contained(P((3, 3, 2, 1)), P((4, 4, 3, 1)))
    assert subshape_contained(P(()), P((4, 4, 3, 1)))
    assert not subshape_contained(P((5,)), P((4, 4)))
    assert not subshape_contained(P((1, 1, 1)), P((3, 3)))


def _paths_in_shape(lam):
    """Independent count of monotone lattice paths bounded by lam.

    Grid DP over path vertices (x, y): a vertex below the top edge is
    reachable only if x stays within the row it borders.
    """
    r, c = lam.rows, lam.cols
    if r == 0:
        return 1

    def allowed(x, y):
        return x <= (lam.part(r - y) if y < r else c)

    table = {(0, 0): 1}
    for y in range(r + 1):
        for x in range(c + 1):
            if (x, y) == (0, 0) or not allowed(x, y):
                continue
            total = 0
            if x and allowed(x - 1, y):
                total += table.get((x - 1, y), 0)
            if y and allowed(x, y - 1):
                total += table.get((x, y - 1), 0)
            table[(x, y)] = total
    return table[(c, r)]


def test_all_subshapes_small():
    assert [s.parts for s in all_subshapes(P((1,)))] == [(), (1,)]
    got = [s.parts for s in all_subshapes(P((2, 1)))]
    assert got == [(), (1,), (1, 1), (2,), (2, 1)]
    assert sum(1 for _ in all_subshapes(P((2, 2)))) == 6


def test_all_subshapes_against_path_count_oracle():
    for lam in all_subshapes(P((4, 4, 4, 4))):
        subs = [s.parts for s in all_subshapes(lam)]
        assert len(subs) == len(set(subs))
        assert len(subs) == _paths_in_shape(lam)
        assert all(subshape_contained(P(s), lam) for s in subs)


def test_corners():
    assert corners(P((3, 3, 2, 1))) == [Cell(2, 3), Cell(3, 2), Cell(4, 1)]
    assert corners(P(())) == []
    assert corners(P((2, 2))) == [Cell(2, 2)]


def test_outside_corners():
    assert outside_corners(P((3, 3, 2, 1))) == [
        Cell(1, 4),
        Cell(3, 3),
        Cell(4, 2),
        Cell(5, 1),
    ]
    assert outside_corners(P(())) == [Cell(1, 1)]
    assert outside_corners(P((1,))) == [Cell(1, 2), Cell(2, 1)]


def test_corner_interleaving():
    for lam in all_subshapes(P((4, 4, 4, 4))):
        assert len(outside_corners(lam)) == len(corners(lam)) + 1


def _is_order_ideal(cells):
    return all(
        (i == 1 or (i - 1, j) in cells) and (j == 1 or (i, j - 1) in cells)
        for i, j in cells
    )


def test_cellwise_predicates_match_lists():
    lam = P((4, 4, 3, 1))
    for mu in all_subshapes(lam):
        corner_set = set(corners(mu))
        mu_cells = set(mu.cells())
        for cell in lam.cells():
            # a toggle keeps the cell set an order ideal, checked directly
            removable = cell in mu_cells and _is_order_ideal(mu_cells - {cell})
            addable = cell not in mu_cells and _is_order_ideal(mu_cells | {cell})
            assert can_toggle_out(cell, mu, lam) == removable
            assert can_toggle_in(cell, mu, lam) == addable
        assert corner_count(mu) == len(corner_set)
        assert proper_outside_corner_count(mu, lam) == len(
            proper_outside_corners(mu, lam)
        )


def test_proper_outside_corners():
    assert proper_outside_corners(P((3, 3, 2, 1)), P((4, 4, 3, 1))) == [
        Cell(1, 4),
        Cell(3, 3),
    ]
    assert proper_outside_corners(P((1,)), P((1,))) == []
    assert proper_outside_corners(P((3, 3)), P((3, 3))) == []
    assert proper_outside_corners(P(()), P((1,))) == [Cell(1, 1)]
    with pytest.raises(ValueError):
        proper_outside_corners(P((2,)), P((1,)))


def test_jaggedness_examples():
    assert jaggedness(P((3, 3, 2, 1)), P((4, 4, 3, 1))) == 5
    assert jaggedness(P(()), P((1,))) == 1
    assert jaggedness(P((1,)), P((1,))) == 1
    assert jaggedness(P(()), P(())) == 0
    with pytest.raises(ValueError):
        jaggedness(P((2,)), P((1,)))


def test_lattice_path_examples():
    path = lattice_path(P((3, 3, 2, 1)), P((4, 4, 3, 1)))
    assert (path.left_turns, path.right_turns) == (3, 2)
    assert lattice_path(P((4, 1)), P((4, 4, 2, 1))).steps == "NNENEEEN"
    path = lattice_path(P(()), P((1,)))
    assert (path.steps, path.left_turns, path.right_turns) == ("NE", 0, 1)


def test_lattice_path_step_counts():
    lam = P((4, 4, 3, 1))
    for mu in all_subshapes(lam):
        path = lattice_path(mu, lam)
        assert path.steps.count("E") == lam.cols
        assert path.steps.count("N") == lam.rows


def test_turns_equal_jaggedness():
    for lam_parts in ((4, 4, 3, 1), (3, 1), (4, 4, 2, 1), (2, 2, 2)):
        lam = P(lam_parts)
        for mu in all_subshapes(lam):
            path = lattice_path(mu, lam)
            assert path.left_turns + path.right_turns == jaggedness(mu, lam)
            assert path.left_turns == len(corners(mu))
            assert path.right_turns == len(proper_outside_corners(mu, lam))


def test_toggles():
    assert can_toggle_in(Cell(1, 1), P(()), P((1,)))
    assert not can_toggle_out(Cell(1, 1), P(()), P((1,)))
    assert can_toggle_out(Cell(2, 3), P((3, 3, 2, 1)), P((4, 4, 3, 1)))
    assert can_toggle_in(Cell(1, 4), P((3, 3, 2, 1)), P((4, 4, 3, 1)))
    with pytest.raises(ValueError):
        can_toggle_in(Cell(9, 9), P(()), P((1,)))


def test_toggles_mutually_exclusive():
    lam = P((3, 2, 1))
    for mu in all_subshapes(lam):
        for cell in lam.cells():
            assert not (can_toggle_in(cell, mu, lam) and can_toggle_out(cell, mu, lam))


def test_is_balanced():
    assert is_balanced(P((4, 4, 2, 1)))
    assert is_balanced(P((2, 2, 1, 1)))
    assert not is_balanced(P((3, 1)))
    assert is_balanced(P((3, 3)))  # rectangles have no outward corners
    assert is_balanced(P((2, 1)))
    assert not is_balanced(P((2, 2, 1)))
    with pytest.raises(ValueError):
        is_balanced(P(()))
