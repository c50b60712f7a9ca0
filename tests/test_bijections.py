import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bssyt import bijections
from bssyt.bijections import (
    CornerTriple,
    OutsideTriple,
    bssyt_to_corner,
    bssyt_to_outside,
    corner_to_bssyt,
    outside_to_bssyt,
    verify_roundtrip,
)
from bssyt.shapes import Cell, Partition, all_subshapes, corners, proper_outside_corners
from bssyt.tableaux import (
    ReversePlanePartition,
    SetValuedTableau,
    classify,
    count_bssyt,
    enumerate_bssyt,
    enumerate_rpp,
    induced_subshape,
)

P = Partition

WORKED = SetValuedTableau.parse("1,1,2,2/{2,4},4,4,4/5,5/6", k=2)


def test_corner_representation_of_worked_example():
    triple = bssyt_to_corner(WORKED)
    assert triple.rpp.serialize() == "0,0,1,1/0,2,2,2/2,2/2"
    assert triple.level == 2
    assert triple.cell == Cell(2, 1)
    assert corner_to_bssyt(triple) == WORKED


def test_outside_representation_of_worked_example():
    triple = bssyt_to_outside(WORKED)
    assert triple.rpp.serialize() == "0,0,1,1/2,2,2,2/2,2/2"
    assert triple.level == 1
    assert triple.cell == Cell(2, 1)
    assert outside_to_bssyt(triple) == WORKED


def test_single_cell_forced_case():
    T = SetValuedTableau.parse("{1,2}", k=1)
    corner = bssyt_to_corner(T)
    assert (corner.rpp.rows, corner.level, corner.cell) == (((0,),), 1, Cell(1, 1))
    assert corner_to_bssyt(corner) == T
    outside = bssyt_to_outside(T)
    assert (outside.rpp.rows, outside.level, outside.cell) == (((1,),), 1, Cell(1, 1))
    assert outside_to_bssyt(outside) == T


def test_two_cell_row_case():
    T = SetValuedTableau.parse("1,{1,3}", k=2)
    corner = bssyt_to_corner(T)
    assert (corner.rpp.rows, corner.level, corner.cell) == (((0, 0),), 2, Cell(1, 2))
    assert corner_to_bssyt(corner) == T
    outside = bssyt_to_outside(T)
    assert (outside.rpp.rows, outside.level, outside.cell) == (((0, 2),), 1, Cell(1, 2))
    assert outside_to_bssyt(outside) == T


def test_rebuild_from_explicit_triples():
    P0 = ReversePlanePartition.parse("0", k=1)
    assert corner_to_bssyt(CornerTriple(P0, 1, Cell(1, 1))).rows == (((1, 2),),)
    Q0 = ReversePlanePartition.parse("1", k=1)
    assert outside_to_bssyt(OutsideTriple(Q0, 1, Cell(1, 1))).rows == (((1, 2),),)


def test_forward_maps_reject_non_bssyt():
    with pytest.raises(ValueError):
        bssyt_to_corner(SetValuedTableau.parse("1,1/2", k=1))
    with pytest.raises(ValueError):
        bssyt_to_outside(SetValuedTableau.parse("{1,2}/{3,4}", k=3))


def test_malformed_triples_rejected():
    rpp = ReversePlanePartition.parse("0,0,1,1/0,2,2,2/2,2/2", k=2)
    with pytest.raises(ValueError):
        CornerTriple(rpp, 2, Cell(1, 3))  # inside the level-2 subshape, not a corner
    with pytest.raises(ValueError):
        CornerTriple(rpp, 3, Cell(2, 1))  # level beyond the bound
    with pytest.raises(ValueError):
        OutsideTriple(rpp, 1, Cell(1, 1))  # inside the level-1 subshape
    zeros = ReversePlanePartition.parse("0,0,0,0/0,0,0,0/0,0/0", k=2)
    with pytest.raises(ValueError):
        # (3,3) is addable to the level-1 subshape but exits the shape
        OutsideTriple(zeros, 1, Cell(3, 3))
    # level-2 subshape of rpp is (4,1): (2,1) is its corner, (2,2) its
    # proper outside corner; the constructors accept exactly those
    CornerTriple(rpp, 2, Cell(2, 1))
    OutsideTriple(rpp, 2, Cell(2, 2))


def test_triples_are_immutable_values():
    rpp = ReversePlanePartition.parse("0,0/1", k=1)
    corner = CornerTriple(rpp, 1, Cell(1, 2))
    same = CornerTriple(ReversePlanePartition.parse("0,0/1", k=1), 1, Cell(1, 2))
    assert corner == same and hash(corner) == hash(same)
    outside = OutsideTriple(rpp, 1, Cell(2, 1))
    assert outside != corner and outside != (rpp, 1, Cell(2, 1))
    assert pickle.loads(pickle.dumps(outside)) == outside
    assert repr(corner) == (
        "CornerTriple(rpp=ReversePlanePartition('0,0/1', k=1), level=1, cell=Cell(row=1, col=2))"
    )
    with pytest.raises(AttributeError):
        corner.level = 2
    with pytest.raises(AttributeError):
        del outside.cell
    with pytest.raises(AttributeError):
        corner.extra = 0


def test_triples_reject_non_int_levels_and_cells():
    rpp = ReversePlanePartition.parse("0,0/1", k=1)
    for triple_type, cell in ((CornerTriple, (1, 2)), (OutsideTriple, (2, 1))):
        for level, bad_cell in (
            (True, cell),
            (1.0, cell),
            (1, (True, cell[1])),
            (1, (cell[0], True)),
            (1, (float(cell[0]), cell[1])),
            (1, ("1", cell[1])),
        ):
            with pytest.raises(ValueError):
                triple_type(rpp, level, bad_cell)
        triple = triple_type(rpp, 1, cell)
        assert type(triple.cell) is Cell and triple.cell == Cell(*cell)
        assert triple == triple_type(rpp, 1, Cell(*cell))


def _accepts(triple_type, rpp, level, cell):
    try:
        triple_type(rpp, level, cell)
    except ValueError:
        return False
    return True


def test_triple_checks_match_subshape_definition():
    # the local neighbour checks against the cell lists of the induced subshape
    for lam in all_subshapes(P((3, 3, 3))):
        for k in (1, 2):
            for rpp in enumerate_rpp(lam, k):
                for level in range(k + 2):
                    if 1 <= level <= k:
                        mu = induced_subshape(rpp, level)
                        corner_set = set(corners(mu))
                        outside_set = set(proper_outside_corners(mu, lam))
                    else:
                        corner_set = outside_set = set()
                    for row in range(lam.rows + 2):
                        for col in range(lam.cols + 2):
                            cell = Cell(row, col)
                            assert _accepts(CornerTriple, rpp, level, cell) == (
                                cell in corner_set
                            )
                            assert _accepts(OutsideTriple, rpp, level, cell) == (
                                cell in outside_set
                            )


def test_roundtrip_exhaustive_small_grid():
    for lam in all_subshapes(P((3, 3))):
        for k in (1, 2):
            for T in enumerate_bssyt(lam, k):
                corner = bssyt_to_corner(T)
                corner.rpp.validate()
                back = corner_to_bssyt(corner)
                back.validate()
                assert back == T
                outside = bssyt_to_outside(T)
                outside.rpp.validate()
                back = outside_to_bssyt(outside)
                back.validate()
                assert classify(back) == "BSSYT"
                assert back == T


def test_triple_images_are_distinct():
    # injectivity on a small family: distinct tableaux give distinct triples
    lam, k = P((2, 2)), 2
    corner_images = set()
    outside_images = set()
    total = 0
    for T in enumerate_bssyt(lam, k):
        total += 1
        c = bssyt_to_corner(T)
        corner_images.add((c.rpp.serialize(), c.level, tuple(c.cell)))
        o = bssyt_to_outside(T)
        outside_images.add((o.rpp.serialize(), o.level, tuple(o.cell)))
    assert len(corner_images) == total
    assert len(outside_images) == total


def test_verify_roundtrip_report():
    report = verify_roundtrip(P((2, 1)), 2)
    assert report.claim == "bssyt_roundtrip"
    assert report.equal
    assert report.lhs == report.rhs
    assert report.params["tableaux"] == report.rhs[0]
    assert report.params["method"] == "row-lattice"
    assert report.params["peak_states"] == 6  # J(2^2): rows of width 2, entries in [0, 2]
    # (row index, doubled row) pairs: 8 rows of width 2 in row 1, and in row 2
    # the one-cell rows {2, 3}, {2, 4} and {3, 4}
    assert report.params["doubled_rows"] == 11
    report = verify_roundtrip(P((4, 4, 2, 1)), 3)
    assert report.equal and report.lhs == report.rhs == [39732, 39732]
    assert report.params["tableaux"] == count_bssyt(P((4, 4, 2, 1)), 3)
    assert report.params["doubled_rows"] == 194
    empty = verify_roundtrip(P(()), 1)
    assert empty.equal and empty.lhs == [0, 0] and empty.params["tableaux"] == 0
    assert empty.params["doubled_rows"] == 0
    for bad in (0, True, 2.0, "2"):
        with pytest.raises(ValueError):
            verify_roundtrip(P((2, 1)), bad)


def _walk_roundtrip(lam, k):
    """The per-tableau oracle: (tableaux, corner round trips that hold,
    outside round trips that hold), a raised ValueError or a changed
    tableau counting as a failure."""
    total = corner_ok = outside_ok = 0
    for T in enumerate_bssyt(lam, k):
        total += 1
        try:
            corner_ok += corner_to_bssyt(bssyt_to_corner(T)) == T
        except ValueError:
            pass
        try:
            outside_ok += outside_to_bssyt(bssyt_to_outside(T)) == T
        except ValueError:
            pass
    return total, corner_ok, outside_ok


def _counted(report):
    return (report.params["tableaux"], *report.lhs)


def test_roundtrip_count_against_tableau_walk():
    for box in ((4, 4, 4), (3, 3, 3, 3)):
        for lam in all_subshapes(P(box)):
            for k in (1, 2, 3):
                report = verify_roundtrip(lam, k)
                assert report.equal, (lam, k)
                assert _counted(report) == _walk_roundtrip(lam, k), (lam, k)


def _macmahon(rows, cols, k):
    """Plane partitions in a rows x cols x k box: the RPPs of the rectangle."""
    value = Fraction(1)
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            for l in range(1, k + 1):
                value *= Fraction(i + j + l - 1, i + j + l - 2)
    return value


def test_roundtrip_count_against_product_formula():
    # rectangles no walk reaches: b^a has k*a*b/(a + b) times MacMahon's
    # product of bssyt, the product computed here without the package
    cases = [(a, b, k) for a in range(1, 7) for b in range(1, 7) for k in (1, 2, 3)]
    for a, b, k in cases + [(8, 8, 3)]:
        report = verify_roundtrip(P((b,) * a), k)
        assert report.equal, (a, b, k)
        expected = Fraction(k * a * b, a + b) * _macmahon(a, b, k)
        assert report.params["tableaux"] == expected, (a, b, k)


def _slipped_corner(row, below, c, level, k):
    # _is_corner with > for >= against the right neighbour
    return (
        1 <= level <= k
        and row[c] < level
        and (c + 1 == len(row) or row[c + 1] > level)
        and (c >= len(below) or below[c] >= level)
    )


def _slipped_lower(row, below, c, level, k):
    # _is_corner with > for >= against the lower neighbour
    return (
        1 <= level <= k
        and row[c] < level
        and (c + 1 == len(row) or row[c + 1] >= level)
        and (c >= len(below) or below[c] > level)
    )


def _slipped_upper(row, above, c, level, k):
    # _is_outside_corner with level - 1 for level against the upper neighbour
    return (
        1 <= level <= k
        and row[c] >= level
        and (c == 0 or row[c - 1] < level)
        and (c >= len(above) or above[c] < level - 1)
    )


def _slipped_join(row, t, doubled=None):
    # _join_row shifting the singleton cells up by t - 1 instead of t
    cells = [(v + t - 1,) for v in row]
    if doubled is not None:
        c, low, high = doubled
        cells[c] = (low + t, high + t)
    return tuple(cells)


def _slipped_second_join(row, t, doubled=None, join_row=bijections._join_row):
    # _slipped_join on row 2 alone: the doubled row's own join may hold while
    # its neighbour in row 2 breaks, so the count must read the neighbours'
    # survive counts, not all fillings
    return (_slipped_join if t == 2 else join_row)(row, t, doubled)


@pytest.mark.parametrize(
    "helper, mutant",
    [
        ("_is_corner", _slipped_corner),
        ("_is_corner", _slipped_lower),
        ("_is_outside_corner", _slipped_upper),
        ("_join_row", _slipped_join),
        ("_join_row", _slipped_second_join),
    ],
)
def test_roundtrip_count_sees_a_slipped_row_step(monkeypatch, helper, mutant):
    # the maps, the triple checks and the count share the row steps, so a
    # slip in one is seen by the count exactly as by the walk
    monkeypatch.setattr(bijections, helper, mutant)
    # (3, 3) at k=2 also sees an outside-test chain that lifts too few columns
    cases = ((1,), 2), ((2, 1), 2), ((2, 2), 2), ((3, 3), 2), ((3, 2, 1), 2), ((4, 4, 2, 1), 1)
    for parts, k in cases:
        report = verify_roundtrip(P(parts), k)
        walked = _walk_roundtrip(P(parts), k)
        assert _counted(report) == walked
        assert report.params["tableaux"] == count_bssyt(P(parts), k)
        total, corner_ok, outside_ok = walked
        if parts == (1,):
            # one cell: no neighbour, and no singleton cell
            assert report.equal and corner_ok == outside_ok == total
        elif helper == "_is_corner":
            assert not report.equal and 0 < corner_ok < total == outside_ok
        elif helper == "_is_outside_corner":
            assert not report.equal and 0 < outside_ok < total == corner_ok
        elif mutant is _slipped_second_join and parts == (2, 1):
            # row 2 is one cell, which slips only when it is not the pair
            assert not report.equal and 0 < corner_ok == outside_ok < total
        else:
            assert not report.equal and corner_ok == outside_ok == 0


@pytest.mark.parametrize("parts", [(2, 2), (3, 2, 1), (3, 3, 2, 2)])
def test_roundtrip_runs_each_row_step_once_per_doubled_row(monkeypatch, parts):
    # each split and join runs once per (row index, doubled row) that the
    # tableau walk meets, so the count shares no step across rows; (3,3,2,2)
    # has rows of one width with different neighbours, which share the
    # per-width tables and must not share their steps
    lam, k = P(parts), 2
    met = set()
    for T in enumerate_bssyt(lam, k):
        (t,) = [t for t, row in enumerate(T.rows, start=1) if any(len(cell) == 2 for cell in row)]
        met.add((t, T.rows[t - 1]))
    seen = {}
    for name in ("_corner_split", "_outside_split", "_corner_join", "_outside_join"):
        step = getattr(bijections, name)
        keys = seen[name] = []

        def counted(row, t, *rest, step=step, name=name, keys=keys):
            out = step(row, t, *rest)
            # a split is keyed by the doubled row it reads, a join by the one it makes
            keys.append((t, row if name.endswith("split") else out))
            return out

        monkeypatch.setattr(bijections, name, counted)
    report = verify_roundtrip(lam, k)
    assert report.equal and report.params["tableaux"] == len(list(enumerate_bssyt(lam, k)))
    assert report.params["doubled_rows"] == len(met)
    for name, keys in seen.items():
        assert len(keys) == len(met), name
        assert set(keys) == met, name


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(1, 6), max_size=6), st.integers(1, 3))
def test_roundtrip_count_is_conjugation_invariant(parts, k):
    # transposing a tableau keeps its round trips: lam and lam' count the
    # same, on boxes k^(lam_1) and k^(lam'_1) whose rows have other widths
    lam = P(sorted(parts, reverse=True))
    conjugate = P(tuple(sum(p > j for p in lam.parts) for j in range(max(parts, default=0))))
    report, transposed = verify_roundtrip(lam, k), verify_roundtrip(conjugate, k)
    assert report.equal and transposed.equal
    assert report.params["tableaux"] == transposed.params["tableaux"]
    assert report.lhs == transposed.lhs
