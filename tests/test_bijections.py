import pytest

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
