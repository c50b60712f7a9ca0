import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bssyt.shapes import Partition, all_subshapes, subshape_contained
from bssyt.tableaux import (
    ReversePlanePartition,
    SetValuedTableau,
    classify,
    count_bssyt,
    count_rpp,
    count_ssyt,
    enumerate_bssyt,
    enumerate_rpp,
    enumerate_ssyt,
    induced_subshape,
    rpp_to_ssyt,
    ssyt_to_rpp,
)

P = Partition

WORKED_BSSYT = "1,1,2,2/{2,4},4,4,4/5,5/6"  # shape (4,4,2,1), doubled cell in row 2


def test_classify():
    assert classify(SetValuedTableau.parse(WORKED_BSSYT, k=2)) == "BSSYT"
    assert classify(SetValuedTableau.parse("1,2,2,3/{2,4},4,4/5,6/7,7", k=3)) == "BSSYT"
    assert classify(SetValuedTableau.parse("1,1/2", k=1)) == "SSYT"
    assert classify(SetValuedTableau.parse("{1,2}/{3,4}", k=2)) == "other"
    assert classify(SetValuedTableau.parse("{1,2,3}", k=3)) == "other"


def test_validation_rejects_bad_tableaux():
    with pytest.raises(ValueError):
        SetValuedTableau.parse("2,1", k=2)  # row decreasing
    with pytest.raises(ValueError):
        SetValuedTableau.parse("1/1", k=2)  # column not strict
    with pytest.raises(ValueError):
        SetValuedTableau.parse("3", k=1)  # flag k+1 exceeded
    with pytest.raises(ValueError):
        SetValuedTableau.parse("0", k=1)  # below 1
    with pytest.raises(ValueError):
        SetValuedTableau.parse("{2,4},1", k=3)  # row violates max<=min
    with pytest.raises(ValueError):
        SetValuedTableau(P((1,)), (((2, 2),),), 2)  # repeated entry in a cell
    # rows, rows of cells and cells that are not collections of comparable ints
    for rows in (((1,),), ((("a", 1),),), 5):
        with pytest.raises(ValueError, match="malformed filling"):
            SetValuedTableau(P((1,)), rows, 1)


def test_rpp_validation():
    with pytest.raises(ValueError):
        ReversePlanePartition.parse("1,0", k=1)
    with pytest.raises(ValueError):
        ReversePlanePartition.parse("1/0", k=1)
    with pytest.raises(ValueError):
        ReversePlanePartition.parse("2", k=1)
    with pytest.raises(ValueError):
        ReversePlanePartition.parse("-1", k=1)
    assert ReversePlanePartition.parse("0,1/1", k=1).rows == ((0, 1), (1,))
    for rows in (5, (5,)):
        with pytest.raises(ValueError, match="malformed filling"):
            ReversePlanePartition(P((1,)), rows, 1)


def test_rpp_rejects_bool_entries():
    # a bool would pass as 0 or 1 and serialize as False/True
    with pytest.raises(ValueError):
        ReversePlanePartition(P((2,)), ((False, True),), 1)
    assert ReversePlanePartition(P((2,)), ((0, 1),), 1).serialize() == "0,1"


def test_setvalued_rejects_bool_entries():
    with pytest.raises(ValueError, match="non-integer entry"):
        SetValuedTableau(P((1,)), (((True,),),), 1)
    assert SetValuedTableau(P((1,)), (((1,),),), 1).serialize() == "1"


@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.integers(1, 3), max_size=3), st.integers(1, 2), st.data())
def test_text_form_round_trips(parts, k, data):
    # one SSYT, one BSSYT and one RPP drawn from the enumerators on a shape
    # inside 3x3; parse(serialize(T), k) rebuilds T through the checked path
    lam = P(sorted(parts, reverse=True))
    for cls, fillings in (
        (SetValuedTableau, enumerate_ssyt(lam, k)),
        (SetValuedTableau, enumerate_bssyt(lam, k)),
        (ReversePlanePartition, enumerate_rpp(lam, k)),
    ):
        fillings = list(fillings)
        if not fillings:
            assert cls is SetValuedTableau and lam.ncells == 0
            continue
        T = data.draw(st.sampled_from(fillings))
        assert type(T) is cls
        assert cls.parse(T.serialize(), k) == T


def test_enumerate_ssyt_counts():
    assert count_ssyt(P((1,)), 2) == 3
    assert count_ssyt(P((2, 1)), 1) == 5
    assert count_ssyt(P((2,)), 3) == 10
    assert count_ssyt(P(()), 5) == 1


def test_profile_counts_against_enumerators():
    # every subshape of the 3x4 and 4x3 boxes, the empty shape included, at k <= 3;
    # count_rpp is the lattice count, the other two the Jacobi-Trudi determinants
    for box in (P((4, 4, 4)), P((3, 3, 3, 3))):
        for lam in all_subshapes(box):
            for k in (1, 2, 3):
                assert count_ssyt(lam, k) == sum(1 for _ in enumerate_ssyt(lam, k))
                assert count_bssyt(lam, k) == sum(1 for _ in enumerate_bssyt(lam, k))
                assert count_rpp(lam, k) == len(list(enumerate_rpp(lam, k)))


def _accumulate(states, profile, single, doubled):
    old_single, old_doubled = states.get(profile, (0, 0))
    states[profile] = (old_single + single, old_doubled + doubled)


def _profile_counts(shape, k):
    """(|SSYT(shape, k)|, |BSSYT(shape, k)|) by one column-profile pass.

    The counts' second oracle, independent of the determinants.  Cells are
    taken in row-major order; a state is the tuple of the largest entry
    placed so far in each column still to be reached, carrying the number
    of fillings with no doubled cell and with one.  A cell in row t
    (1-based) whose left and upper neighbours force its entries up to at
    least lo can take the maximum b for any b in [lo, k + t]: as the
    singleton {b}, or as one of the b - lo pairs {a, b} with lo <= a < b.
    Each row starts by dropping the columns it does not reach, so equal
    futures share one state; the first row starts from zeros.  Its state
    count grows exponentially with the shape.
    """
    states = {(): (1, 0)}
    for t, width in enumerate(shape.parts, start=1):
        truncated = {}
        for profile, (single, doubled) in states.items():
            profile = profile[:width] + (0,) * (width - len(profile))
            _accumulate(truncated, profile, single, doubled)
        states = truncated
        for j in range(width):
            advanced = {}
            for profile, (single, doubled) in states.items():
                lo = profile[j] + 1
                if j and profile[j - 1] > lo:
                    lo = profile[j - 1]
                head, tail = profile[:j], profile[j + 1 :]
                for b in range(lo, k + t + 1):
                    _accumulate(
                        advanced, head + (b,) + tail, single, doubled + single * (b - lo)
                    )
            states = advanced
    return (
        sum(single for single, _ in states.values()),
        sum(doubled for _, doubled in states.values()),
    )


def test_determinant_counts_against_profile_dp():
    # every subshape of the 5x5, 6x5 and 5x6 boxes at k <= 3, and of 4x4 at k <= 5
    cases = [(P((5,) * 5), 3), (P((5,) * 6), 3), (P((6,) * 5), 3), (P((4,) * 4), 5)]
    for box, top in cases:
        for lam in all_subshapes(box):
            for k in range(1, top + 1):
                assert (count_ssyt(lam, k), count_bssyt(lam, k)) == _profile_counts(lam, k)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(1, 6), max_size=6), st.integers(1, 4))
def test_determinant_counts_match_profile_dp(parts, k):
    lam = P(sorted(parts, reverse=True))
    assert (count_ssyt(lam, k), count_bssyt(lam, k)) == _profile_counts(lam, k)


def _macmahon(rows, cols, k):
    """Plane partitions in a rows x cols x k box: the RPPs of the rectangle."""
    value = Fraction(1)
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            for l in range(1, k + 1):
                value *= Fraction(i + j + l - 1, i + j + l - 2)
    return value


def _proctor(n, k):
    """RPPs of the staircase (n, n - 1, ..., 1) with entries at most k."""
    value = Fraction(1)
    for i in range(1, n + 2):
        for j in range(i + 1, n + 2):
            value *= Fraction(2 * k + i + j - 1, i + j - 1)
    return value


def test_counts_against_product_formulas():
    # closed forms at sizes no enumerator or profile pass reaches, and the
    # barely set-valued count's (r + c) * B = k * r * c * S on the same shapes
    shapes = [
        (P((cols,) * rows), lambda k, r=rows, c=cols: _macmahon(r, c, k))
        for rows in range(1, 13)
        for cols in range(1, 13)
    ] + [
        (P(range(n, 0, -1)), lambda k, n=n: _proctor(n, k)) for n in range(1, 13)
    ]
    for lam, product in shapes:
        r, c = lam.rows, lam.cols
        for k in range(1, 6):
            ssyt = count_ssyt(lam, k)
            assert ssyt == product(k)
            assert (r + c) * count_bssyt(lam, k) == k * r * c * ssyt


def test_enumerate_ssyt_contents():
    singles = [T.rows for T in enumerate_ssyt(P((1,)), 2)]
    assert singles == [(((1,),),), (((2,),),), (((3,),),)]


def test_enumerate_bssyt_counts():
    assert count_bssyt(P((1,)), 1) == 1
    assert count_bssyt(P((1,)), 3) == 6
    assert count_bssyt(P((2, 1)), 1) == 5
    assert count_bssyt(P((2,)), 1) == 2
    assert count_bssyt(P((3, 1)), 1) == 8
    assert count_bssyt(P(()), 3) == 0


def test_enumerate_bssyt_forced_case():
    only = list(enumerate_bssyt(P((1,)), 1))
    assert len(only) == 1
    assert only[0].rows == (((1, 2),),)


def test_enumerate_rpp_counts_and_contents():
    assert count_rpp(P((1,)), 1) == 2
    assert [p.rows for p in enumerate_rpp(P((2,)), 1)] == [
        ((0, 0),),
        ((0, 1),),
        ((1, 1),),
    ]
    assert count_rpp(P((2, 1)), 1) == 5
    assert count_rpp(P(()), 2) == 1


def test_enumerations_validate_and_deduplicate():
    lam = P((3, 2))
    for k in (1, 2):
        ssyt = list(enumerate_ssyt(lam, k))
        bssyt = list(enumerate_bssyt(lam, k))
        rpps = list(enumerate_rpp(lam, k))
        for T in ssyt + bssyt:
            T.validate()
            assert classify(T) == ("SSYT" if T in ssyt else "BSSYT")
        for R in rpps:
            R.validate()
        assert len({T.serialize() for T in ssyt}) == len(ssyt)
        assert len({T.serialize() for T in bssyt}) == len(bssyt)
        assert len({R.serialize() for R in rpps}) == len(rpps)


def test_enumeration_is_deterministic():
    lam = P((2, 2))
    first = [T.serialize() for T in enumerate_bssyt(lam, 2)]
    second = [T.serialize() for T in enumerate_bssyt(lam, 2)]
    assert first == second


def test_bad_bound_rejected():
    with pytest.raises(ValueError):
        count_ssyt(P((1,)), 0)
    with pytest.raises(ValueError):
        list(enumerate_rpp(P((1,)), -2))
    with pytest.raises(ValueError):
        count_ssyt(P((1,)), True)
    with pytest.raises(ValueError):
        count_bssyt(P((1,)), 0)
    with pytest.raises(ValueError):
        count_rpp(P((1,)), 0)


def test_row_shift_example():
    rpp = ReversePlanePartition.parse("0,0/1", k=1)
    assert rpp_to_ssyt(rpp).serialize() == "1,1/3"
    assert ssyt_to_rpp(rpp_to_ssyt(rpp)) == rpp
    empty = ReversePlanePartition.parse("", k=1)
    assert rpp_to_ssyt(empty).serialize() == ""


def test_row_shift_bijection_small_grid():
    from bssyt.shapes import all_subshapes

    for lam in all_subshapes(P((3, 3, 3))):
        for k in (1, 2, 3):
            images = set()
            for rpp in enumerate_rpp(lam, k):
                T = rpp_to_ssyt(rpp)
                T.validate()
                assert classify(T) == "SSYT"
                assert ssyt_to_rpp(T) == rpp
                images.add(T.serialize())
            assert len(images) == count_rpp(lam, k) == count_ssyt(lam, k)


def test_row_shift_inverse_rejects_non_ssyt():
    with pytest.raises(ValueError):
        ssyt_to_rpp(SetValuedTableau.parse("{1,2}", k=1))


def test_induced_subshape_examples():
    corner_side = ReversePlanePartition.parse("0,0,1,1/0,2,2,2/2,2/2", k=2)
    assert induced_subshape(corner_side, 2).parts == (4, 1)
    assert induced_subshape(corner_side, 1).parts == (2, 1)
    outside_side = ReversePlanePartition.parse("0,0,1,1/2,2,2,2/2,2/2", k=2)
    assert induced_subshape(outside_side, 1).parts == (2,)
    all_ones = ReversePlanePartition.parse("1,1/1", k=1)
    assert induced_subshape(all_ones, 1).parts == ()
    with pytest.raises(ValueError):
        induced_subshape(corner_side, 0)
    with pytest.raises(ValueError):
        induced_subshape(corner_side, 3)
    for level in (True, 1.0):
        with pytest.raises(ValueError):
            induced_subshape(corner_side, level)


def test_induced_subshape_monotone_in_level():
    lam = P((3, 2))
    k = 3
    for rpp in enumerate_rpp(lam, k):
        previous = None
        for level in range(1, k + 1):
            mu = induced_subshape(rpp, level)
            assert subshape_contained(mu, lam)
            if previous is not None:
                assert subshape_contained(previous, mu)
            previous = mu


def test_serialization_round_trip():
    T = SetValuedTableau.parse(WORKED_BSSYT, k=2)
    assert T.serialize() == WORKED_BSSYT
    assert SetValuedTableau.parse(T.serialize(), k=2) == T
    assert SetValuedTableau.parse("", k=1).serialize() == ""
    with pytest.raises(ValueError):
        SetValuedTableau.parse("{1,2", k=2)
    with pytest.raises(ValueError):
        SetValuedTableau.parse("1}", k=2)


def test_tableau_equality_includes_bound():
    a = SetValuedTableau.parse("1", k=1)
    b = SetValuedTableau.parse("1", k=2)
    assert a != b


def test_fillings_are_immutable_values():
    T = SetValuedTableau.parse(WORKED_BSSYT, k=2)
    R = ReversePlanePartition.parse("0,0/1", k=1)
    for filling in (T, R):
        for name in ("rows", "shape", "k"):
            with pytest.raises(AttributeError):
                setattr(filling, name, getattr(filling, name))
            with pytest.raises(AttributeError):
                delattr(filling, name)
        copy = pickle.loads(pickle.dumps(filling))
        assert copy == filling and hash(copy) == hash(filling)
        assert filling != (filling.shape, filling.rows, filling.k)
    assert ReversePlanePartition(P((1,)), ((0,),), 1) != SetValuedTableau(P((1,)), (((1,),),), 1)
    assert repr(T) == "SetValuedTableau('1,1,2,2/{2,4},4,4,4/5,5/6', k=2)"
    assert repr(R) == "ReversePlanePartition('0,0/1', k=1)"
    assert repr(SetValuedTableau.parse("", k=1)) == "SetValuedTableau('', k=1)"
