from array import array
from math import comb
from operator import ge, le
from typing import NamedTuple

from hypothesis import given, settings
from hypothesis import strategies as st

from bssyt.lattice import subshape_count, subshape_lattice, subshapes, zeta
from bssyt.shapes import Partition, all_subshapes

P = Partition


class _Oracle(NamedTuple):
    shapes: list
    down: list
    up: list
    corners: list
    outside: list


def _tuple_lattice(lam):
    """J(lam) with its zeta row steps and cover rows, by looking every step's
    source up in a dict keyed by part tuples.

    Down, row i from the bottom up, ascending: the source lowers mu_i by one
    and clamps the rows below to it.  After row i, values[mu] sums over the
    nu <= mu that agree with mu above row i.  Up, row i from the top down,
    descending: the source raises mu_i by one and lifts the rows above to
    it, inside lam.  After row i, values[mu] sums over the nu >= mu inside
    lam that agree with mu below row i.  Every source is final when read.
    """
    parts = lam.parts
    shapes = [()]
    for width in parts:
        shapes = [mu + (v,) for mu in shapes for v in range(min(mu[-1:] + (width,)) + 1)]
    index = {mu: n for n, mu in enumerate(shapes)}
    down, up, corners, outside = [], [], [], []
    for i, width in enumerate(parts):
        lowered, raised, removable, addable = [], [], [], []
        for n, mu in enumerate(shapes):
            m = mu[i]
            if m:
                below = mu[i + 1 :]
                if below and below[0] >= m:
                    below = tuple(x if x < m else m - 1 for x in below)
                else:
                    removable.append(n)
                lowered.append((n, index[mu[:i] + (m - 1,) + below]))
            if m < width:
                above = mu[:i]
                if above and above[-1] <= m:
                    above = tuple(x if x > m else m + 1 for x in above)
                else:
                    addable.append(n)
                raised.append((n, index[above + (m + 1,) + mu[i + 1 :]]))
        down.append(lowered)
        raised.reverse()
        up.append(raised)
        corners.append(removable)
        outside.append(addable)
    down.reverse()
    return _Oracle(shapes, down, up, corners, outside)


def _pair_zeta(values, steps):
    """A new list: values after `values[target] += values[source]` over the steps."""
    values = list(values)
    for step in steps:
        for target, source in step:
            values[target] += values[source]
    return values


def _oracle_cells(oracle, lam, steps, covers, sign):
    """Per row, per cell left to right: (offset, targets) of its covers, read
    off the oracle's cover rows and the sources of their row steps."""
    cells = []
    for i, (pairs, marked) in enumerate(zip(steps, covers)):
        source = dict(pairs)
        by_column = [[] for _ in range(lam.parts[i])]
        for n in marked:
            by_column[oracle.shapes[n][i] - (sign > 0)].append(n)
        row = []
        for targets in by_column:
            offsets = {sign * (n - source[n]) for n in targets}
            assert len(offsets) == 1, (lam, i, offsets)  # one offset per cell
            row.append((offsets.pop(), targets))
        cells.append(row)
    return cells


def _brute_zeta(values, shapes, up=False):
    """A new list: the sum of values over every nu <= mu, or every nu >= mu,
    straight from the part tuples; lexicographic order extends containment."""
    out = []
    for n, mu in enumerate(shapes):
        if up:
            out.append(sum(values[m] for m in range(n, len(shapes)) if all(map(ge, shapes[m], mu))))
        else:
            out.append(sum(values[m] for m in range(n + 1) if all(map(le, shapes[m], mu))))
    return out


def _assert_matches_oracle(lam, brute=False):
    lattice, oracle = subshape_lattice(lam), _tuple_lattice(lam)
    assert subshapes(lam) == oracle.shapes, lam
    assert lattice.size == subshape_count(lam) == len(oracle.shapes), lam
    down = [[(d, list(t)) for d, t in row] for row in lattice.down]
    up = [[(d, list(t)) for d, t in row] for row in lattice.up]
    assert down == _oracle_cells(oracle, lam, oracle.down[::-1], oracle.corners, 1), lam
    assert up == _oracle_cells(oracle, lam, oracle.up, oracle.outside, -1), lam
    # distinct values per subshape, so that a misplaced addition shows
    values = [n * n + 1 for n in range(lattice.size)]
    down_sums, up_sums = zeta(values, lattice), zeta(values, lattice, up=True)
    assert down_sums == _pair_zeta(values, oracle.down), lam
    assert up_sums == _pair_zeta(values, oracle.up), lam
    if brute:
        assert down_sums == _brute_zeta(values, oracle.shapes), lam
        assert up_sums == _brute_zeta(values, oracle.shapes, up=True), lam


_SHAPES = [
    P((6, 6, 3, 3)),
    P((4, 4, 4, 2, 2, 2)),
    P(tuple(range(8, 0, -1))),
    P(()),
    P((1,)),
]


def test_lattice_against_tuple_oracle():
    # every subshape of the 5x5, 4x6 and 6x4 boxes, and the shapes above
    boxes = (P((5,) * 5), P((6,) * 4), P((4,) * 6))
    for lam in [mu for box in boxes for mu in all_subshapes(box)] + _SHAPES:
        _assert_matches_oracle(lam)


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.integers(1, 7), max_size=7))
def test_lattice_matches_tuple_oracle(parts):
    _assert_matches_oracle(P(sorted(parts, reverse=True)))


# the brute force is quadratic in |J|: shapes inside 5x5, |J| <= 252
@settings(max_examples=100, deadline=None, database=None)
@given(st.lists(st.integers(1, 5), max_size=5))
def test_zeta_matches_brute_force(parts):
    _assert_matches_oracle(P(sorted(parts, reverse=True)), brute=True)


_SMALL_BOXES = (P((4,) * 4), P((5,) * 3), P((3,) * 5))
_SMALL_BOX_SUBSHAPES = [mu for box in _SMALL_BOXES for mu in all_subshapes(box)]


def test_zeta_against_brute_force():
    for lam in _SMALL_BOX_SUBSHAPES:
        _assert_matches_oracle(lam, brute=True)


def test_subshape_count():
    for lam in _SMALL_BOX_SUBSHAPES:
        assert subshape_count(lam) == len(list(all_subshapes(lam))), lam
    for a in range(11):
        for b in range(11):
            assert subshape_count(P((b,) * a if b else ())) == comb(a + b, a), (a, b)


def test_lattice_small_cases():
    empty = subshape_lattice(P(()))
    assert empty == (1, [[1]], [], []) and subshapes(P(())) == [()]
    single = subshape_lattice(P((1,)))
    assert subshapes(P((1,))) == [(0,), (1,)]
    assert single.size == 2 and single.tails == [[1, 2], [1, 1]]
    assert single.down == [[(1, array("i", [1]))]] and single.up == [[(1, array("i", [0]))]]
    assert zeta([1, 1], single) == [1, 2] and zeta([1, 1], single, up=True) == [2, 1]
    # (2, 1): the cells (0, 1), (0, 2) and (1, 1), 0-based rows and 1-based
    # columns, over the subshapes 00, 10, 11, 20, 21 by rank
    pair = subshape_lattice(P((2, 1)))
    assert subshapes(P((2, 1))) == [(0, 0), (1, 0), (1, 1), (2, 0), (2, 1)]
    assert pair.down == [[(1, array("i", [1])), (2, array("i", [3, 4]))], [(1, array("i", [2, 4]))]]
    assert pair.up == [[(1, array("i", [0])), (2, array("i", [1, 2]))], [(1, array("i", [1, 3]))]]
