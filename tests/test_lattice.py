from hypothesis import given, settings
from hypothesis import strategies as st

from bssyt.lattice import SubshapeLattice, subshape_lattice, zeta
from bssyt.shapes import Partition, all_subshapes

P = Partition


def _tuple_lattice(lam):
    """J(lam) with its zeta row steps and cover rows.

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
    return SubshapeLattice(shapes, down, up, corners, outside)


def _pair_zeta(values, steps):
    """A new list: values after `values[target] += values[source]` over the steps."""
    values = list(values)
    for step in steps:
        for target, source in step:
            values[target] += values[source]
    return values


def _pairs(rows, descending):
    """Offset arrays as (target, source) lists, in the order zeta reads them."""
    out = []
    for offsets in rows:
        pairs = [(t, t - d) for t, d in enumerate(offsets) if d]
        out.append(pairs[::-1] if descending else pairs)
    return out


def _assert_matches_oracle(lam):
    lattice, oracle = subshape_lattice(lam), _tuple_lattice(lam)
    assert lattice.shapes == oracle.shapes, lam
    assert _pairs(lattice.down, False) == oracle.down, lam
    assert _pairs(lattice.up, True) == oracle.up, lam
    assert list(map(list, lattice.corners)) == oracle.corners, lam
    assert list(map(list, lattice.outside)) == oracle.outside, lam
    assert all(len(row) == len(lattice.shapes) for row in lattice.down + lattice.up), lam
    # distinct values per subshape, so that a misplaced addition shows
    values = [n * n + 1 for n in range(len(lattice.shapes))]
    assert zeta(values, lattice) == _pair_zeta(values, oracle.down), lam
    assert zeta(values, lattice, up=True) == _pair_zeta(values, oracle.up), lam


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


def test_lattice_small_cases():
    empty = subshape_lattice(P(()))
    assert empty == ([()], [], [], [], [])
    single = subshape_lattice(P((1,)))
    assert single.shapes == [(0,), (1,)]
    assert list(single.down[0]) == [0, 1] and list(single.up[0]) == [-1, 0]
    assert list(single.corners[0]) == [1] and list(single.outside[0]) == [0]
    assert zeta([1, 1], single) == [1, 2] and zeta([1, 1], single, up=True) == [2, 1]
