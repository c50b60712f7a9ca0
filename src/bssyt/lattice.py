"""J(lam), the lattice of subshapes of lam, and zeta transforms over it.

A subshape is kept as its part tuple padded with zeros to lam's length; the
subshapes are listed in increasing lexicographic order, so the empty shape
comes first and lam last.  In that order the index of mu is additive:

    rank(mu) = sum over rows i of W_i[mu_i],  W_i[v] = sum over u < v of T_{i+1}(u),

where the tail count T_i(u) is the number of fillings of rows i, i+1, ..
below a row i - 1 of length u.  The subshapes that agree above row i form
one block, of T_i(u) subshapes under a row i - 1 of length u, and that
block is the first T_i(u) subshapes of the block under a full row.  So the
lattice is built from the tail counts alone, one block at a time, with no
lookup and no tuple key.

The two zeta transforms (sum over the subshapes below, or above inside lam)
run one row at a time, one addition per subshape per row.  The down step of
mu in row i lowers mu_i = m by one and clamps the rows below to it: its
source ranks W_i[m] - W_i[m - 1] = T_{i+1}(m - 1) lower, and T_{j+1}(m - 1)
lower again for each row j of the run of rows below i that equal m.  The up
step of mu in row i raises mu_i = m by one inside lam and lifts the rows
above to it: its source ranks T_{i+1}(m) higher, and T_{j+1}(m) higher
again for each row j of the run of rows above i that equal m.  J of the box
k^m is the lattice of rows on which `bijections.verify_roundtrip` counts.

A step is a cover of the lattice exactly when its run is empty.  A down
step that clamps no row (mu_i exceeds mu_{i+1}) removes the single cell
(i, mu_i), which is then a corner of mu; an up step that lifts no row (i is
the top row or mu_{i-1} exceeds mu_i) adds the single cell (i, mu_i + 1),
which is then a proper outside corner of mu in lam.  Sums over corners and
outside corners of every subshape are read off these cover rows without
building a shape.  `shapes.corners` and `shapes.proper_outside_corners` are
their per-shape definition and their oracle in the tests; a builder that
looks every step's source up in a dict keyed by part tuples is the whole
lattice's oracle there.
"""

from array import array
from itertools import accumulate, compress
from typing import NamedTuple

__all__ = ["SubshapeLattice", "subshape_lattice", "zeta"]


class SubshapeLattice(NamedTuple):
    """The subshapes of a shape, the zeta row steps and the cover rows.

    shapes: the padded part tuples, in increasing lexicographic order; the
    index of mu is its rank, the sum of W_i[mu_i] (see the module).
    down, up: one array('i') per row of step offsets by target index: the
    step of subshape n in that row reads subshape n - offset, and offset 0
    means no step.  Down offsets are positive and up offsets negative.
    down lists the rows from the bottom up and `zeta` reads each in
    increasing target order; up lists them from the top down and `zeta`
    reads each in decreasing order, so every source is final when read.
    corners[i], outside[i]: array('i') of the indices of the subshapes mu,
    in increasing order, whose down or up step in row i (0-based) has an
    empty run, so that row i ends in a corner, cell (i + 1, mu_i) in 1-based
    terms, or holds a proper outside corner, cell (i + 1, mu_i + 1).
    """

    shapes: list
    down: list
    up: list
    corners: list
    outside: list


def subshape_lattice(lam):
    """J(lam) with its zeta row steps and cover rows, from the tail counts.

    Each row's offsets and cover flags are laid out first on the block of
    rows i, i+1, .. under a full row, where they depend on mu_i and the run
    below only.  Every block above is the concatenation of prefixes of the
    block below it, so row i over all of J(lam) is built by slicing.  An up
    step's run grows upward too: at row d its offset falls by T_{d+1}(v) on
    the subshapes whose rows d to i all equal v, the last T_{i+1}(v) of the
    block under v.  After down row i, values[mu] sums over the nu <= mu that
    agree with mu above row i; after up row i, over the nu >= mu inside lam
    that agree with mu below row i.
    """
    parts = lam.parts
    top = max(parts, default=0)
    tails = [[1] * (top + 1)]  # tails[i][u] = T_i(u), built from the bottom row up
    for width in reversed(parts):
        counts = list(accumulate(tails[-1][: width + 1]))
        tails.append(counts + counts[-1:] * (top - width))
    tails.reverse()
    shapes = [()]
    for d in reversed(range(len(parts))):
        block = tails[d + 1]
        shapes = [(v,) + mu for v in range(parts[d] + 1) for mu in shapes[: block[v]]]
    targets = range(len(shapes))
    down, up, corners, outside = [], [], [], []
    for i, width in enumerate(parts):
        below = tails[i + 1]
        # down on the block: mu_i = m > 0, one stretch per length of the run
        lowered, corner = [0] * below[0], [0] * below[0]
        for m in range(1, width + 1):
            offset, j, cover = below[m - 1], i + 1, 1
            while j < len(parts) and m <= parts[j]:
                n = tails[j][m] - tails[j + 1][m]  # row j is below m: the run ends
                lowered += [offset] * n
                corner += [cover] * n
                offset, j, cover = offset + tails[j + 1][m - 1], j + 1, 0
            lowered += [offset] * tails[j][m]
            corner += [cover] * tails[j][m]
        # up on the block: mu_i = m < width, whose run above is still empty
        raised = []
        for m in range(width):
            raised += [-below[m]] * below[m]
        addable = b"\1" * len(raised) + bytes(below[width])
        raised += [0] * below[width]
        lowered, corner, raised = array("i", lowered), bytes(corner), array("i", raised)
        for d in reversed(range(i)):
            # the block of rows d.. is the blocks under v = 0 .. parts[d] of
            # rows d+1..; under v < width, row d extends the up run of the
            # last T_{i+1}(v) subshapes, whose rows d+1 to i all equal v
            block = tails[d + 1]
            low, cor, rai, add = array("i"), bytearray(), array("i"), bytearray()
            for v in range(parts[d] + 1):
                n = block[v]
                low += lowered[:n]
                cor += corner[:n]
                lift = below[v] if v < width else 0
                rai += raised[: n - lift]
                add += addable[: n - lift]
                if lift:
                    rai += array("i", [raised[n - 1] - n]) * lift
                    add += bytes(lift)
            lowered, corner, raised, addable = low, cor, rai, add
        down.append(lowered)
        corners.append(array("i", compress(targets, corner)))
        up.append(raised)
        outside.append(array("i", compress(targets, addable)))
    down.reverse()
    return SubshapeLattice(shapes, down, up, corners, outside)


def zeta(values, lattice, up=False):
    """A new list: values after `values[n] += values[n - offset]` over the
    down row steps of the lattice, or over its up row steps."""
    values = list(values)
    targets = range(len(values))
    for offsets in lattice.up if up else lattice.down:
        steps = zip(reversed(targets), reversed(offsets)) if up else zip(targets, offsets)
        for target, offset in steps:
            if offset:
                values[target] += values[target - offset]
    return values
