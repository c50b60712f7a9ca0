"""J(lam), the lattice of subshapes of lam, and zeta transforms over it.

A subshape is kept as its part tuple padded with zeros to lam's length; the
subshapes are listed in increasing lexicographic order, so the empty shape
comes first and lam last.  The two zeta transforms (sum over the subshapes
below, or above inside lam) run one row at a time, one addition per
subshape per row.  J of the box k^m is the lattice of rows on which
`bijections.verify_roundtrip` counts.

The same row steps carry the covers of the lattice.  The down step of mu in
row i lowers mu_i by one and clamps the rows below to it; when it clamps
none (mu_i exceeds mu_{i+1}), it removes the single cell (i, mu_i), which is
then a corner of mu.  The up step of mu in row i raises mu_i by one inside
lam and lifts the rows above to it; when it lifts none (i is the top row or
mu_{i-1} exceeds mu_i), it adds the single cell (i, mu_i + 1), which is then
a proper outside corner of mu in lam.  Sums over corners and outside
corners of every subshape are read off these rows without building a
shape; `shapes.corners` and `shapes.proper_outside_corners` are their
per-shape definition and their oracle in the tests.
"""

from typing import NamedTuple

__all__ = ["SubshapeLattice", "subshape_lattice", "zeta"]


class SubshapeLattice(NamedTuple):
    """The subshapes of a shape, the zeta row steps and the cover rows.

    shapes: the padded part tuples, in increasing lexicographic order.
    down, up: lists of row steps, each a list of (target, source) index
    pairs, in the order `zeta` applies them.
    corners[i], outside[i]: the indices of the subshapes mu, in increasing
    order, for which row i (0-based) ends in a corner, cell (i + 1, mu_i) in
    1-based terms, or holds a proper outside corner, cell (i + 1, mu_i + 1).
    """

    shapes: list
    down: list
    up: list
    corners: list
    outside: list


def subshape_lattice(lam):
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


def zeta(values, steps):
    """A new list: values after `values[target] += values[source]` over the steps."""
    values = list(values)
    for step in steps:
        for target, source in step:
            values[target] += values[source]
    return values
