"""J(lam), the lattice of subshapes of lam, and zeta transforms over it.

A subshape is kept as its part tuple padded with zeros to lam's length; the
subshapes are listed in increasing lexicographic order, so the empty shape
comes first and lam last.  In that order the index of mu is additive:

    rank(mu) = sum over rows i of W_i[mu_i],  W_i[v] = sum over u < v of T_{i+1}(u),

where the tail count T_i(u) is the number of fillings of rows i, i+1, ..
below a row i - 1 of length u, and 1 below the last row.  The subshapes that
agree above row i form one block, of T_i(u) subshapes under a row i - 1 of
length u, ordered by mu_i and then by the rows below; the T_{i+1}(m) of them
with mu_i = m are consecutive, and the first T_{i+1}(m - 1) of those have
mu_{i+1} < m.  So the lattice is built from the tail counts alone, with no
lookup and no tuple key, and |J(lam)| is T_0(lam_1).

The covers of J(lam) are grouped by the cell they add or remove.  Cell
(i, m), row i 0-based and column m 1-based, is a corner of mu exactly when
mu_i = m and mu_{i+1} < m.  Removing it changes one term of the rank, so mu
less the cell ranks W_i[m] - W_i[m - 1] = T_{i+1}(m - 1) lower whatever the
other rows hold: one offset per cell.  In each block of rows above with
mu_{i-1} >= m, the subshapes with that corner are one stretch of
T_{i+1}(m - 1) consecutive ranks.  Likewise cell (i, m + 1) is a proper
outside corner of mu in lam exactly when mu_i = m < lam_i and mu_{i-1} > m
(or i = 0); mu with the cell ranks T_{i+1}(m) higher, and in each block above
with mu_{i-1} > m the subshapes with that outside corner are the stretch of
all T_{i+1}(m) with mu_i = m.

The zeta transforms take the cells of lam in a linear extension, rows top
first and columns left to right (the cell-by-cell zeta transform on a
distributive lattice of Bjorklund, Husfeldt, Kaski, Koivisto, Nederlof and
Parviainen, SODA 2012).  At each cell, every subshape mu of which the cell
is a corner adds the value of mu less the cell.  Afterwards mu holds the sum
over every nu <= mu, each reached once, by removing the cells of mu/nu in
the reverse of that order.  The up transform, over the nu >= mu inside lam,
takes the cells in the reverse order and adds into mu the value of mu with
the cell, for every mu of which it is a proper outside corner.  A cell's
targets hold mu_i = m and its sources m - 1, or m + 1, so no target reads
another and each cover costs one addition.  The same cells give the corners
and the proper outside corners of every subshape, read without building a
shape; `shapes.corners` and `shapes.proper_outside_corners` are their
per-shape definition and their oracle in the tests, and a builder that looks
every cover up in a dict keyed by part tuples is the lattice's oracle there.
J of the box k^m is the lattice of rows on which `bijections.verify_roundtrip`
counts.
"""

from array import array
from itertools import accumulate, repeat
from operator import add
from typing import NamedTuple

__all__ = ["SubshapeLattice", "subshape_count", "subshape_lattice", "subshapes", "zeta"]


class SubshapeLattice(NamedTuple):
    """The covers of J(lam), grouped by cell.

    size: |J(lam)|; subshapes are named by their rank, 0 to size - 1 (see
    the module and `subshapes`).
    tails: tails[i][u] = T_i(u), for rows i = 0 .. len(lam) and u = 0 .. lam_1.
    down[i][m - 1], for m = 1 .. lam_i: (offset, targets) of cell (i, m), row
    i 0-based: targets is an array('i'), in increasing order, of the
    subshapes of which the cell is a corner, and target t covers
    t - offset, offset = T_{i+1}(m - 1).
    up[i][m], for m = 0 .. lam_i - 1: (offset, targets) of cell (i, m + 1):
    the subshapes of which it is a proper outside corner in lam, and target t
    is covered by t + offset, offset = T_{i+1}(m).
    """

    size: int
    tails: list
    down: list
    up: list


def _tails(parts):
    """tails[i][u] = T_i(u), built from the bottom row up."""
    top = max(parts, default=0)
    tails = [[1] * (top + 1)]
    for width in reversed(parts):
        counts = list(accumulate(tails[-1][: width + 1]))
        tails.append(counts + counts[-1:] * (top - width))
    tails.reverse()
    return tails


def subshape_count(lam):
    """|J(lam)|, the number of subshapes of lam, from the tail counts."""
    return _tails(lam.parts)[0][-1]


def subshapes(lam):
    """The subshapes of lam as part tuples padded to its length, by rank."""
    parts = lam.parts
    tails = _tails(parts)
    shapes = [()]
    for d in reversed(range(len(parts))):
        block = tails[d + 1]
        shapes = [(v,) + mu for v in range(parts[d] + 1) for mu in shapes[: block[v]]]
    return shapes


def _stretches(starts, length):
    """array('i') of the `length` consecutive ranks from each start, in order;
    one Python-level step per start or per position, whichever is fewer."""
    if length == 1:
        return array("i", starts)
    if length > len(starts):
        out = array("i")
        for start in starts:
            out.extend(range(start, start + length))
        return out
    out = [0] * (len(starts) * length)
    for r in range(length):
        out[r::length] = map(add, starts, repeat(r))
    return array("i", out)


def subshape_lattice(lam):
    """J(lam) with its covers grouped by cell, from the tail counts.

    Row by row from the top, above[m] holds in increasing order the ranks
    contributed by rows 0 .. i - 1, sum of W_j[mu_j], over the fillings of
    those rows that end in a row of length at least m.  A cell's stretches
    start at those ranks plus W_i[mu_i], and the next row's lists are merges
    of them.
    """
    parts = lam.parts
    tails = _tails(parts)
    down, up = [], []
    above = [[0]] * (parts[0] + 1) if parts else []
    for i, width in enumerate(parts):
        below = tails[i + 1]
        ranks = list(accumulate(below[:width], initial=0))  # W_i
        # heads[m - 1]: the first subshape with mu_i = m in each block of rows
        # above that allows it; one cell's corners and the cell to its left's
        # outside corners are stretches of the same length T_{i+1}(m - 1)
        heads, lowered, raised = [], [], []
        for m in range(1, width + 1):
            n = below[m - 1]
            heads.append(list(map(add, above[m], repeat(ranks[m]))))
            lowered.append((n, _stretches(heads[-1], n)))
            raised.append((n, _stretches(list(map(add, above[m], repeat(ranks[m - 1]))), n)))
        down.append(lowered)
        up.append(raised)
        if i + 1 < len(parts):
            merged, above = [], [None] * (width + 1)
            for m in reversed(range(1, width + 1)):
                merged = sorted(merged + heads[m - 1])  # two sorted runs: a linear merge
                above[m] = merged
    return SubshapeLattice(tails[0][-1], tails, down, up)


def zeta(values, lattice, up=False):
    """A new list: the sum of values over the subshapes below each subshape,
    or over those above it inside lam; one addition per cover."""
    values = list(values)
    if up:
        for row in reversed(lattice.up):
            for offset, targets in reversed(row):
                for target in targets:
                    values[target] += values[target + offset]
    else:
        for row in lattice.down:
            for offset, targets in row:
                for target in targets:
                    values[target] += values[target - offset]
    return values
