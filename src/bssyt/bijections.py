"""Two exact representations of a barely set-valued tableau.

Both directions share a first step: shift row t of the tableau down by t,
leaving entries in [0, k] with the doubled cell holding {a - r, b - r} when
{a, b} (a < b) sits in row r.  Dropping the larger value leaves a reverse
plane partition P, the level i = b - r, and the cell itself, which lands as
a corner of the level-i induced subshape.  Dropping the smaller value
instead leaves Q, the level j = a - r + 1, and the cell as a proper outside
corner of the level-j induced subshape.

A triple checks its cell from the neighbouring entries, without building
the induced subshape.  A corner holds an entry below the level, and the
cells right of and below it are absent or hold at least the level.  A
proper outside corner holds an entry at least the level, and the cells left
of and above it are absent or hold less than the level.  Each backward map
joins the dropped value back into the cell and shifts rows up; the result
is a valid tableau whenever the triple is a valid one.
"""

from dataclasses import dataclass

from .reports import VerificationReport
from .shapes import Cell
from .tableaux import (
    ReversePlanePartition,
    classify,
    enumerate_bssyt,
    rpp_unchecked,
    svt_unchecked,
)

__all__ = [
    "CornerTriple",
    "OutsideTriple",
    "bssyt_to_corner",
    "bssyt_to_outside",
    "corner_to_bssyt",
    "outside_to_bssyt",
    "verify_roundtrip",
]


@dataclass(frozen=True)
class CornerTriple:
    """Reverse plane partition, level, and a designated corner of the
    level-induced subshape."""

    rpp: ReversePlanePartition
    level: int
    cell: Cell

    def __post_init__(self):
        P, i, (r, c) = self.rpp, self.level, self.cell
        if not 1 <= i <= P.k:
            raise ValueError(f"level {i} outside [1, {P.k}]")
        inside = P.shape.contains_cell
        if not (
            inside((r, c))
            and P.entry(r, c) < i
            and (not inside((r, c + 1)) or P.entry(r, c + 1) >= i)
            and (not inside((r + 1, c)) or P.entry(r + 1, c) >= i)
        ):
            raise ValueError(
                f"{tuple(self.cell)} is not a corner of the level-{self.level} subshape"
            )


@dataclass(frozen=True)
class OutsideTriple:
    """Reverse plane partition, level, and a designated proper outside corner
    of the level-induced subshape."""

    rpp: ReversePlanePartition
    level: int
    cell: Cell

    def __post_init__(self):
        Q, j, (r, c) = self.rpp, self.level, self.cell
        if not 1 <= j <= Q.k:
            raise ValueError(f"level {j} outside [1, {Q.k}]")
        # inside a diagram, only the first column and row lack those neighbours
        if not (
            Q.shape.contains_cell((r, c))
            and Q.entry(r, c) >= j
            and (c == 1 or Q.entry(r, c - 1) < j)
            and (r == 1 or Q.entry(r - 1, c) < j)
        ):
            raise ValueError(
                f"{tuple(self.cell)} is not a proper outside corner of the "
                f"level-{self.level} subshape"
            )


def _doubled_cell(T):
    """0-based (row, col) of the one doubled cell of a barely set-valued T."""
    if classify(T) != "BSSYT":
        raise ValueError("input must be barely set-valued: exactly one doubled cell")
    for t, row in enumerate(T.rows):
        for j, cell in enumerate(row):
            if len(cell) == 2:
                return t, j


def _shifted_rows_dropping(T, t0, j0, kept):
    """Row-shift T down, keeping only `kept` of the doubled cell at (t0, j0)."""
    rows = [[cell[0] - t for cell in row] for t, row in enumerate(T.rows, start=1)]
    rows[t0][j0] = kept - (t0 + 1)
    return tuple(map(tuple, rows))


def _joined(P, cell, low, high):
    """Shift row t of P up by t, with the doubled cell holding {low, high}."""
    r, c = cell
    rows = [[(v + t,) for v in row] for t, row in enumerate(P.rows, start=1)]
    rows[r - 1][c - 1] = (low + r, high + r)
    return svt_unchecked(P.shape, tuple(map(tuple, rows)), P.k)


def bssyt_to_corner(T):
    """Forward map keeping the smaller doubled value in place.

    The dropped value b - r is recorded as the level, and the doubled cell
    is provably a corner of the level-(b - r) induced subshape: its own
    entry a - r lies below the level, while the cells right of and below it
    hold entries at least b - r.
    """
    t0, j0 = _doubled_cell(T)
    a, b = T.rows[t0][j0]
    r = t0 + 1
    P = rpp_unchecked(T.shape, _shifted_rows_dropping(T, t0, j0, a), T.k)
    return CornerTriple(P, b - r, Cell(r, j0 + 1))


def corner_to_bssyt(triple):
    """Join the level back into the designated corner and shift rows up.

    The triple's own construction re-checks the corner precondition, so a
    malformed triple fails there rather than producing an invalid tableau.
    """
    P, cell = triple.rpp, triple.cell
    return _joined(P, cell, P.entry(*cell), triple.level)


def bssyt_to_outside(T):
    """Forward map keeping the larger doubled value in place.

    The dropped value a - r sets the level j = a - r + 1, and the doubled
    cell is provably a proper outside corner of the level-j induced
    subshape: its remaining entry b - r is at least j, while the cells above
    and to the left hold entries at most a - r < j.
    """
    t0, j0 = _doubled_cell(T)
    a, b = T.rows[t0][j0]
    r = t0 + 1
    Q = rpp_unchecked(T.shape, _shifted_rows_dropping(T, t0, j0, b), T.k)
    return OutsideTriple(Q, a - r + 1, Cell(r, j0 + 1))


def outside_to_bssyt(triple):
    """Join level - 1 into the designated proper outside corner and shift up."""
    Q, cell = triple.rpp, triple.cell
    return _joined(Q, cell, triple.level - 1, Q.entry(*cell))


def verify_roundtrip(lam, k):
    """Both representations must invert on every barely set-valued tableau."""
    total = corner_ok = outside_ok = 0
    for T in enumerate_bssyt(lam, k):
        total += 1
        if corner_to_bssyt(bssyt_to_corner(T)) == T:
            corner_ok += 1
        if outside_to_bssyt(bssyt_to_outside(T)) == T:
            outside_ok += 1
    return VerificationReport(
        claim="bssyt_roundtrip",
        params={"shape": lam, "k": k, "tableaux": total},
        lhs=[corner_ok, outside_ok],
        rhs=[total, total],
        equal=corner_ok == total and outside_ok == total,
    )
