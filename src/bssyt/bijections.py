"""Two exact representations of a barely set-valued tableau.

Both directions share a first step: shift row t of the tableau down by t,
leaving entries in [0, k] with the doubled cell holding {a - r, b - r} when
{a, b} (a < b) sits in row r.  Dropping the larger value leaves a reverse
plane partition P, the level i = b - r, and the cell itself, which lands as
a corner of the level-i induced subshape.  Dropping the smaller value
instead leaves Q, the level j = a - r + 1, and the cell as a proper outside
corner of the level-j induced subshape.  Each backward map validates its
designated-cell precondition, joins the dropped value back into the cell,
and shifts rows up; the result is a valid tableau whenever the triple is a
valid one.
"""

from dataclasses import dataclass

from .reports import VerificationReport
from .shapes import Cell, is_corner, is_outside_corner
from .tableaux import (
    ReversePlanePartition,
    classify,
    enumerate_bssyt,
    induced_subshape,
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
        if not 1 <= self.level <= self.rpp.k:
            raise ValueError(f"level {self.level} outside [1, {self.rpp.k}]")
        mu = induced_subshape(self.rpp, self.level)
        if not is_corner(self.cell, mu):
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
        if not 1 <= self.level <= self.rpp.k:
            raise ValueError(f"level {self.level} outside [1, {self.rpp.k}]")
        mu = induced_subshape(self.rpp, self.level)
        if not (is_outside_corner(self.cell, mu) and self.rpp.shape.contains_cell(self.cell)):
            raise ValueError(
                f"{tuple(self.cell)} is not a proper outside corner of the "
                f"level-{self.level} subshape"
            )


def _doubled_cell(T):
    for t, row in enumerate(T.rows):
        for j, cell in enumerate(row):
            if len(cell) == 2:
                return t, j
    raise ValueError("no doubled cell found")


def _require_bssyt(T):
    if classify(T) != "BSSYT":
        raise ValueError("input must be barely set-valued: exactly one doubled cell")


def _shifted_rows_dropping(T, t0, j0, kept):
    """Row-shift T down, keeping only `kept` of the doubled cell at (t0, j0)."""
    rows = []
    for t, row in enumerate(T.rows):
        if t == t0:
            rows.append(
                tuple(
                    (kept if j == j0 else cell[0]) - (t + 1)
                    for j, cell in enumerate(row)
                )
            )
        else:
            rows.append(tuple(cell[0] - (t + 1) for cell in row))
    return tuple(rows)


def bssyt_to_corner(T):
    """Forward map keeping the smaller doubled value in place.

    The dropped value b - r is recorded as the level, and the doubled cell
    is provably a corner of the level-(b - r) induced subshape: its own
    entry a - r lies below the level, while the cells right of and below it
    hold entries at least b - r.
    """
    _require_bssyt(T)
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
    P, i, (r, c) = triple.rpp, triple.level, triple.cell
    kept = P.entry(r, c)
    rows = []
    for t, row in enumerate(P.rows, start=1):
        if t == r:
            rows.append(
                tuple(
                    ((kept + t, i + t) if j == c else (v + t,))
                    for j, v in enumerate(row, start=1)
                )
            )
        else:
            rows.append(tuple((v + t,) for v in row))
    return svt_unchecked(P.shape, tuple(rows), P.k)


def bssyt_to_outside(T):
    """Forward map keeping the larger doubled value in place.

    The dropped value a - r sets the level j = a - r + 1, and the doubled
    cell is provably a proper outside corner of the level-j induced
    subshape: its remaining entry b - r is at least j, while the cells above
    and to the left hold entries at most a - r < j.
    """
    _require_bssyt(T)
    t0, j0 = _doubled_cell(T)
    a, b = T.rows[t0][j0]
    r = t0 + 1
    Q = rpp_unchecked(T.shape, _shifted_rows_dropping(T, t0, j0, b), T.k)
    return OutsideTriple(Q, a - r + 1, Cell(r, j0 + 1))


def outside_to_bssyt(triple):
    """Join level - 1 into the designated proper outside corner and shift up."""
    Q, j, (r, c) = triple.rpp, triple.level, triple.cell
    kept = Q.entry(r, c)
    rows = []
    for t, row in enumerate(Q.rows, start=1):
        if t == r:
            rows.append(
                tuple(
                    ((j - 1 + t, kept + t) if col == c else (v + t,))
                    for col, v in enumerate(row, start=1)
                )
            )
        else:
            rows.append(tuple((v + t,) for v in row))
    return svt_unchecked(Q.shape, tuple(rows), Q.k)


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
