"""Partitions, their diagrams, and subshape geometry.

A partition doubles as a Young diagram (English orientation, row 1 on top)
and, when contained in a larger shape, as an order ideal of that shape's
cell poset.  Corners are the removable cells; outside corners the addable
ones, the two boundary conventions (the cell right of row 1 and the cell
below column 1) included, of which the proper ones lie in the ambient
shape.  One per-row rule on the part tuples defines both cell sets
(`_corner_flags`, `_outside_flags`): the lists `corners`,
`outside_corners` and `proper_outside_corners` hold the cells it flags,
the counts and `jaggedness` add up its flags without building a cell, and
the toggle tests read the lists.  They are the per-shape oracle of the
covers, grouped by cell, from which the lattice module reads the same cells
for every subshape at once; `all_subshapes` lists the subshapes without
that module.  Everything here is integer arithmetic: the balanced test
cross-multiplies instead of comparing slopes, so there is no tolerance
anywhere.
"""

from bisect import bisect_left
from itertools import count
from operator import and_, gt, le, lt
from typing import Iterator, NamedTuple

__all__ = [
    "Cell",
    "LatticePath",
    "NotBalancedError",
    "Partition",
    "all_subshapes",
    "can_toggle_in",
    "can_toggle_out",
    "corner_count",
    "corners",
    "is_balanced",
    "jaggedness",
    "lattice_path",
    "outside_corners",
    "proper_outside_corner_count",
    "proper_outside_corners",
    "rect_staircase",
    "subshape_contained",
]


class Cell(NamedTuple):
    """1-based (row, col) position of a square in a diagram."""

    row: int
    col: int


class NotBalancedError(ValueError):
    """A balanced-shape-only identity was asked about an unbalanced shape."""


class Partition:
    """Weakly decreasing positive parts; the empty partition is allowed.

    Every part is type-checked first; then trailing zeros are stripped.  A
    zero followed by a positive part is an increase, and is rejected.
    """

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        parts = list(parts)
        previous = None
        for p in parts:
            if isinstance(p, bool) or not isinstance(p, int) or p < 0:
                raise ValueError(f"parts must be nonnegative integers, got {parts!r}")
            if previous is not None and previous < p:
                raise ValueError(f"parts must be weakly decreasing, got {parts!r}")
            previous = p
        while parts and parts[-1] == 0:
            parts.pop()
        self.parts = tuple(parts)

    @classmethod
    def from_text(cls, text):
        """Parse the comma-separated form, e.g. "4,4,2,1"; "" is the empty shape."""
        text = text.strip()
        if not text:
            return cls()
        try:
            return cls(int(piece) for piece in text.split(","))
        except ValueError as exc:
            raise ValueError(f"bad partition text {text!r}: {exc}") from None

    def to_text(self):
        return ",".join(str(p) for p in self.parts)

    @property
    def rows(self):
        return len(self.parts)

    @property
    def cols(self):
        return self.parts[0] if self.parts else 0

    @property
    def ncells(self):
        return sum(self.parts)

    def part(self, i):
        """The i-th part, 1-based; 0 beyond the last row."""
        return self.parts[i - 1] if 1 <= i <= len(self.parts) else 0

    def contains_cell(self, cell):
        row, col = cell
        return 1 <= row <= len(self.parts) and 1 <= col <= self.parts[row - 1]

    def cells(self) -> Iterator[Cell]:
        """All cells in row-major order."""
        for i, p in enumerate(self.parts, start=1):
            for j in range(1, p + 1):
                yield Cell(i, j)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other):
        if not isinstance(other, Partition):
            return NotImplemented
        return self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return f"Partition({', '.join(str(p) for p in self.parts)})"


def rect_staircase(a, b, d):
    """The staircase (d-1, d-2, ..., 1) with each square blown up to an a x b rectangle.

    Has a*(d-1) rows, row i of length b*(d-1-(i-1)//a); d=1 gives the empty
    shape.
    """
    if any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in (a, b, d)):
        raise ValueError("a, b, d must be positive")
    return Partition(b * (d - 1 - i // a) for i in range(a * (d - 1)))


def subshape_contained(mu, lam):
    """True iff mu fits cellwise inside lam."""
    return len(mu.parts) <= len(lam.parts) and all(map(le, mu.parts, lam.parts))


def _require_contained(mu, lam):
    if not subshape_contained(mu, lam):
        raise ValueError(f"{mu!r} is not a subshape of {lam!r}")


def _padded(mu, lam):
    """mu's parts padded with zeros to lam's length; ValueError unless mu fits in lam."""
    _require_contained(mu, lam)
    return mu.parts + (0,) * (len(lam.parts) - len(mu.parts))


def all_subshapes(lam) -> Iterator[Partition]:
    """Every partition contained in lam, each exactly once.

    Deterministic order: lexicographic in the part tuples, shortest prefix
    first, so the empty shape leads and lam itself comes last.  Built from
    the bottom row up: the subshapes of rows d, d + 1, .. are the empty one
    and each v = 1 .. lam_d ahead of those of the rows below whose first part
    is at most v, a prefix of their ordered list.  The part tuples are built
    here, so each Partition takes its tuple unchecked.
    """
    below = [()]
    for width in reversed(lam.parts):
        below = [()] + [
            (v,) + mu
            for v in range(1, width + 1)
            for mu in below[: bisect_left(below, (v + 1,))]
        ]
    for parts in below:
        mu = object.__new__(Partition)
        mu.parts = parts
        yield mu


def _corner_flags(parts):
    """The corner rule: per row of a part tuple (zeros may trail), whether
    its last cell is a corner, that is, the row is longer than the next."""
    return map(gt, parts, parts[1:] + (0,))


def _outside_flags(parts, bounds):
    """The outside-corner rule: per row i of a part tuple padded with zeros
    to the length of bounds, whether the cell just past its end is an
    outside corner within bounds, that is, the row is shorter than bounds[i]
    and than the row above (bounds[0] stands in above the top row)."""
    return map(and_, map(lt, parts, bounds), map(gt, bounds[:1] + parts, parts))


def corners(mu):
    """Removable cells of mu: the end of each row strictly longer than the next."""
    parts = mu.parts
    return [Cell(i, p) for i, p, f in zip(count(1), parts, _corner_flags(parts)) if f]


def _outside_cells(parts, bounds):
    return [Cell(i, p + 1) for i, p, f in zip(count(1), parts, _outside_flags(parts, bounds)) if f]


def outside_corners(mu):
    """Addable cells of mu.

    Includes the two boundary conventions: the cell just right of row 1 and
    the cell just below column 1.  The empty shape has the single addable
    cell (1, 1).  These are the proper outside corners of mu in the box one
    row and one column larger than mu.
    """
    parts = mu.parts + (0,)
    return _outside_cells(parts, (parts[0] + 1,) * len(parts))


def proper_outside_corners(mu, lam):
    """Addable cells of mu that lie inside lam."""
    return _outside_cells(_padded(mu, lam), lam.parts)


def corner_count(mu):
    """Number of corners of mu."""
    return sum(_corner_flags(mu.parts))


def proper_outside_corner_count(mu, lam):
    """Number of proper outside corners of mu within lam."""
    return sum(_outside_flags(_padded(mu, lam), lam.parts))


def jaggedness(mu, lam):
    """Number of corners of mu plus proper outside corners of mu within lam,
    counted on the part tuples without building a cell."""
    parts = _padded(mu, lam)
    return sum(_corner_flags(parts)) + sum(_outside_flags(parts, lam.parts))


class LatticePath(NamedTuple):
    """Boundary path of a subshape across the ambient diagram's bounding box.

    steps runs from the bottom-left to the top-right corner of the bounding
    box, one character per unit step, E for east and N for north; the cells
    of the subshape lie northwest of the path.  left_turns counts EN pairs,
    one per corner of the subshape; right_turns counts NE pairs whose
    turning point is the northwest corner of a cell of the ambient shape,
    one per proper outside corner.
    """

    steps: str
    left_turns: int
    right_turns: int


def lattice_path(mu, lam):
    """Trace mu's boundary inside lam's bounding box and count its turns.

    The turn counts are computed from the path geometry alone, which makes
    this an independent route to the jaggedness of mu.
    """
    _require_contained(mu, lam)
    r, c = lam.rows, lam.cols
    chunks = []
    x = 0
    for i in range(r, 0, -1):
        t = mu.part(i)
        chunks.append("E" * (t - x))
        chunks.append("N")
        x = t
    chunks.append("E" * (c - x))
    steps = "".join(chunks)

    left = right = 0
    px = py = 0
    for here, after in zip(steps, steps[1:]):
        if here == "E":
            px += 1
        else:
            py += 1
        if here == "E" and after == "N":
            left += 1
        elif here == "N" and after == "E":
            # the cell whose northwest corner is this turning point
            if lam.contains_cell(Cell(r - py + 1, px + 1)):
                right += 1
    return LatticePath(steps, left, right)


def _require_cell_in(p, lam):
    if not lam.contains_cell(p):
        raise ValueError(f"cell {tuple(p)} lies outside {lam!r}")


def can_toggle_in(p, mu, lam):
    """True iff p can be added to mu while staying a subshape of lam."""
    _require_cell_in(p, lam)
    return p in proper_outside_corners(mu, lam)


def can_toggle_out(p, mu, lam):
    """True iff p can be removed from mu leaving a subshape."""
    _require_cell_in(p, lam)
    _require_contained(mu, lam)
    return p in corners(mu)


def is_balanced(lam):
    """Whether every outward-corner turning point sits on the anti-diagonal.

    An outward corner between rows i and i+1 (present when lam_i exceeds
    lam_{i+1}) has turning point (lam_{i+1}, r - i); the anti-diagonal from
    (0, 0) to (c, r) passes through it iff lam_{i+1} * r == (r - i) * c,
    checked by cross-multiplication over the integers.  Rectangles have no
    such corners, so they are balanced vacuously.
    """
    if not lam.parts:
        raise ValueError("the empty shape has no anti-diagonal")
    r, c = lam.rows, lam.cols
    for i in range(1, r):
        if lam.part(i) > lam.part(i + 1) and lam.part(i + 1) * r != (r - i) * c:
            return False
    return True
