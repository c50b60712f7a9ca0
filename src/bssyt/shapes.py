"""Partitions, their diagrams, and subshape geometry.

A partition doubles as a Young diagram (English orientation, row 1 on top)
and, when contained in a larger shape, as an order ideal of that shape's
cell poset.  Corners are the removable cells; outside corners the addable
ones, where the two boundary conventions (the cell right of row 1 and the
cell below column 1) are always generated and then filtered by membership
in the ambient shape.  The lists `corners` and `proper_outside_corners` are
the only definitions of the two cell sets: the corner counts, the
jaggedness and the toggle tests are all read off them.  Everything here
is integer arithmetic: the balanced test cross-multiplies instead of
comparing slopes, so there is no tolerance anywhere.
"""

from dataclasses import dataclass
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
    if a < 1 or b < 1 or d < 1:
        raise ValueError("a, b, d must be positive")
    return Partition(b * (d - 1 - i // a) for i in range(a * (d - 1)))


def subshape_contained(mu, lam):
    """True iff mu fits cellwise inside lam."""
    if mu.rows > lam.rows:
        return False
    return all(m <= l for m, l in zip(mu.parts, lam.parts))


def _require_contained(mu, lam):
    if not subshape_contained(mu, lam):
        raise ValueError(f"{mu!r} is not a subshape of {lam!r}")


def all_subshapes(lam) -> Iterator[Partition]:
    """Every partition contained in lam, each exactly once.

    Deterministic order: lexicographic in the part tuples, shortest prefix
    first, so the empty shape leads and lam itself comes last.
    """
    parts = lam.parts

    def rec(row, cap):
        yield ()
        if row == len(parts):
            return
        for v in range(1, min(cap, parts[row]) + 1):
            for rest in rec(row + 1, v):
                yield (v,) + rest

    for tup in rec(0, parts[0] if parts else 0):
        yield Partition(tup)


def corners(mu):
    """Removable cells of mu: the end of each row strictly longer than the next."""
    return [
        Cell(i, mu.part(i))
        for i in range(1, mu.rows + 1)
        if mu.part(i) > mu.part(i + 1)
    ]


def outside_corners(mu):
    """Addable cells of mu.

    Includes the two boundary conventions: the cell just right of row 1 and
    the cell just below column 1.  The empty shape has the single addable
    cell (1, 1).
    """
    if not mu.parts:
        return [Cell(1, 1)]
    out = [Cell(1, mu.cols + 1)]
    for i in range(2, mu.rows + 1):
        if mu.part(i - 1) > mu.part(i):
            out.append(Cell(i, mu.part(i) + 1))
    out.append(Cell(mu.rows + 1, 1))
    return out


def proper_outside_corners(mu, lam):
    """Addable cells of mu that lie inside lam."""
    _require_contained(mu, lam)
    return [cell for cell in outside_corners(mu) if lam.contains_cell(cell)]


def corner_count(mu):
    """Number of corners of mu."""
    return len(corners(mu))


def proper_outside_corner_count(mu, lam):
    """Number of proper outside corners of mu within lam."""
    return len(proper_outside_corners(mu, lam))


def jaggedness(mu, lam):
    """Number of corners of mu plus proper outside corners of mu within lam."""
    return corner_count(mu) + proper_outside_corner_count(mu, lam)


@dataclass(frozen=True)
class LatticePath:
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
