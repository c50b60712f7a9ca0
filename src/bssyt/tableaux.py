"""Flagged set-valued tableaux, reverse plane partitions, and their enumerators.

Entries of a set-valued tableau are nonempty sets of positive integers; two
sets compare by A <= B iff max A <= min B and A < B iff max A < min B.  Rows
must be weakly increasing and columns strictly increasing under these
comparisons, and every entry in row i is capped by the flag k + i.  A
reverse plane partition carries one entry per cell, in [0, k], with rows
and columns weakly increasing.

The enumerators walk cells in row-major order choosing values in ascending
order, so each family comes out in a fixed order: lexicographic in the flat
entry stream (the barely set-valued family is grouped by the position of
the doubled cell first).  They stay deliberately direct, plain backtracking
with feasibility pruning against the left and upper neighbors only, because
they are the oracles of the counters.  count_ssyt and count_bssyt do not
enumerate: each is built from exact determinants of the flagged
Jacobi-Trudi matrix A of one-row counts and its beta-term matrix D, one
row and one column per row of the shape (see _ssyt_matrix).  count_rpp
does not enumerate either: it runs k down zeta transforms over the lattice
of subshapes, so the row shift's count identity still compares two routes.
"""

from bisect import bisect_left
from math import comb

from .exactmath import determinant
from .lattice import subshape_lattice, zeta
from .reports import Record
from .shapes import Partition

__all__ = [
    "ReversePlanePartition",
    "SetValuedTableau",
    "classify",
    "count_bssyt",
    "count_rpp",
    "count_ssyt",
    "enumerate_bssyt",
    "enumerate_rpp",
    "enumerate_ssyt",
    "induced_subshape",
    "require_bound",
    "rpp_to_ssyt",
    "ssyt_to_rpp",
]


def require_bound(k):
    """Reject a bound k that is not a positive int (bool included)."""
    if isinstance(k, bool) or not isinstance(k, int) or k < 1:
        raise ValueError(f"bound k must be a positive integer, got {k!r}")


def _split_top_level(text):
    """Split a row on commas that are not inside braces."""
    cells, depth, start = [], 0, 0
    for pos, ch in enumerate(text):
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced braces in {text!r}")
        elif ch == "," and depth == 0:
            cells.append(text[start:pos])
            start = pos + 1
    if depth:
        raise ValueError(f"unbalanced braces in {text!r}")
    cells.append(text[start:])
    return cells


class _Filling(Record):
    """Shape, one cell per square of the shape, and the bound k; immutable.

    Construction normalises every cell and validates everything; the
    enumerators and bijections build through unchecked instead, because
    their outputs are valid by construction.  A subclass names its cell
    normalisation, its cell rule against the left and upper neighbours, and
    the text of one cell.
    """

    __slots__ = _fields = ("shape", "rows", "k")

    def __init__(self, shape, rows, k):
        try:
            rows = tuple(tuple(map(self._normalized, row)) for row in rows)
        except TypeError as exc:
            # rows, or a row, or a cell that is not a collection of comparable entries
            raise ValueError(f"malformed filling: {exc}") from None
        set_field = object.__setattr__
        set_field(self, "shape", shape)
        set_field(self, "rows", rows)
        set_field(self, "k", k)
        self.validate()

    @classmethod
    def unchecked(cls, shape, rows, k):
        """A filling built without validation; rows must be valid and normalised."""
        filling = object.__new__(cls)
        set_field = object.__setattr__
        set_field(filling, "shape", shape)
        set_field(filling, "rows", rows)
        set_field(filling, "k", k)
        return filling

    def validate(self):
        """Re-check every invariant; raises ValueError on the first failure."""
        require_bound(self.k)
        if len(self.rows) != self.shape.rows:
            raise ValueError("row count does not match the shape")
        above = ()
        for t, (row, width) in enumerate(zip(self.rows, self.shape.parts), start=1):
            if len(row) != width:
                raise ValueError(f"row {t} does not match the shape")
            for j, cell in enumerate(row, start=1):
                left = row[j - 2] if j > 1 else None
                up = above[j - 1] if t > 1 else None
                self._check_cell(cell, left, up, t, j)
            above = row

    def serialize(self):
        """Rows joined by "/", cells by ","."""
        return "/".join(",".join(map(self._cell_text, row)) for row in self.rows)

    @classmethod
    def parse(cls, text, k):
        """Inverse of serialize; the bound k is not part of the text form."""
        text = text.strip()
        if not text:
            return cls(Partition(), (), k)
        rows = tuple(
            tuple(cls._read_cell(token.strip()) for token in _split_top_level(row_text))
            for row_text in text.split("/")
        )
        return cls(Partition(len(row) for row in rows), rows, k)

    def __repr__(self):
        return f"{type(self).__name__}({self.serialize()!r}, k={self.k})"


class SetValuedTableau(_Filling):
    """Shape, one sorted integer set per cell, and the flag bound k.

    Cells are stored as sorted tuples of distinct ints, written as a bare
    int when single and braced when not, e.g. "{2,4}".
    """

    __slots__ = ()

    @staticmethod
    def _normalized(cell):
        values = tuple(sorted(cell))
        if len(set(values)) != len(values):
            raise ValueError(f"repeated entry in cell {cell!r}")
        return values

    def _check_cell(self, cell, left, up, t, j):
        if not cell:
            raise ValueError(f"empty cell at ({t}, {j})")
        if any(isinstance(v, bool) or not isinstance(v, int) for v in cell):
            raise ValueError(f"non-integer entry at ({t}, {j})")
        if any(cell[m] >= cell[m + 1] for m in range(len(cell) - 1)):
            raise ValueError(f"cell at ({t}, {j}) is not a sorted set")
        if cell[0] < 1:
            raise ValueError(f"entry below 1 at ({t}, {j})")
        if cell[-1] > self.k + t:
            raise ValueError(f"entry {cell[-1]} at ({t}, {j}) exceeds the row flag {self.k + t}")
        if left is not None and left[-1] > cell[0]:
            raise ValueError(f"row {t} is not weakly increasing at column {j}")
        if up is not None and up[-1] >= cell[0]:
            raise ValueError(f"column {j} is not strictly increasing at row {t}")

    @staticmethod
    def _cell_text(cell):
        return str(cell[0]) if len(cell) == 1 else "{" + ",".join(map(str, cell)) + "}"

    @staticmethod
    def _read_cell(token):
        if token.startswith("{") and token.endswith("}"):
            return tuple(int(v) for v in token[1:-1].split(","))
        return (int(token),)


class ReversePlanePartition(_Filling):
    """Shape, one entry in [0, k] per cell, rows and columns weakly increasing."""

    __slots__ = ()

    _normalized = staticmethod(lambda v: v)
    _cell_text = staticmethod(str)
    _read_cell = staticmethod(int)

    def _check_cell(self, v, left, up, t, j):
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v <= self.k:
            raise ValueError(f"entry {v!r} at ({t}, {j}) outside [0, {self.k}]")
        if left is not None and left > v:
            raise ValueError(f"row {t} is not weakly increasing at column {j}")
        if up is not None and up > v:
            raise ValueError(f"column {j} is not weakly increasing at row {t}")


def classify(T):
    """"SSYT" if every cell is a singleton, "BSSYT" if exactly one cell holds
    exactly two entries and the rest are singletons, "other" otherwise."""
    doubled = 0
    for row in T.rows:
        for cell in row:
            size = len(cell)
            if size == 2:
                doubled += 1
                if doubled > 1:
                    return "other"
            elif size != 1:
                return "other"
    return "BSSYT" if doubled else "SSYT"


def _setvalued_grids(shape, k, wide):
    """Backtrack over cells in row-major order, ascending values.

    Every cell receives a singleton except the optional 0-based `wide` cell,
    which receives a two-element set.  Yields rows as nested tuples with
    each cell a sorted tuple.
    """
    parts = shape.parts
    if not parts:
        if wide is None:
            yield ()
        return
    grid = [[None] * p for p in parts]
    cells = [(t, j) for t, p in enumerate(parts) for j in range(p)]
    total = len(cells)

    def rec(idx):
        if idx == total:
            yield tuple(tuple(row) for row in grid)
            return
        t, j = cells[idx]
        lo = 1
        if j and grid[t][j - 1][-1] > lo:
            lo = grid[t][j - 1][-1]
        if t and grid[t - 1][j][-1] >= lo:
            lo = grid[t - 1][j][-1] + 1
        hi = k + t + 1
        row = grid[t]
        if (t, j) == wide:
            for a in range(lo, hi):
                for b in range(a + 1, hi + 1):
                    row[j] = (a, b)
                    yield from rec(idx + 1)
        else:
            for v in range(lo, hi + 1):
                row[j] = (v,)
                yield from rec(idx + 1)
        row[j] = None

    yield from rec(0)


def _rpp_grids(shape, k):
    """Backtrack over cells in row-major order; plain int entries in [0, k]."""
    parts = shape.parts
    if not parts:
        yield ()
        return
    grid = [[0] * p for p in parts]
    cells = [(t, j) for t, p in enumerate(parts) for j in range(p)]
    total = len(cells)

    def rec(idx):
        if idx == total:
            yield tuple(tuple(row) for row in grid)
            return
        t, j = cells[idx]
        lo = 0
        if j and grid[t][j - 1] > lo:
            lo = grid[t][j - 1]
        if t and grid[t - 1][j] > lo:
            lo = grid[t - 1][j]
        row = grid[t]
        for v in range(lo, k + 1):
            row[j] = v
            yield from rec(idx + 1)
        row[j] = 0

    yield from rec(0)


def enumerate_ssyt(shape, k):
    """All flagged semistandard tableaux of the shape, lexicographic order."""
    require_bound(k)
    for rows in _setvalued_grids(shape, k, None):
        yield SetValuedTableau.unchecked(shape, rows, k)


def _one_row_ssyt(m, f):
    """h(m, f): one-row SSYT of length m with entries in [1, f]; 0 for m < 0."""
    return comb(m + f - 1, m) if m >= 0 else 0


def _one_row_bssyt(m, f):
    """g(m, f): one-row barely set-valued fillings of length m, entries in [1, f].

    Doubling cell p gives a weakly increasing word of m + 1 letters that
    strictly increases at p; lowering every letter after p by one leaves
    any weakly increasing word in [1, f - 1], so g(m, f) = m * C(m + f - 1,
    m + 1).  Below the range the beta-term convention gives g(-1, f) = -1
    and g(m, f) = 0 for m <= -2.
    """
    if m >= 0:
        return m * comb(m + f - 1, m + 1)
    return -1 if m == -1 else 0


def _ssyt_matrix(shape, k):
    """The flagged Jacobi-Trudi matrix: A_ij = h(m, f_i).

    With 1-based i, j, the flag f_i = k + i and m = shape_i - i + j.
    """
    n = shape.rows
    return [
        [_one_row_ssyt(part - i + j, k + i) for j in range(1, n + 1)]
        for i, part in enumerate(shape.parts, start=1)
    ]


def _beta_matrix(shape, k):
    """The beta-term matrix: D_ij = (i - j) * h(m + 1, f_i) + g(m, f_i).

    f_i and m as in _ssyt_matrix.
    """
    n = shape.rows
    return [
        [
            (i - j) * _one_row_ssyt(part - i + j + 1, k + i)
            + _one_row_bssyt(part - i + j, k + i)
            for j in range(1, n + 1)
        ]
        for i, part in enumerate(shape.parts, start=1)
    ]


def count_ssyt(shape, k):
    """|SSYT(shape, k)| = det A, the flagged Jacobi-Trudi determinant.

    enumerate_ssyt is its oracle.
    """
    require_bound(k)
    return determinant(_ssyt_matrix(shape, k))


def enumerate_bssyt(shape, k):
    """All barely set-valued tableaux: one cell doubled, everything else single.

    Grouped by the doubled cell position in row-major order; within a group
    the order is lexicographic in the entry stream.
    """
    require_bound(k)
    for t in range(shape.rows):
        for j in range(shape.parts[t]):
            for rows in _setvalued_grids(shape, k, (t, j)):
                yield SetValuedTableau.unchecked(shape, rows, k)


def count_bssyt(shape, k):
    """|BSSYT(shape, k)|, the beta^1 coefficient of det(A + beta * D).

    That coefficient is the sum over i of det A with row i replaced by row i
    of D; the empty shape has none and gives 0.  enumerate_bssyt is its oracle.
    """
    require_bound(k)
    A, D = _ssyt_matrix(shape, k), _beta_matrix(shape, k)
    return sum(determinant(A[:i] + [D[i]] + A[i + 1 :]) for i in range(len(A)))


def enumerate_rpp(shape, k):
    """All reverse plane partitions of the shape with entries at most k."""
    require_bound(k)
    for rows in _rpp_grids(shape, k):
        yield ReversePlanePartition.unchecked(shape, rows, k)


def count_rpp(shape, k):
    """|RPP(shape, k)|, as A_k(shape) over J(shape); enumerate_rpp is its oracle.

    A_0 = 1 on every subshape, and A_j(mu), the number of fillings of mu with
    entries in [0, j], is the sum of A_{j-1}(nu) over the subshapes nu <= mu
    (nu holds the entries below j): k down zeta transforms, read at shape.
    """
    require_bound(k)
    lattice = subshape_lattice(shape)
    values = [1] * lattice.size
    for _ in range(k):
        values = zeta(values, lattice)
    return values[-1]


def rpp_to_ssyt(P):
    """Add the row index t to every entry of row t; lands in the flagged family."""
    rows = tuple(
        tuple((v + t,) for v in row) for t, row in enumerate(P.rows, start=1)
    )
    return SetValuedTableau.unchecked(P.shape, rows, P.k)


def ssyt_to_rpp(T):
    """Subtract the row index t from every entry of row t; inverse of rpp_to_ssyt."""
    if classify(T) != "SSYT":
        raise ValueError("row-shift inverse needs an all-singleton tableau")
    rows = []
    for t, row in enumerate(T.rows, start=1):
        shifted = tuple(cell[0] - t for cell in row)
        if any(v < 0 for v in shifted):
            raise ValueError(f"entry below its row index in row {t}")
        rows.append(shifted)
    return ReversePlanePartition(T.shape, tuple(rows), T.k)


def induced_subshape(P, i):
    """The cells of P holding entries strictly below the level i (1 <= i <= k).

    Always a partition: rows weakly increase, so those cells are row
    prefixes, and columns weakly increase, so the prefix lengths weakly
    decrease.
    """
    if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= P.k:
        raise ValueError(f"level {i!r} outside [1, {P.k}]")
    counts = []
    for row in P.rows:
        c = bisect_left(row, i)
        if c == 0:
            break
        counts.append(c)
    return Partition(counts)
