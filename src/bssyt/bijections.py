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
by rows instead of walking the tableaux: the rows are one lattice of
subshapes, the fillings above and below every row are zeta transforms on
it, each step runs once per doubled row and each test once per class of
neighbour rows, and the total is compared with count_bssyt.  The walk over
enumerate_bssyt is its oracle in the tests.
"""

from itertools import accumulate, repeat
from operator import getitem, mul, sub

from .lattice import subshape_lattice, subshapes, zeta
from .reports import Record, VerificationReport
from .shapes import Cell, Partition
from .tableaux import ReversePlanePartition, SetValuedTableau, count_bssyt, require_bound

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
    checked at construction: int level and cell, the cell in the shape, and
    the subclass's _test on its row and the row _side away (1 below, -1
    above; empty if none), which calls the row test the maps use."""

    __slots__ = _fields = ("rpp", "level", "cell")

    def __init__(self, rpp, level, cell):
        r, c = cell
        if {type(level), type(r), type(c)} != {int}:  # bools rejected too
            raise ValueError(f"level and cell must be integers, got {level!r} and {cell!r}")
        rows = ((), *rpp.rows, ())
        if not (
            rpp.shape.contains_cell((r, c))
            and self._test(rows[r], rows[r + self._side], c - 1, level, rpp.k)
        ):
            raise ValueError(
                f"{(r, c)} is not a {self._kind} of the level-{level} subshape, "
                f"level in [1, {rpp.k}]"
            )
        set_field = object.__setattr__
        set_field(self, "rpp", rpp)
        set_field(self, "level", level)
        set_field(self, "cell", Cell(r, c))


class CornerTriple(_Triple):
    """Reverse plane partition, level, and a designated corner of the
    level-induced subshape."""

    __slots__ = ()
    _kind, _side = "corner", 1

    @staticmethod
    def _test(row, below, c, level, k):
        return _is_corner(row, below, c, level, k)


class OutsideTriple(_Triple):
    """Reverse plane partition, level, and a designated proper outside corner
    of the level-induced subshape."""

    __slots__ = ()
    _kind, _side = "proper outside corner", -1

    @staticmethod
    def _test(row, above, c, level, k):
        return _is_outside_corner(row, above, c, level, k)


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
    return tuple([cell[-1] - t for cell in row]), row[c][0] - t + 1


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


def _split(T, split_doubled, triple_type):
    """Shift row t of T down by t, split the doubled cell's row with
    split_doubled, and designate that cell at the level it gives."""
    rows, (t0, j0) = _shifted(T)
    rows[t0], level = split_doubled(T.rows[t0], t0 + 1, j0)
    rpp = ReversePlanePartition.unchecked(T.shape, tuple(rows), T.k)
    return triple_type(rpp, level, (t0 + 1, j0 + 1))


def _joined(triple, join_doubled):
    """Shift row t of the triple's RPP up by t, and join the level back
    into the designated cell's row with join_doubled."""
    P, (r, c) = triple.rpp, triple.cell
    rows = [_join_row(row, t) for t, row in enumerate(P.rows, start=1)]
    rows[r - 1] = join_doubled(P.rows[r - 1], r, c - 1, triple.level)
    return SetValuedTableau.unchecked(P.shape, tuple(rows), P.k)


def bssyt_to_corner(T):
    """Forward map keeping the smaller doubled value in place.

    The dropped value b - r is recorded as the level, and the doubled cell
    is provably a corner of the level-(b - r) induced subshape: its own
    entry a - r lies below the level, while the cells right of and below it
    hold entries at least b - r.
    """
    return _split(T, _corner_split, CornerTriple)


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
    return _split(T, _outside_split, OutsideTriple)


def outside_to_bssyt(triple):
    """Join level - 1 into the designated proper outside corner and shift up."""
    return _joined(triple, _outside_join)


def _survives(row, t):
    """Whether the singleton cells of a shifted row, shifted back up into
    row t, shift down and join up to themselves again."""
    cells = tuple([(v + t,) for v in row])
    return _join_row(_shift_row(cells, t), t) == cells


def _row_steps(shapes, tails, k):
    """One step of each row of the box k^w, and the columns where rows step up.

    lowered[c][x] is the rank of subshape x with row c lowered by one and
    the rows below clamped to it, and raised[c][x] that of x with row c
    raised by one and the rows above lifted to it; len(shapes), no subshape,
    where row c is 0 or k.  Repeated, they walk x's chains in column c: the
    rows with one entry fewer or more there, down to 0 or up to k.  records
    holds, per subshape n and column c where row c is longer than row c + 1
    (so n's row, k minus its parts, has a gap after column c), n, c, the
    entry there and the gap to the next entry or to k.  The subshapes are
    taken shortest first, so the rows of width w, the subshapes with at
    most w nonzero parts, own the first ends[w] records.

    By the lattice module's rank formula, moving a row j from v to v + 1
    moves the rank by T_{j+1}(v), so each step moves it by a difference of
    the running sums steps[v][j] of T_{j'+1}(v) over the rows j' < j.  A
    step at v moves the rows longer than v from row c down, or the rows up
    to row c that are not longer than v.
    """
    w, size = len(tails) - 1, len(shapes)
    steps = [list(accumulate((tails[j + 1][v] for j in range(w)), initial=0)) for v in range(k)]
    per_row = list(zip(*steps))  # per_row[j][v] = steps[v][j]
    lowered, raised = [[size] * size for _ in range(w)], [[size] * size for _ in range(w)]
    by_length = [[] for _ in range(w + 1)]
    for x, mu in enumerate(shapes):
        # steps[v][the number of rows of x longer than v], for each v
        longer = list(map(getitem, steps, map(sub, repeat(w), accumulate(map(mu.count, range(k))))))
        records = by_length[w - mu.count(0)]
        next_m = 0
        for c in reversed(range(w)):
            m = mu[c]
            if m:
                lowered[c][x] = x - longer[m - 1] + per_row[c][m - 1]
            if m < k:
                raised[c][x] = x + per_row[c + 1][m] - longer[m]
            if m != next_m:
                records.append((x, c, k - m, m - next_m))
            next_m = m
    records = [record for group in by_length for record in group]
    return lowered, raised, records, list(accumulate(map(len, by_length)))


def verify_roundtrip(lam, k):
    """Both representations must invert on every barely set-valued tableau.

    Counted on one lattice, without walking the tableaux.  k minus a
    shifted row padded with k to width lam_1 is a subshape of the box
    k^(lam_1), and a row fits above another exactly when its subshape holds
    the other's.  So the fillings above every row are one up zeta transform
    over J(k^(lam_1)), and those below one down transform, each run on all
    fillings and on those whose every row survives shift then join;
    peak_states is |J(k^(lam_1))|.  A row D with a pair {a < b} in column c
    fits below the rows that fit above D less b, its corner split's row,
    and above those below D less a, its outside split's row.  The corner
    test reads the row below only in column c, so it runs once per class of
    rows below with one entry there, on the class's own row, and the class
    is counted by a difference of zeta values one down step apart in that
    column; each b tests the classes from D less a down, whose entry in
    column c is b.  The outside test runs likewise on the rows above, along
    D less b's up steps.  Each round trip also needs D's split to join back
    to D, and each split and join runs exactly once per row index and
    doubled row; doubled_rows counts those pairs.  The row steps, the
    columns of every row and the shifted rows of every width are built
    once, so a row index adds only its survive flags, its zeta transforms
    and its doubled rows, each with its steps, its walks and its class
    tests.  The total must equal count_bssyt, an independent count.
    """
    require_bound(k)
    parts = lam.parts
    box = Partition((k,) * max(parts, default=0))
    lattice, shapes = subshape_lattice(box), subshapes(box)
    size = lattice.size
    lowered, raised, records, ends = _row_steps(shapes, lattice.tails, k)
    # per distinct width: the shifted row each subshape stands for, and
    # whether it is a row of that width (no cell past it)
    widths = {0, *parts}
    full = [tuple([k - x for x in mu]) for mu in shapes]
    shifted = {w: [row[:w] for row in full] for w in widths}
    fits = {w: [not any(mu[w:]) for mu in shapes] for w in widths}
    survives = {}  # per row t and subshape: is it a row of row t that survives
    for t, width in enumerate(parts, start=1):
        survives[t] = [f and _survives(row, t) for f, row in zip(fits[width], shifted[width])]

    def transfer(levels, up):
        # reach[t]: per subshape, the fillings of the rows beyond row t whose
        # nearest row fits next to it, and those whose every row survives
        total = ok = [1] * size
        reach = {}
        for t in levels:
            reach[t] = total, ok
            if t == levels[-1]:
                break
            total = zeta(map(mul, total, fits[parts[t - 1]]), lattice, up)
            ok = zeta(map(mul, ok, survives[t]), lattice, up)
        return reach

    above = transfer(range(1, len(parts) + 1), up=True)
    below = transfer(range(len(parts), 0, -1), up=False)
    total = corner_ok = outside_ok = doubled_rows = 0
    neighbours = zip(parts, (*parts[1:], 0), (0, *parts))
    for r, (width, lower_width, upper_width) in enumerate(neighbours, start=1):
        up_all, up_ok = above[r]
        down_all, down_ok = below[r]
        # the rows below, and above, in one class per subshape x on a walk
        # whose entry they share in its column, counted by the difference of
        # the zeta values at x and one step past it (0 past the end)
        below_ok, above_ok = [*down_ok, 0], [*up_ok, 0]
        lows, ups = shifted[lower_width], shifted[upper_width]
        # D less b's cells, per subshape that is a row of row r
        singles = [f and tuple([(v + r,) for v in row]) for f, row in zip(fits[width], shifted[width])]
        for n, c, a, gaps in records[: ends[width]]:
            row = singles[n]
            head, tail, a = row[:c], row[c + 1 :], a + r
            down, up = lowered[c], raised[c]
            held_n = n
            for gap in range(1, gaps + 1):
                held_n = down[held_n]  # D less a
                doubled = head + ((a, a + gap),) + tail
                kept, i = _corner_split(doubled, r, c)
                held, j = _outside_split(doubled, r, c)
                total += up_all[n] * down_all[held_n]
                if _corner_join(kept, r, c, i) == doubled:
                    passed, x = 0, held_n
                    while x != size:
                        m = below_ok[x] - below_ok[down[x]]
                        if m and _is_corner(kept, lows[x], c, i, k):
                            passed += m
                        x = down[x]
                    corner_ok += up_ok[n] * passed
                if _outside_join(held, r, c, j) == doubled:
                    passed, x = 0, n
                    while x != size:
                        m = above_ok[x] - above_ok[up[x]]
                        if m and _is_outside_corner(held, ups[x], c, j, k):
                            passed += m
                        x = up[x]
                    outside_ok += passed * down_ok[held_n]
            doubled_rows += gaps
    expected = count_bssyt(lam, k)
    return VerificationReport(
        claim="bssyt_roundtrip",
        params={
            "shape": lam,
            "k": k,
            "tableaux": total,
            "doubled_rows": doubled_rows,
            "method": "row-lattice",
            "peak_states": size,
        },
        lhs=[corner_ok, outside_ok],
        rhs=[expected, expected],
        equal=total == expected and corner_ok == expected and outside_ok == expected,
    )
