"""From subspaces to Motzkin paths.

The map psi reads a step off every column of the canonical rref: U where the
column is a left pivot but not a right pivot, D for the converse, H where
the column is in both pivot sets or neither.  An equivalent description
classifies each column as pivotal/nonpivotal and essential/inessential via
the sections of the matrix; both routes are implemented so they can be
checked against each other.

The pivot-set route is one pass: the row step :func:`_row_step` finds each
row's right pivot from the rows carried so far, which it is given and does
not change (over F_2 on rows packed into ints, by XOR), and
:func:`_pivot_path` spells the word.  The walk
:func:`subspaces_with_paths` behind ``sbd``, ``scd`` and ``census`` takes
one row step per node of each pivot cell of the enumeration, on one
explicit stack, and :func:`psi` is that walk over the one-subspace cell of
its argument.  The rest is read off the path and the left pivots: the right
pivots, the inessential columns (the H steps) and pivots (the H steps at
left pivots), and whether the subspace is primary, that is whether its
dimension equals the down count (|L| = #U + |L & R| and #U = #D).

:func:`_row_ends` keeps each row's end: the 1-based column where the row
step leaves the row, which is the least last-nonzero column over the row
plus the span of the rows above it.  (The carried rows have distinct ends,
so the step reaches the coset's least last-nonzero column.)  The ends are
the right pivots, and they hold the section basis of every column: for a
column j, the rows with pivot at or before j and end after j are exactly
the rows whose tails past j are independent of the tails above, the rows
that :func:`column_elimination` keeps for their tails; a nonpivotal j
is inessential exactly when it is no end (j not in L and step j H), and
the m-th pivot exactly when the m-th row ends there.  The general
insertion and deletion read their guard and basis off them.

The section route, one forward elimination per column,
:func:`column_elimination`, is the reference for the row ends and behind
:func:`classify_column`, :func:`path_from_classification` and
:func:`is_primary`, the references for the path.  The section at
column j is the submatrix formed by the rows whose pivot is at or before j
and the columns strictly after j.  Column j is essential when the data it
carries (the column above the diagonal in the nonpivotal case, the trailing
part of the pivot row in the pivotal case) is independent of that section;
the span of the empty set is {0}.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .matspace import (Mat, Rref, _eliminate, _pivot_cells, is_valid_rref,
                       left_pivots, rank_of)
from .motzkin import MotzkinPath


def _check_rref(x, reader):
    """Raise ValueError naming ``reader`` when x is not a valid rref.  An
    Rref that carries its path in its memo passed this check before the path
    was kept (see :func:`psi`), and one marked valid was built by
    :func:`qlattice.matspace.rref_left`, so neither is checked."""
    memo = x.__dict__
    if "_path" not in memo and "_valid" not in memo and not is_valid_rref(x):
        raise ValueError(f"{reader} requires a valid rref")


def section(x, j):
    """The section of the rref x at column j, 0 <= j <= n."""
    if not 0 <= j <= x.n:
        raise ValueError(f"column {j} outside [0, {x.n}]")
    m = bisect_right(x.pivots, j)  # pivots at or before j
    return Mat(x.field, x.n - j, tuple(row[j:] for row in x.rows[:m]))


def section_rank(x, j):
    s = section(x, j)
    return rank_of(s.field, s.rows, s.n)


def section_ranks(x):
    """Ranks of the sections at j = 0..n."""
    return tuple(section_rank(x, j) for j in range(x.n + 1))


class ColumnClass(NamedTuple):
    pivotal: bool
    essential: bool


#: The four column classes, ``_CLASSES[pivotal][essential]``.
_CLASSES = tuple(tuple(ColumnClass(pivotal, essential)
                       for essential in (False, True))
                 for pivotal in (False, True))


def column_elimination(x, j):
    """(class, m, elimination) of column j of the rref x, 1 <= j <= n.

    A pivotal j is the m-th pivot: its section, the pivot row's tail last,
    is eliminated and j is essential when that tail is kept.  A nonpivotal
    j has m pivots before it: the column-j entries are appended to its
    section as a last column, and j is essential when a pivot lands there.
    """
    if not 1 <= j <= x.n:
        raise ValueError(f"column {j} outside [1, {x.n}]")
    m = bisect_right(x.pivots, j)
    w = x.n - j
    if m and x.pivots[m - 1] == j:
        e = _eliminate(x.field, [row[j:] for row in x.rows[:m]], w)
        return _CLASSES[True][m - 1 in e.kept], m, e
    e = _eliminate(x.field, [row[j:] + row[j - 1:j] for row in x.rows[:m]],
                   w + 1)
    return _CLASSES[False][w + 1 in e.pivots], m, e


def classify_column(x, j):
    """Classification of column j of the rref x, 1 <= j <= n; raises
    ValueError when x is not a valid rref, as :func:`psi` does."""
    _check_rref(x, "classify_column")
    return column_elimination(x, j)[0]


def classify_columns(x):
    """Classes of the columns of x read off its path, one pivot pass:
    pivotal at a left pivot, inessential at an H step."""
    pivots = x.pivots
    return tuple(_CLASSES[j in pivots][step != "H"]
                 for j, step in enumerate(psi(x).steps, start=1))


def _row_step(field):
    """The row step over F_q: a pair (encode, right_pivot).  ``encode``
    maps a row to the form the step reads, and ``right_pivot`` maps
    (carried, encoded row) to the row's (0-based right pivot, row reduced up
    to it), where ``carried`` maps each 0-based right pivot to the reduced
    row that ends there, or to None.  It scans from the right, subtracting
    the multiple of each carried row it meets that clears that entry (the
    whole row, as it is zero past its right pivot), until no carried row
    ends there.  Neither argument is changed.

    Over F_2 a row is an int with bit t for 0-based column t, in the
    M4RI style: the right pivot is the top bit and each subtraction one
    XOR, with no field operation and no list copy.  It is the library's one
    F_2 reduction: the insertion kernel :func:`qlattice.decomp._gf2_ins_col`
    packs and reduces its rows with it too.  Over every other field
    ``encode`` is the identity and each subtraction is one
    ``GF.sub_scaled``; that general step is also valid at q = 2 and is the
    bit step's test reference."""
    if field.q == 2:
        def encode(row):
            v = 0
            for bit in reversed(row):
                v = v + v + bit
            return v

        def right_pivot(carried, r):
            while True:
                t = r.bit_length() - 1
                prow = carried[t]
                if prow is None:
                    return t, r
                r ^= prow

        return encode, right_pivot
    return (lambda row: row), _general_right_pivot(field)


def _general_right_pivot(field):
    """The ``right_pivot`` of :func:`_row_step` on tuple rows over any
    field, by ``GF.sub_scaled``."""
    div, sub_scaled = field.div, field.sub_scaled

    def right_pivot(carried, row):
        r, t = row, len(row) - 1
        while True:
            while not r[t]:
                t -= 1
            prow = carried[t]
            if prow is None:
                return t, r
            if r is row:
                r = list(row)
            sub_scaled(r, r[t] if prow[t] == 1 else div(r[t], prow[t]), prow)

    return right_pivot


def _pivot_path(left, right, n, paths):
    """The path spelt by the pivot sets, given as bitmasks (bit j for column
    j + 1): U on L - R, D on R - L, H elsewhere.  Each word is built into
    one MotzkinPath, kept in ``paths``; a word that is no path raises
    RuntimeError."""
    word = "".join("H" if (left >> j & 1) == (right >> j & 1)
                   else "U" if left >> j & 1 else "D" for j in range(n))
    path = paths.get(word)
    if path is None:
        try:
            path = paths[word] = MotzkinPath(word)
        except ValueError as exc:
            raise RuntimeError(f"pivot sets produced the non-path word "
                               f"{word!r}: {exc}") from exc
    return path


def _row_ends(x):
    """The rows' ends of the rref x, one row step per row, kept in x's memo
    as ``_ends`` (see the module docstring); unchecked, and builds no path."""
    ends = x.__dict__.get("_ends")
    if ends is None:
        # Slot n stays None: an F_2 zero row reads it at t = -1 and ends at 0.
        carried = [None] * (x.n + 1)
        encode, right_pivot = _row_step(x.field)
        ends = []
        for row in x.rows:
            t, r = right_pivot(carried, encode(row))
            carried[t] = r
            ends.append(t + 1)
        ends = x.__dict__["_ends"] = tuple(ends)
    return ends


def psi(x):
    """The Motzkin path of a subspace: U on L - R, D on R - L, H elsewhere,
    with the right pivots R read off the rows' ends (:func:`_row_ends`).
    The prefix height at j equals the rank of the section at j.

    The path is a function of the value of x, which is immutable, so it is
    kept in x's memo (``_path``) and later calls return it.  The first call
    checks x and raises ValueError when it is not a valid rref; pivot sets
    that spell no path raise RuntimeError."""
    path = x.__dict__.get("_path")
    if path is not None:
        return path
    _check_rref(x, "psi")
    right = sum(1 << (t - 1) for t in _row_ends(x))
    left = sum(1 << (p - 1) for p in x.pivots)
    path = x.__dict__["_path"] = _pivot_path(left, right, x.n, {})
    return path


def right_pivots(x):
    """Columns where some vector of the subspace has its last nonzero
    coordinate, read off psi(x): the D steps, and the H steps at left
    pivots (an H step is in both pivot sets or in neither)."""
    return frozenset(j for j, step in enumerate(psi(x).steps, 1)
                     if step == "D" or step == "H" and j in x.pivots)


def subspaces_with_paths(field, n, max_size=None, primary_only=False):
    """Yield (x, psi(x)) for every subspace x of F_q^n, in the order of
    :func:`qlattice.matspace.enumerate_subspaces` and under its ceiling.

    Each pivot cell is walked depth first on one stack of (rows, right pivot
    bitmask, carried) entries, ``carried`` as in :func:`_row_step`, whose
    encoding of each choice is made once per cell: the row tuple goes into
    the Rref and the encoded row (an int over F_2) into the step.  An entry
    with a row per pivot is a subspace; any other pushes a child per choice
    of its next row, last choice first, each with a copy of ``carried`` that
    also holds its new row, or None for a child with a row per pivot, which
    reads no carried row.  With ``primary_only`` only the primaries come
    out, the subspaces with L & R empty: a row whose right pivot is a left
    pivot is skipped with its whole subtree, and the walk stops above
    dimension n/2.
    """
    encode, right_pivot = _row_step(field)
    paths = {}  # word -> MotzkinPath
    for pivots, choices in _pivot_cells(field, n, max_size,
                                        n // 2 if primary_only else n):
        k = len(pivots)
        left = sum(1 << (p - 1) for p in pivots)
        by_right = {}  # right pivot bitmask -> path, within this cell
        cell = [[(row, encode(row)) for row in reversed(rows)]
                for rows in choices]
        stack = [((), 0, [None] * n)]
        while stack:
            rows, right, carried = stack.pop()
            i = len(rows)
            if i == k:
                path = by_right.get(right)
                if path is None:
                    path = by_right[right] = _pivot_path(left, right, n,
                                                         paths)
                yield Rref(field, n, rows, pivots), path
                continue
            leaf = i + 1 == k
            for row, code in cell[i]:
                t, r = right_pivot(carried, code)
                if primary_only and left >> t & 1:
                    continue
                if leaf:
                    below = None
                else:
                    below = carried.copy()
                    below[t] = r
                stack.append((rows + (row,), right | 1 << t, below))


def path_from_classification(x):
    """The same path via the column classification: H at inessential
    columns, U at essential pivotal ones, D at essential nonpivotal ones."""
    _check_rref(x, "path_from_classification")
    steps = []
    for j in range(1, x.n + 1):
        pivotal, essential = column_elimination(x, j)[0]
        if not essential:
            steps.append("H")
        elif pivotal:
            steps.append("U")
        else:
            steps.append("D")
    return MotzkinPath("".join(steps))


def is_primary(x):
    """True when no column is both pivotal and inessential; such rrefs are
    the block representatives of the Boolean decomposition."""
    _check_rref(x, "is_primary")
    return all(column_elimination(x, j)[0].essential for j in x.pivots)


def set_and_subset(x):
    """(inessential columns, inessential pivotal columns): the H steps of
    the path and those among them at a left pivot.  The subset part is empty
    exactly for primary rrefs."""
    ground = frozenset(psi(x).horizontals)
    return ground, ground & left_pivots(x)
