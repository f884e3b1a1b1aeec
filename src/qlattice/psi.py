"""From subspaces to Motzkin paths.

The map psi reads a step off every column of the canonical rref: U where the
column is a left pivot but not a right pivot, D for the converse, H where
the column is in both pivot sets or neither.  An equivalent description
classifies each column as pivotal/nonpivotal and essential/inessential via
the sections of the matrix; both routes are implemented so they can be
checked against each other.  The pivot-set route runs in one place,
:func:`pivot_data`, which yields the path, the inessential columns and the
inessential pivots from a single right-to-left elimination.  A column is
classified by one forward elimination, :func:`column_elimination`, which
column insertion and deletion also read their guards and coordinates from.

The section at column j is the submatrix formed by the rows whose pivot is
at or before j and the columns strictly after j.  Column j is essential when
the data it carries (the column above the diagonal in the nonpivotal case,
the trailing part of the pivot row in the pivotal case) is independent of
that section; the span of the empty set is {0}.
"""

from __future__ import annotations

from typing import NamedTuple

from .matspace import (Mat, _eliminate, left_pivots, pivot_count_upto,
                       rank_of, right_pivots)
from .motzkin import MotzkinPath


def section(x, j):
    """The section of the rref x at column j, 0 <= j <= n."""
    m = pivot_count_upto(x, j)
    return Mat(x.field, x.n - j, tuple(row[j:] for row in x.rows[:m]))


def section_rank(x, j):
    m = pivot_count_upto(x, j)
    return rank_of(x.field, [row[j:] for row in x.rows[:m]], x.n - j)


def section_ranks(x):
    """Ranks of the sections at j = 0..n."""
    return tuple(section_rank(x, j) for j in range(x.n + 1))


class ColumnClass(NamedTuple):
    pivotal: bool
    essential: bool


def column_elimination(x, j):
    """(class, m, elimination) of column j of the rref x, 1 <= j <= n.

    A pivotal j is the m-th pivot: its section, the pivot row's tail last,
    is eliminated and j is essential when that tail is kept.  A nonpivotal
    j has m pivots before it: the column-j entries are appended to its
    section as a last column, and j is essential when a pivot lands there.
    """
    if not 1 <= j <= x.n:
        raise ValueError(f"column {j} outside [1, {x.n}]")
    m = pivot_count_upto(x, j)
    w = x.n - j
    if m and x.pivots[m - 1] == j:
        e = _eliminate(x.field, [row[j:] for row in x.rows[:m]], w)
        return ColumnClass(True, m - 1 in e.kept), m, e
    e = _eliminate(x.field, [row[j:] + row[j - 1:j] for row in x.rows[:m]],
                   w + 1)
    return ColumnClass(False, w + 1 in e.pivots), m, e


def classify_column(x, j):
    """Classification of column j of the rref x, 1 <= j <= n."""
    return column_elimination(x, j)[0]


def classify_columns(x):
    return tuple(classify_column(x, j) for j in range(1, x.n + 1))


class PivotData(NamedTuple):
    path: MotzkinPath
    inessential: frozenset
    inessential_pivots: frozenset


def pivot_data(x):
    """(path, inessential columns, inessential pivotal columns) of a
    subspace from one pass over its pivot sets.

    A column is a left pivot, a right pivot, both or neither.  The step is U
    where it is a left pivot only, D where it is a right pivot only and H
    otherwise; the H columns are the inessential ones, and those in both
    sets are the inessential pivots, empty exactly for primary rrefs.
    """
    lp = left_pivots(x)
    rp = right_pivots(x)
    steps = []
    for j in range(1, x.n + 1):
        inl, inr = j in lp, j in rp
        if inl and not inr:
            steps.append("U")
        elif inr and not inl:
            steps.append("D")
        else:
            steps.append("H")
    word = "".join(steps)
    try:
        path = MotzkinPath(word)
    except ValueError as exc:
        raise RuntimeError(
            f"pivot sets of\n{x}\nproduced the non-path word {word!r}: {exc}"
        ) from exc
    full = frozenset(range(1, x.n + 1))
    return PivotData(path, full - (lp ^ rp), lp & rp)


def psi(x):
    """The Motzkin path of a subspace, read from its left and right pivot
    sets.  The prefix height at j equals the rank of the section at j."""
    return pivot_data(x).path


def path_from_classification(x):
    """The same path via the column classification: H at inessential
    columns, U at essential pivotal ones, D at essential nonpivotal ones."""
    steps = []
    for j in range(1, x.n + 1):
        pivotal, essential = classify_column(x, j)
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
    for j in x.pivots:
        if not classify_column(x, j).essential:
            return False
    return True


def set_and_subset(x):
    """(inessential columns, inessential pivotal columns), computed from the
    pivot sets: the complement of their symmetric difference, and their
    intersection.  The subset part is empty exactly for primary rrefs."""
    return pivot_data(x)[1:]
