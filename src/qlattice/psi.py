"""From subspaces to Motzkin paths.

The map psi reads a step off every column of the canonical rref: U where the
column is a left pivot but not a right pivot, D for the converse, H where
the column is in both pivot sets or neither.  An equivalent description
classifies each column as pivotal/nonpivotal and essential/inessential via
the sections of the matrix; both routes are implemented so they can be
checked against each other.  The pivot-set route is one right-to-left
elimination, :func:`psi`, and everything else is read off its path and the
left pivots: the inessential columns are the H steps, the inessential pivots
are the H steps at left pivots, and a subspace is primary exactly when its
dimension equals the down count of its path (|L| = #U + |L & R| and
#U = #D).  The section route classifies one column by one forward
elimination, :func:`column_elimination`: the guard and the coordinates of
column insertion and deletion, and the reference behind
:func:`path_from_classification` and :func:`is_primary`.

The section at column j is the submatrix formed by the rows whose pivot is
at or before j and the columns strictly after j.  Column j is essential when
the data it carries (the column above the diagonal in the nonpivotal case,
the trailing part of the pivot row in the pivotal case) is independent of
that section; the span of the empty set is {0}.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from .matspace import Mat, _eliminate, left_pivots, rank_of, right_pivots
from .motzkin import MotzkinPath


def section(x, j):
    """The section of the rref x at column j, 0 <= j <= n."""
    m = bisect_right(x.pivots, j)  # pivots at or before j
    return Mat(x.field, x.n - j, tuple(row[j:] for row in x.rows[:m]))


def section_rank(x, j):
    m = bisect_right(x.pivots, j)
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
    m = bisect_right(x.pivots, j)
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


def _column_classes(x, path):
    """Classes of the columns of x read off its path: pivotal at a left
    pivot, inessential at an H step."""
    return tuple(ColumnClass(j in x.pivots, step != "H")
                 for j, step in enumerate(path.steps, start=1))


def classify_columns(x):
    """Classes of the columns of x from one pivot pass."""
    return _column_classes(x, psi(x))


def psi(x):
    """The Motzkin path of a subspace, from one pass over its pivot sets.
    The prefix height at j equals the rank of the section at j; pivot sets
    that spell no path raise RuntimeError."""
    steps = ["H"] * x.n
    for j in x.pivots:
        steps[j - 1] = "U"
    for j in right_pivots(x):
        steps[j - 1] = "H" if steps[j - 1] == "U" else "D"
    word = "".join(steps)
    try:
        return MotzkinPath(word)
    except ValueError as exc:
        raise RuntimeError(
            f"pivot sets of\n{x}\nproduced the non-path word {word!r}: {exc}"
        ) from exc


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
    """(inessential columns, inessential pivotal columns): the H steps of
    the path and those among them at a left pivot.  The subset part is empty
    exactly for primary rrefs."""
    ground = frozenset(psi(x).horizontals)
    return ground, ground & left_pivots(x)
