"""Matrices over F_q, one elimination kernel, canonical subspaces, enumeration.

A subspace of F_q^n is represented by the unique row reduced echelon form of
any spanning matrix, so equality of subspaces is structural equality of
:class:`Rref` values.  Column indices are 1-based throughout; the zero
subspace is the 0 x n empty rref.

Every left-to-right row reduction is one forward pass, :func:`_eliminate`,
which records the kept rows, reduced, and their pivots and nothing else.
The rref, the rank and the lexically first basis are read from it, and
:func:`express_in_rows` finds the coordinates of any number of targets
from one such pass over the rows with a unit block appended (the right
pivots are read off the path, see :mod:`qlattice.psi`).
Containment in a subspace needs no elimination: :func:`subspace_leq` reduces
each row against the rows of the given rref, which are already reduced.
Row entries are combined only by the field's row kernel, ``GF.sub_scaled``
and ``GF.scale``, here as in :mod:`qlattice.psi` and :mod:`qlattice.decomp`.

The subspaces with a fixed pivot set form one cell, and each row of a cell
varies on its own.  :func:`_pivot_cells` checks the ceiling once and lists
each cell's per-row choices; :func:`enumerate_subspaces` takes their
product, and the walk :func:`qlattice.psi.subspaces_with_paths` carries its
row reduction over the same cells.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

from .algebra import GF, gf
from .errors import _check_ceiling, _check_length


@dataclass(frozen=True)
class Mat:
    """A plain k x n matrix over F_q; rows are tuples of ints in [0, q)."""

    field: GF
    n: int
    rows: tuple

    def __str__(self):
        if not self.rows:
            return f"(empty 0x{self.n})"
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


@dataclass(frozen=True)
class Rref:
    """A matrix in row reduced echelon form: the canonical name of its row
    space.  ``pivots`` are the 1-based columns carrying the leading ones.

    An Rref is immutable, so what is derived from its value can be kept on
    it.  Its instance dict holds that memo next to the four fields:
    ``_path``, its Motzkin path, set by :func:`qlattice.psi.psi`;
    ``_ends``, the 1-based column where each row's right-to-left reduction
    ends, set by psi's row pass (:func:`qlattice.psi._row_ends`) on every
    subspace that psi maps or that an insertion or deletion reads;
    ``_primary``, the primary rref of its Boolean block, set by
    :func:`qlattice.decomp.scd_cover` on each cover it returns (never on a
    primary itself); ``_valid``, set by :func:`rref_left` on the rref it
    builds, which is valid by construction from a :class:`Mat` of the
    documented form, so that the readers in :mod:`qlattice.psi` skip
    :func:`is_valid_rref` for it; and, over F_2, ``_bits``, the rows packed
    into ints (bit c - 1 for column c), set by the insertion kernel
    :func:`qlattice.decomp._gf2_ins_col` on each rref it reads or returns,
    so that the next insertion into it packs nothing.  The memo is no
    field: equality, hashing and ``repr`` read the four fields only, so a
    memoised Rref equals its fresh copy.
    This is why Rref keeps its instance dict; a ``__slots__`` or NamedTuple
    rewrite must keep room for the memo.

    ``__init__`` writes the four fields straight into that dict, which
    costs about half of the generated frozen one (one ``object.__setattr__``
    per field); assignment still raises ``FrozenInstanceError``.  Over F_2
    the rows stay tuples; the walk packs its rows in the same bit order
    (:func:`qlattice.psi._row_step`) but keeps them to itself.
    """

    field: GF
    n: int
    rows: tuple
    pivots: tuple

    def __init__(self, field, n, rows, pivots):
        memo = self.__dict__
        memo["field"] = field
        memo["n"] = n
        memo["rows"] = rows
        memo["pivots"] = pivots

    @property
    def dim(self):
        return len(self.rows)

    def __str__(self):
        if not self.rows:
            return f"(zero subspace of F_{self.field.q}^{self.n})"
        return "\n".join(" ".join(str(e) for e in row) for row in self.rows)


class Elimination(NamedTuple):
    """What one forward elimination found, all in input order: ``kept``,
    the 0-based positions of the kept input rows; ``rows``, their reduced
    forms, with leading entry 1 and zero at the pivots of earlier kept rows;
    ``pivots``, the 1-based columns of the leading entries."""

    kept: list
    rows: list
    pivots: list


def _eliminate(field, rows, n):
    """Forward elimination of the rows, top to bottom: each row is reduced
    against the rows kept so far and kept when something is left.  The one
    forward elimination of the library; its row updates and scalings are
    the field's row kernel.  Does not modify its input."""
    sub_scaled = field.sub_scaled
    kept, reduced, pivots = [], [], []
    for idx, row in enumerate(rows):
        r = list(row)
        for pc, pr in zip(pivots, reduced):
            if r[pc]:
                sub_scaled(r, r[pc], pr, pc)
        for pc in range(n):
            if r[pc]:
                break
        else:
            continue
        if r[pc] != 1:
            field.scale(field.inv(r[pc]), r, pc)
        kept.append(idx)
        reduced.append(r)
        pivots.append(pc)
    return Elimination(kept, reduced, [p + 1 for p in pivots])


def rref_left(m):
    """The unique rref with the same row space: the kept rows of the
    forward elimination sorted by pivot, then back-substituted from the last
    pivot up.  Zero rows are discarded; idempotent on rrefs.  The result
    is marked valid in its memo (see :class:`Rref`), so a negative n, or a
    row whose length is not n or with an entry outside [0, q), raises
    ValueError instead."""
    n, q = m.n, m.field.q
    _check_length(n)
    for row in m.rows:
        if len(row) != n or n and not (0 <= min(row) and max(row) < q):
            raise ValueError(f"row {row!r} is not {n} entries in [0, {q})")
    e = _eliminate(m.field, m.rows, n)
    order = sorted(range(len(e.rows)), key=e.pivots.__getitem__)
    rows = [e.rows[i] for i in order]
    pivots = tuple(e.pivots[i] for i in order)
    for i in reversed(range(len(rows))):
        # rows below i are zero at column p; row i is zero at later pivots
        p, prow = pivots[i] - 1, rows[i]
        for r in rows[:i]:
            if r[p]:
                m.field.sub_scaled(r, r[p], prow, p)
    x = Rref(m.field, n, tuple(tuple(r) for r in rows), pivots)
    x.__dict__["_valid"] = True
    return x


def span(field, vectors, n):
    """The subspace spanned by the given row vectors of F_q^n."""
    return rref_left(Mat(field, n, tuple(tuple(v) for v in vectors)))


def zero_subspace(field, n):
    _check_length(n)
    return Rref(field, n, (), ())


def full_space(field, n):
    _check_length(n)
    rows = tuple(tuple(1 if t == i else 0 for t in range(n)) for i in range(n))
    return Rref(field, n, rows, tuple(range(1, n + 1)))


def rank_of(field, rows, n):
    """Rank of the rows; does not modify its input."""
    return len(_eliminate(field, rows, n).kept)


def left_pivots(x):
    """Columns where some vector of the subspace has its first nonzero
    coordinate; equals the pivot set of the rref."""
    return frozenset(x.pivots)


def _reduced(b, row):
    """The row minus its entry at each pivot of the rref b times b's row
    there, as a list: zero at every pivot of b, as b's rows are zero at each
    other's pivots, and zero exactly when the row lies in b."""
    r = list(row)
    for p, brow in zip(b.pivots, b.rows):
        if r[p - 1]:
            b.field.sub_scaled(r, r[p - 1], brow, p - 1)
    return r


def subspace_leq(a, b):
    """Containment a <= b in the subspace lattice: every row of a reduces
    to zero by b (:func:`_reduced`)."""
    if a.field != b.field or a.n != b.n:
        raise ValueError("subspaces live in different ambient spaces")
    return a.dim <= b.dim and not any(any(_reduced(b, row)) for row in a.rows)


def _subspace_counts(q, n):
    """G(0), ..., G(n), the subspace counts of F_q^m, by the two-term
    recurrence G(m+1) = 2 G(m) + (q^m - 1) G(m-1)."""
    _check_length(n)
    prev, cur = 0, 1
    for m in range(n + 1):
        yield cur
        prev, cur = cur, 2 * cur + (q**m - 1) * prev


def subspace_count(q, n):
    """Number of subspaces of F_q^n: the last, and largest, running count."""
    return max(_subspace_counts(q, n))


def _pivot_cells(field, n, max_size, top):
    """Check the ceiling on the subspaces of F_q^n, then yield (pivots,
    per-row choices) for each pivot cell up to dimension ``top``, in
    enumeration order.  Row i reads (1,) at its pivot, (0,) before it and at
    the other pivots, and any element of F_q at each free column after it."""
    _check_ceiling(_subspace_counts(field.q, n), max_size,
                   lambda total: f"F_{field.q}^{n} has {total} subspaces")
    els = tuple(field.elements())
    for k in range(top + 1):
        for pivots in combinations(range(1, n + 1), k):
            yield pivots, [list(product(*(
                (1,) if j == p else (0,) if j < p or j in pivots else els
                for j in range(1, n + 1)))) for p in pivots]


def enumerate_subspaces(field, n, max_size=None):
    """Yield every subspace of F_q^n exactly once, each pivot cell as the
    product of its rows' choices.  Order is fixed: dimension ascending, then
    pivot set lexicographic, then the rows lexicographic (last row fastest,
    and within a row the last free column)."""
    for pivots, choices in _pivot_cells(field, n, max_size, n):
        for rows in product(*choices):
            yield Rref(field, n, rows, pivots)


def is_valid_rref(x):
    """Structural check of the rref conditions: n nonnegative, pivots
    strictly increasing in [1, n], one row of length n per pivot, entries
    in [0, q), each row zero before its pivot and every pivot column the
    unit column of its row.
    :func:`qlattice.psi.psi`, ``classify_column``,
    ``path_from_classification`` and ``is_primary`` run it on a caller's
    Rref that carries neither a path nor the mark of :func:`rref_left` in
    its memo."""
    pivots = list(x.pivots)
    n, k = x.n, len(pivots)
    if n < 0 or pivots != sorted(set(pivots)) or len(x.rows) != k:
        return False
    if pivots and not (1 <= pivots[0] and pivots[-1] <= n):
        return False
    q = x.field.q
    cols = [p - 1 for p in pivots]
    unit = [0] * k
    for i, (row, c) in enumerate(zip(x.rows, cols)):
        if len(row) != n or n and not (0 <= min(row) and max(row) < q):
            return False
        unit[i] = 1
        if any(row[:c]) or [row[t] for t in cols] != unit:
            return False
        unit[i] = 0
    return True


def parse_matrix(text):
    """Parse the matrix text format: a "q n k" header line, then k rows of
    n space-separated integers in [0, q)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    head = lines[0].split()
    if len(head) != 3:
        raise ValueError(f"bad matrix header {lines[0]!r}; expected 'q n k'")
    q, n, k = (int(tok) for tok in head)
    field = gf(q)
    if n < 0:
        raise ValueError(f"bad matrix header {lines[0]!r}; n must be >= 0")
    if len(lines) - 1 != k:
        raise ValueError(f"expected {k} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = tuple(int(tok) for tok in ln.split())
        if len(row) != n:
            raise ValueError(f"row {ln!r} does not have {n} entries")
        if any(not 0 <= e < q for e in row):
            raise ValueError(f"row {ln!r} has entries outside [0, {q})")
        rows.append(row)
    return Mat(field, n, tuple(rows))


def format_matrix(m):
    """Inverse of :func:`parse_matrix`."""
    lines = [f"{m.field.q} {m.n} {len(m.rows)}"]
    lines.extend(" ".join(str(e) for e in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def lexically_first_basis(field, rows, n):
    """1-based indices of the greedy top-to-bottom independent rows: keep a
    row iff it is independent of the rows kept so far."""
    return [i + 1 for i in _eliminate(field, rows, n).kept]


def express_in_rows(field, basis_rows, targets, n):
    """For each target, the coordinates c with sum(c_l * basis_rows[l]) =
    target, or None when the target is outside their span.  The basis rows
    must be linearly independent, so that c is unique; ValueError otherwise.

    One elimination of the rows (basis_l | -e_l): a basis row is dependent
    on those above it exactly when its pivot lands past column n.  Each
    (target | 0) is then reduced by the eliminated rows as
    :func:`_eliminate` reduces a row, which leaves (0 | c) exactly when the
    target lies in the span."""
    s, neg1 = len(basis_rows), field.neg(1)
    e = _eliminate(field, [(*v, *(neg1 if t == l else 0 for t in range(s)))
                           for l, v in enumerate(basis_rows)], n + s)
    if any(p > n for p in e.pivots):
        raise ValueError("the basis rows are linearly dependent")
    found = []
    for target in targets:
        r = [*target, *(0,) * s]
        for pc, pr in zip(e.pivots, e.rows):
            if r[pc - 1]:
                field.sub_scaled(r, r[pc - 1], pr, pc - 1)
        found.append(None if any(r[:n]) else tuple(r[n:]))
    return found
