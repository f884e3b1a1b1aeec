"""Matrices over F_q, one elimination kernel, canonical subspaces, enumeration.

A subspace of F_q^n is represented by the unique row reduced echelon form of
any spanning matrix, so equality of subspaces is structural equality of
:class:`Rref` values.  Column indices are 1-based throughout; the zero
subspace is the 0 x n empty rref.

Every row reduction is one forward pass, :func:`_eliminate`; the rref, the
rank, the lexically first basis and coordinates are read from it.
Containment in a subspace needs no elimination: :func:`subspace_leq` reduces
each row against the rows of the given rref, which are already reduced.

The subspaces with a fixed pivot set form one cell, and each row of a cell
varies on its own, so :func:`enumerate_subspaces` lists a cell as the product
of its rows' alphabets.  The order is dimension, then pivot set, then rows
lexicographic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple

from .algebra import GF, gf
from .errors import _check_ceiling


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
    """

    field: GF
    n: int
    rows: tuple
    pivots: tuple

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
    ``pivots``, the 1-based columns of the leading entries; ``steps``, per
    input row, the pairs (k, c) of every nonzero multiple c of reduced row k
    subtracted from it; ``scales``, per kept row, the inverse of its leading
    entry."""

    field: GF
    kept: list
    rows: list
    pivots: list
    steps: list
    scales: list

    def coefficients(self, i):
        """Coefficients over the kept input rows that give input row i, a
        unit vector for a kept row.  With row i = sum(d_k reduced_k) and
        reduced_k = s_k (input_k - sum(e_kt reduced_t)), t < k, taking k
        from last to first, input_k gets d_k s_k and d_t -= d_k s_k e_kt."""
        d = [0] * len(self.kept)
        if i in self.kept:
            d[self.kept.index(i)] = 1
            return tuple(d)
        for k, c in self.steps[i]:
            d[k] = c
        mul, sub = self.field.mul, self.field.sub
        for k in reversed(range(len(d))):
            a = d[k] = mul(d[k], self.scales[k])
            if a:
                for t, e in self.steps[self.kept[k]]:
                    d[t] = sub(d[t], mul(a, e))
        return tuple(d)


def _eliminate(field, rows, n):
    """Forward elimination of the rows, top to bottom: each row is reduced
    against the rows kept so far and kept when something is left.  The one
    row-reduction loop of the library; does not modify its input."""
    mul, sub, inv = field.mul, field.sub, field.inv
    kept, reduced, pivots, steps, scales = [], [], [], [], []
    for idx, row in enumerate(rows):
        r = list(row)
        step = []
        for k, pc in enumerate(pivots):
            c = r[pc]
            if c:
                step.append((k, c))
                pr = reduced[k]
                for t in range(pc, n):
                    r[t] = sub(r[t], mul(c, pr[t]))
        steps.append(step)
        for pc in range(n):
            if r[pc]:
                break
        else:
            continue
        ai = 1 if r[pc] == 1 else inv(r[pc])
        if ai != 1:
            for t in range(pc, n):
                r[t] = mul(ai, r[t])
        kept.append(idx)
        reduced.append(r)
        pivots.append(pc)
        scales.append(ai)
    return Elimination(field, kept, reduced, [p + 1 for p in pivots], steps,
                       scales)


def rref_left(m):
    """The unique rref with the same row space: the kept rows of the
    forward elimination sorted by pivot, then back-substituted from the last
    pivot up.  Zero rows are discarded; idempotent on rrefs."""
    e = _eliminate(m.field, m.rows, m.n)
    order = sorted(range(len(e.rows)), key=e.pivots.__getitem__)
    rows = [e.rows[i] for i in order]
    pivots = tuple(e.pivots[i] for i in order)
    sub, mul = m.field.sub, m.field.mul
    for i in reversed(range(len(rows))):
        # rows below i are zero at column p; row i is zero at later pivots
        p, prow = pivots[i] - 1, rows[i]
        for r in rows[:i]:
            c = r[p]
            if c:
                for t in range(p, m.n):
                    r[t] = sub(r[t], mul(c, prow[t]))
    return Rref(m.field, m.n, tuple(tuple(r) for r in rows), pivots)


def span(field, vectors, n):
    """The subspace spanned by the given row vectors of F_q^n."""
    return rref_left(Mat(field, n, tuple(tuple(v) for v in vectors)))


def zero_subspace(field, n):
    return Rref(field, n, (), ())


def full_space(field, n):
    rows = tuple(tuple(1 if t == i else 0 for t in range(n)) for i in range(n))
    return Rref(field, n, rows, tuple(range(1, n + 1)))


def rank_of(field, rows, n):
    """Rank of the rows; does not modify its input."""
    return len(_eliminate(field, rows, n).kept)


def left_pivots(x):
    """Columns where some vector of the subspace has its first nonzero
    coordinate; equals the pivot set of the rref."""
    return frozenset(x.pivots)


def right_pivots(x):
    """Columns where some vector of the subspace has its last nonzero
    coordinate; computed by mirror-image (right-to-left) elimination."""
    rev = [row[::-1] for row in x.rows]
    return frozenset(x.n + 1 - p
                     for p in _eliminate(x.field, rev, x.n).pivots)


def subspace_leq(a, b):
    """Containment a <= b in the subspace lattice.  The rows of the rref b
    are zero at each other's pivots, so a row v of a lies in b exactly when
    v - sum(v[p_i] b_i) over the pivots p_i of b is zero."""
    if a.field != b.field or a.n != b.n:
        raise ValueError("subspaces live in different ambient spaces")
    if a.dim > b.dim:
        return False
    sub, mul = b.field.sub, b.field.mul
    for row in a.rows:
        r = list(row)
        for p, brow in zip(b.pivots, b.rows):
            c = r[p - 1]
            if c:
                for t in range(p - 1, b.n):
                    r[t] = sub(r[t], mul(c, brow[t]))
        if any(r):
            return False
    return True


def subspace_count(q, n):
    """Number of subspaces of F_q^n, by the two-term recurrence
    G(m+1) = 2 G(m) + (q^m - 1) G(m-1)."""
    if n == 0:
        return 1
    prev, cur = 1, 2
    for m in range(1, n):
        prev, cur = cur, 2 * cur + (q**m - 1) * prev
    return cur


def enumerate_subspaces(field, n, max_size=None):
    """Yield every subspace of F_q^n exactly once.

    The subspaces with pivot set L form one cell, the product of its rows'
    alphabets: row i reads (1,) at its pivot, (0,) before it and at the other
    pivots, and every element of F_q at each free column after it.  Order is
    fixed: dimension ascending, then pivot set lexicographic, then the rows
    lexicographic (last row fastest, and within a row the last free column).
    """
    total = subspace_count(field.q, n)
    _check_ceiling(total, max_size, f"F_{field.q}^{n} has {total} subspaces")
    els = tuple(field.elements())
    for k in range(n + 1):
        for pivots in combinations(range(1, n + 1), k):
            row_choices = [product(*(
                (1,) if j == p else (0,) if j < p or j in pivots else els
                for j in range(1, n + 1))) for p in pivots]
            for rows in product(*row_choices):
                yield Rref(field, n, rows, pivots)


def is_valid_rref(x):
    """Structural check of the rref conditions; used by tests."""
    if list(x.pivots) != sorted(set(x.pivots)):
        return False
    if len(x.rows) != len(x.pivots):
        return False
    for i, (row, p) in enumerate(zip(x.rows, x.pivots)):
        if len(row) != x.n or any(not 0 <= e < x.field.q for e in row):
            return False
        if any(row[t] for t in range(p - 1)) or row[p - 1] != 1:
            return False
        for ii in range(len(x.rows)):
            if x.rows[ii][p - 1] != (1 if ii == i else 0):
                return False
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


def express_in_rows(field, basis_rows, target, n):
    """Coefficients c with sum(c_l * basis_rows[l]) = target, or None.

    The basis rows must be linearly independent; the coefficients are then
    unique.
    """
    s = len(basis_rows)
    e = _eliminate(field, tuple(basis_rows) + (tuple(target),), n)
    return None if s in e.kept else e.coefficients(s)
