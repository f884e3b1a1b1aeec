"""Symmetric Boolean and symmetric chain decompositions of the subspace
lattice.

The machinery: a pairing map phi on F_q^s with b . phi(b)^T != -1, which
keeps the rank-one updates I + b^T c invertible; insertion and deletion of
single inessential columns built on it (mutually inverse, containment- and
path-preserving); their multi-column iterates; the Boolean block spanned by
a primary rref; and the chain decomposition obtained by transporting the
bracket-matching chains of a finite Boolean algebra through the insertions.

Insertion and deletion take their guard, the lexically first basis of the
section and every coordinate they need from the one forward elimination
that classifies the column (:func:`qlattice.psi.column_elimination`).
Insertion needs only the row c (I + b^T c)^-1, which by Sherman-Morrison is
the scalar multiple c / (1 + b . c^T); :func:`gamma` and :func:`gamma_inv`
remain as the reference matrices it is tested against.  A block member
ins_set(x, S) is built from the member at S - {min S} by one insertion, the
last step ins_set itself takes, so a block costs one insertion per member
besides its primary; the chain decomposition reads its chains from the same
member maps.

Bracket matching convention: inside the ground set J, an element of I reads
")" and an element of J - I reads "("; adjacent pairs are matched
iteratively.  The chain through I varies the unmatched positions, filling
them from the left, so the covering move turns the leftmost unmatched "("
into a member, and I is a chain top exactly when no unmatched "(" remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .matspace import Mat, Rref, enumerate_subspaces
from .motzkin import MotzkinPath
from .psi import column_elimination, pivot_data, set_and_subset


def mu(field, d, x):
    """The shifted-reciprocal bijection of F_q for d != 0: x -> 1 at x = 0,
    x -> 1 + d/x otherwise.  Satisfies x * mu(d, x) != d for every x."""
    if d == 0:
        raise ValueError("mu requires a nonzero parameter")
    if x == 0:
        return 1
    return field.add(1, field.mul(d, field.inv(x)))


def mu_inv(field, d, y):
    """Inverse of :func:`mu` in its second argument."""
    if d == 0:
        raise ValueError("mu requires a nonzero parameter")
    if y == 1:
        return 0
    return field.mul(d, field.inv(field.sub(y, 1)))


def phi(field, b):
    """The pairing bijection of F_q^n with b . phi(b)^T != -1, computed by
    the coordinate recursion; phi of the empty vector is the empty vector."""
    out = []
    dot = 0
    minus_one = field.neg(1)
    for x in b:
        alpha = field.sub(minus_one, dot)
        y = mu(field, alpha, x)
        out.append(y)
        dot = field.add(dot, field.mul(x, y))
    return tuple(out)


def phi_inv(field, c):
    """Inverse of :func:`phi`."""
    out = []
    dot = 0
    minus_one = field.neg(1)
    for y in c:
        alpha = field.sub(minus_one, dot)
        x = mu_inv(field, alpha, y)
        out.append(x)
        dot = field.add(dot, field.mul(x, y))
    return tuple(out)


def gamma(field, b, c):
    """The rank-one update I + b^T c (b, c row vectors of equal length)."""
    s = len(b)
    rows = tuple(tuple(field.add(1 if i == t else 0, field.mul(b[i], c[t]))
                       for t in range(s)) for i in range(s))
    return Mat(field, s, rows)


def gamma_inv(field, b, c):
    """Inverse of I + b^T c by the Sherman-Morrison formula; raises
    ValueError when b . c^T = -1 (the singular case)."""
    s = len(b)
    dot = 0
    for x, y in zip(b, c):
        dot = field.add(dot, field.mul(x, y))
    denom = field.add(1, dot)
    if denom == 0:
        raise ValueError("rank-one update is singular: b.c^T = -1")
    di = field.inv(denom)
    rows = tuple(tuple(field.sub(1 if i == t else 0,
                                 field.mul(di, field.mul(b[i], c[t])))
                       for t in range(s)) for i in range(s))
    return Mat(field, s, rows)


def _inverse_update_row(field, b, c):
    """The row c (I + b^T c)^-1, computed as c / (1 + b . c^T) without
    forming the matrix; equals c times :func:`gamma_inv` (b, c)."""
    add, mul = field.add, field.mul
    dot = 0
    for x, y in zip(b, c):
        dot = add(dot, mul(x, y))
    scale = field.inv(add(1, dot))
    return [mul(scale, y) for y in c]


def _vec_times_rows(field, vec, rows, width):
    add, mul = field.add, field.mul
    out = [0] * width
    for coef, row in zip(vec, rows):
        if coef:
            for t in range(width):
                out[t] = add(out[t], mul(coef, row[t]))
    return out


def del_col(x, j):
    """Remove the pivotal inessential column j from the rref: the result
    spans a codimension-1 subspace of x with the pivot at j gone and the
    same Motzkin path.  Each row u above the pivot row gains alpha_u .
    phi^-1(c) times it, where c and alpha_u are the coordinates of the pivot
    row's tail and of row u in the section's lexically first basis."""
    cls, m, e = column_elimination(x, j)
    if not (cls.pivotal and not cls.essential):
        raise ValueError(
            f"column {j} is not pivotal and inessential; cannot delete")
    f = x.field
    b = phi_inv(f, e.coefficients(m - 1))
    add, mul = f.add, f.mul
    rows = [list(r) for r in x.rows]
    prow = rows.pop(m - 1)
    for u, rl in enumerate(rows[:m - 1]):
        dl = 0
        for coef, bv in zip(e.coefficients(u), b):
            dl = add(dl, mul(coef, bv))
        if dl:
            for t in range(j - 1, x.n):
                rl[t] = add(rl[t], mul(dl, prow[t]))
    return Rref(f, x.n, tuple(tuple(r) for r in rows),
                x.pivots[:m - 1] + x.pivots[m:])


def ins_col(x, j):
    """Insert a pivot at the nonpivotal inessential column j: the result
    contains x with dimension one higher and the same Motzkin path.  Inverse
    of :func:`del_col` at j.

    The new pivot row carries u . basis for the section's lexically first
    basis, where u = c (I + b^T c)^-1 for the column-j entries b of the
    basis rows and c = phi(b); u is the scalar multiple c / (1 + b . c^T),
    which phi keeps defined."""
    cls, m, e = column_elimination(x, j)
    if cls.pivotal or cls.essential:
        raise ValueError(
            f"column {j} is not nonpivotal and inessential; cannot insert")
    f = x.field
    n = x.n
    basis = [x.rows[i][j:] for i in e.kept]
    b = tuple(x.rows[i][j - 1] for i in e.kept)
    u = _inverse_update_row(f, b, phi(f, b))
    a = _vec_times_rows(f, u, basis, n - j)
    newrow = [0] * n
    newrow[j - 1] = 1
    newrow[j:] = a
    sub, mul = f.sub, f.mul
    rows = [list(r) for r in x.rows]
    for rl in rows[:m]:
        dl = rl[j - 1]
        if dl:
            rl[j - 1] = 0
            for t in range(j, n):
                rl[t] = sub(rl[t], mul(dl, a[t - j]))
    rows.insert(m, newrow)
    pivots = tuple(sorted(x.pivots + (j,)))
    return Rref(f, n, tuple(tuple(r) for r in rows), pivots)


def del_set(x, cols):
    """Delete several pivotal inessential columns, in increasing order."""
    for j in sorted(cols):
        x = del_col(x, j)
    return x


def ins_set(x, cols):
    """Insert several nonpivotal inessential columns, in decreasing order."""
    for j in sorted(cols, reverse=True):
        x = ins_col(x, j)
    return x


@dataclass
class BooleanBlock:
    """The family of subspaces obtained from one primary rref by inserting
    every subset of its inessential columns; order-isomorphic to the subset
    lattice of the ground set, with ranks symmetric about n/2."""

    primary: Rref
    path: MotzkinPath
    ground: tuple
    members: dict  # frozenset of columns -> Rref

    @property
    def size(self):
        return len(self.members)

    @property
    def min_rank(self):
        return self.primary.dim

    @property
    def max_rank(self):
        return self.primary.dim + len(self.ground)


def _block_members(x, ground):
    """{S: ins_set(x, S)} over the subsets S of the sorted ground set, by
    size and then lexicographically.  Each member is one insertion of min S
    into the member at S - {min S}, which is the last step of ins_set."""
    members = {frozenset(): x}
    for size in range(1, len(ground) + 1):
        for cols in combinations(ground, size):
            members[frozenset(cols)] = ins_col(
                members[frozenset(cols[1:])], cols[0])
    return members


def boolean_block(x):
    """Build the block of the primary rref x from one pass over its pivot
    sets; raises ValueError when x has an inessential pivot.  The members
    are built incrementally, one insertion each."""
    path, ground, inl_pivots = pivot_data(x)
    if inl_pivots:
        raise ValueError("boolean_block requires a primary rref")
    ground = tuple(sorted(ground))
    return BooleanBlock(x, path, ground, _block_members(x, ground))


def sbd(field, n, max_size=None):
    """The symmetric Boolean decomposition of the subspace lattice of
    F_q^n: one block per primary rref, in enumeration order."""
    return [boolean_block(x) for x in enumerate_subspaces(field, n, max_size)
            if not pivot_data(x).inessential_pivots]


def _bracket_scan(ground, members):
    """Unmatched positions of the bracket word of ``members`` inside the
    sorted ground set: (unmatched ')' positions, unmatched '(' positions),
    both increasing, the former all before the latter."""
    close, stack = [], []
    for pos in ground:
        if pos in members:
            if stack:
                stack.pop()
            else:
                close.append(pos)
        else:
            stack.append(pos)
    return close, stack


def bracket_cover(ground, members):
    """The element whose insertion covers ``members`` inside the
    bracket-matching chain decomposition of the subsets of ``ground``, or
    None when ``members`` is a chain top."""
    ground = sorted(ground)
    members = frozenset(members)
    if not members <= set(ground):
        raise ValueError("members must be a subset of the ground set")
    _, stack = _bracket_scan(ground, members)
    return stack[0] if stack else None


def bracket_chain(ground, members):
    """The full symmetric chain through ``members``: matched elements stay
    fixed while the unmatched positions fill from the left."""
    ground = sorted(ground)
    members = frozenset(members)
    close, stack = _bracket_scan(ground, members)
    fixed = members - set(close)
    slots = close + stack
    return [frozenset(fixed | set(slots[:t])) for t in range(len(slots) + 1)]


def bracket_chains(ground):
    """All chains of the bracket-matching decomposition of the subsets of
    ``ground``, each listed from its minimum; the chains partition the
    subset lattice."""
    ground = sorted(ground)
    chains = []
    for size in range(len(ground) + 1):
        for cols in combinations(ground, size):
            members = frozenset(cols)
            close, _ = _bracket_scan(ground, members)
            if not close:  # chain minimum
                chains.append(bracket_chain(ground, members))
    return chains


def scd_cover(x):
    """The subspace covering x in the chain decomposition, or None when x
    tops its chain.

    Reads the pivotal data of x, finds the covering move of its inessential
    pivot set inside the bracket chains of its inessential columns, and
    realizes it by deleting the pivotal inessential columns and reinserting
    them together with the new one.
    """
    ground, inl_pivots = set_and_subset(x)
    j = bracket_cover(sorted(ground), inl_pivots)
    if j is None:
        return None
    return ins_set(del_set(x, inl_pivots), sorted(inl_pivots | {j}))


@dataclass
class ChainDecomposition:
    """A partition of the subspace lattice into symmetric saturated chains,
    each listed from its minimum."""

    field: object
    n: int
    chains: list

    @property
    def size(self):
        return sum(len(c) for c in self.chains)


def scd(field, n, max_size=None):
    """The symmetric chain decomposition of the subspace lattice of F_q^n,
    obtained by transporting the bracket chains of every Boolean block
    through the insertion maps: each chain member at the set S is the block
    member ins_set(primary, S), read from the block's incrementally built
    member map."""
    chains = []
    for x in enumerate_subspaces(field, n, max_size):
        _, ground, inl_pivots = pivot_data(x)
        if inl_pivots:
            continue
        ground = sorted(ground)
        members = _block_members(x, ground)
        chains.extend([members[cols] for cols in sets]
                      for sets in bracket_chains(ground))
    return ChainDecomposition(field, n, chains)
