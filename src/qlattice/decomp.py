"""Symmetric Boolean and symmetric chain decompositions of the subspace
lattice.

The machinery: a pairing map phi on F_q^s with b . phi(b)^T != -1, which
keeps the rank-one updates I + b^T c invertible; insertion and deletion of
single inessential columns built on it (mutually inverse, containment- and
path-preserving); their multi-column iterates; the Boolean block spanned by
a primary rref; and the chain decomposition obtained by transporting the
bracket-matching chains of a finite Boolean algebra through the insertions.

Deletion, and insertion over every field but F_2, read their guard and
the lexically first basis of the section off the rows' ends: the one row
pass :func:`qlattice.psi._row_ends`, which :func:`qlattice.psi.psi` also
runs, kept in the Rref's memo for every later insertion or deletion, with
no elimination of the section.  Deletion reads the coordinates of all the
section rows in that basis from one call of
:func:`qlattice.matspace.express_in_rows`.
Insertion needs only the row c (I + b^T c)^-1 for the column-j entries b
of the basis rows and c = phi(b), which by Sherman-Morrison is
c / (1 + b . c^T).  phi keeps its running dot at l - 1, l the last nonzero
entry of b seen so far (1 before any): at a nonzero x the dot gains
x mu(-l, x) = x - l and moves to x - 1.
So 1 + b . phi(b)^T is the last nonzero entry of b, or 1 when b = 0, and
the row is phi(b) divided by it; :func:`gamma_inv` remains as the
reference matrix it is tested against.  Over F_2 that entry is 1 and phi(b)
is the complement of b (mu(1, x) is 1 + x), so the new row is e_j plus the
XOR of the tails of the basis rows whose column-j entry is 0.
:func:`ins_col` is one bit kernel for q = 2, :func:`_gf2_ins_col`, in
the style of M4RI (Albrecht, Bard and Hart, ACM TOMS 2010), carried along
the chain: every row is an int in the walk's bit order, kept in the
Rref's memo as ``_bits`` and packed only for a subspace that comes without
it, such as a block's primary.  psi's F_2 row step over the section gives
the guard and the new row, which is XORed into the rows above j, with no
field operation, no phi and no :func:`qlattice.matspace._eliminate`; the
result carries its packed rows, so the next insertion into it reads ints.  On
every other field an insertion is the general row builder,
:func:`_general_row`, and then the one rank-one merge, :func:`_with_row`,
which takes the row unreduced; that route is valid at q = 2 too and is the
reference the kernel is tested against.  Deletion takes the general route
at every q.  Each row update in the general insertion, deletion and the
merge is one call of the field's row kernel, ``GF.sub_scaled``, where
entries meet.

The chains of a block are the bracket chains of its ground set (Greene and
Kleitman, JCTA 1976), built by the recursion of de Bruijn, van Ebbenhorst
Tengbergen and Kruyswijk (1951) on the least ground column g
(:func:`_chains`): each chain over the rest of the ground set gives one
chain through g and, when it is longer than one, one chain without its
minimum.  The member at the set S is one insertion of min S into the member
at S - {min S}, the last step ins_set itself takes, so a block costs one
insertion per member besides its primary.  A primary is a subspace whose
dimension equals the down count of its path, that is one with no column in
L & R, and its ground set is the H steps of that path.  Both decompositions
take each block's primary and path from the walk
:func:`qlattice.psi.subspaces_with_paths` with the non-primaries pruned, in
:func:`sbd_blocks`, which :func:`scd_chains` reads.  A block's chains depend
on its primary and path alone, so both yield the decompositions one block
at a time; :func:`sbd` and :func:`scd` list them.

A block is a Boolean sublattice: its member at S is p + span(v_g : g in
S), v_g the row that ins_col(p, g) puts into p.  So a cover step,
:func:`scd_cover`, is x = ins_set(p, I) plus v_j, reduced by x and merged
by :func:`_with_row`: one insertion.  p and the path are handed on in the
cover's memo (see :class:`qlattice.matspace.Rref`), and deletion finds p
only for a subspace that carries no memo, at the first step of a chain.
Either way p keeps its row ends from its first insertion on, so no later
step of the chain runs a row pass or eliminates anything.
Every step scans the bracket word, unchecked over the ground set its path
keeps, in :func:`_bracket_scan`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .algebra import gf
from .matspace import Mat, Rref, _reduced, express_in_rows, left_pivots
from .motzkin import MotzkinPath
from .psi import _row_ends, _row_step, psi, subspaces_with_paths


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
    return _pairing(field, b, mu)


def phi_inv(field, c):
    """Inverse of :func:`phi`."""
    return _pairing(field, c, mu_inv)


def _pairing(field, v, step):
    """The recursion of :func:`phi` (``step`` mu) and :func:`phi_inv`
    (mu_inv): each coordinate is ``step`` at -1 minus the dot so far."""
    out, dot, minus_one = [], 0, field.neg(1)
    for x in v:
        y = step(field, field.sub(minus_one, dot), x)
        out.append(y)
        dot = field.add(dot, field.mul(x, y))
    return tuple(out)


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


def del_col(x, j):
    """Remove the pivotal inessential column j from the rref: the result
    spans a codimension-1 subspace of x with the pivot at j gone and the
    same Motzkin path.  Each row u above the pivot row gains alpha_u .
    phi^-1(c) times it, where c and alpha_u are the coordinates of the pivot
    row's tail and of row u's tail in the section's lexically first basis,
    all from one call of :func:`express_in_rows`.  j is deletable when it
    is the m-th pivot and the m-th row ends there (see :func:`_section`)."""
    ends, kept = _section(x, j)
    m = bisect_right(x.pivots, j)
    if not (m and x.pivots[m - 1] == j and ends[m - 1] == j):
        raise ValueError(
            f"column {j} is not pivotal and inessential; cannot delete")
    f = x.field
    tails = [row[j:] for row in x.rows[:m]]
    *alphas, c = express_in_rows(f, [tails[i] for i in kept], tails, x.n - j)
    b = phi_inv(f, c)
    rows = [list(r) for r in x.rows]
    prow = rows.pop(m - 1)
    for rl, alpha in zip(rows, alphas):
        dl = 0  # minus alpha_u . b
        for coef, bv in zip(alpha, b):
            dl = f.sub(dl, f.mul(coef, bv))
        if dl:
            f.sub_scaled(rl, dl, prow, j - 1)
    return Rref(f, x.n, tuple(tuple(r) for r in rows),
                x.pivots[:m - 1] + x.pivots[m:])


def ins_col(x, j):
    """Insert a pivot at the nonpivotal inessential column j: the result
    contains x with dimension one higher and the same Motzkin path.  Inverse
    of :func:`del_col` at j: the bit kernel :func:`_gf2_ins_col` over F_2,
    else the new row of :func:`_general_row` merged into x by
    :func:`_with_row`."""
    if x.field.q == 2:
        return _gf2_ins_col(x, j)
    return _with_row(x, j, _general_row(x, j))


def _not_insertable(j):
    return ValueError(
        f"column {j} is not nonpivotal and inessential; cannot insert")


def _section(x, j):
    """(ends, kept) at column j of x, 1 <= j <= n: the rows' ends, which
    hold the guards (:func:`qlattice.psi._row_ends`), and the section's
    lexically first basis, the rows with pivot before j and end after j."""
    if not 1 <= j <= x.n:
        raise ValueError(f"column {j} outside [1, {x.n}]")
    ends = _row_ends(x)
    return ends, [i for i, p in enumerate(x.pivots) if p < j < ends[i]]


def _general_row(x, j):
    """The new row of :func:`ins_col` over any field: e_j plus u . basis on
    the tail, for the section's lexically first basis, where u is
    c (I + b^T c)^-1 for the column-j entries b of the basis rows and
    c = phi(b), that is phi(b) over the last nonzero entry of b (1 when
    b = 0; see the module docstring).  Like the basis rows, it is zero at
    every later pivot of x.  j is insertable when it is neither a left
    pivot nor a row's end (see :func:`_section`)."""
    ends, kept = _section(x, j)
    if j in x.pivots or j in ends:
        raise _not_insertable(j)
    f = x.field
    basis = [x.rows[i][j:] for i in kept]
    b = tuple(x.rows[i][j - 1] for i in kept)
    minus_scale = f.neg(f.inv(next((v for v in reversed(b) if v), 1)))
    a = [0] * (x.n - j)
    for coef, row in zip(phi(f, b), basis):
        if coef:
            f.sub_scaled(a, f.mul(minus_scale, coef), row)
    return (0,) * (j - 1) + (1,) + tuple(a)


def _with_row(x, j, v):
    """The module's one rank-one merge: the rref of x + span(v), for a row
    tuple v with its leading 1 at the nonpivotal column j and zero at every
    pivot of x.  Each row above column j is cleared there by v, v goes in at
    its pivot's place, and every row below is kept."""
    m = bisect_right(x.pivots, j)
    rows = list(x.rows)
    for i, row in enumerate(rows[:m]):
        if row[j - 1]:
            rl = list(row)
            x.field.sub_scaled(rl, row[j - 1], v, j - 1)
            rows[i] = tuple(rl)
    rows.insert(m, v)
    return Rref(x.field, x.n, tuple(rows), x.pivots[:m] + (j,) + x.pivots[m:])


#: The F_2 row step of :func:`qlattice.psi._row_step`, shared with the walk.
_encode, _right_pivot = _row_step(gf(2))

#: Maps the text digits of a binary numeral to the bytes 0 and 1.
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")


@lru_cache(maxsize=4096)
def _unpacked(v):
    """The row tuple of a packed row behind a sentinel bit, 1 << n | row:
    the binary digits of v below its leading 1, lowest bit first.  Bounded,
    so it holds every row up to n = 11 and evicts beyond."""
    return tuple(format(v, "b")[:0:-1].encode().translate(_BIT_BYTES))


def _gf2_ins_col(x, j):
    """:func:`ins_col` over F_2 as one bit kernel on the rows packed into
    ints by psi's F_2 row step, bit c - 1 for column c, kept in the memo
    key ``_bits`` (see :class:`qlattice.matspace.Rref`): x's packed rows are
    read from there, or packed once, and the result carries its own, so the
    next insertion into it packs nothing.

    The guard and the section's lexically first basis come from that row
    step, ``right_pivot``, run over each row above column j masked to
    column j and its tail: a row that ends at column j puts a pivot on it,
    which is then essential; a row that ends past j is a basis row; a row
    that reduces to zero is dependent.  The new row is e_j plus the XOR of
    the tails of the basis rows whose column-j bit is 0 (see the module
    docstring).  It is zero at every pivot of x, so it is XORed into each
    row above j whose column-j bit is set, as :func:`_with_row` merges it,
    and goes in at its pivot's place."""
    n = x.n
    if not 1 <= j <= n:
        raise ValueError(f"column {j} outside [1, {n}]")
    pivots = x.pivots
    m = bisect_right(pivots, j)
    if m and pivots[m - 1] == j:
        raise _not_insertable(j)
    memo = x.__dict__
    bits = memo.get("_bits")
    if bits is None:
        bits = memo["_bits"] = tuple(map(_encode, x.rows))
    jbit = 1 << j - 1
    # Slot n stays None: a row that reduces to 0 reads it at t = -1.
    carried = [None] * (n + 1)
    a = jbit
    for v in bits[:m]:
        v &= -jbit
        t, r = _right_pivot(carried, v)
        if t >= j:
            carried[t] = r
            if not v & jbit:
                a ^= v
        elif t == j - 1:
            raise _not_insertable(j)
    sentinel = 1 << n
    rows, packed = list(x.rows), list(bits)
    for i in range(m):
        v = bits[i]
        if v & jbit:
            packed[i] = v = v ^ a
            rows[i] = _unpacked(sentinel | v)
    rows.insert(m, _unpacked(sentinel | a))
    packed.insert(m, a)
    y = Rref(x.field, n, tuple(rows), pivots[:m] + (j,) + pivots[m:])
    y.__dict__["_bits"] = tuple(packed)
    return y


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
    lattice of the ground set, with ranks symmetric about n/2.  The members
    are built on first read; the size and the rank window follow from the
    primary and its path alone."""

    primary: Rref
    path: MotzkinPath

    @property
    def ground(self):
        """The inessential columns: the H steps of the path."""
        return self.path.horizontals

    @cached_property
    def members(self):
        """frozenset of columns -> Rref, ins_set(primary, S) for every
        subset S of the ground set, by size and then lexicographically: the
        members of the block's bracket chains (see :func:`_chains`)."""
        ground = frozenset(self.ground)
        chains = _chains(self.primary, self.ground, ins_col)
        return {ground.intersection(y.pivots): y for y in
                sorted((y for chain in chains for y in chain),
                       key=lambda y: (y.dim, y.pivots))}

    @property
    def size(self):
        return 2 ** len(self.ground)

    @property
    def min_rank(self):
        return self.primary.dim

    @property
    def max_rank(self):
        return self.primary.dim + len(self.ground)


def boolean_block(x):
    """The block of the primary rref x, from one pass over its pivot sets;
    raises ValueError when x is not a valid rref (checked by :func:`psi`)
    or not primary, that is when its dimension differs from the down count
    of its path."""
    path = psi(x)
    if path.down_count != x.dim:
        raise ValueError("boolean_block requires a primary rref")
    return BooleanBlock(x, path)


def sbd_blocks(field, n, max_size=None):
    """The blocks of :func:`sbd` one at a time, in enumeration order: a
    block is its primary and path, so none is kept once it is yielded."""
    for x, path in subspaces_with_paths(field, n, max_size,
                                        primary_only=True):
        yield BooleanBlock(x, path)


def sbd(field, n, max_size=None):
    """The symmetric Boolean decomposition of the subspace lattice of
    F_q^n: one block per primary rref, in enumeration order."""
    return list(sbd_blocks(field, n, max_size))


def _chains(bottom, ground, insert):
    """The bracket chains over the increasing ``ground``, each from its
    minimum, in the recursion's order: ``bottom`` is the member at the empty
    set and ``insert(a, g)`` the member at A + {g} from the member a at A,
    g < min A.  A chain A_0 < ... < A_r over the ground above g gives
    A_0 < A_0+g < ... < A_r+g and, when r > 0, A_1 < ... < A_r."""
    chains = [[bottom]]
    for g in reversed(ground):
        grown = []
        for chain in chains:
            grown.append([chain[0], *(insert(a, g) for a in chain)])
            if len(chain) > 1:
                grown.append(chain[1:])
        chains = grown
    return chains


def _sorted_ground(ground):
    """The ground set, increasing and as a set; ValueError on a repeat."""
    ground = sorted(ground)
    elements = set(ground)
    if len(elements) != len(ground):
        raise ValueError(f"ground set {ground} has a repeated element")
    return ground, elements


def bracket_cover(ground, members):
    """The element whose insertion covers ``members`` inside the
    bracket-matching chain decomposition of the subsets of ``ground``, or
    None when ``members`` is a chain top: the leftmost unmatched "(" of the
    word over the sorted ground set where a member reads ")" and any other
    element "(", with adjacent pairs matched iteratively."""
    ground, elements = _sorted_ground(ground)
    members = frozenset(members)
    if not members <= elements:
        raise ValueError("members must be a subset of the ground set")
    return _bracket_scan(ground, members)


def _bracket_scan(ground, members):
    """:func:`bracket_cover` over a sorted, unique ground set, unchecked."""
    unmatched = []
    for pos in ground:
        if pos not in members:
            unmatched.append(pos)
        elif unmatched:
            unmatched.pop()
    return unmatched[0] if unmatched else None


def bracket_chains(ground):
    """All chains of the bracket-matching decomposition of the subsets of
    ``ground``, each listed from its minimum, the minima by size and then
    lexicographically; the chains partition the subset lattice."""
    ground, _ = _sorted_ground(ground)
    chains = _chains(frozenset(), ground, lambda a, g: a | {g})
    return sorted(chains, key=lambda chain: (len(chain[0]), sorted(chain[0])))


def scd_cover(x):
    """The subspace covering x in the chain decomposition, or None when x
    tops its chain.

    x is ins_set(p, I) for the primary p of its block and its inessential
    pivot set I, and its path P is the path of p.  The covering move adds
    the column j that the bracket chains of the ground set (the H steps of
    P) give for I, and the cover is ins_set(p, I + {j}), which contains x
    with one dimension more.  The block is a Boolean sublattice (see the
    module docstring), so the cover is x plus the row v_j that ins_col(p, j)
    puts into p, reduced by x (it can be nonzero at the pivots of I) and
    merged by :func:`_with_row`.  A chain stays in its block, so the cover
    is returned with p and P in its memo, and the next step up costs one
    insertion and one merge, with no deletion and no row pass: p keeps the
    row ends its first insertion read.  Only an x without that memo has p
    found by deleting I from it.
    """
    path = psi(x)
    ground = path.horizontals
    inl_pivots = left_pivots(x).intersection(ground)
    j = _bracket_scan(ground, inl_pivots)
    if j is None:
        return None
    p = x.__dict__.get("_primary")
    if p is None:
        p = del_set(x, inl_pivots)
    v = ins_col(p, j).rows[bisect_right(p.pivots, j)]
    y = _with_row(x, j, tuple(_reduced(x, v)))
    y.__dict__.update(_path=path, _primary=p)
    return y


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


def scd_chains(field, n, max_size=None):
    """The chains of :func:`scd` one block at a time, the blocks of
    :func:`sbd_blocks` in its order: :func:`_chains` builds a block's chains
    from its primary, and they are yielded with their minima by size and
    then lexicographically, that is by dimension and then pivots."""
    for block in sbd_blocks(field, n, max_size):
        yield from sorted(_chains(block.primary, block.ground, ins_col),
                          key=lambda chain: (chain[0].dim, chain[0].pivots))


def scd(field, n, max_size=None):
    """The symmetric chain decomposition of the subspace lattice of F_q^n,
    obtained by transporting the bracket chains of every Boolean block
    through the insertion maps: the chains of :func:`scd_chains`."""
    return ChainDecomposition(field, n, list(scd_chains(field, n, max_size)))
