"""Shared test references: the path-by-path reference for the weight sums
by down count, the full Gauss-Jordan reference for the forward elimination
kernel, the rank-one update matrix behind insertion, the primaries built
cell by cell from involutions, and a seeded uniform sampler of subspaces
with the Hypothesis strategy built on it.  The two worked rref families live
in qlattice.acceptance, which checks them in c10 and c11."""

import random
from functools import lru_cache
from itertools import combinations, product

from hypothesis import strategies as st

from qlattice import (Mat, QPoly, Rref, biane_fiber, enumerate_paths, gf,
                      rref_left)

#: Every field the library supports.
ALL_FIELDS = (2, 3, 4, 5, 7, 8, 9)


def weight_sums_by_enumeration(n):
    """Sum of p.weight() over every path of length n, grouped by down
    count: the reference for motzkin.weight_sums_by_downs."""
    sums = [QPoly.zero()] * (n // 2 + 1)
    for p in enumerate_paths(n):
        sums[p.down_count] = sums[p.down_count] + p.weight()
    return sums


def gauss_jordan(field, rows, n):
    """Full Gauss-Jordan elimination, column by column with row swaps:
    (reduced nonzero rows, 1-based pivots).  The reference that
    matspace._eliminate and rref_left are checked against."""
    mul, sub, inv = field.mul, field.sub, field.inv
    work = [list(r) for r in rows]
    k = len(work)
    pivots = []
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, k):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        a = prow[col]
        if a != 1:
            ai = inv(a)
            for t in range(col, n):
                prow[t] = mul(ai, prow[t])
        for i in range(k):
            if i != rank and work[i][col]:
                fctr = work[i][col]
                wrow = work[i]
                for t in range(col, n):
                    wrow[t] = sub(wrow[t], mul(fctr, prow[t]))
        pivots.append(col + 1)
        rank += 1
        if rank == k:
            break
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)


def gamma(field, b, c):
    """The rank-one update I + b^T c (b, c row vectors of equal length):
    the matrix that decomp.gamma_inv inverts."""
    s = len(b)
    rows = tuple(tuple(field.add(1 if i == t else 0, field.mul(b[i], c[t]))
                       for t in range(s)) for i in range(s))
    return Mat(field, s, rows)


def primary_cell(field, d):
    """The primaries paired by the involution d, one per element of a
    product of row alphabets: the row of a 2-cycle (i, j) has 1 at j, a
    nonzero entry at i, a free entry strictly between them except at the
    trailing columns of the 2-cycles nested inside (i, j), and 0 elsewhere.
    Each element is brought to its rref; no pivot set is read."""
    n = d.n
    units, els = tuple(field.units()), tuple(field.elements())
    alphabets = []
    for i, j in d.cycles:
        nested = {l for k, l in d.cycles if i < k and l < j}
        alphabets.append(product(*(
            (1,) if c == j else units if c == i
            else els if i < c < j and c not in nested else (0,)
            for c in range(1, n + 1))))
    for rows in product(*alphabets):
        yield rref_left(Mat(field, n, rows))


def primaries_by_cells(field, n):
    """(primary, path) for every path P of length n and every involution d
    over P, the cells of the d in enumerate_paths and biane_fiber order: an
    independent route to the primaries that runs no pivot pass."""
    for p in enumerate_paths(n):
        for d in biane_fiber(p):
            for x in primary_cell(field, d):
                yield x, p


def _weighted(rng, items, weights):
    """items[i] with probability weights[i] / sum(weights), exactly."""
    r = rng.randrange(sum(weights))
    for item, w in zip(items, weights):
        if r < w:
            return item
        r -= w
    raise AssertionError("unreachable")


@lru_cache(maxsize=None)
def _pivot_sets(q, n, k):
    """The k-subsets of [n], each with weight q^(free entries): the
    nonpivot columns right of each pivot.  The weights sum to [n k]_q.
    The enumerating reference for :func:`_pivot_set`."""
    sets = tuple(combinations(range(1, n + 1), k))
    return sets, tuple(q ** sum(n - p - (k - i) for i, p in enumerate(s, 1))
                       for s in sets)


@lru_cache(maxsize=None)
def _gaussian(q, n, k):
    """[n k]_q by [n k] = [n-1 k] + q^(n-k) [n-1 k-1]: column 1 is either
    no pivot, or the first pivot with n - k free entries in its row."""
    if not 0 <= k <= n:
        return 0
    if k in (0, n):
        return 1
    return _gaussian(q, n - 1, k) + q ** (n - k) * _gaussian(q, n - 1, k - 1)


def _pivot_set(q, n, k, r):
    """The k-subset of [n] that covers r, 0 <= r < [n k]_q, when each set of
    :func:`_pivot_sets` covers as many integers as its weight, in that
    order.  The sets with first pivot p weigh q^(n - p - (k - 1)) times
    [n - p, k - 1]_q together, and within them the weights of the rest are
    scaled by the first factor, so no set is listed."""
    pivots, p = [], 0
    for left in range(k - 1, -1, -1):
        p += 1
        while r >= (block := q ** (n - p - left) * _gaussian(q, n - p, left)):
            r -= block
            p += 1
        pivots.append(p)
        r //= q ** (n - p - left)
    return tuple(pivots)


def sample_subspace(field, n, rng):
    """A uniformly random subspace of F_q^n drawn from rng: the dimension k
    with weight [n k]_q, then a pivot set with weight q^(free entries), then
    each free entry uniformly."""
    q = field.q
    k = _weighted(rng, range(n + 1),
                  [_gaussian(q, n, k) for k in range(n + 1)])
    pivots = _pivot_set(q, n, k, rng.randrange(_gaussian(q, n, k)))
    els = tuple(field.elements())
    rows = []
    for p in pivots:
        row = [0] * n
        row[p - 1] = 1
        for j in range(p + 1, n + 1):
            if j not in pivots:
                row[j - 1] = rng.choice(els)
        rows.append(tuple(row))
    return Rref(field, n, tuple(rows), pivots)


#: Hypothesis strategy: sample_subspace over a field of ALL_FIELDS and
#: 0 <= n <= 12, from a drawn seed.
subspaces = st.builds(
    lambda q, n, seed: sample_subspace(gf(q), n, random.Random(seed)),
    st.sampled_from(ALL_FIELDS), st.integers(0, 12), st.integers(0, 2**32 - 1))
