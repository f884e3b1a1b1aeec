"""q-binomials, Galois numbers, and symbolic verification of the expansion
identities.

Both expansions write the q-binomial coefficient as a sum of ordinary
binomials: the summands are indexed by involutions (weight q^w(d), sign-free
coefficient (q-1)^|d|) or, after grouping fibers of the involution-to-path
map, by Motzkin paths (coefficient (q-1)^|P| w(P,q)).  Everything here is
exact polynomial arithmetic; reports are plain JSON-shaped dicts with an
"ok" flag and the first counterexample, and the census raises on any
violated invariant.  The census reads every subspace with its path off the
full walk :func:`qlattice.psi.subspaces_with_paths`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from math import comb

from .algebra import QPoly
from .involution import biane, enumerate_involutions
from .motzkin import MotzkinPath, enumerate_paths, weight_sums_by_downs
from .psi import subspaces_with_paths

_QM1 = QPoly((-1, 1))  # q - 1


@lru_cache(maxsize=None)
def qbinomial(n, k):
    """Gaussian binomial coefficient as an exact polynomial; zero outside
    0 <= k <= n."""
    if k < 0 or k > n:
        return QPoly.zero()
    if k == 0 or k == n:
        return QPoly.one()
    return qbinomial(n - 1, k - 1) + QPoly.monomial(k) * qbinomial(n - 1, k)


@lru_cache(maxsize=None)
def galois(n):
    """Total count of subspaces of an n-space, as a polynomial in q."""
    out = QPoly.zero()
    for k in range(n + 1):
        out = out + qbinomial(n, k)
    return out


def goldman_rota_check(nmax):
    """Symbolic two-term recurrence check G(m+1) = 2 G(m) + (q^m - 1) G(m-1)
    for every 1 <= m <= nmax."""
    for m in range(1, nmax + 1):
        lhs = galois(m + 1)
        rhs = 2 * galois(m) + (QPoly.monomial(m) - 1) * galois(m - 1)
        if lhs != rhs:
            return False
    return True


def _binom_or_zero(n, k):
    if k < 0 or n < 0 or k > n:
        return 0
    return comb(n, k)


@contextmanager
def _within_64_bits(identity, n):
    """Name the identity, n and the bound when a coefficient overflows."""
    try:
        yield
    except OverflowError as exc:
        raise OverflowError(
            f"identity {identity} at n={n}: polynomial coefficient exceeds "
            f"the 64-bit range [-2^63, 2^63 - 1]") from exc


def _expansion_report(identity, n, sums, k):
    """Compare [n k]_q with sum_d (q-1)^d sums[d] C(n-2d, k-d) for every k
    (or a single one); sums[d] is the weight summed over down count d."""
    terms = [(_QM1 ** d) * s for d, s in enumerate(sums)]
    ks = range(n + 1) if k is None else (k,)
    for k in ks:
        rhs = QPoly.zero()
        for d, term in enumerate(terms):
            mult = _binom_or_zero(n - 2 * d, k - d)
            if mult:
                rhs = rhs + mult * term
        lhs = qbinomial(n, k)
        if lhs != rhs:
            return {"identity": identity, "n": n, "ok": False,
                    "counterexample": {"k": k, "lhs": lhs.to_list(),
                                       "rhs": rhs.to_list()}}
    return {"identity": identity, "n": n, "ok": True, "counterexample": None}


def verify_fs(n, k=None):
    """Check, for every k (or a single one), that the q-binomial equals the
    Motzkin-path expansion sum_P (q-1)^|P| w(P,q) C(n-2|P|, k-|P|),
    exactly.  The summand depends on P only through |P|, so the path
    weights enter summed by down count (weight_sums_by_downs); no path is
    listed, so no enumeration ceiling applies and the reach is set by the
    64-bit coefficient bound (n <= 34)."""
    with _within_64_bits("fs", n):
        return _expansion_report("fs", n, weight_sums_by_downs(n), k)


def verify_ds(n, max_size=None, k=None):
    """Check the involution expansion sum_d (q-1)^|d| q^w(d) C(n-2|d|, k-|d|)
    for every k (or a single one), and additionally that regrouping the sum
    along the fibers of the involution-to-path map reproduces each path
    weight exactly."""
    with _within_64_bits("ds", n):
        fiber_counts = {}  # path word -> involution count by weight
        for d in enumerate_involutions(n, max_size):
            _, _, w = d.weight_stats()
            counts = fiber_counts.setdefault(biane(d).steps, [])
            if len(counts) <= w:
                counts.extend([0] * (w + 1 - len(counts)))
            counts[w] += 1
        by_downs = [QPoly.zero()] * (n // 2 + 1)
        for p in enumerate_paths(n, max_size):
            got = QPoly(fiber_counts.get(p.steps, ()))
            want = p.weight()
            if got != want:
                return {"identity": "ds", "n": n, "ok": False,
                        "counterexample": {"path": p.steps,
                                           "fiber_weight_sum": got.to_list(),
                                           "path_weight": want.to_list()}}
            d = p.down_count
            by_downs[d] = by_downs[d] + got
        return _expansion_report("ds", n, by_downs, k)


@dataclass(frozen=True)
class CensusRow:
    """Per-path bookkeeping of the Boolean decomposition: the number of
    primary rrefs over the path, the polynomial predicting it, the common
    block size 2^(n-2|P|) and the total fiber size."""

    path: MotzkinPath
    primary_count: int
    predicted: QPoly
    block_size: int
    fiber_size: int


def fiber_census(field, n, max_size=None):
    """Group all subspaces of F_q^n by their path, count primaries and fiber
    sizes, and assert the predicted counts and the per-rank binomial
    expansion of the rank numbers.  Raises RuntimeError on any violation."""
    counts = {}
    rank_counts = [0] * (n + 1)
    for x, path in subspaces_with_paths(field, n, max_size):
        entry = counts.setdefault(path.steps, [0, 0])
        entry[1] += 1
        if path.down_count == x.dim:
            entry[0] += 1
        rank_counts[x.dim] += 1
    q = field.q
    rows = []
    for p in enumerate_paths(n, max_size):
        primary, fiber = counts.get(p.steps, (0, 0))
        d = p.down_count
        predicted = (_QM1 ** d) * p.weight()
        block_size = 2 ** (n - 2 * d)
        if primary != predicted(q):
            raise RuntimeError(
                f"path {p}: {primary} primaries, predicted {predicted(q)}")
        if fiber != primary * block_size:
            raise RuntimeError(
                f"path {p}: fiber {fiber} != {primary} * {block_size}")
        rows.append(CensusRow(p, primary, predicted, block_size, fiber))
    for k in range(n + 1):
        from_blocks = sum(r.primary_count
                          * _binom_or_zero(n - 2 * r.path.down_count,
                                           k - r.path.down_count)
                          for r in rows)
        expected = qbinomial(n, k)(q)
        if rank_counts[k] != from_blocks or rank_counts[k] != expected:
            raise RuntimeError(
                f"rank {k}: {rank_counts[k]} subspaces, {from_blocks} from "
                f"blocks, {expected} from the q-binomial")
    return rows
