"""q-binomials, Galois numbers, and symbolic verification of the expansion
identities.

Both expansions write the q-binomial coefficient as a sum of ordinary
binomials: the summands are indexed by involutions (weight q^w(d), sign-free
coefficient (q-1)^|d|) or, after grouping fibers of the involution-to-path
map, by Motzkin paths (coefficient (q-1)^|P| w(P,q)).  The path sums come
from a transfer that lists no path.  The involution side is a state on
motzkin's one path walk that grows every path and the involutions over it,
merged by their open points, which fix their futures: a 2-cycle's weight,
its span minus the open points it jumps over, is added when it closes,
which counts every crossing once, so each fiber's weight sum and w(P,q) are
ready at the path's last step.  The walk carries each polynomial as one
int, its coefficients balanced digits of a width bounded from n and the
step weights (Kronecker substitution), and decodes only a counterexample
and the sums by down count.  Everything here is exact arithmetic; reports
are plain JSON-shaped dicts with an "ok" flag and the first
counterexample, and the census raises on any violated invariant.  The
census reads every subspace with its path off the full walk
:func:`qlattice.psi.subspaces_with_paths`.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from math import comb

from .algebra import QPoly
from .involution import _check_involution_ceiling, involution_count
from .motzkin import (MotzkinPath, _paths, enumerate_paths, step_weight,
                      weight_sums_by_downs)
from .psi import subspaces_with_paths

_QM1 = QPoly((-1, 1))  # q - 1
_GAUSSIAN = {}  # (m, j) -> [m j]_q, every node qbinomial has filled


def qbinomial(n, k):
    """Gaussian binomial coefficient [n k]_q as an exact polynomial; zero
    outside 0 <= k <= n.  One bottom-up q-Pascal table,
    [m j] = [m-1 j-1] + q^j [m-1 j], filled over the nodes j <= k and
    m - j <= n - k and shared between calls.  [m j]_q counts the partitions
    in a j x (m-j) box, so each of those nodes is coefficientwise at most
    [n k] and none overflows unless [n k] does."""
    if k < 0 or k > n:
        return QPoly.zero()
    if (n, k) not in _GAUSSIAN:
        for m in range(n + 1):
            for j in range(max(0, k - (n - m)), min(k, m) + 1):
                if (m, j) not in _GAUSSIAN:
                    _GAUSSIAN[m, j] = QPoly.one() if j in (0, m) else (
                        _GAUSSIAN[m - 1, j - 1]
                        + QPoly((0,) * j + _GAUSSIAN[m - 1, j].coeffs))
    return _GAUSSIAN[n, k]


def galois(n):
    """Total count of subspaces of an n-space, as a polynomial in q."""
    return sum((qbinomial(n, k) for k in range(n + 1)), QPoly.zero())


def goldman_rota_check(nmax):
    """Symbolic two-term recurrence check G(m+1) = 2 G(m) + (q^m - 1) G(m-1)
    for every 1 <= m <= nmax."""
    g = [galois(m) for m in range(nmax + 2)]
    return all(g[m + 1] == 2 * g[m] + (QPoly.monomial(m) - 1) * g[m - 1]
               for m in range(1, nmax + 1))


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


def _pack(coeffs, bits):
    """The polynomial with these coefficients (low degree first) at
    q = 2^bits, one exact int: each coefficient is a digit of width bits."""
    return sum(c << (bits * i) for i, c in enumerate(coeffs))


def _unpack(x, bits):
    """The coefficient list that :func:`_pack` packed into x, low degree
    first, with no trailing zero.  Digits are read balanced, from
    [-2^(bits-1), 2^(bits-1)), so every list inside that range comes back
    exactly and two such lists pack to the same int only when equal.
    Needs bits >= 2: with one bit, x = 1 never shrinks."""
    out = []
    mask, half = (1 << bits) - 1, 1 << (bits - 1)
    while x:
        c = x & mask
        if c >= half:
            c -= 1 << bits
        out.append(c)
        x = (x - c) >> bits
    return out


def _ds_width(n):
    """A digit width that holds every coefficient the walk of
    :func:`_ds_fibers` builds, whatever step_weight returns.  A partial
    fiber sum counts distinct involutions on [n], so its coefficients are
    at most I(n); a path weight is a product of at most n step weights,
    each of absolute coefficient sum at most S over the heights a step can
    reach (0..n//2), so its coefficients are at most S^n in absolute value.
    Two spare bits keep that bound inside the balanced digits."""
    s = max(sum(map(abs, step_weight(step, h).coeffs))
            for step in "HD" for h in range(n // 2 + 1))
    return max(involution_count(n), s ** n).bit_length() + 2


def _ds_fibers(n, bits):
    """Yield (path word, down count, w(P,q), fiber weight sum) for every
    path of length n, on the walk and so in the order of
    :func:`enumerate_paths`; the two polynomials are packed by :func:`_pack`
    at the digit width bits (from :func:`_ds_width`), and the fiber sum's
    coefficient at q^w counts the involutions over the path with weight w.

    Down each branch the walk carries the down count, the path weight,
    multiplied by the packed step weight at each H or D step and so shared
    by every path with that prefix, and the partial involutions over the
    prefix merged by their open points into {open points: weight sum}:
    partial involutions with the same open points have the same futures.  A
    U opens a 2-cycle at j, an H is a fixed point, and a D closes each open
    point i in turn.  Closing the t-th of the h open points adds
    (j - i - 1) - (h - 1 - t), the span of (i, j) minus the open points
    after i, a shift by that many digits: each of those points crosses
    (i, j) and closes later, so every crossing is counted once, at the
    earlier of its two closes, and the weight at the end is spans -
    crossings.  At the last point only the empty open set is left.
    """
    packed = {(step, h): _pack(step_weight(step, h).coeffs, bits)
              for step in "HD" for h in range(n // 2 + 1)}

    def step(state, j, ch, h):
        downs, weight, partials = state
        if ch == "U":
            return downs, weight, {o + (j,): w for o, w in partials.items()}
        if ch == "H":
            return downs, weight * packed["H", h], partials
        closed = {}
        for o, w in partials.items():
            for t, i in enumerate(o):
                rest = o[:t] + o[t + 1:]
                closed[rest] = (closed.get(rest, 0)
                                + (w << bits * (j - i - h + t)))
        return downs + 1, weight * packed["D", h - 1], closed

    for word, (downs, weight, partials) in _paths(n, (0, 1, {(): 1}), step):
        yield word, downs, weight, partials[()]


def verify_ds(n, max_size=None, k=None):
    """Check the involution expansion sum_d (q-1)^|d| q^w(d) C(n-2|d|, k-|d|)
    for every k (or a single one), and additionally that regrouping the sum
    along the fibers of the involution-to-path map reproduces each path
    weight exactly.

    Both sides come from one walk over the points (:func:`_ds_fibers`),
    which sums every involution once, merged with the others that share
    its open points as it grows, but builds no :class:`Involution`, no path
    object and no :class:`QPoly`: each polynomial is one int of digit width
    :func:`_ds_width`, so a path check is one int compare.  Only a
    counterexample and the sums by down count are decoded, as QPoly, which
    holds them to the 64-bit bound.  The involution count is still held to
    the size ceiling, before the walk.  The first path whose fiber sum
    differs from w(P,q) is the counterexample."""
    _check_involution_ceiling(n, max_size)
    bits = _ds_width(n)
    with _within_64_bits("ds", n):
        by_downs = [0] * (n // 2 + 1)
        for steps, downs, want, got in _ds_fibers(n, bits):
            if got != want:
                got, want = (QPoly(_unpack(x, bits)) for x in (got, want))
                return {"identity": "ds", "n": n, "ok": False,
                        "counterexample": {"path": steps,
                                           "fiber_weight_sum": got.to_list(),
                                           "path_weight": want.to_list()}}
            by_downs[downs] += got
        return _expansion_report(
            "ds", n, [QPoly(_unpack(s, bits)) for s in by_downs], k)


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
    expansion of the rank numbers.  Raises RuntimeError on any violation.

    The walk keeps one tally per path word, the count of its subspaces by
    dimension; the primaries of a path are those of dimension its down
    count, its fiber is the whole tally and the rank numbers are the column
    sums."""
    tally = {}
    for x, path in subspaces_with_paths(field, n, max_size):
        ranks = tally.get(path.steps)
        if ranks is None:
            ranks = tally[path.steps] = [0] * (n + 1)
        ranks[len(x.rows)] += 1
    rank_counts = [sum(col) for col in zip(*tally.values())]
    q = field.q
    rows = []
    unseen = [0] * (n + 1)
    for p in enumerate_paths(n, max_size):
        ranks = tally.get(p.steps, unseen)
        d = p.down_count
        primary, fiber = ranks[d], sum(ranks)
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
