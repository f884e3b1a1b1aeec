"""The self-verification battery.

Every published claim the library implements is checked here at desk scale,
by exact arithmetic and exhaustive enumeration: the two expansion identities,
the subspace-count recurrence, validity and height structure of the
subspace-to-path map, the per-path primary counts, the Boolean and chain
decompositions, the insert/delete laws, the pairing bijection, and the
worked examples.  The CLI ``selftest`` command and the acceptance test
module both run exactly this battery.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, product

from .algebra import QPoly, gf
from .decomp import (del_col, del_set, ins_col, ins_set, phi, phi_inv, scd,
                     scd_cover, sbd)
from .identities import (fiber_census, galois, goldman_rota_check, verify_ds,
                         verify_fs)
from .involution import Involution, biane
from .matspace import (Rref, enumerate_subspaces, left_pivots, rank_of,
                       subspace_count, subspace_leq)
from .motzkin import MotzkinPath, enumerate_paths
from .psi import (is_primary, path_from_classification, psi, right_pivots,
                  section, section_ranks, set_and_subset)


@dataclass
class CheckResult:
    key: str
    description: str
    ok: bool
    detail: str
    seconds: float

    def line(self, with_time=True):
        mark = "PASS" if self.ok else "FAIL"
        stamp = f" ({self.seconds:.2f}s)" if with_time else ""
        msg = f" -- {self.detail}" if self.detail else ""
        return f"{mark} [{self.key}] {self.description}{stamp}{msg}"


def _c01_path_expansion(run):
    for n in range(9):
        report = verify_fs(n)
        if not report["ok"]:
            return False, f"mismatch at n={n}: {report['counterexample']}"
    by_downs = {1: QPoly.zero(), 2: QPoly.zero()}
    for p in enumerate_paths(5):
        if p.down_count in by_downs:
            by_downs[p.down_count] = by_downs[p.down_count] + p.weight()
    if by_downs[1] != QPoly((4, 3, 2, 1)):
        return False, f"one-descent weight sum at n=5 is {by_downs[1]}"
    if by_downs[2] != QPoly((3, 4, 4, 3, 1)):
        return False, f"two-descent weight sum at n=5 is {by_downs[2]}"
    return True, "n <= 8, plus the printed n=5 coefficients"


def _c02_involution_expansion(run):
    for n in range(9):
        report = verify_ds(n)
        if not report["ok"]:
            return False, f"mismatch at n={n}: {report['counterexample']}"
    return True, "n <= 8 (764 involutions at n=8), fiber sums included"


def _c03_count_recurrence(run):
    if not goldman_rota_check(10):
        return False, "symbolic recurrence failed"
    expected = [1, 2, 5, 16, 67, 374, 2825, 29212, 417199]
    got = [galois(n)(2) for n in range(9)]
    if got != expected:
        return False, f"values at q=2: {got}"
    if [subspace_count(2, n) for n in range(9)] != expected:
        return False, "integer recurrence disagrees"
    return True, "symbolic n <= 10; q=2 values n <= 8 against the recurrence"


def _scan_path_structure():
    """Shared scan for c04 and c05 over q=2, n<=7 and q=3, n<=5."""
    height_ok, height_detail = True, ""
    routes_ok, routes_detail = True, ""
    scanned = 0
    for q, nmax in ((2, 7), (3, 5)):
        field = gf(q)
        for n in range(nmax + 1):
            for x in enumerate_subspaces(field, n):
                scanned += 1
                p = psi(x)  # construction validates the path
                if p.heights != section_ranks(x):
                    height_ok = False
                    height_detail = f"height/rank mismatch at q={q}:\n{x}"
                if path_from_classification(x) != p:
                    routes_ok = False
                    routes_detail = f"route mismatch at q={q}:\n{x}"
    note = f"{scanned} subspaces scanned (q=2 n<=7; q=3 n<=5)"
    return ((height_ok, height_detail or note),
            (routes_ok, routes_detail or note))


def _c06_primary_counts(run):
    spot = None
    for q in (2, 3):
        field = gf(q)
        for n in range(7):
            # fiber_census raises on a count that misses its prediction
            for row in fiber_census(field, n):
                got, predicted = row.primary_count, row.predicted(q)
                if got != predicted:
                    return False, (f"q={q} n={n} path {row.path}: {got} "
                                   f"primaries, predicted {predicted}")
                if q == 2 and n == 6 and row.path.steps == "UHUDHD":
                    spot = got
    if spot != 24:
        return False, f"spot check UHUDHD at q=2 n=6 gave {spot}"
    return True, "q in {2,3}, n <= 6; spot value UHUDHD -> 24"


def _c07_boolean_decomposition(run):
    for q, nmax in ((2, 6), (3, 5)):
        field = gf(q)
        for n in range(nmax + 1):
            blocks = sbd(field, n)
            seen = set()
            per_path = {}
            for blk in blocks:
                d = blk.path.down_count
                if blk.min_rank != d or blk.max_rank != n - d:
                    return False, f"rank window wrong for block\n{blk.primary}"
                if blk.size != 2 ** (n - 2 * d):
                    return False, f"block size {blk.size} at q={q} n={n}"
                per_path[blk.path.steps] = per_path.get(blk.path.steps, 0) + 1
                items = sorted(blk.members.items(), key=lambda kv: sorted(kv[0]))
                for cols, member in items:
                    if member in seen:
                        return False, f"member repeated at q={q} n={n}"
                    seen.add(member)
                    if member.dim != d + len(cols):
                        return False, "member rank off inside a block"
                for (ci, mi), (cj, mj) in product(items, repeat=2):
                    if subspace_leq(mi, mj) != (ci <= cj):
                        return False, (f"order isomorphism fails at q={q} "
                                       f"n={n} for {sorted(ci)} vs {sorted(cj)}")
            total = subspace_count(q, n)
            if len(seen) != total:
                return False, f"blocks cover {len(seen)} of {total} at q={q} n={n}"
            for p in enumerate_paths(n):
                d = p.down_count
                predicted = ((QPoly((-1, 1)) ** d) * p.weight())(q)
                if per_path.get(p.steps, 0) != predicted:
                    return False, f"block count per path off at q={q} n={n}"
            fiber_census(field, n)  # raises on any per-rank violation
    return True, "partition, order isomorphism, rank windows, per-rank counts"


def _independence_profile(field, rows, width):
    """Which subsets of rows are linearly independent."""
    idx = range(len(rows))
    out = set()
    for r in range(len(rows) + 1):
        for sub in combinations(idx, r):
            picked = [rows[i] for i in sub]
            if rank_of(field, picked, width) == len(sub):
                out.add(sub)
    return out


def _c08_insert_delete_laws(run):
    for q in (2, 3):
        field = gf(q)
        for n in range(6):
            for x in enumerate_subspaces(field, n):
                p = psi(x)
                ground, inl_piv = set_and_subset(x)
                for j in sorted(inl_piv):
                    y = del_col(x, j)
                    if not subspace_leq(y, x) or y.dim != x.dim - 1:
                        return False, f"delete containment fails at q={q}\n{x}"
                    if left_pivots(y) != left_pivots(x) - {j}:
                        return False, f"delete pivot update fails at q={q}\n{x}"
                    if right_pivots(y) != right_pivots(x) - {j}:
                        return False, f"delete right pivots fail at q={q}\n{x}"
                    if psi(y) != p:
                        return False, f"delete changes the path at q={q}\n{x}"
                    if ins_col(y, j) != x:
                        return False, f"insert(delete) roundtrip fails\n{x}"
                for j in sorted(ground - inl_piv):
                    y = ins_col(x, j)
                    if not subspace_leq(x, y) or y.dim != x.dim + 1:
                        return False, f"insert containment fails at q={q}\n{x}"
                    if left_pivots(y) != left_pivots(x) | {j}:
                        return False, f"insert pivot update fails at q={q}\n{x}"
                    if psi(y) != p:
                        return False, f"insert changes the path at q={q}\n{x}"
                    if del_col(y, j) != x:
                        return False, f"delete(insert) roundtrip fails\n{x}"
                for r in range(len(inl_piv) + 1):
                    for cols in combinations(sorted(inl_piv), r):
                        if ins_set(del_set(x, cols), cols) != x:
                            return False, f"multi-column roundtrip fails\n{x}"
                free = sorted(ground - inl_piv)
                for r in range(len(free) + 1):
                    for cols in combinations(free, r):
                        if del_set(ins_set(x, cols), cols) != x:
                            return False, f"multi-column roundtrip fails\n{x}"
                # stability of section independence under moves further right
                for j in sorted(ground - inl_piv):
                    before = _independence_profile(field, section(x, j).rows,
                                                   n - j)
                    for i in sorted(c for c in ground if c > j):
                        y = (ins_col(x, i) if i not in inl_piv
                             else del_col(x, i))
                        after = _independence_profile(field,
                                                      section(y, j).rows,
                                                      n - j)
                        if before != after:
                            return False, (f"section stability fails at "
                                           f"q={q} j={j} i={i}\n{x}")
    return True, "q in {2,3}, n <= 5: every legal move on every rref"


def _c09_pairing_bijection(run):
    for q in (2, 3, 4, 5):
        field = gf(q)
        for n in range(5):
            images = set()
            for vec in product(range(q), repeat=n):
                img = phi(field, vec)
                images.add(img)
                dot = 0
                for a, b in zip(vec, img):
                    dot = field.add(dot, field.mul(a, b))
                if dot == field.neg(1):
                    return False, f"inner product -1 at q={q} vec={vec}"
                if phi_inv(field, img) != vec:
                    return False, f"roundtrip fails at q={q} vec={vec}"
            if len(images) != q**n:
                return False, f"not a bijection at q={q} n={n}"
    rng = random.Random(run.seed)
    for q in (7, 8, 9):
        field = gf(q)
        for _ in range(200):
            vec = tuple(rng.randrange(q) for _ in range(6))
            if phi_inv(field, phi(field, vec)) != vec:
                return False, f"seeded roundtrip fails at q={q} vec={vec}"
    return True, "exhaustive q in {2,3,4,5}, n <= 4; seeded spot checks"


def _c10_chain_decomposition(run):
    for q, nmax in ((2, 6), (3, 4)):
        field = gf(q)
        for n in range(nmax + 1):
            dec = scd(field, n)
            seen = set()
            for chain in dec.chains:
                if chain[0].dim + chain[-1].dim != n:
                    return False, f"asymmetric chain at q={q} n={n}"
                for lo, hi in zip(chain, chain[1:]):
                    if hi.dim != lo.dim + 1 or not subspace_leq(lo, hi):
                        return False, f"unsaturated chain at q={q} n={n}"
                for x in chain:
                    if x in seen:
                        return False, f"chains overlap at q={q} n={n}"
                    seen.add(x)
                cur = chain[0]
                for expected in chain[1:]:
                    cur = scd_cover(cur)
                    if cur != expected:
                        return False, f"cover walk leaves its chain at q={q} n={n}"
                if scd_cover(chain[-1]) is not None:
                    return False, f"chain top has a cover at q={q} n={n}"
            if len(seen) != subspace_count(q, n):
                return False, f"chains cover {len(seen)} elements at q={q} n={n}"
    f2 = gf(2)
    m = _eight_col_rref(f2, 1, 0, 1, 1, 1, 1)
    step1 = scd_cover(m)
    step2 = scd_cover(step1)
    if step1 != ins_col(m, 4):
        return False, "worked example: first cover is not insertion at 4"
    if step2 != ins_set(m, (4, 7)):
        return False, "worked example: second cover is not insertion at {4,7}"
    if scd_cover(step2) is not None or scd_cover(ins_col(m, 7)) is not None:
        return False, "worked example: expected chain tops"
    return True, "q=2 n <= 6; q=3 n <= 4; worked cover sequence"


def _six_col_rref(field, a, b, c, d, e):
    """Three-pivot rref on six columns; b and d must be units for the
    documented pivot/essentiality pattern to hold."""
    rows = ((1, a, 0, b, 0, 0),
            (0, 0, 1, c, 0, d),
            (0, 0, 0, 0, 1, e))
    return Rref(field, 6, rows, (1, 3, 5))


def _eight_col_rref(field, a, b, c, d, e, f):
    """Primary three-pivot rref on eight columns; a, d, e, f units."""
    rows = ((1, 0, a, 0, 0, 0, 0, 0),
            (0, 1, b, c, 0, d, e, e),
            (0, 0, 0, 0, 1, 0, f, f))
    return Rref(field, 8, rows, (1, 2, 5))


def _phi1(field, x):
    return 1 if x == 0 else field.sub(1, field.inv(x))


def _expected_insertions(field, a, b, c, d, e, f):
    """The three closed-form insertion results for the 8-column family."""
    div, mul = field.div, field.mul
    gc, ge = _phi1(field, c), _phi1(field, e)
    kc = field.add(1, mul(c, gc))
    ke = field.add(1, mul(e, ge))
    ins7 = ((1, 0, a, 0, 0, 0, 0, 0),
            (0, 1, b, c, 0, d, 0, div(e, ke)),
            (0, 0, 0, 0, 1, 0, 0, div(f, ke)),
            (0, 0, 0, 0, 0, 0, 1, div(mul(e, ge), ke)))
    ins4 = ((1, 0, a, 0, 0, 0, 0, 0),
            (0, 1, b, 0, 0, div(d, kc), div(e, kc), div(e, kc)),
            (0, 0, 0, 1, 0, div(mul(gc, d), kc), div(mul(gc, e), kc),
             div(mul(gc, e), kc)),
            (0, 0, 0, 0, 1, 0, f, f))
    kck = mul(ke, kc)
    ins47 = ((1, 0, a, 0, 0, 0, 0, 0),
             (0, 1, b, 0, 0, div(d, kc), 0, div(e, kck)),
             (0, 0, 0, 1, 0, div(mul(gc, d), kc), 0, div(mul(gc, e), kck)),
             (0, 0, 0, 0, 1, 0, 0, div(f, ke)),
             (0, 0, 0, 0, 0, 0, 1, div(mul(e, ge), ke)))
    return ins7, ins4, ins47


def _c11_worked_examples(run):
    for q in (2, 3, 4, 5):
        field = gf(q)
        for b, d in product(field.units(), repeat=2):
            for a, c, e in product(field.elements(), repeat=3):
                x = _six_col_rref(field, a, b, c, d, e)
                if psi(x).steps != "UHUDHD":
                    return False, f"path of the 6-column family at q={q}"
                if left_pivots(x) != {1, 3, 5} or right_pivots(x) != {4, 5, 6}:
                    return False, f"pivot sets of the 6-column family at q={q}"
                ground, inl = set_and_subset(x)
                if ground != {2, 5} or inl != {5}:
                    return False, f"inessential sets of the 6-column family q={q}"
    p = MotzkinPath("UHDHUUHDD")
    if p.weight() != QPoly((0, 0, 0, 0, 1, 1)) or p.down_count != 3:
        return False, "nine-step path weight"
    delta = Involution(9, ((1, 8), (2, 6), (3, 9), (4, 7)))
    spans, crossings, w = delta.weight_stats()
    if (spans, crossings, w) != (16, 3, 13):
        return False, f"involution statistics came out as {(spans, crossings, w)}"
    if biane(Involution(6, ((1, 6), (3, 5)))).steps != "UHUHDD":
        return False, "involution-to-path image"
    for q in (2, 3):
        field = gf(q)
        for a, d, e, f in product(field.units(), repeat=4):
            for b, c in product(field.elements(), repeat=2):
                x = _eight_col_rref(field, a, b, c, d, e, f)
                if section_ranks(x) != (0, 1, 2, 1, 1, 2, 1, 1, 0):
                    return False, f"section ranks of the 8-column family q={q}"
                if not is_primary(x) or psi(x).steps != "UUDHUDHD":
                    return False, f"8-column family not primary with UUDHUDHD q={q}"
                if set_and_subset(x)[0] != {4, 7}:
                    return False, f"ground set of the 8-column family q={q}"
                ins7, ins4, ins47 = _expected_insertions(field, a, b, c, d, e, f)
                if ins_col(x, 7).rows != ins7:
                    return False, f"insertion at 7 disagrees at q={q}"
                if ins_col(x, 4).rows != ins4:
                    return False, f"insertion at 4 disagrees at q={q}"
                if ins_set(x, (4, 7)).rows != ins47:
                    return False, f"insertion at {{4,7}} disagrees at q={q}"
    return True, "families checked over every admissible parameter choice"


class _Run:
    """What the checks of one run share: the seed of the randomized spot
    checks and the c04/c05 scan, made when first read and kept once made."""

    def __init__(self, seed):
        self.seed = seed

    @cached_property
    def scan(self):
        return _scan_path_structure()


#: key -> (description, check); a check takes the run and returns (ok,
#: detail).  Results come out in this order.
_CHECKS = {
    "c01": ("q-binomial expansion over Motzkin paths, exact for n <= 8",
            _c01_path_expansion),
    "c02": ("q-binomial expansion over involutions and fiberwise weight "
            "sums, exact for n <= 8", _c02_involution_expansion),
    "c03": ("subspace-count recurrence, symbolic n <= 10 and q=2 values",
            _c03_count_recurrence),
    "c04": ("every subspace maps to a valid path whose prefix heights are "
            "the section ranks (q=2 n<=7; q=3 n<=5)",
            lambda run: run.scan[0]),
    "c05": ("pivot-set route equals column-classification route on the "
            "same scan", lambda run: run.scan[1]),
    "c06": ("primary counts per path match (q-1)^d * weight, q in {2,3}, "
            "n <= 6", _c06_primary_counts),
    "c07": ("Boolean blocks partition the lattice with predicted ranks "
            "and sizes (q=2 n<=6; q=3 n<=5)", _c07_boolean_decomposition),
    "c08": ("insert/delete laws: containment, pivots, path preservation, "
            "roundtrips, section stability (q in {2,3}, n <= 5)",
            _c08_insert_delete_laws),
    "c09": ("pairing map is a bijection avoiding inner product -1 "
            "(q in {2,3,4,5}, n <= 4)", _c09_pairing_bijection),
    "c10": ("chain decomposition is a symmetric saturated partition "
            "(q=2 n<=6; q=3 n<=4) with the worked cover sequence",
            _c10_chain_decomposition),
    "c11": ("worked examples: paths, weights, statistics, section ranks, "
            "closed-form insertions", _c11_worked_examples),
}

ALL_KEYS = tuple(_CHECKS)


def run_acceptance(keys=None, seed=0):
    """Run the battery (or the selected checks, each once) and return the
    results in key order.

    A check that raises is reported as a failure rather than aborting the
    battery.
    """
    wanted = tuple(keys) if keys else ALL_KEYS
    unknown = [k for k in wanted if k not in _CHECKS]
    if unknown:
        raise ValueError(f"unknown check keys: {unknown}")
    run = _Run(seed)
    results = []
    for key, (desc, check) in _CHECKS.items():
        if key not in wanted:
            continue
        start = time.perf_counter()
        try:
            ok, detail = check(run)
        except Exception as exc:  # surfaced as a failed check
            ok, detail = False, f"raised {exc!r}"
        results.append(CheckResult(key, desc, ok, detail,
                                   time.perf_counter() - start))
    return results
