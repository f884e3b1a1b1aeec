import dataclasses
import importlib
import random
from bisect import bisect_right
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import ALL_FIELDS, gamma, sample_subspace, subspaces
from qlattice import (MotzkinPath, Rref, TooLargeError, boolean_block,
                      bracket_chains, bracket_cover, classify_column, del_col,
                      del_set, enumerate_subspaces, fiber_census, full_space,
                      gamma_inv, gf, ins_col, ins_set, is_primary,
                      left_pivots, mu, mu_inv, path_from_classification, phi,
                      phi_inv, psi, sbd, scd, scd_cover, section_ranks,
                      set_and_subset, span, subspace_count, subspace_leq,
                      subspaces_with_paths, zero_subspace)
from qlattice import decomp, identities, matspace
from qlattice.acceptance import _eight_col_rref

#: The module; the package name qlattice.psi is the function.
psi_mod = importlib.import_module("qlattice.psi")

F2 = gf(2)
F3 = gf(3)


def inline_phi1(field, x):
    """Independent base case of the pairing map: 1 at 0, else 1 - 1/x."""
    return 1 if x == 0 else field.sub(1, field.inv(x))


def test_mu_frozen_values():
    assert mu(F2, 1, 0) == 1 and mu(F2, 1, 1) == 0
    for q in (2, 3, 4, 5):
        field = gf(q)
        for d in field.units():
            assert mu(field, d, 0) == 1
    assert mu(F3, 2, 1) == 0       # 1 + 2*1
    assert mu(F3, 2, 2) == 2       # 1 + 2*2^{-1} = 1 + 2*2


def test_mu_bijection_and_avoidance():
    for q in (2, 3, 4, 5, 7, 8, 9):
        field = gf(q)
        for d in field.units():
            images = {mu(field, d, x) for x in field.elements()}
            assert len(images) == q
            for x in field.elements():
                assert field.mul(x, mu(field, d, x)) != d
                assert mu_inv(field, d, mu(field, d, x)) == x
    with pytest.raises(ValueError):
        mu(F3, 0, 1)
    with pytest.raises(ValueError):
        mu_inv(F3, 0, 1)


def test_phi_frozen_values():
    assert phi(F2, (0,)) == (1,) and phi(F2, (1,)) == (0,)
    assert phi(F2, (0, 0)) == (1, 1)
    assert phi(F2, (1, 0)) == (0, 1)
    assert phi(F2, (0, 1)) == (1, 0)
    assert phi(F2, (1, 1)) == (0, 0)
    assert phi(F3, ()) == ()
    # the single-coordinate map agrees with the inline base case
    for q in (2, 3, 4, 5):
        field = gf(q)
        for x in field.elements():
            assert phi(field, (x,)) == (inline_phi1(field, x),)


def test_phi_bijection_avoidance_and_roundtrip():
    for q in (2, 3, 4, 5):
        field = gf(q)
        for n in range(5):
            seen = set()
            for vec in product(range(q), repeat=n):
                img = phi(field, vec)
                seen.add(img)
                dot = 0
                for a, b in zip(vec, img):
                    dot = field.add(dot, field.mul(a, b))
                assert dot != field.neg(1)
                assert phi_inv(field, img) == vec
            assert len(seen) == q**n
    rng = random.Random(7)
    for q in (7, 8, 9):
        field = gf(q)
        for _ in range(200):
            vec = tuple(rng.randrange(q) for _ in range(6))
            assert phi_inv(field, phi(field, vec)) == vec


def test_gamma_inverse_frozen_and_random():
    assert gamma_inv(F2, (), ()).rows == ()
    assert gamma_inv(F3, (0, 0), (0, 0)).rows == ((1, 0), (0, 1))
    assert gamma(F3, (1,), (1,)).rows == ((2,),)
    assert gamma_inv(F3, (1,), (1,)).rows == ((2,),)
    assert gamma(F2, (1, 0), (0, 1)).rows == ((1, 1), (0, 1))
    assert gamma_inv(F2, (1, 0), (0, 1)).rows == ((1, 1), (0, 1))
    with pytest.raises(ValueError):
        gamma_inv(F2, (1,), (1,))     # b.c^T = 1 = -1 over F_2
    rng = random.Random(11)
    for q in (2, 3, 5, 9):
        field = gf(q)
        for _ in range(40):
            s = rng.randrange(0, 4)
            b = tuple(rng.randrange(q) for _ in range(s))
            c = tuple(rng.randrange(q) for _ in range(s))
            dot = 0
            for x, y in zip(b, c):
                dot = field.add(dot, field.mul(x, y))
            if field.add(1, dot) == 0:
                with pytest.raises(ValueError):
                    gamma_inv(field, b, c)
                continue
            g = gamma(field, b, c).rows
            gi = gamma_inv(field, b, c).rows
            for i in range(s):
                for t in range(s):
                    acc = 0
                    for l in range(s):
                        acc = field.add(acc, field.mul(g[i][l], gi[l][t]))
                    assert acc == (1 if i == t else 0)


def row_times_matrix(field, vec, rows):
    out = [0] * len(vec)
    for coef, row in zip(vec, rows):
        for t, entry in enumerate(row):
            out[t] = field.add(out[t], field.mul(coef, entry))
    return out


def last_nonzero(b):
    """The last nonzero entry of b, 1 for the zero vector."""
    return next((v for v in reversed(b) if v), 1)


def test_phi_dot_is_the_last_nonzero_entry_minus_one():
    """1 + b . phi(b)^T is the last nonzero entry of b: the law that gives
    insertion's row in closed form."""
    vectors = [(q, s) for q in (2, 3, 4, 5) for s in range(5)]
    vectors += [(q, s) for q in (7, 8, 9) for s in range(4)]
    for q, s in vectors:
        field = gf(q)
        for b in product(range(q), repeat=s):
            dot = 1
            for x, y in zip(b, phi(field, b)):
                dot = field.add(dot, field.mul(x, y))
            assert dot == last_nonzero(b), (q, b)


def test_scalar_update_matches_gamma_inv():
    """The closed-form row of insertion, phi(b) over the last nonzero entry
    of b, is c (I + b^T c)^-1 for c = phi(b)."""
    vectors = [(q, b) for q in (2, 3, 4, 5) for s in range(4)
               for b in product(range(q), repeat=s)]
    rng = random.Random(5)
    vectors += [(q, tuple(rng.randrange(q) for _ in range(rng.randrange(7))))
                for q in (7, 8, 9) for _ in range(200)]
    for q, b in vectors:
        field = gf(q)
        c = phi(field, b)
        scale = field.inv(last_nonzero(b))
        assert [field.mul(scale, y) for y in c] == row_times_matrix(
            field, c, gamma_inv(field, b, c).rows)


def test_del_col_frozen_examples():
    x = span(F2, [(1, 0, 0), (0, 1, 1)], 3)
    y = del_col(x, 1)
    assert y.rows == ((0, 1, 1),) and y.pivots == (2,)
    with pytest.raises(ValueError):
        del_col(x, 2)     # pivotal but essential
    with pytest.raises(ValueError):
        del_col(x, 3)     # not pivotal


def test_ins_col_frozen_examples():
    x = span(F2, [(0, 1, 1)], 3)
    y = ins_col(x, 1)
    assert y.rows == ((1, 0, 0), (0, 1, 1)) and y.pivots == (1, 2)
    with pytest.raises(ValueError):
        ins_col(x, 2)     # pivotal
    with pytest.raises(ValueError):
        ins_col(x, 3)     # nonpivotal but essential
    empty = zero_subspace(F3, 3)
    assert ins_col(empty, 2).rows == ((0, 1, 0),)


def expected_insertions(field, a, b, c, d, e, f):
    """Closed-form entries of the three insertions into the 8-column
    family, written directly from the displayed matrices."""
    div, mul = field.div, field.mul
    gc, ge = inline_phi1(field, c), inline_phi1(field, e)
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


@pytest.mark.parametrize("q", (2, 3, 4, 5))
def test_insertions_match_closed_form(q):
    field = gf(q)
    for a, d, e, f in product(field.units(), repeat=4):
        for b, c in product(field.elements(), repeat=2):
            x = _eight_col_rref(field, a, b, c, d, e, f)
            ins7, ins4, ins47 = expected_insertions(field, a, b, c, d, e, f)
            assert ins_col(x, 7).rows == ins7
            assert ins_col(x, 4).rows == ins4
            assert ins_set(x, (4, 7)).rows == ins47
            assert ins_set(x, ()) == x
            assert del_set(ins_set(x, (4, 7)), (4, 7)) == x


def test_single_move_laws_small_scale():
    from qlattice import right_pivots
    for field, nmax in ((F2, 4), (F3, 3)):
        for n in range(nmax + 1):
            for x in enumerate_subspaces(field, n):
                p = psi(x)
                ground, inl = set_and_subset(x)
                for j in sorted(inl):
                    y = del_col(x, j)
                    assert subspace_leq(y, x) and y.dim == x.dim - 1
                    assert left_pivots(y) == left_pivots(x) - {j}
                    assert right_pivots(y) == right_pivots(x) - {j}
                    assert psi(y) == p
                    assert ins_col(y, j) == x
                for j in sorted(ground - inl):
                    y = ins_col(x, j)
                    assert subspace_leq(x, y) and y.dim == x.dim + 1
                    assert left_pivots(y) == left_pivots(x) | {j}
                    assert psi(y) == p
                    assert del_col(y, j) == x


def test_multi_column_roundtrips():
    for field, nmax in ((F2, 4), (F3, 3)):
        for n in range(nmax + 1):
            for x in enumerate_subspaces(field, n):
                ground, inl = set_and_subset(x)
                for r in range(len(inl) + 1):
                    for cols in combinations(sorted(inl), r):
                        assert ins_set(del_set(x, cols), cols) == x
                free = sorted(ground - inl)
                for r in range(len(free) + 1):
                    for cols in combinations(free, r):
                        assert del_set(ins_set(x, cols), cols) == x


def test_boolean_block_frozen_examples():
    x = span(F2, [(0, 1, 1)], 3)
    blk = boolean_block(x)
    assert blk.ground == (1,)
    assert blk.path.steps == "HUD"
    assert blk.members[frozenset()] == x
    assert blk.members[frozenset({1})].rows == ((1, 0, 0), (0, 1, 1))
    assert blk.size == 2 and blk.min_rank == 1 and blk.max_rank == 2

    empty = zero_subspace(F2, 3)
    blk = boolean_block(empty)
    assert blk.ground == (1, 2, 3)
    assert blk.size == 8
    for cols, member in blk.members.items():
        expected = span(F2, [tuple(1 if t + 1 == j else 0 for t in range(3))
                             for j in sorted(cols)], 3)
        assert member == expected

    with pytest.raises(ValueError):
        boolean_block(full_space(F2, 2))


def test_boolean_block_refuses_an_invalid_rref():
    """A caller's Rref is checked before its block is read: a row not
    reduced at a later pivot, pivots out of order and an entry outside the
    field each raise ValueError."""
    for bad in (Rref(F2, 3, ((1, 1, 0), (0, 1, 1)), (1, 2)),
                Rref(F2, 3, ((0, 1, 0), (1, 0, 0)), (2, 1)),
                Rref(F3, 2, ((1, 3),), (1,))):
        with pytest.raises(ValueError, match="valid rref"):
            boolean_block(bad)


def test_block_sizes_forced_by_path():
    for field, nmax in ((F2, 4), (F3, 3)):
        for n in range(nmax + 1):
            for blk in sbd(field, n):
                assert blk.size == 2 ** (n - 2 * blk.path.down_count)


def test_sbd_frozen_q2_n3():
    blocks = sbd(F2, 3)
    by_path = {}
    for b in blocks:
        by_path.setdefault(b.path.steps, []).append(b.size)
    assert by_path == {"HHH": [8], "HUD": [2], "UDH": [2], "UHD": [2, 2]}
    assert sum(b.size for b in blocks) == 16


def test_sbd_is_partition():
    for field, nmax in ((F2, 4), (F3, 3)):
        for n in range(nmax + 1):
            members = [m for blk in sbd(field, n)
                       for m in blk.members.values()]
            assert len(members) == len(set(members)) == subspace_count(
                field.q, n)
    assert [b.size for b in sbd(F3, 0)] == [1]


def test_bracket_cover_frozen():
    assert bracket_cover((4, 7), ()) == 4
    assert bracket_cover((4, 7), (7,)) is None
    assert bracket_cover((4, 7), (4,)) == 7
    assert bracket_cover((4, 7), (4, 7)) is None
    assert bracket_cover((1, 2, 3), (2,)) == 3
    assert bracket_cover((), ()) is None
    with pytest.raises(ValueError):
        bracket_cover((1, 2), (3,))


def test_bracket_chains_frozen_three_elements():
    chains = bracket_chains((1, 2, 3))
    as_sets = [[sorted(s) for s in chain] for chain in chains]
    assert sorted(as_sets) == sorted([
        [[], [1], [1, 2], [1, 2, 3]],
        [[2], [2, 3]],
        [[3], [1, 3]],
    ])


def test_bracket_chains_frozen_four_elements_in_order():
    """The chains of a four-element ground, in their exact order: minima by
    size, then lexicographically."""
    chains = bracket_chains((1, 2, 3, 4))
    assert [[sorted(s) for s in chain] for chain in chains] == [
        [[], [1], [1, 2], [1, 2, 3], [1, 2, 3, 4]],
        [[2], [2, 3], [2, 3, 4]],
        [[3], [1, 3], [1, 3, 4]],
        [[4], [1, 4], [1, 2, 4]],
        [[2, 4]],
        [[3, 4]],
    ]


def test_bracket_chains_minima_by_size_then_lexicographically():
    for size in range(9):
        keys = [(len(chain[0]), sorted(chain[0]))
                for chain in bracket_chains(range(1, size + 1))]
        assert all(a < b for a, b in zip(keys, keys[1:]))


def test_bracket_moves_refuse_a_repeated_ground_element():
    with pytest.raises(ValueError, match="repeated"):
        bracket_chains((1, 1))
    with pytest.raises(ValueError, match="repeated"):
        bracket_chains((3, 1, 2, 3))
    with pytest.raises(ValueError, match="repeated"):
        bracket_cover((2, 2), (2,))
    with pytest.raises(ValueError, match="repeated"):
        bracket_cover((1, 4, 1), ())


def test_bracket_chains_partition_symmetric_saturated():
    grounds = [tuple(range(1, size + 1)) for size in range(11)]
    grounds += [(2, 5, 7, 11), (3, 4, 9), (1, 6, 8, 10, 13, 20)]
    for ground in grounds:
        size = len(ground)
        chains = bracket_chains(ground)
        seen = set()
        for chain in chains:
            assert len(chain[0]) + len(chain[-1]) == size
            for lo, hi in zip(chain, chain[1:]):
                assert lo < hi and len(hi) == len(lo) + 1
                assert bracket_cover(ground, lo) == max(hi - lo)
            assert bracket_cover(ground, chain[-1]) is None
            for s in chain:
                assert s not in seen
                seen.add(s)
        assert len(seen) == 2**size


def test_scd_cover_frozen_sequence():
    m = _eight_col_rref(F2, 1, 0, 1, 1, 1, 1)
    first = scd_cover(m)
    assert first == ins_col(m, 4)
    second = scd_cover(first)
    assert second == ins_set(m, (4, 7))
    assert scd_cover(second) is None
    assert scd_cover(ins_col(m, 7)) is None
    assert scd_cover(full_space(F3, 4)) is None
    assert scd_cover(span(F2, [(0, 1, 1)], 3)) == \
        span(F2, [(1, 0, 0), (0, 1, 1)], 3)
    assert scd_cover(zero_subspace(F2, 2)) == span(F2, [(1, 0)], 2)


def test_scd_frozen_small_cases():
    dec = scd(F2, 1)
    assert [[x.rows for x in c] for c in dec.chains] == [[(), ((1,),)]]
    dec = scd(F2, 2)
    assert sorted(len(c) for c in dec.chains) == [1, 1, 3]
    big = next(c for c in dec.chains if len(c) == 3)
    assert [x.rows for x in big] == [(), ((1, 0),), ((1, 0), (0, 1))]
    dec = scd(F2, 3)
    assert len(dec.chains) == 7 and dec.size == 16


def test_scd_partition_symmetric_saturated_small():
    for field, nmax in ((F2, 4), (F3, 3)):
        for n in range(nmax + 1):
            dec = scd(field, n)
            seen = set()
            for chain in dec.chains:
                assert chain[0].dim + chain[-1].dim == n
                for lo, hi in zip(chain, chain[1:]):
                    assert hi.dim == lo.dim + 1 and subspace_leq(lo, hi)
                for x in chain:
                    assert x not in seen
                    seen.add(x)
                cur = chain[0]
                for expected in chain[1:]:
                    cur = scd_cover(cur)
                    assert cur == expected
                assert scd_cover(chain[-1]) is None
            assert len(seen) == subspace_count(field.q, n)


@pytest.mark.parametrize("q", (4, 5, 7, 8, 9))
def test_scd_cover_follows_every_chain(q):
    """scd_cover steps along every chain of scd(F_q^4) and returns None at
    its top.  n = 4 is the smallest size at which one insertion in place of
    the delete-and-reinsert move leaves the chains on these fields."""
    for chain in scd(gf(q), 4).chains:
        for lo, hi in zip(chain, chain[1:]):
            assert scd_cover(lo) == hi
        assert scd_cover(chain[-1]) is None


def cover_by_reinsertion(x):
    """(cover, whether I has a member above j) by the old route, the
    reference the one-row merge of scd_cover is checked against: delete the
    inessential pivots I down to the primary and insert I + {j} again,
    |I| + 1 insertions."""
    ground, inl = set_and_subset(x)
    j = bracket_cover(ground, inl)
    if j is None:
        return None, False
    return ins_set(del_set(x, inl), inl | {j}), any(i > j for i in inl)


#: (n, covers, covers whose I has a member above j) per field.
COVER_CASES = {2: (6, 1430, 192), 3: (5, 1454, 125), 4: (4, 172, 3),
               5: (4, 314, 3), 7: (3, 59, 1), 8: (3, 75, 1), 9: (3, 93, 1)}


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_scd_cover_matches_the_reinsertion_route(q):
    """On every subspace, the first cover (no memo) and the next one (from
    the memo the first hands on) equal ins_set(del_set(x, I), I + {j}),
    including the covers where I has a member above j, where the row v_j of
    p may be nonzero at those pivots of x and scd_cover reduces it."""
    n, covers, above = COVER_CASES[q]
    seen = [0, 0]
    for x in enumerate_subspaces(gf(q), n):
        y = scd_cover(x)
        expected, has_above = cover_by_reinsertion(x)
        assert y == expected
        if y is None:
            continue
        seen[0] += 1
        seen[1] += has_above
        assert "_primary" in vars(y)
        assert scd_cover(y) == cover_by_reinsertion(y)[0]
    assert seen == [covers, above]


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_scd_cover_frozen_case_with_an_inessential_pivot_above_j(q):
    """I = {4} and j = 2: the row v_2 of ins_col(p, 2) keeps a 1 at pivot 4
    of x, and the merge clears it with x's pivot-4 row.  The rows are the
    same on every field."""
    x = Rref(gf(q), 5, ((1, 0, 0, 0, 1), (0, 0, 0, 1, 0)), (1, 4))
    p = del_col(x, 4)
    assert p.rows == ((1, 0, 0, 1, 1),)
    assert ins_col(p, 2).rows[1] == (0, 1, 0, 1, 1)
    y = scd_cover(x)
    assert y.rows == ((1, 0, 0, 0, 1), (0, 1, 0, 0, 1), (0, 0, 0, 1, 0))
    assert y.pivots == (1, 2, 4) and vars(y)["_primary"] == p
    assert y == ins_set(p, (2, 4))


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_scd_cover_inserts_once_per_step(q, monkeypatch):
    """Every step up a chain, the first (no memo) and each later one (from
    the memo), makes exactly one ins_col call, of the column it adds,
    including the first steps whose I has a member above j."""
    n, _, above = COVER_CASES[q]
    calls = []
    real_ins_col = decomp.ins_col

    def counting_ins_col(x, j):
        calls.append(j)
        return real_ins_col(x, j)

    monkeypatch.setattr(decomp, "ins_col", counting_ins_col)
    seen_above = 0
    for x in enumerate_subspaces(gf(q), n):
        y = x
        while True:
            calls.clear()
            cover = scd_cover(y)
            if cover is None:
                assert calls == []
                break
            assert calls == sorted(set(cover.pivots) - set(y.pivots))
            if y is x:
                seen_above += any(i > calls[0] for i in set_and_subset(x)[1])
            y = cover
    assert seen_above == above


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_every_insertion_is_one_merge(q, monkeypatch):
    """ins_col by the general builder, on every field but F_2, ends in
    exactly one _with_row call and reduces no row; on F_2 the bit kernel
    makes no _with_row call, reduces no row and equals the general route;
    each scd_cover step reduces its one row by x once."""
    merges, reductions = [], []
    real_with_row, real_reduced = decomp._with_row, decomp._reduced

    def counting_with_row(x, j, v):
        merges.append(j)
        return real_with_row(x, j, v)

    def counting_reduced(b, row):
        reductions.append(b)
        return real_reduced(b, row)

    monkeypatch.setattr(decomp, "_with_row", counting_with_row)
    monkeypatch.setattr(decomp, "_reduced", counting_reduced)
    inserted = steps = 0
    for x in enumerate_subspaces(gf(q), 4 if q <= 3 else 3):
        for j in set_and_subset(x)[0] - left_pivots(x):
            merges.clear()
            reductions.clear()
            y = ins_col(x, j)
            if q == 2:
                assert merges == [] and reductions == []
                assert y == real_with_row(x, j, decomp._general_row(x, j))
            else:
                assert merges == [j] and reductions == []
            inserted += 1
        y = x
        while True:
            reductions.clear()
            cover = scd_cover(y)
            if cover is None:
                break
            assert reductions == [y]
            steps += 1
            y = cover
    assert inserted and steps


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_blocks_are_boolean_sublattices(q):
    """Every block member at S is p + span(v_g : g in S), v_g the row that
    ins_col(p, g) puts into p, and for every pair of members S, T:
    member(S) + member(T) is member(S | T), and member(S & T) lies in both
    with dimension dim S + dim T - dim(S + T)."""
    field, n = gf(q), COVER_CASES[q][0]
    for blk in sbd(field, n):
        p, members = blk.primary, blk.members
        v = {g: ins_col(p, g).rows[bisect_right(p.pivots, g)]
             for g in blk.ground}
        for s, x in members.items():
            assert x == span(field, p.rows + tuple(v[g] for g in s), n)
        for (s, x), (t, y) in combinations(members.items(), 2):
            join = span(field, x.rows + y.rows, n)
            assert join == members[s | t]
            meet = members[s & t]
            assert subspace_leq(meet, x) and subspace_leq(meet, y)
            assert meet.dim == x.dim + y.dim - join.dim


@pytest.mark.parametrize("q", (4, 5))
def test_machinery_over_larger_fields(q):
    # exercises division and the pairing map outside the prime fields
    field = gf(q)
    for n in range(4):
        count = 0
        for x in enumerate_subspaces(field, n):
            count += 1
            p = psi(x)
            assert p.heights == section_ranks(x)
            assert path_from_classification(x) == p
            ground, inl = set_and_subset(x)
            for j in sorted(inl):
                assert ins_col(del_col(x, j), j) == x
            for j in sorted(ground - inl):
                y = ins_col(x, j)
                assert del_col(y, j) == x and psi(y) == p
        assert count == subspace_count(q, n)
        members = [m for blk in sbd(field, n) for m in blk.members.values()]
        assert len(members) == len(set(members)) == count
        dec = scd(field, n)
        seen = set()
        for chain in dec.chains:
            assert chain[0].dim + chain[-1].dim == n
            for lo, hi in zip(chain, chain[1:]):
                assert hi.dim == lo.dim + 1 and subspace_leq(lo, hi)
            seen.update(chain)
        assert len(seen) == count


def primaries(field, n):
    """Primary rrefs with their sorted inessential columns, read off the
    per-column section eliminations rather than the pivot sets."""
    for x in enumerate_subspaces(field, n):
        if is_primary(x):
            yield x, [j for j in range(1, n + 1)
                      if not classify_column(x, j).essential]


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_incremental_members_match_ins_set(q):
    field = gf(q)
    for n in range(5 if q <= 3 else 4):
        for x, ground in primaries(field, n):
            blk = boolean_block(x)
            assert list(blk.members) == [
                frozenset(cols) for size in range(len(ground) + 1)
                for cols in combinations(ground, size)]
            for cols, member in blk.members.items():
                assert member == ins_set(x, cols)


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_sbd_members_built_on_first_read(q, monkeypatch):
    """sbd builds no member until one is read: the block data alone costs
    no insertion, the first read of the members costs one per non-primary
    member and later reads none.  The blocks equal boolean_block over the
    primaries, and boolean_block refuses every non-primary."""
    field = gf(q)
    calls = []
    real_ins_col = decomp.ins_col

    def counting_ins_col(x, j):
        calls.append(j)
        return real_ins_col(x, j)

    monkeypatch.setattr(decomp, "ins_col", counting_ins_col)
    for n in range(5 if q <= 3 else 4):
        blocks = sbd(field, n)
        for blk in blocks:
            assert blk.size == 2 ** len(blk.ground)
            assert (blk.min_rank, blk.max_rank) == (
                blk.path.down_count, n - blk.path.down_count)
        expected = list(primaries(field, n))
        assert blocks == [boolean_block(x) for x, _ in expected]
        assert calls == []
        for blk, (x, ground) in zip(blocks, expected):
            assert blk.primary == x and list(blk.ground) == ground
            members = blk.members
            assert len(calls) == blk.size - 1
            assert blk.members is members and len(calls) == blk.size - 1
            assert len(members) == blk.size
            assert list(members) == [
                frozenset(cols) for size in range(len(ground) + 1)
                for cols in combinations(ground, size)]
            for cols, member in members.items():
                assert member == ins_set(x, cols)
            calls.clear()
        for x in enumerate_subspaces(field, n):
            if not is_primary(x):
                with pytest.raises(ValueError, match="primary"):
                    boolean_block(x)


@pytest.mark.parametrize("bulk", [sbd, scd, fiber_census],
                         ids=["sbd", "scd", "fiber_census"])
def test_bulk_commands_hold_the_enumeration_ceiling(bulk):
    with pytest.raises(TooLargeError) as want:
        list(enumerate_subspaces(F3, 4, max_size=100))
    with pytest.raises(TooLargeError) as got:
        bulk(F3, 4, max_size=100)
    assert str(got.value) == str(want.value)


def test_bulk_commands_run_no_pivot_pass_per_subspace(monkeypatch):
    """sbd, scd and fiber_census read every path off the walk: neither psi
    nor enumerate_subspaces runs."""
    def refuse(*args, **kwargs):
        raise AssertionError("the walk should have been used")

    for module in (decomp, identities):
        for name in ("psi", "enumerate_subspaces"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    total = subspace_count(3, 4)
    assert sum(blk.size for blk in sbd(F3, 4)) == total
    assert scd(F3, 4).size == total
    assert sum(row.fiber_size for row in fiber_census(F3, 4)) == total


def test_scd_reads_each_ground_set_once(monkeypatch):
    """A block keeps its ground set, so scd builds the H steps of each
    block's path once."""
    blocks = sum(1 for _ in subspaces_with_paths(F2, 5, primary_only=True))
    reads = []
    real = MotzkinPath.horizontals.fget

    def counting(path):
        reads.append(path)
        return real(path)

    monkeypatch.setattr(MotzkinPath, "horizontals", property(counting))
    assert scd(F2, 5).size == subspace_count(2, 5)
    assert len(reads) == blocks


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_scd_inserts_once_per_non_primary_member(q, monkeypatch):
    """scd builds every member but the primaries by exactly one ins_col
    call: G_q(n) minus the number of primaries."""
    n = {2: 6, 3: 4, 4: 4}.get(q, 3)
    field = gf(q)
    calls = []
    real_ins_col = decomp.ins_col

    def counting_ins_col(x, j):
        calls.append(j)
        return real_ins_col(x, j)

    monkeypatch.setattr(decomp, "ins_col", counting_ins_col)
    primaries = sum(1 for _ in subspaces_with_paths(field, n,
                                                    primary_only=True))
    assert scd(field, n).size == subspace_count(q, n)
    assert len(calls) == subspace_count(q, n) - primaries


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_scd_chains_match_ins_set(q):
    field = gf(q)
    for n in range(5 if q <= 3 else 4):
        expected = [[ins_set(x, cols) for cols in sets]
                    for x, ground in primaries(field, n)
                    for sets in bracket_chains(ground)]
        assert scd(field, n).chains == expected


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspaces)
def test_insert_delete_round_trips_on_every_field(x):
    ground, inl = set_and_subset(x)
    for j in range(1, x.n + 1):
        if j in inl:
            assert ins_col(del_col(x, j), j) == x
        elif j in ground:
            assert del_col(ins_col(x, j), j) == x
        else:
            for move in (ins_col, del_col):
                with pytest.raises(ValueError):
                    move(x, j)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspaces)
def test_cover_walk_on_every_field(x):
    path = psi(x)
    lo, hi = x, scd_cover(x)
    while hi is not None:
        assert hi.dim == lo.dim + 1 and subspace_leq(lo, hi)
        assert psi(hi) == path
        lo, hi = hi, scd_cover(hi)
    assert 2 * lo.dim >= x.n


def insertion_by(insert, x, j):
    """insert(x, j), or the text of its ValueError."""
    try:
        return insert(x, j)
    except ValueError as exc:
        return str(exc)


def general_insertion(x, j):
    """ins_col by the general route, valid on every field: the row of
    _general_row merged by _with_row; the reference for the F_2 kernel."""
    return decomp._with_row(x, j, decomp._general_row(x, j))


def fresh(x):
    """A memo-free copy of x."""
    return Rref(x.field, x.n, x.rows, x.pivots)


def carrying_bits(x):
    """A copy of the F_2 rref x that carries its packed rows, bit n - c for
    column c, in the memo, as an insertion result does."""
    y = fresh(x)
    vars(y)["_bits"] = tuple(int("".join(map(str, row)), 2)
                             for row in x.rows)
    return y


def gf2_kernel_matches(x, j):
    """The F_2 kernel equals the general route at (x, j), error texts
    included, both on a fresh x, which it packs, and on an x that already
    carries its packed rows; the result carries its own."""
    expected = insertion_by(general_insertion, fresh(x), j)
    for start in (fresh(x), carrying_bits(x)):
        got = insertion_by(ins_col, start, j)
        assert got == expected
        if not isinstance(got, str):
            assert vars(got)["_bits"] == vars(carrying_bits(got))["_bits"]
    return expected


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_row_builders_keep_the_merge_contract(q):
    """The general row builder returns a row tuple that is 1 at j and 0
    before j and at every pivot of x, the precondition of _with_row, and the
    merge of that row is the span of x and the row; at a column that is not
    insertable the builder raises.  On F_2 the bit kernel returns that
    merge, with the row at its pivot's place, from a fresh x and from one
    carrying its packed rows, and raises where the builder does."""
    field = gf(q)
    merged = 0
    for n in range(5 if q <= 3 else 4):
        for x in enumerate_subspaces(field, n):
            free = set_and_subset(x)[0] - left_pivots(x)
            for j in range(1, n + 1):
                starts = ((fresh(x), carrying_bits(x)) if q == 2 else ())
                if j not in free:
                    for insert, start in ((decomp._general_row, x),
                                          *((ins_col, y) for y in starts)):
                        with pytest.raises(ValueError, match="cannot insert"):
                            insert(start, j)
                    continue
                v = decomp._general_row(x, j)
                assert isinstance(v, tuple) and len(v) == n
                assert v[j - 1] == 1 and not any(v[:j - 1])
                assert not any(v[p - 1] for p in x.pivots)
                y = decomp._with_row(x, j, v)
                assert y == span(field, x.rows + (v,), n)
                for start in starts:
                    got = ins_col(start, j)
                    assert got == y
                    assert got.rows[bisect_right(x.pivots, j)] == v
                merged += 1
    assert merged


def test_gf2_kernel_matches_the_general_route_exhaustively():
    """The bit kernel equals the general insertion, error texts included,
    for every subspace of F_2^n, n <= 6, at every column, packed afresh or
    carried."""
    for n in range(7):
        for x in enumerate_subspaces(F2, n):
            for j in range(n + 2):
                gf2_kernel_matches(x, j)


def test_gf2_insertion_is_undone_by_deletion():
    """del_col, still the general route, inverts the kernel over F_2."""
    inserted = 0
    for n in range(7):
        for x in enumerate_subspaces(F2, n):
            for j in set_and_subset(x)[0] - left_pivots(x):
                assert del_col(ins_col(x, j), j) == x
                inserted += 1
    assert inserted


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.integers(0, 20), st.integers(0, 2**32 - 1))
@example(0, 0)
@example(1, 0)
@example(1, 1)
@example(20, 0)
def test_gf2_kernel_matches_the_general_route_on_wide_rows(n, seed):
    """Rows up to 20 bits wide, every column from 0 to n + 1, so the empty
    tail at j = n and the spaces F_2^0 and F_2^1 are always reached; packed
    afresh or carried."""
    x = sample_subspace(F2, n, random.Random(seed))
    for j in range(n + 2):
        got = gf2_kernel_matches(x, j)
        if not isinstance(got, str):
            assert del_col(ins_col(x, j), j) == x


def test_gf2_insertion_packs_only_what_carries_no_packed_rows(monkeypatch):
    """Building the chains of scd over F_2^n, n <= 6, packs only the rows of
    the primaries: every other member is read from its memo."""
    packed = []
    real_packed = decomp._packed

    def counting_packed(row):
        packed.append(row)
        return real_packed(row)

    monkeypatch.setattr(decomp, "_packed", counting_packed)
    for n in range(7):
        packed.clear()
        primaries = [chain[0] for chain in scd(F2, n).chains
                     if len(chain) > 1 and is_primary(chain[0])]
        assert packed == [row for p in primaries for row in p.rows]


def test_gf2_chain_members_carry_their_rows_packed():
    """Every member of scd over F_2^n, n <= 6, that an insertion built or
    read carries its rows packed, bit n - c for column c, and they unpack to
    its rows; only a primary no insertion read carries none."""
    carried = 0
    for n in range(7):
        for chain in scd(F2, n).chains:
            for y in chain:
                bits = vars(y).get("_bits")
                if bits is None:
                    assert is_primary(y) and len(chain) == 1
                    continue
                assert all(0 <= b < 1 << n for b in bits)
                assert tuple(tuple(int(c) for c in format(b, f"0{n}b"))
                             for b in bits) == y.rows
                carried += 1
    assert carried


@pytest.mark.parametrize("q", (2, 3))
def test_inserted_rrefs_stay_frozen_and_their_memo_unseen(q):
    """An Rref built by either insertion route refuses field assignment,
    and the memo scd_cover leaves on it stays out of == and hash."""
    field = gf(q)
    x = span(field, [(0, 1, 1, 0)], 4)
    y = ins_col(x, 1)
    for name in ("field", "n", "rows", "pivots"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(y, name, getattr(y, name))
    cover = scd_cover(y)
    assert set(vars(cover)) >= {"_path", "_primary"}
    copy = Rref(cover.field, cover.n, cover.rows, cover.pivots)
    assert "_primary" not in vars(copy)
    assert cover == copy and hash(cover) == hash(copy)


#: Largest n of the route equality per field: every subspace of F_q^n.
ROUTE_N = {2: 5, 3: 4, 4: 3, 5: 3, 7: 3, 8: 3, 9: 3}


def rows_by_both_routes(x):
    """_general_row at every column 0..n + 1 (row or ValueError text) on a
    copy psi has mapped, which reads its row ends, and on a memo-free copy,
    which eliminates; the two lists must match."""
    mapped = fresh(x)
    psi(mapped)
    assert "_ends" in vars(mapped)
    return [[insertion_by(decomp._general_row, start, j)
             for j in range(x.n + 2)] for start in (mapped, fresh(x))]


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_general_row_reads_the_row_ends_as_the_elimination_finds(q):
    rows = 0
    for n in range(ROUTE_N[q] + 1):
        for x in enumerate_subspaces(gf(q), n):
            by_ends, by_elimination = rows_by_both_routes(x)
            assert by_ends == by_elimination
            rows += sum(isinstance(v, tuple) for v in by_ends)
    assert rows


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspaces)
def test_general_row_routes_agree_on_every_field(x):
    by_ends, by_elimination = rows_by_both_routes(x)
    assert by_ends == by_elimination


@pytest.mark.parametrize("q", [q for q in ALL_FIELDS if q != 2])
def test_a_cover_step_from_a_mapped_subspace_eliminates_nothing(
        q, monkeypatch):
    """Over q != 2 every step up a chain from a primary psi has mapped, the
    first and each later one, makes no _eliminate call, wrapped both where
    matspace defines it and where psi imported it; a copy of the primary
    that carries its path but no row ends, as scd_cover's covers do, makes
    one per step, the elimination of its insertion's section."""
    calls = []
    real = matspace._eliminate

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(matspace, "_eliminate", counted)
    monkeypatch.setattr(psi_mod, "_eliminate", counted)
    steps = 0
    for x in enumerate_subspaces(gf(q), 4 if q <= 5 else 3):
        if psi(x).down_count != x.dim:
            continue
        y = x
        while True:
            calls.clear()
            y = scd_cover(y)
            if y is None:
                break
            assert calls == []
            steps += 1
        y = fresh(x)
        vars(y)["_path"] = psi(x)
        while True:
            calls.clear()
            y = scd_cover(y)
            if y is None:
                break
            assert len(calls) == 1
    assert steps
