import random
from collections import Counter
from itertools import product

import pytest

from conftest import ALL_FIELDS, _pivot_sets, sample_subspace
from qlattice import (Mat, TooLargeError, enumerate_subspaces, format_matrix,
                      full_space, gf, is_valid_rref, left_pivots,
                      parse_matrix, qbinomial, right_pivots, rref_left,
                      span, subspace_count, subspace_leq, zero_subspace)
from qlattice.acceptance import _six_col_rref

F2 = gf(2)
F3 = gf(3)


def galois_oracle(q, n):
    """Independent two-term recurrence for the number of subspaces."""
    g = [1, 2]
    for m in range(1, n):
        g.append(2 * g[-1] + (q**m - 1) * g[-2])
    return g[n]


def all_vectors_of(x):
    """Brute force: every vector in the row space, via all coefficient
    tuples."""
    q, n = x.field.q, x.n
    out = set()
    for coeffs in product(range(q), repeat=x.dim):
        v = [0] * n
        for cf, row in zip(coeffs, x.rows):
            for t in range(n):
                v[t] = x.field.add(v[t], x.field.mul(cf, row[t]))
        out.add(tuple(v))
    return out


def test_rref_frozen_examples():
    x = rref_left(Mat(F2, 2, ((1, 1), (0, 1))))
    assert x.rows == ((1, 0), (0, 1)) and x.pivots == (1, 2)
    y = rref_left(Mat(F2, 3, ((0, 1, 1),)))
    assert y.rows == ((0, 1, 1),) and y.pivots == (2,)
    z = rref_left(Mat(F2, 3, ((1, 1, 0), (1, 0, 1))))
    assert z.rows == ((1, 0, 1), (0, 1, 1)) and z.pivots == (1, 2)


def test_rref_discards_zero_rows_and_accepts_empty():
    x = rref_left(Mat(F3, 3, ((0, 0, 0), (0, 0, 0))))
    assert x.dim == 0 and x.rows == () and x.pivots == ()
    assert rref_left(Mat(F3, 3, ())).dim == 0


def test_rref_idempotent_and_rowspace_preserving():
    rng = random.Random(20240501)
    for field in (F2, F3):
        for n in range(1, 5):
            for _ in range(25):
                k = rng.randrange(0, n + 1)
                rows = tuple(tuple(rng.randrange(field.q) for _ in range(n))
                             for _ in range(k))
                x = rref_left(Mat(field, n, rows))
                assert is_valid_rref(x)
                again = rref_left(Mat(field, n, x.rows))
                assert again == x
                # row spaces coincide, by exhausting both
                brute = all_vectors_of(
                    rref_left(Mat(field, n, rows)))
                raw = set()
                for coeffs in product(range(field.q), repeat=k):
                    v = [0] * n
                    for cf, row in zip(coeffs, rows):
                        for t in range(n):
                            v[t] = field.add(v[t], field.mul(cf, row[t]))
                    raw.add(tuple(v))
                assert brute == raw


def test_pivot_sets_on_six_column_family():
    for q in (2, 3, 4, 5):
        field = gf(q)
        for b, d in product(field.units(), repeat=2):
            for a, c, e in product(field.elements(), repeat=3):
                x = _six_col_rref(field, a, b, c, d, e)
                assert is_valid_rref(x)
                assert left_pivots(x) == {1, 3, 5}
                assert right_pivots(x) == {4, 5, 6}


def test_pivot_sets_edge_cases():
    assert left_pivots(zero_subspace(F2, 4)) == frozenset()
    assert right_pivots(zero_subspace(F2, 4)) == frozenset()
    assert right_pivots(full_space(F3, 4)) == frozenset({1, 2, 3, 4})
    x = span(F2, [(0, 1, 1)], 3)
    assert left_pivots(x) == {2}
    assert right_pivots(x) == {3}


def test_pivot_sets_match_coordinate_characterization():
    # Oracle: first/last nonzero coordinates over every vector of the space.
    for field, nmax in ((F2, 4), (F3, 3)):
        for n in range(nmax + 1):
            for x in enumerate_subspaces(field, n):
                firsts, lasts = set(), set()
                for v in all_vectors_of(x):
                    support = [i + 1 for i, e in enumerate(v) if e]
                    if support:
                        firsts.add(support[0])
                        lasts.add(support[-1])
                assert left_pivots(x) == firsts
                assert right_pivots(x) == lasts
                assert len(firsts) == len(lasts) == x.dim


def test_subspace_leq():
    x = span(F2, [(0, 1, 1)], 3)
    e1 = span(F2, [(1, 0, 0)], 3)
    assert subspace_leq(x, x)
    assert subspace_leq(zero_subspace(F2, 3), x)
    assert not subspace_leq(e1, x)
    assert subspace_leq(x, full_space(F2, 3))
    with pytest.raises(ValueError):
        subspace_leq(x, full_space(F2, 4))
    with pytest.raises(ValueError):
        subspace_leq(x, full_space(F3, 3))


def test_left_pivots_monotone_under_containment():
    xs = list(enumerate_subspaces(F2, 4))
    for x in xs:
        for y in xs:
            if subspace_leq(x, y):
                assert left_pivots(x) <= left_pivots(y)


def test_enumeration_counts_match_recurrence():
    for q, nmax in ((2, 6), (3, 4)):
        field = gf(q)
        for n in range(nmax + 1):
            got = sum(1 for _ in enumerate_subspaces(field, n))
            assert got == galois_oracle(q, n) == subspace_count(q, n)
    assert subspace_count(2, 6) == 2825


def test_enumeration_distinct_valid_and_zero_dim():
    seen = set()
    for x in enumerate_subspaces(F3, 3):
        assert is_valid_rref(x)
        assert x not in seen
        seen.add(x)
    assert len(seen) == 28
    assert [x.rows for x in enumerate_subspaces(F2, 0)] == [()]


def test_enumeration_distinct_at_full_stated_scale():
    for q in (2, 3):
        field = gf(q)
        for n in range(7):
            seen = set()
            for x in enumerate_subspaces(field, n):
                seen.add(x.rows)
            assert len(seen) == galois_oracle(q, n)


def test_enumeration_order_is_pinned():
    got = [x.rows for x in enumerate_subspaces(F2, 2)]
    assert got == [
        (),
        ((1, 0),), ((1, 1),), ((0, 1),),
        ((1, 0), (0, 1)),
    ]
    # dimension, then pivot set, then rows lexicographic, on every field
    for q in ALL_FIELDS:
        for n in range({2: 6, 3: 5}.get(q, 4)):
            got = list(enumerate_subspaces(gf(q), n))
            assert got == sorted(got, key=lambda x: (x.dim, x.pivots, x.rows))
            assert len(set(got)) == len(got) == subspace_count(q, n)


def test_enumeration_guard():
    with pytest.raises(TooLargeError):
        list(enumerate_subspaces(F2, 4, max_size=10))


def test_subspace_sampler_is_uniform():
    """The sampler behind the property tests: its pivot-set weights sum to
    the Gaussian binomials, and seeded draws reach every subspace of F_2^3
    and F_3^2 about equally often."""
    for q in ALL_FIELDS:
        for n in range(7):
            for k in range(n + 1):
                assert sum(_pivot_sets(q, n, k)[1]) == qbinomial(n, k)(q)
    rng = random.Random(0)
    for field, n in ((F2, 3), (F3, 2)):
        total = subspace_count(field.q, n)
        draws = Counter(sample_subspace(field, n, rng)
                        for _ in range(200 * total))
        assert set(draws) == set(enumerate_subspaces(field, n))
        assert all(140 <= c <= 260 for c in draws.values()), draws
    big = [sample_subspace(gf(q), 12, rng) for q in ALL_FIELDS]
    assert all(is_valid_rref(x) and x.n == 12 for x in big)


def test_matrix_text_format_roundtrip():
    m = Mat(F3, 3, ((0, 1, 2), (1, 0, 0)))
    assert parse_matrix(format_matrix(m)) == m
    empty = Mat(F2, 4, ())
    assert format_matrix(empty) == "2 4 0\n"
    assert parse_matrix("2 4 0\n") == empty


def test_matrix_text_format_errors():
    with pytest.raises(ValueError):
        parse_matrix("")
    with pytest.raises(ValueError):
        parse_matrix("2 3\n")
    with pytest.raises(ValueError):
        parse_matrix("2 3 1\n0 1\n")
    with pytest.raises(ValueError):
        parse_matrix("2 3 1\n0 1 5\n")
    with pytest.raises(ValueError):
        parse_matrix("2 3 2\n0 1 1\n")
