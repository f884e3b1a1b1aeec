"""The forward elimination kernel and everything read from it, against
brute force over all seven supported fields: the rref against full
Gauss-Jordan elimination, ranks and the lexically first basis against span
sizes, coordinates by reconstructing the target, containment against span
containment, and the column guards of ins_col/del_col against the rank
definition of the column classes."""

import random
from itertools import product

import pytest

from conftest import gauss_jordan
from qlattice import (Mat, classify_column, del_col, enumerate_subspaces, gf,
                      ins_col, rref_left, subspace_leq)
from qlattice.matspace import (_eliminate, express_in_rows,
                               lexically_first_basis, rank_of)

ALL_FIELDS = (2, 3, 4, 5, 7, 8, 9)


def span_of(field, rows, n):
    """Every vector of the row space, by closing {0} under each row."""
    vectors = {(0,) * n}
    for row in rows:
        vectors = {tuple(field.add(v[t], field.mul(c, row[t]))
                         for t in range(n))
                   for v in vectors for c in field.elements()}
    return vectors


def combine(field, coeffs, rows, n):
    out = [0] * n
    for c, row in zip(coeffs, rows):
        for t in range(n):
            out[t] = field.add(out[t], field.mul(c, row[t]))
    return tuple(out)


def random_matrices(q, count=40):
    """Seeded (n, rows) pairs, n <= 6, with few enough rows that the span
    stays small; some rows are zero or repeat earlier ones."""
    rng = random.Random(1000 + q)
    max_rows = 4 if q <= 5 else 3
    for _ in range(count):
        n = rng.randrange(7)
        rows = []
        for _ in range(rng.randrange(max_rows + 1)):
            pick = rng.random()
            if pick < 0.15:
                rows.append((0,) * n)
            elif pick < 0.3 and rows:
                rows.append(rng.choice(rows))
            else:
                rows.append(tuple(rng.randrange(q) for _ in range(n)))
        yield n, rows


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_rref_left_matches_gauss_jordan(q):
    field = gf(q)
    for n, rows in random_matrices(q):
        x = rref_left(Mat(field, n, tuple(rows)))
        assert (x.rows, x.pivots) == gauss_jordan(field, rows, n)


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_rank_and_lexically_first_basis_against_spans(q):
    field = gf(q)
    for n, rows in random_matrices(q):
        assert q ** rank_of(field, rows, n) == len(span_of(field, rows, n))
        # row i is kept exactly when it enlarges the span of the rows above
        grows = [i + 1 for i in range(len(rows))
                 if rows[i] not in span_of(field, rows[:i], n)]
        assert lexically_first_basis(field, rows, n) == grows


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_coordinates_and_membership_against_spans(q):
    field = gf(q)
    rng = random.Random(q)
    for n, rows in random_matrices(q):
        basis = [rows[i - 1] for i in lexically_first_basis(field, rows, n)]
        space = span_of(field, basis, n)
        inside = combine(field, [rng.randrange(q) for _ in basis], basis, n)
        anywhere = tuple(rng.randrange(q) for _ in range(n))
        for target in (inside, anywhere):
            coeffs = express_in_rows(field, basis, target, n)
            assert (coeffs is not None) == (target in space)
            if coeffs is not None:
                assert combine(field, coeffs, basis, n) == target
        # every input row, kept or not, from its coordinates over the kept
        # rows
        kept = [rows[i] for i in _eliminate(field, rows, n).kept]
        for row in rows:
            coeffs = express_in_rows(field, kept, row, n)
            assert combine(field, coeffs, kept, n) == tuple(row)
        if len(kept) < len(rows):
            # dependent rows give no unique coordinates
            with pytest.raises(ValueError, match="linearly dependent"):
                express_in_rows(field, rows, anywhere, n)
        # the empty basis spans the zero vector only
        assert express_in_rows(field, [], (0,) * n, n) == ()
        assert (express_in_rows(field, [], anywhere, n) is None) == any(
            anywhere)


def test_coordinates_refuse_a_repeated_line():
    # two spanning rows of one line; the target is the first of them
    with pytest.raises(ValueError, match="linearly dependent"):
        express_in_rows(gf(3), [(1, 0, 0), (2, 0, 0)], (1, 0, 0), 3)


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_subspace_leq_against_spans(q):
    """Pairs (a, b) with b from the seeded matrices and a either from
    combinations of b's rows (so a <= b) or from random rows; both
    directions are checked against containment of the brute-force spans."""
    field = gf(q)
    rng = random.Random(2000 + q)
    found = set()
    for n, rows in random_matrices(q):
        b = rref_left(Mat(field, n, tuple(rows)))
        if rng.random() < 0.5:
            a_rows = [combine(field, [rng.randrange(q) for _ in rows], rows, n)
                      for _ in range(rng.randrange(3))]
        else:
            a_rows = [tuple(rng.randrange(q) for _ in range(n))
                      for _ in range(rng.randrange(3))]
        a = rref_left(Mat(field, n, tuple(a_rows)))
        sa, sb = span_of(field, a.rows, n), span_of(field, b.rows, n)
        assert subspace_leq(a, b) == (sa <= sb)
        assert subspace_leq(b, a) == (sb <= sa)
        found.add((sa <= sb, sb <= sa))
    # both outcomes occur in each direction
    assert {x for x, _ in found} == {y for _, y in found} == {False, True}


def reference_class(x, j):
    """(pivotal, essential) of column j by the rank definition, with ranks
    from the Gauss-Jordan reference."""
    def rank(rows, width):
        return len(gauss_jordan(x.field, rows, width)[1])
    m = sum(1 for p in x.pivots if p <= j)
    w = x.n - j
    if m and x.pivots[m - 1] == j:
        head = [row[j:] for row in x.rows[:m - 1]]
        return True, rank(head + [x.rows[m - 1][j:]], w) > rank(head, w)
    rows = x.rows[:m]
    return False, (rank([r[j - 1:] for r in rows], w + 1)
                   > rank([r[j:] for r in rows], w))


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_column_guards_on_every_subspace(q):
    field = gf(q)
    for n in range(5 if q <= 3 else 4):
        for x in enumerate_subspaces(field, n):
            for j in range(1, n + 1):
                pivotal, essential = reference_class(x, j)
                assert tuple(classify_column(x, j)) == (pivotal, essential)
                if pivotal or essential:
                    with pytest.raises(ValueError, match="not nonpivotal "
                                       "and inessential; cannot insert"):
                        ins_col(x, j)
                else:
                    assert del_col(ins_col(x, j), j) == x
                if not pivotal or essential:
                    with pytest.raises(ValueError, match="not pivotal and "
                                       "inessential; cannot delete"):
                        del_col(x, j)
                else:
                    assert ins_col(del_col(x, j), j) == x
            for j, move in product((0, n + 1), (classify_column, ins_col,
                                                 del_col)):
                with pytest.raises(ValueError,
                                   match=rf"column {j} outside \[1, {n}\]"):
                    move(x, j)
