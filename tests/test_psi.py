from itertools import product

import pytest
from hypothesis import given, settings

from conftest import ALL_FIELDS, primaries_by_cells, subspaces
from qlattice import (MotzkinPath, Rref, classify_column, classify_columns,
                      enumerate_paths, enumerate_subspaces, full_space, gf,
                      is_primary, path_from_classification, psi, section,
                      section_rank, section_ranks, set_and_subset, span,
                      subspaces_with_paths, zero_subspace)
from qlattice.acceptance import _eight_col_rref, _six_col_rref
from qlattice.psi import (_CLASSES, _general_right_pivot, _pivot_path,
                          _row_step, column_elimination, right_pivots)

F2 = gf(2)
F3 = gf(3)


def test_section_shapes_and_edges():
    x = full_space(F2, 2)
    s1 = section(x, 1)
    assert s1.rows == ((0,),) and s1.n == 1
    assert section_rank(x, 1) == 0
    assert section(x, 2).rows == ((), ()) and section(x, 2).n == 0
    assert section(x, 0).rows == ()
    assert section_rank(x, 0) == 0 and section_rank(x, 2) == 0


def test_section_refuses_a_column_outside_the_range():
    x = span(F2, [(1, 0, 1)], 3)
    for j in (-1, 4, 5, 7):
        with pytest.raises(ValueError, match=rf"column {j} outside \[0, 3\]"):
            section(x, j)
        with pytest.raises(ValueError, match=rf"column {j} outside \[0, 3\]"):
            section_rank(x, j)


def test_classify_column_refuses_an_invalid_rref():
    """As psi does, classify_column and the references built on it raise
    ValueError on a row not reduced at a later pivot, pivots out of order,
    an entry outside the field or a pivot outside [1, n], at every column."""
    bad = (Rref(F2, 3, ((1, 1, 0), (0, 1, 1)), (1, 2)),
           Rref(F2, 3, ((0, 1, 0), (1, 0, 0)), (2, 1)),
           Rref(F3, 2, ((1, 3),), (1,)),
           Rref(F2, 2, ((0, 1),), (2, 3)))
    for x in bad:
        for j in range(1, x.n + 1):
            with pytest.raises(ValueError, match="valid rref"):
                classify_column(x, j)
        for reader in (path_from_classification, is_primary):
            with pytest.raises(ValueError, match="valid rref"):
                reader(x)


def test_section_ranks_of_eight_column_family():
    for q in (2, 3):
        field = gf(q)
        for a, d, e, f in product(field.units(), repeat=4):
            for b, c in product(field.elements(), repeat=2):
                x = _eight_col_rref(field, a, b, c, d, e, f)
                assert section_ranks(x) == (0, 1, 2, 1, 1, 2, 1, 1, 0)


def test_classification_of_six_column_family():
    for q in (2, 3, 5):
        field = gf(q)
        for b, d in product(field.units(), repeat=2):
            for a, c, e in product(field.elements(), repeat=3):
                x = _six_col_rref(field, a, b, c, d, e)
                cls = classify_columns(x)
                assert [j for j, c_ in enumerate(cls, 1) if not c_.essential] \
                    == [2, 5]
                assert [j for j, c_ in enumerate(cls, 1) if c_.pivotal] \
                    == [1, 3, 5]


def test_classification_edges():
    # full space: every column pivotal and inessential
    x = full_space(F3, 3)
    assert all(c.pivotal and not c.essential for c in classify_columns(x))
    # single vector (0,1,1): nonpivotal inessential, pivotal essential,
    # nonpivotal essential
    y = span(F2, [(0, 1, 1)], 3)
    assert classify_columns(y) == tuple(
        pe for pe in ((False, False), (True, True), (False, True)))
    with pytest.raises(ValueError):
        classify_column(y, 0)
    with pytest.raises(ValueError):
        classify_column(y, 4)


def test_first_and_last_column_rules():
    # a pivotal first column is inessential iff the first row is e_1
    e1 = span(F2, [(1, 0, 0)], 3)
    assert classify_column(e1, 1) == (True, False)
    mixed = span(F2, [(1, 1, 0)], 3)
    assert classify_column(mixed, 1) == (True, True)
    # a nonpivotal last column is inessential iff it is zero
    zlast = span(F2, [(1, 0, 0), (0, 1, 0)], 3)
    assert classify_column(zlast, 3) == (False, False)
    nzlast = span(F2, [(1, 0, 1)], 3)
    assert classify_column(nzlast, 3) == (False, True)
    # a pivotal last column is always inessential
    plast = span(F2, [(0, 0, 1)], 3)
    assert classify_column(plast, 3) == (True, False)


def test_psi_on_families_and_edges():
    for q in (2, 3, 4, 5):
        field = gf(q)
        for b, d in product(field.units(), repeat=2):
            for a, c, e in product(field.elements(), repeat=3):
                assert psi(_six_col_rref(field, a, b, c, d, e)).steps \
                    == "UHUDHD"
    assert psi(zero_subspace(F3, 4)).steps == "HHHH"
    assert psi(full_space(F3, 4)).steps == "HHHH"
    assert psi(span(F2, [(0, 1, 1)], 3)).steps == "HUD"
    assert psi(zero_subspace(F2, 0)).steps == ""


def test_is_primary():
    for q in (2, 3):
        field = gf(q)
        for a, d, e, f in product(field.units(), repeat=4):
            for b, c in product(field.elements(), repeat=2):
                assert is_primary(_eight_col_rref(field, a, b, c, d, e, f))
    assert not is_primary(full_space(F2, 3))
    assert not is_primary(_six_col_rref(F2, 0, 1, 0, 1, 0))
    assert is_primary(zero_subspace(F2, 3))


def test_set_and_subset():
    x = _eight_col_rref(F2, 1, 0, 1, 1, 1, 1)
    ground, inl = set_and_subset(x)
    assert ground == {4, 7} and inl == frozenset()
    full = full_space(F3, 3)
    assert set_and_subset(full) == ({1, 2, 3}, {1, 2, 3})
    y = _six_col_rref(F2, 0, 1, 0, 1, 0)
    assert set_and_subset(y) == ({2, 5}, {5})


def test_both_routes_agree_and_match_heights():
    for field, nmax in ((F2, 5), (F3, 3)):
        for n in range(nmax + 1):
            for x in enumerate_subspaces(field, n):
                p = psi(x)
                assert path_from_classification(x) == p
                assert p.heights == section_ranks(x)
                ground, inl = set_and_subset(x)
                cls = [classify_column(x, j) for j in range(1, n + 1)]
                assert ground == {j for j, c in enumerate(cls, 1)
                                  if not c.essential}
                assert inl == {j for j, c in enumerate(cls, 1)
                               if c.pivotal and not c.essential}
                assert is_primary(x) == (not inl)


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_psi_and_set_and_subset_match_classification(q):
    """The pivot pass against the section route, column by column; a
    subspace is primary exactly when its dimension equals the down count of
    its path."""
    field = gf(q)
    for n in range(4 if q <= 3 else 3):
        for x in enumerate_subspaces(field, n):
            path = psi(x)
            ground, inl = set_and_subset(x)
            classes = tuple(classify_column(x, j) for j in range(1, n + 1))
            assert classify_columns(x) == classes
            assert path == path_from_classification(x)
            assert ground == {j for j, c in enumerate(classes, start=1)
                              if not c.essential}
            assert inl == {j for j in ground if classes[j - 1].pivotal}
            assert is_primary(x) == (path.down_count == x.dim) == (not inl)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspaces)
def test_psi_routes_agree_on_every_field(x):
    assert psi(x) == path_from_classification(x)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspaces)
def test_heights_are_section_ranks_on_every_field(x):
    assert psi(x).heights == section_ranks(x)


#: Largest n of the walk cross-checks per field.
WALK_N = {2: 6, 3: 4}


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_walk_is_psi_over_the_enumeration(q):
    """The walk yields (x, psi(x)) in enumeration order, and the pruned walk
    exactly the primaries: dimension at most n/2 and equal to the down
    count of the path.  psi shares the walk's row step, so the path is also
    checked against the section route, which does not."""
    field = gf(q)
    for n in range(WALK_N.get(q, 3) + 1):
        expected = [(x, psi(x)) for x in enumerate_subspaces(field, n)]
        walked = list(subspaces_with_paths(field, n))
        assert walked == expected
        assert [p for _, p in walked] == [
            path_from_classification(x) for x, _ in walked]
        assert list(subspaces_with_paths(field, n, primary_only=True)) == [
            (x, p) for x, p in expected
            if 2 * x.dim <= n and p.down_count == x.dim]


def test_the_f2_bit_step_is_the_general_step():
    """psi and the walk take the bit step over F_2.  The general sub_scaled
    step, valid at q = 2, is its reference: on every subspace of F_2^n,
    n <= 7, each row reaches the same right pivot and the same reduced row,
    so the right pivot mask and the path are the same."""
    encode, bit_step = _row_step(F2)
    general_step = _general_right_pivot(F2)
    assert encode((1, 0, 1, 1)) == 0b1101 and _row_step(F3)[0]((1, 2)) == (1, 2)
    paths = {}
    for n in range(8):
        for x, path in subspaces_with_paths(F2, n):
            bits, rows, right = [None] * n, [None] * n, 0
            for row in x.rows:
                t, r = bit_step(bits, encode(row))
                u, s = general_step(rows, row)
                assert (t, r) == (u, encode(s))
                bits[t], rows[u] = r, s
                right |= 1 << u
            left = sum(1 << (p - 1) for p in x.pivots)
            assert _pivot_path(left, right, n, paths) == path


def test_walk_edges():
    empty = zero_subspace(F3, 0)
    for primary_only in (False, True):
        assert list(subspaces_with_paths(F3, 0, primary_only=primary_only)) \
            == [(empty, MotzkinPath(""))]
    line = full_space(F2, 1)
    h = MotzkinPath("H")
    assert list(subspaces_with_paths(F2, 1)) == [(zero_subspace(F2, 1), h),
                                                 (line, h)]
    assert list(subspaces_with_paths(F2, 1, primary_only=True)) == [
        (zero_subspace(F2, 1), h)]


def test_walk_builds_one_path_per_word():
    paths = {}
    for _, p in subspaces_with_paths(F3, 4):
        assert paths.setdefault(p.steps, p) is p
    assert len(paths) == sum(1 for _ in enumerate_paths(4))


#: Largest n of the primary-cell cross-checks per field.
CELL_N = {2: 7, 3: 5, 4: 4, 5: 4}


def cell_order(item):
    x, _ = item
    return x.dim, x.pivots, x.rows


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_primary_cells_are_the_pruned_walk(q):
    """The primaries built cell by cell from the involutions over each path,
    with no pivot pass, are the pruned walk's (primary, path) pairs: equal
    as sets, each once, and equal in order once sorted by dimension, pivots
    and rows.  Each path carries (q-1)^|P| w(P,q) of them."""
    field = gf(q)
    for n in range(CELL_N.get(q, 3) + 1):
        cells = list(primaries_by_cells(field, n))
        walk = list(subspaces_with_paths(field, n, primary_only=True))
        assert len(set(cells)) == len(cells)
        assert set(cells) == set(walk)
        assert sorted(cells, key=cell_order) == walk
        for p in enumerate_paths(n):
            assert sum(1 for _, path in cells if path == p) == (
                (q - 1) ** p.down_count * p.weight()(q))


#: Largest n of the row-end law per field: every subspace of F_q^n.
END_N = {2: 6, 3: 5, 4: 4, 5: 4, 7: 3, 8: 3, 9: 3}


def row_end_law(x):
    """The row ends psi keeps on x, against the forward elimination of each
    column 1..n: the rows that column_elimination keeps for their tails
    (pivot in the tail, not on the appended column j) are the rows with
    pivot at or before j and end after j, and j is nonpivotal and
    inessential exactly when it is no left pivot and step j is H, that is
    when it is neither a left pivot nor an end.  Returns the columns
    checked."""
    path = psi(x)
    ends = vars(x)["_ends"]
    assert len(ends) == x.dim and set(ends) == right_pivots(x)
    for j in range(1, x.n + 1):
        cls, m, e = column_elimination(x, j)
        assert ([i for i, p in zip(e.kept, e.pivots) if p <= x.n - j]
                == [i for i in range(m) if ends[i] > j])
        insertable = not cls.pivotal and not cls.essential
        assert insertable == (j not in x.pivots and path.steps[j - 1] == "H")
        assert insertable == (j not in x.pivots and j not in ends)
    return x.n


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_row_ends_hold_every_section_basis(q):
    field = gf(q)
    columns = sum(row_end_law(x) for n in range(END_N[q] + 1)
                  for x in enumerate_subspaces(field, n))
    assert columns


@settings(derandomize=True, max_examples=200, deadline=None)
@given(subspaces)
def test_row_end_law_on_every_field(x):
    row_end_law(x)


def test_classes_are_the_four_values_built_once():
    """classify_columns and column_elimination hand out the four
    ColumnClass values built at import, never a new one."""
    x = Rref(F3, 4, ((1, 0, 2, 0), (0, 1, 1, 0)), (1, 2))
    assert [[(c.pivotal, c.essential) for c in row] for row in _CLASSES] == [
        [(False, False), (False, True)], [(True, False), (True, True)]]
    four = {id(c) for row in _CLASSES for c in row}
    assert {id(c) for c in classify_columns(x)} <= four
    assert {id(column_elimination(x, j)[0]) for j in range(1, 5)} <= four
