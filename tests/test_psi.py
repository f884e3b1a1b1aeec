from itertools import product

import pytest

from conftest import eight_col_family, six_col_family
from qlattice import (classify_column, classify_columns, enumerate_subspaces,
                      full_space, gf, is_primary, path_from_classification,
                      pivot_data, psi, section, section_rank, section_ranks,
                      set_and_subset, span, zero_subspace)

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


def test_section_ranks_of_eight_column_family():
    for q in (2, 3):
        field = gf(q)
        for a, d, e, f in product(field.units(), repeat=4):
            for b, c in product(field.elements(), repeat=2):
                x = eight_col_family(field, a, b, c, d, e, f)
                assert section_ranks(x) == (0, 1, 2, 1, 1, 2, 1, 1, 0)


def test_classification_of_six_column_family():
    for q in (2, 3, 5):
        field = gf(q)
        for b, d in product(field.units(), repeat=2):
            for a, c, e in product(field.elements(), repeat=3):
                x = six_col_family(field, a, b, c, d, e)
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
                assert psi(six_col_family(field, a, b, c, d, e)).steps \
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
                assert is_primary(eight_col_family(field, a, b, c, d, e, f))
    assert not is_primary(full_space(F2, 3))
    assert not is_primary(six_col_family(F2, 0, 1, 0, 1, 0))
    assert is_primary(zero_subspace(F2, 3))


def test_set_and_subset():
    x = eight_col_family(F2, 1, 0, 1, 1, 1, 1)
    ground, inl = set_and_subset(x)
    assert ground == {4, 7} and inl == frozenset()
    full = full_space(F3, 3)
    assert set_and_subset(full) == ({1, 2, 3}, {1, 2, 3})
    y = six_col_family(F2, 0, 1, 0, 1, 0)
    assert set_and_subset(y) == ({2, 5}, {5})


def test_both_routes_agree_and_match_heights():
    for field, nmax in ((F2, 5), (F3, 3)):
        for n in range(nmax + 1):
            for x in enumerate_subspaces(field, n):
                p = psi(x)
                assert path_from_classification(x) == p
                assert p.heights == section_ranks(x)
                ground, inl = set_and_subset(x)
                cls = classify_columns(x)
                assert ground == {j for j, c in enumerate(cls, 1)
                                  if not c.essential}
                assert inl == {j for j, c in enumerate(cls, 1)
                               if c.pivotal and not c.essential}
                assert is_primary(x) == (not inl)


ALL_FIELDS = (2, 3, 4, 5, 7, 8, 9)


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_pivot_data_matches_classification(q):
    field = gf(q)
    for n in range(4 if q <= 3 else 3):
        for x in enumerate_subspaces(field, n):
            path, ground, inl = pivot_data(x)
            classes = classify_columns(x)
            assert path == path_from_classification(x) == psi(x)
            assert ground == {j for j, c in enumerate(classes, start=1)
                              if not c.essential}
            assert inl == {j for j in ground if classes[j - 1].pivotal}
            assert (ground, inl) == set_and_subset(x)
            assert (not inl) == is_primary(x)
