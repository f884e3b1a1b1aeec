"""The memo an Rref carries: the path and row ends psi keeps on it, the
primary and path scd_cover hands on to each cover it returns, and the packed
rows of the F_2 insertion kernel.  The memoised chain walk is checked
against the memo-free route, which starts every step from a fresh copy of
the subspace, and the memo is checked to stay invisible to equality,
hashing, repr, pickling and the dataclass fields."""

import copy
import dataclasses
import importlib
import pickle

import pytest

from conftest import ALL_FIELDS
from qlattice import (Mat, Rref, classify_column, classify_columns, del_set,
                      enumerate_subspaces, gf, ins_col, is_primary,
                      left_pivots, path_from_classification, psi, rref_left,
                      scd_cover, set_and_subset)
from qlattice import decomp

#: The module; the package name qlattice.psi is the function.
psi_mod = importlib.import_module("qlattice.psi")

#: Largest n walked per field: every subspace of F_q^n, n <= NMAX[q].
NMAX = {2: 6, 3: 4}

F2 = gf(2)
F3 = gf(3)


def fresh(x):
    """A memo-free copy of x."""
    return Rref(x.field, x.n, x.rows, x.pivots)


def memo_free_chain(x):
    """The same chain with every step taken from a fresh copy: the route
    that deletes the inessential pivots of each member to find its
    primary."""
    chain = [fresh(x)]
    while (y := scd_cover(fresh(chain[-1]))) is not None:
        chain.append(y)
    return chain


def every_subspace(q):
    field = gf(q)
    for n in range(NMAX.get(q, 3) + 1):
        yield from enumerate_subspaces(field, n)


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_memoised_chains_match_the_memo_free_route(q, monkeypatch):
    deletions = []
    real_del_col = decomp.del_col

    def counted_del_col(x, j):
        deletions.append(j)
        return real_del_col(x, j)

    monkeypatch.setattr(decomp, "del_col", counted_del_col)
    for x in every_subspace(q):
        # every step after the first starts from the cover it got, memo
        # and all, so only the first may delete
        chain = [x, scd_cover(x)]
        deletions.clear()
        while chain[-1] is not None:
            chain.append(scd_cover(chain[-1]))
        chain.pop()
        assert deletions == [], "a step after the first deleted a column"
        assert chain == memo_free_chain(x)
        for y in chain[1:]:
            memo = vars(y)
            ground, inl = set_and_subset(fresh(y))
            assert memo["_primary"] == del_set(fresh(y), inl)
            assert memo["_path"] == psi(fresh(y))
            assert ground == frozenset(memo["_path"].horizontals)


def test_psi_keeps_its_path_and_classify_reuses_it(monkeypatch):
    x = Rref(F3, 4, ((1, 0, 2, 0), (0, 1, 1, 0)), (1, 2))
    expected = set_and_subset(fresh(x)), classify_columns(fresh(x))
    path = psi(x)
    assert vars(x)["_path"] is path

    def refuse(*args):
        raise AssertionError("no second pivot pass")

    monkeypatch.setattr(psi_mod, "_row_step", refuse)
    monkeypatch.setattr(psi_mod, "is_valid_rref", refuse)
    assert psi(x) is path
    assert (set_and_subset(x), classify_columns(x)) == expected
    # the section route does not check an Rref that psi has checked
    assert [classify_column(x, j) for j in (1, 2, 3, 4)] == list(expected[1])
    assert not is_primary(x)


#: The readers that check a caller's Rref, each as a function of x.
CHECKED_READERS = (psi, lambda x: classify_column(x, 1),
                   path_from_classification, is_primary)


def test_a_rref_left_result_is_trusted_and_a_caller_rref_checked(
        monkeypatch):
    """rref_left marks its result valid, so no reader runs is_valid_rref on
    it; a caller's Rref of the same value is checked by each reader, and
    an invalid one is refused."""
    x = rref_left(Mat(F3, 3, ((1, 1, 0), (0, 1, 1))))
    copy = fresh(x)
    assert set(vars(x)) - set(vars(copy)) == {"_valid"}
    assert x == copy and hash(x) == hash(copy) and repr(x) == repr(copy)
    bad = Rref(F3, 3, ((1, 1, 0), (0, 1, 1)), (1, 2))
    checked = []
    check = psi_mod.is_valid_rref

    def counted(y):
        checked.append(y)
        return check(y)

    monkeypatch.setattr(psi_mod, "is_valid_rref", counted)
    for reader in CHECKED_READERS:
        reader(rref_left(Mat(F3, 3, bad.rows)))
        assert checked == []
        reader(fresh(x))
        assert checked == [x]
        with pytest.raises(ValueError, match="valid rref"):
            reader(fresh(bad))
        checked.clear()


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_the_memo_stays_invisible(q):
    assert [f.name for f in dataclasses.fields(Rref)] == [
        "field", "n", "rows", "pivots"]
    covers = 0
    for x in every_subspace(q):
        y = scd_cover(x)
        if y is None:
            continue
        covers += 1
        copy = fresh(y)
        assert set(vars(y)) - set(vars(copy)) == {"_path", "_primary"}
        assert y == copy and hash(y) == hash(copy) and repr(y) == repr(copy)
        assert pickle.loads(pickle.dumps(y)) == copy
        # a primary's memo never holds itself
        p = vars(y)["_primary"]
        assert "_primary" not in vars(p) and "_primary" not in vars(x)
    assert covers


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_the_row_ends_stay_invisible(q):
    """The row ends psi keeps next to the path (``_ends``) stay out of ==,
    hash, repr and a pickle round trip, and a cover's memo stays
    {_path, _primary}: scd_cover hands on no row ends."""
    covers = 0
    for x in every_subspace(q):
        psi(x)
        copy = fresh(x)
        assert set(vars(x)) - set(vars(copy)) == {"_path", "_ends"}
        back = pickle.loads(pickle.dumps(x))
        for z in (x, back):
            assert (z == copy and hash(z) == hash(copy)
                    and repr(z) == repr(copy))
        y = scd_cover(x)
        if y is not None:
            assert set(vars(y)) - set(vars(fresh(y))) == {"_path", "_primary"}
            covers += 1
    assert covers


def test_the_packed_rows_stay_invisible():
    """The rows packed into ints that the F_2 insertion kernel keeps on the
    rref it reads and on the one it returns (``_bits``) stay out of ==,
    hash, repr and a pickle round trip."""
    inserted = 0
    for x in every_subspace(2):
        for j in set_and_subset(x)[0] - left_pivots(x):
            y = ins_col(x, j)
            for z in (x, y):
                copy = fresh(z)
                assert set(vars(z)) - set(vars(copy)) >= {"_bits"}
                assert (z == copy and hash(z) == hash(copy)
                        and repr(z) == repr(copy))
                back = pickle.loads(pickle.dumps(z))
                assert (back == copy and hash(back) == hash(copy)
                        and repr(back) == repr(copy))
            inserted += 1
    assert inserted


def test_an_rref_is_a_frozen_value():
    """The generated constructor takes keywords and fields cannot be set;
    equality, hashing and repr read the four fields, before and after psi
    keeps its path on the Rref."""
    x = Rref(field=F3, n=4, rows=((1, 0, 2, 0), (0, 1, 1, 0)), pivots=(1, 2))
    y = Rref(F3, 4, ((1, 0, 2, 0), (0, 1, 1, 0)), (1, 2))
    for name in ("field", "n", "rows", "pivots"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, None)
    text = ("Rref(field=GF(3), n=4, rows=((1, 0, 2, 0), (0, 1, 1, 0)), "
            "pivots=(1, 2))")
    assert x == y and hash(x) == hash(y) and repr(x) == text
    psi(x)
    assert "_path" in vars(x) and "_path" not in vars(y)
    assert x == y and hash(x) == hash(y) and repr(x) == text
    assert x != Rref(F3, 4, ((1, 0, 2, 0),), (1,))


#: A frozen dataclass with Rref's name and fields and the generated
#: constructor, the reference for Rref's own ``__init__``.
Twin = dataclasses.make_dataclass(
    "Rref", [(f.name, f.type) for f in dataclasses.fields(Rref)],
    frozen=True)


def test_the_rref_constructor_keeps_the_generated_contract():
    """Rref writes its fields into its instance dict; fields still cannot
    be assigned, ==, hash and repr match the generated twin whether or not
    the memo holds keys, and keywords, replace, copy and pickle keep the
    four fields."""
    values = [x for q in (2, 3) for x in every_subspace(q)]
    twins = [Twin(x.field, x.n, x.rows, x.pivots) for x in values]
    for x in values[1::2]:
        psi(x)
        vars(x).update(_primary=fresh(x), _valid=True)
    x = Rref(F3, 4, ((1, 0, 2, 0), (0, 1, 1, 0)), (1, 2))
    for name in ("field", "n", "rows", "pivots", "_path"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, None)
    for y, twin in zip(values, twins):
        assert hash(y) == hash(twin) and repr(y) == repr(twin)
    for y, twin in zip(values[::97], twins[::97]):
        assert [z == y for z in values] == [t == twin for t in twins]
    fields = ("field", "n", "rows", "pivots")
    for y in values[::31] + [x]:
        expected = [getattr(y, name) for name in fields]
        for z in (Rref(**dict(zip(fields, expected))), copy.copy(y),
                  dataclasses.replace(y), pickle.loads(pickle.dumps(y))):
            assert [getattr(z, name) for name in fields] == expected
            assert z == y and hash(z) == hash(y)
    y = dataclasses.replace(x, rows=x.rows[:1], pivots=x.pivots[:1])
    assert (y.field, y.n, y.rows, y.pivots) == (F3, 4, ((1, 0, 2, 0),), (1,))


def test_psi_refuses_an_invalid_rref_once_for_every_reader():
    """A caller's Rref is checked on the first pivot pass, so psi and every
    reader built on it raise ValueError, pivots out of range included."""
    bad = (Rref(F2, 3, ((1, 1, 0), (0, 1, 1)), (1, 2)),
           Rref(F2, 3, ((0, 1, 0), (1, 0, 0)), (2, 1)),
           Rref(F3, 2, ((1, 3),), (1,)),
           Rref(F2, 2, ((0, 0, 1),), (3,)),
           Rref(F2, 2, ((0, 1),), (2, 3)))
    for reader in (psi, classify_columns, set_and_subset, scd_cover):
        for x in bad:
            with pytest.raises(ValueError, match="valid rref"):
                reader(fresh(x))
