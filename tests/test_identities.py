from collections import Counter
from math import comb

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ALL_FIELDS
import qlattice.identities
from qlattice import (Involution, Mat, QPoly, Rref, TooLargeError, biane,
                      boolean_block, classify_columns, enumerate_involutions,
                      enumerate_paths, enumerate_subspaces, fiber_census,
                      full_space, galois, gf, goldman_rota_check,
                      involution_count, is_valid_rref, motzkin_number,
                      parse_involution, psi, qbinomial, rref_left, sbd, scd,
                      scd_cover, span, subspace_count, subspaces_with_paths,
                      verify_ds, verify_fs, weight_sums_by_downs,
                      zero_subspace)
from qlattice.identities import _ds_fibers, _ds_width, _pack, _unpack
from qlattice.motzkin import step_weight


def qbinomial_value_oracle(n, k, q):
    """Independent product formula, exact by integer division."""
    num = den = 1
    for i in range(k):
        num *= q**(n - i) - 1
        den *= q**(i + 1) - 1
    assert num % den == 0
    return num // den


def galois_value_oracle(q, n):
    g = [1, 2]
    for m in range(1, n):
        g.append(2 * g[-1] + (q**m - 1) * g[-2])
    return g[n]


def expansion_by_terms(identity, n, terms, k):
    """The report for [n k]_q = sum of coeff C(n-2d, k-d) over the terms
    (d, coeff), for every k (or a single one), summed term by term."""
    for k in range(n + 1) if k is None else (k,):
        rhs = QPoly.zero()
        for d, coeff in terms:
            if 0 <= k - d <= n - 2 * d:
                rhs = rhs + comb(n - 2 * d, k - d) * coeff
        if rhs != qbinomial(n, k):
            return {"identity": identity, "n": n, "ok": False,
                    "counterexample": {"k": k,
                                       "lhs": qbinomial(n, k).to_list(),
                                       "rhs": rhs.to_list()}}
    return {"identity": identity, "n": n, "ok": True, "counterexample": None}


def fs_by_paths(n, k=None):
    """Reference for verify_fs: the expansion summed path by path, one
    term (q-1)^|P| w(P,q) C(n-2|P|, k-|P|) per path and k."""
    terms = [(p.down_count, QPoly((-1, 1)) ** p.down_count * p.weight())
             for p in enumerate_paths(n)]
    return expansion_by_terms("fs", n, terms, k)


def fiber_counts_by_involutions(n):
    """Path word -> involution count by weight, one Involution, weight_stats
    and biane per involution."""
    fiber_counts = {}
    for d in enumerate_involutions(n):
        _, _, w = d.weight_stats()
        counts = fiber_counts.setdefault(biane(d).steps, [])
        if len(counts) <= w:
            counts.extend([0] * (w + 1 - len(counts)))
        counts[w] += 1
    return fiber_counts


def ds_by_involutions(n, k=None):
    """Reference for verify_ds: each fiber summed involution by involution
    and checked against p.weight() multiplied out per path, then the
    expansion summed path by path."""
    fiber_counts = fiber_counts_by_involutions(n)
    terms = []
    for p in enumerate_paths(n):
        got = QPoly(fiber_counts.get(p.steps, ()))
        want = p.weight()
        if got != want:
            return {"identity": "ds", "n": n, "ok": False,
                    "counterexample": {"path": p.steps,
                                       "fiber_weight_sum": got.to_list(),
                                       "path_weight": want.to_list()}}
        terms.append((p.down_count, QPoly((-1, 1)) ** p.down_count * got))
    return expansion_by_terms("ds", n, terms, k)


def off_by_one_at(k_bad):
    """A qbinomial stand-in that is one too large at rank k_bad."""
    real = qbinomial

    def wrong(n, k):
        return real(n, k) + (1 if k == k_bad else 0)

    return wrong


def test_qbinomial_frozen():
    assert qbinomial(3, 1) == QPoly((1, 1, 1))
    assert qbinomial(5, 0) == QPoly.one()
    assert qbinomial(4, 4) == QPoly.one()
    assert qbinomial(4, 2)(2) == 35
    assert qbinomial(3, 5) == QPoly.zero()
    assert qbinomial(3, -1) == QPoly.zero()


def test_qbinomial_against_product_formula():
    for n in range(9):
        for k in range(n + 1):
            p = qbinomial(n, k)
            assert p == qbinomial(n, n - k)
            for q in (2, 3, 5):
                assert p(q) == qbinomial_value_oracle(n, k, q)
    # the middle of row 200 is past the 64-bit bound; its edge is not
    assert qbinomial(200, 2)(1) == comb(200, 2)


def test_qbinomial_far_past_the_recursion_limit():
    assert qbinomial(1500, 1)(1) == 1500
    assert qbinomial(1500, 2)(1) == comb(1500, 2)
    assert qbinomial(1500, 1499)(1) == 1500
    assert qbinomial(1500, 1498)(1) == comb(1500, 2)
    # a whole-row builder overflows here: the middle of row 80 is past the
    # 64-bit bound
    assert qbinomial(80, 1)(1) == 80


def test_galois_frozen_expansions():
    assert galois(2) == QPoly((3, 1))          # 2^2 + (q-1)
    assert galois(3) == QPoly((4, 2, 2))       # 2^3 + (q-1 + q^2-1)*2
    assert [galois(n)(2) for n in range(9)] == \
        [1, 2, 5, 16, 67, 374, 2825, 29212, 417199]
    for n in range(9):
        for q in (2, 3):
            assert galois(n)(q) == galois_value_oracle(q, n)


def test_goldman_rota_symbolic():
    assert goldman_rota_check(10)


def test_verify_fs_small_and_structure():
    for n in range(7):
        report = verify_fs(n)
        assert report == {"identity": "fs", "n": n, "ok": True,
                          "counterexample": None}
    assert verify_fs(6, k=3)["ok"]
    assert verify_ds(5, k=2)["ok"]
    assert verify_fs(16)["ok"]


def test_verify_fs_matches_the_path_by_path_sum():
    for n in range(10):
        assert verify_fs(n) == fs_by_paths(n)
    for n in range(7):
        for k in range(-1, n + 2):
            assert verify_fs(n, k=k) == fs_by_paths(n, k)


@pytest.mark.parametrize("verify", [verify_fs, verify_ds])
def test_mismatch_is_reported_as_data(monkeypatch, verify):
    monkeypatch.setattr(qlattice.identities, "qbinomial", off_by_one_at(2))
    report = verify(5)
    assert report == {
        "identity": verify.__name__[-2:], "n": 5, "ok": False,
        "counterexample": {"k": 2, "lhs": (qbinomial(5, 2) + 1).to_list(),
                           "rhs": qbinomial(5, 2).to_list()}}
    assert verify(5, k=1)["ok"]
    assert not verify(5, k=2)["ok"]


def test_a_qbinomial_stand_in_leaves_no_cached_value(monkeypatch):
    """Values first computed while a stand-in is bound to
    identities.qbinomial are right once it is gone."""
    qlattice.identities._GAUSSIAN.clear()
    monkeypatch.setattr(qlattice.identities, "qbinomial", off_by_one_at(2))
    assert not verify_fs(6)["ok"]
    assert not verify_ds(6)["ok"]
    monkeypatch.undo()
    for n in range(9):
        for k in range(n + 1):
            for q in (2, 3, 5):
                assert qbinomial(n, k)(q) == qbinomial_value_oracle(n, k, q)


def test_verify_ds_matches_the_involution_by_involution_sum():
    for n in range(10):
        assert verify_ds(n) == ds_by_involutions(n)
    for n in range(7):
        for k in range(-1, n + 2):
            assert verify_ds(n, k=k) == ds_by_involutions(n, k)


def test_the_ds_walk_builds_each_fiber_and_path_weight():
    for n in range(10):
        bits = _ds_width(n)
        walk = list(_ds_fibers(n, bits))
        paths = list(enumerate_paths(n))
        assert [steps for steps, _, _, _ in walk] == [p.steps for p in paths]
        fiber_counts = fiber_counts_by_involutions(n)
        for (steps, downs, weight, fiber), p in zip(walk, paths):
            assert downs == p.down_count
            assert QPoly(_unpack(weight, bits)) == p.weight()
            assert _unpack(fiber, bits) == fiber_counts[steps]


def test_the_ds_walk_regroups_to_the_fs_transfer():
    """Past the involution-by-involution reference (n < 10): the walk's
    fiber sums, regrouped by down count, equal the path weights summed by
    the transfer of weight_sums_by_downs, which lists no involution."""
    for n in (10, 11, 12):
        bits = _ds_width(n)
        by_downs = [0] * (n // 2 + 1)
        for _, downs, _, fiber in _ds_fibers(n, bits):
            by_downs[downs] += fiber
        assert [QPoly(_unpack(s, bits)) for s in by_downs] == \
            weight_sums_by_downs(n)
        assert verify_ds(n)["ok"]


@given(st.integers(2, 80).flatmap(lambda bits: st.tuples(
    st.just(bits),
    st.lists(st.integers(-2**(bits - 1), 2**(bits - 1) - 1), max_size=12))))
def test_pack_round_trips_signed_coefficients(case):
    bits, coeffs = case
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    assert _unpack(_pack(coeffs, bits), bits) == coeffs


def with_extra_at(bad, extra):
    """A step_weight stand-in that adds extra at (step, height) bad."""
    def wrong(step, h):
        return step_weight(step, h) + (extra if (step, h) == bad else 0)

    return wrong


def weight_under(weight_of, p):
    """w(P,q) multiplied out in QPoly with the step weights weight_of."""
    want = QPoly.one()
    for step, h in zip(p.steps, p.heights[1:]):
        if step != "U":
            want = want * weight_of(step, h)
    return want


def test_a_fiber_mismatch_names_the_first_path(monkeypatch):
    bad = ("H", 1)
    monkeypatch.setattr(qlattice.identities, "step_weight",
                        with_extra_at(bad, 1))
    first = next(p for p in enumerate_paths(5)
                 if bad in zip(p.steps, p.heights[1:]))
    want = weight_under(with_extra_at(bad, 1), first)
    assert first.steps == "HHUHD"
    assert verify_ds(5) == {
        "identity": "ds", "n": 5, "ok": False,
        "counterexample": {"path": "HHUHD",
                           "fiber_weight_sum": first.weight().to_list(),
                           "path_weight": want.to_list()}}
    assert want != first.weight()
    assert verify_ds(2)["ok"]  # no path of length 2 has an H at height 1


@pytest.mark.parametrize("bad, extra", [
    (("H", 1), QPoly((2**40,))),
    (("D", 0), QPoly((-3,))),
    (("D", 1), QPoly((0, 0, -5, 2**50))),
])
def test_the_packing_holds_under_hostile_step_weights(monkeypatch, bad,
                                                      extra):
    """Large, negative and mixed-sign step weights give the counterexample
    that QPoly arithmetic gives, path by path against the fibers built
    involution by involution."""
    hostile = with_extra_at(bad, extra)
    monkeypatch.setattr(qlattice.identities, "step_weight", hostile)
    fiber_counts = fiber_counts_by_involutions(6)
    for p in enumerate_paths(6):
        want = weight_under(hostile, p)
        got = QPoly(fiber_counts[p.steps])
        if got != want:
            break
    assert got != want
    assert verify_ds(6) == {
        "identity": "ds", "n": 6, "ok": False,
        "counterexample": {"path": p.steps,
                           "fiber_weight_sum": got.to_list(),
                           "path_weight": want.to_list()}}


def test_verify_fs_names_the_64_bit_bound():
    assert verify_fs(34)["ok"]
    with pytest.raises(OverflowError) as exc:
        verify_fs(35)
    assert str(exc.value) == (
        "identity fs at n=35: polynomial coefficient exceeds the 64-bit "
        "range [-2^63, 2^63 - 1]")


def test_verify_fs_printed_n5_coefficients():
    one_descent = QPoly.zero()
    two_descent = QPoly.zero()
    for p in enumerate_paths(5):
        if p.down_count == 1:
            one_descent = one_descent + p.weight()
        elif p.down_count == 2:
            two_descent = two_descent + p.weight()
    assert one_descent == QPoly((4, 3, 2, 1))
    assert two_descent == QPoly((3, 4, 4, 3, 1))


def test_expansion_instance_n3_k1():
    # 1 + q + q^2 = 3 + (q-1)(2+q): three paths with no descent at k=1,
    # and descent weights 1, 1, q.
    lhs = qbinomial(3, 1)
    assert lhs == 3 + QPoly((-1, 1)) * QPoly((2, 1))
    weights = [p.weight() for p in enumerate_paths(3) if p.down_count == 1]
    total = QPoly.zero()
    for w in weights:
        total = total + w
    assert total == QPoly((2, 1))


def test_verify_ds_small():
    for n in range(7):
        report = verify_ds(n)
        assert report["ok"] and report["identity"] == "ds"
    assert verify_ds(1)["ok"]
    with pytest.raises(TooLargeError):
        verify_ds(10, max_size=100)


def test_census_frozen_q2_n3():
    rows = fiber_census(gf(2), 3)
    table = [(r.path.steps, r.primary_count, r.block_size, r.fiber_size)
             for r in rows]
    assert table == [("HHH", 1, 8, 8), ("HUD", 1, 2, 2),
                     ("UDH", 1, 2, 2), ("UHD", 2, 2, 4)]
    assert rows[3].predicted == QPoly((0, -1, 1))
    assert sum(r.fiber_size for r in rows) == 16


def test_census_totals_and_all_h_row():
    for q, nmax in ((2, 5), (3, 4)):
        field = gf(q)
        for n in range(nmax + 1):
            rows = fiber_census(field, n)
            assert sum(r.fiber_size for r in rows) == galois_value_oracle(q, n)
            flat = next(r for r in rows if r.path.steps == "H" * n)
            assert flat.primary_count == 1
            assert flat.block_size == 2**n


@pytest.mark.parametrize("q", ALL_FIELDS)
def test_census_tally_matches_a_plain_count(q):
    """The census rows, read off one tally per path by dimension, equal a
    plain count of the walk's subspaces, primaries and fibers, path by
    path."""
    field = gf(q)
    for n in range(6 if q == 2 else 5 if q == 3 else 4):
        primaries, fibers = Counter(), Counter()
        for x, path in subspaces_with_paths(field, n):
            fibers[path.steps] += 1
            primaries[path.steps] += x.dim == path.down_count
        rows = fiber_census(field, n)
        assert [r.path for r in rows] == list(enumerate_paths(n))
        assert ({r.path.steps: (r.primary_count, r.fiber_size) for r in rows}
                == {w: (primaries[w], fibers[w]) for w in fibers})


@pytest.mark.parametrize("entry", [
    lambda n: list(enumerate_subspaces(gf(2), n)),
    lambda n: list(subspaces_with_paths(gf(3), n)),
    lambda n: sbd(gf(2), n),
    lambda n: scd(gf(3), n),
    lambda n: fiber_census(gf(2), n),
    lambda n: list(enumerate_paths(n)),
    lambda n: list(enumerate_involutions(n)),
    lambda n: verify_ds(n),
    lambda n: verify_fs(n),
    lambda n: weight_sums_by_downs(n),
    lambda n: subspace_count(2, n),
    lambda n: motzkin_number(n),
    lambda n: involution_count(n),
], ids=["enumerate_subspaces", "subspaces_with_paths", "sbd", "scd",
        "fiber_census", "enumerate_paths", "enumerate_involutions",
        "verify_ds", "verify_fs", "weight_sums_by_downs", "subspace_count",
        "motzkin_number", "involution_count"])
def test_library_refuses_a_negative_n(entry):
    for n in (-1, -5):
        with pytest.raises(ValueError) as got:
            entry(n)
        assert type(got.value) is ValueError
        assert str(got.value) == f"n must be nonnegative, got {n}"


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("entry", [
    lambda f, n: zero_subspace(f, n),
    lambda f, n: full_space(f, n),
    lambda f, n: span(f, [], n),
    lambda f, n: rref_left(Mat(f, n, ())),
    lambda f, n: Involution(n, ()),
    lambda f, n: parse_involution("[]", n),
], ids=["zero_subspace", "full_space", "span", "rref_left", "Involution",
        "parse_involution"])
def test_constructors_refuse_a_negative_n(entry, q):
    for n in (-1, -5):
        with pytest.raises(ValueError) as got:
            entry(gf(q), n)
        assert type(got.value) is ValueError
        assert str(got.value) == f"n must be nonnegative, got {n}"


@pytest.mark.parametrize("q", [2, 3])
@pytest.mark.parametrize("reader", [psi, boolean_block, classify_columns,
                                    scd_cover])
def test_a_hand_built_rref_with_negative_n_is_invalid(reader, q):
    x = Rref(gf(q), -1, (), ())
    assert not is_valid_rref(x)
    with pytest.raises(ValueError, match="requires a valid rref"):
        reader(x)
