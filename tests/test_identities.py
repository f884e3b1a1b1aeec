from math import comb

import pytest

import qlattice.identities
from qlattice import (QPoly, TooLargeError, enumerate_paths, fiber_census,
                      galois, gf, goldman_rota_check, qbinomial, verify_ds,
                      verify_fs)


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


def fs_by_paths(n, k=None):
    """Reference for verify_fs: the expansion summed path by path, one
    term (q-1)^|P| w(P,q) C(n-2|P|, k-|P|) per path and k."""
    terms = [(p.down_count, QPoly((-1, 1)) ** p.down_count * p.weight())
             for p in enumerate_paths(n)]
    for k in range(n + 1) if k is None else (k,):
        rhs = QPoly.zero()
        for d, coeff in terms:
            if 0 <= k - d <= n - 2 * d:
                rhs = rhs + comb(n - 2 * d, k - d) * coeff
        if rhs != qbinomial(n, k):
            return {"identity": "fs", "n": n, "ok": False,
                    "counterexample": {"k": k,
                                       "lhs": qbinomial(n, k).to_list(),
                                       "rhs": rhs.to_list()}}
    return {"identity": "fs", "n": n, "ok": True, "counterexample": None}


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
    with pytest.raises(TooLargeError):
        verify_fs(12, max_size=100)


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


def test_verify_fs_names_the_64_bit_bound():
    assert verify_fs(34, max_size=10**30)["ok"]
    with pytest.raises(OverflowError) as exc:
        verify_fs(35, max_size=10**30)
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
