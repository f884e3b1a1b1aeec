import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from qlattice import GF, NotPrimePowerError, QPoly, UnsupportedFieldError, gf

SUPPORTED_Q = (2, 3, 4, 5, 7, 8, 9)


def test_field_make_prime():
    f = gf(2)
    assert (f.q, f.p, f.e) == (2, 2, 1)
    assert f.irreducible == ()


def test_field_make_extension_tables():
    assert gf(4).irreducible == (1, 1, 1)   # x^2 + x + 1
    assert gf(8).irreducible == (1, 1, 0, 1)  # x^3 + x + 1
    assert gf(9).irreducible == (1, 0, 1)   # x^2 + 1


def test_quartic_irreducible_is_unique_over_f2():
    # Root-exhaustion oracle: among monic quadratics over F_2, only
    # x^2 + x + 1 has no root.
    irreducible = []
    for b, c in product((0, 1), repeat=2):
        if all((x * x + b * x + c) % 2 for x in (0, 1)):
            irreducible.append((c, b, 1))
    assert irreducible == [(1, 1, 1)]


def test_field_make_rejects_non_prime_powers():
    with pytest.raises(NotPrimePowerError):
        gf(6)
    with pytest.raises(NotPrimePowerError):
        gf(12)
    with pytest.raises(NotPrimePowerError):
        gf(1)


def test_field_make_rejects_above_bound():
    for q in (11, 16, 25):
        with pytest.raises(UnsupportedFieldError,
                           match=f"q={q} exceeds the supported bound 9"):
            gf(q)
    with pytest.raises(UnsupportedFieldError):
        GF(25)


def test_a_large_q_is_refused_without_factoring_it():
    """2^61 - 1 is prime: no trial division up to its square root runs,
    and it is refused as past the bound, as is a q with no prime factor up
    to 9."""
    for q in (2**61 - 1, 143):
        with pytest.raises(UnsupportedFieldError,
                           match=f"q={q} exceeds the supported bound 9"):
            gf(q)


def test_field_arith_examples():
    assert gf(2).add(1, 1) == 0
    assert gf(4).mul(2, 2) == 3      # x * x = x + 1 mod x^2+x+1
    assert gf(5).mul(3, 4) == 2      # 12 mod 5


def test_field_inv_examples():
    assert gf(5).inv(2) == 3
    assert gf(4).inv(2) == 3         # x(x+1) = x^2+x = 1 mod x^2+x+1
    for q in SUPPORTED_Q:
        assert gf(q).inv(1) == 1


def test_field_inv_zero_raises():
    for q in (2, 4, 5):
        with pytest.raises(ZeroDivisionError):
            gf(q).inv(0)


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_field_axioms_exhaustive(q):
    f = gf(q)
    els = list(f.elements())
    for a in els:
        assert f.add(a, 0) == a
        assert f.mul(a, 1) == a
        assert f.add(a, f.neg(a)) == 0
        if a:
            assert f.mul(a, f.inv(a)) == 1
    for a, b in product(els, repeat=2):
        assert f.add(a, b) == f.add(b, a)
        assert f.mul(a, b) == f.mul(b, a)
        assert f.sub(a, b) == f.add(a, f.neg(b))
    for a, b, c in product(els, repeat=3):
        assert f.add(f.add(a, b), c) == f.add(a, f.add(b, c))
        assert f.mul(f.mul(a, b), c) == f.mul(a, f.mul(b, c))
        assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))


def _row_pairs(q, length, rng):
    """Every pair (r, s) of rows of the length over F_q when there are at
    most 3^8, else 200 seeded pairs; r is a list, s a tuple."""
    if q ** (2 * length) <= 3**8:
        for rs in product(range(q), repeat=2 * length):
            yield list(rs[:length]), rs[length:]
    else:
        for _ in range(200):
            yield ([rng.randrange(q) for _ in range(length)],
                   tuple(rng.randrange(q) for _ in range(length)))


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_row_kernel_matches_scalar_route(q):
    """sub_scaled and scale agree entry by entry with GF.sub and GF.mul from
    lo on, for every scalar c and every start lo, and leave r[:lo] as it
    was."""
    f, rng = gf(q), random.Random(q)
    for length in range(5):
        for r, s in _row_pairs(q, length, rng):
            for c in f.elements():
                for lo in range(length + 1):
                    got = list(r)
                    f.sub_scaled(got, c, s, lo)
                    assert got == r[:lo] + [f.sub(a, f.mul(c, b)) for a, b
                                            in zip(r[lo:], s[lo:])]
                    got = list(r)
                    f.scale(c, got, lo)
                    assert got == r[:lo] + [f.mul(c, a) for a in r[lo:]]


@pytest.mark.parametrize("q", (4, 8, 9))
def test_extension_encoding_is_base_p_digits(q):
    # Independent multiplication oracle: digit-vector convolution reduced
    # modulo the pinned irreducible, coefficients mod p.
    f = gf(q)
    p, e = f.p, f.e

    def digits(v):
        return [(v // p**i) % p for i in range(e)]

    def pack(c):
        c = c + [0] * e
        return sum(c[i] * p**i for i in range(e))

    def reduce_mod(c):
        c = list(c)
        while len(c) > e:
            lead = c.pop()
            if lead:
                for i, m in enumerate(f.irreducible[:-1]):
                    c[len(c) - e + i] = (c[len(c) - e + i] - lead * m) % p
        return c

    for a in f.elements():
        for b in f.elements():
            da, db = digits(a), digits(b)
            conv = [0] * (2 * e - 1)
            for i, x in enumerate(da):
                for j, y in enumerate(db):
                    conv[i + j] = (conv[i + j] + x * y) % p
            assert f.mul(a, b) == pack(reduce_mod(conv))
            assert f.add(a, b) == pack([(x + y) % p for x, y in zip(da, db)])


def test_qpoly_frozen_products():
    qm1 = QPoly((-1, 1))
    assert (qm1 * QPoly((0, 1, 1))).coeffs == (0, -1, 0, 1)
    assert qm1 * QPoly((1, 1, 1)) == QPoly((-1, 0, 0, 1))  # q^3 - 1
    p = QPoly((2, 0, 5))
    assert p + QPoly.zero() == p


def test_qpoly_eval_examples():
    assert QPoly((0, 0, 0, 1, 1))(2) == 24
    assert QPoly.zero()(17) == 0
    assert QPoly((1, 1, 1))(3) == 13


def test_qpoly_canonical_form():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0)).coeffs == ()
    assert not QPoly.zero()
    assert QPoly.monomial(3).coeffs == (0, 0, 0, 1)
    assert QPoly.geometric(1, 2).coeffs == (0, 1, 1)
    assert QPoly.geometric(0, 0) == QPoly.one()
    assert QPoly.geometric(2, 1) == QPoly.zero()


def test_qpoly_overflow_is_detected():
    big = QPoly((2**62,))
    with pytest.raises(OverflowError):
        big * 4
    with pytest.raises(OverflowError):
        QPoly((2**63,))
    with pytest.raises(OverflowError):
        QPoly((1, 1)) ** 70   # q^70 coefficient growth is fine; eval is not
    # the line above overflows inside the binomial coefficients


def test_qpoly_eval_overflow():
    with pytest.raises(OverflowError):
        QPoly.monomial(64)(2)


def test_qpoly_pretty_and_serialized_forms():
    assert str(QPoly((0, -1, 0, 1))) == "q^3 - q"
    assert str(QPoly((0, 0, 0, 0, 1, 1))) == "q^4 + q^5"
    assert str(QPoly.zero()) == "0"
    assert str(QPoly((3, 1))) == "3 + q"
    assert str(QPoly((0, -2))) == "-2*q"
    assert QPoly((0, -1, 0, 1)).to_list() == [0, -1, 0, 1]


coeff_lists = st.lists(st.integers(min_value=-40, max_value=40), max_size=6)


@given(coeff_lists, coeff_lists, coeff_lists)
def test_qpoly_ring_axioms(a, b, c):
    pa, pb, pc = QPoly(a), QPoly(b), QPoly(c)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert (pa + pb) + pc == pa + (pb + pc)
    assert (pa * pb) * pc == pa * (pb * pc)
    assert pa * (pb + pc) == pa * pb + pa * pc
    assert pa - pa == QPoly.zero()


@given(coeff_lists, coeff_lists, st.integers(min_value=-5, max_value=5))
def test_qpoly_eval_is_ring_homomorphism(a, b, q0):
    pa, pb = QPoly(a), QPoly(b)
    assert (pa * pb)(q0) == pa(q0) * pb(q0)
    assert (pa + pb)(q0) == pa(q0) + pb(q0)
