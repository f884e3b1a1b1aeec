from itertools import product
from math import factorial

import pytest

from conftest import weight_sums_by_enumeration
from qlattice import (MotzkinPath, QPoly, TooLargeError, down_height_product,
                      enumerate_paths, motzkin_number, weight_sums_by_downs)
from qlattice.motzkin import step_weight


def motzkin_oracle(n):
    """Independent convolution recurrence for the path counts."""
    m = [1]
    for i in range(n):
        m.append(m[i] + sum(m[k] * m[i - 1 - k] for k in range(i)))
    return m[n]


def height_product_oracle(steps):
    out, h = 1, 0
    for ch in steps:
        if ch == "U":
            h += 1
        elif ch == "D":
            out *= h
            h -= 1
    return out


def test_parse_valid_paths():
    p = MotzkinPath("UHDHUUHDD")
    assert p.down_count == 3
    assert len(p) == 9
    assert MotzkinPath("").steps == ""
    assert str(MotzkinPath("UHD")) == "UHD"


@pytest.mark.parametrize("steps", [["U", "H", "D"], ("U", "H", "D")])
def test_a_sequence_of_steps_is_the_word_path(steps):
    word = MotzkinPath("UHD")
    p = MotzkinPath(steps)
    assert p == word
    assert p.steps == "UHD" and len(p) == 3
    assert p.heights == word.heights == (0, 1, 1, 0)
    assert p.weight() == word.weight() == QPoly((0, 1))


def test_parse_errors():
    with pytest.raises(ValueError, match="below the axis"):
        MotzkinPath("DU")
    with pytest.raises(ValueError, match="ends at height"):
        MotzkinPath("UU")
    with pytest.raises(ValueError, match="invalid step"):
        MotzkinPath("UXD")


def test_enumeration_n3_exact_order():
    """n = 3 by hand, and every n <= 8 against brute force: the words of
    {D,H,U}^n that MotzkinPath accepts, sorted with D < H < U."""
    assert [p.steps for p in enumerate_paths(3)] == ["HHH", "HUD", "UDH", "UHD"]
    for n in range(9):
        accepted = []
        for word in map("".join, product("DHU", repeat=n)):
            try:
                accepted.append(MotzkinPath(word).steps)
            except ValueError:
                pass
        assert [p.steps for p in enumerate_paths(n)] == sorted(accepted)


def test_walked_paths_equal_the_checked_paths():
    """enumerate_paths builds each path from the walk's own heights with no
    check; every field equals the checked MotzkinPath of the same word."""
    for n in range(11):
        for p in enumerate_paths(n):
            checked = MotzkinPath(p.steps)
            assert p == checked and type(p.steps) is str
            assert p.heights == checked.heights
            assert p.horizontals == checked.horizontals
            assert p.weight() == checked.weight()


def test_enumeration_counts():
    expected = [1, 1, 2, 4, 9, 21, 51, 127, 323]
    for n in range(9):
        assert motzkin_number(n) == expected[n] == motzkin_oracle(n)
    for n in (45, 200):
        assert motzkin_number(n) == motzkin_oracle(n)
    for n in range(7):
        assert sum(1 for _ in enumerate_paths(n)) == expected[n]
    assert [p.steps for p in enumerate_paths(0)] == [""]


def test_enumeration_ceiling_raises_before_the_first_path():
    paths = enumerate_paths(12, max_size=100)
    with pytest.raises(TooLargeError) as exc:
        next(paths)
    assert str(exc.value) == "15511 paths of length 12, above the ceiling 100"
    assert sum(1 for _ in enumerate_paths(12, max_size=15511)) == 15511


def test_a_count_past_2_63_is_refused_unfinished():
    """M(44) < 2^63 <= M(45): from there on a count past the ceiling is
    left unfinished, and the message gives it as at least 2^63."""
    assert motzkin_number(44) < 2**63 <= motzkin_number(45)
    with pytest.raises(TooLargeError) as exc:
        next(enumerate_paths(44, max_size=100))
    assert str(exc.value) == (f"{motzkin_number(44)} paths of length 44, "
                              "above the ceiling 100")
    for n, limit in ((45, 100), (10**9, 100), (100, 2**64)):
        with pytest.raises(TooLargeError) as exc:
            next(enumerate_paths(n, max_size=limit))
        assert str(exc.value) == (f"at least 2^63 paths of length {n}, "
                                  f"above the ceiling {limit}")


def test_step_weights():
    assert step_weight("H", 0) == QPoly.one()
    assert step_weight("H", 3) == QPoly((0, 0, 0, 1))
    assert step_weight("D", 0) == QPoly.one()
    assert step_weight("D", 2) == QPoly((0, 0, 1, 1, 1))


def test_weight_sums_by_downs_match_the_enumeration():
    for n in range(13):
        assert weight_sums_by_downs(n) == weight_sums_by_enumeration(n), n
    assert weight_sums_by_downs(0) == [QPoly.one()]
    assert weight_sums_by_downs(5) == [QPoly.one(), QPoly((4, 3, 2, 1)),
                                       QPoly((3, 4, 4, 3, 1))]


def test_weight_sums_at_one_count_involutions_by_cycles():
    # w(P, 1) is the size of the involution fiber over P, so the sums at
    # q = 1 count the involutions on [n] with d two-cycles:
    # n! / (d! 2^d (n-2d)!).
    for n in range(20):
        got = [s(1) for s in weight_sums_by_downs(n)]
        assert got == [factorial(n) // (factorial(d) * 2**d
                                        * factorial(n - 2 * d))
                       for d in range(n // 2 + 1)]


def test_weight_frozen_examples():
    assert MotzkinPath("UHDHUUHDD").weight() == QPoly((0, 0, 0, 0, 1, 1))
    assert MotzkinPath("HHH").weight() == QPoly.one()
    assert MotzkinPath("UHUDHD").weight() == QPoly((0, 0, 0, 1, 1))


def test_weight_at_one_is_product_of_down_heights():
    for n in range(7):
        for p in enumerate_paths(n):
            expected = height_product_oracle(p.steps)
            assert p.weight()(1) == expected
            assert down_height_product(p) == expected


def test_down_count_examples():
    assert MotzkinPath("UHDHUUHDD").down_count == 3
    assert MotzkinPath("HHH").down_count == 0
    assert MotzkinPath("UUDHUDHD").down_count == 3


def test_horizontals_examples():
    assert MotzkinPath("UHUDHD").horizontals == (2, 5)
    assert MotzkinPath("").horizontals == ()
    assert MotzkinPath("HHH").horizontals == (1, 2, 3)
    assert MotzkinPath("UUDD").horizontals == ()
    assert MotzkinPath("UHDHUUHDD").horizontals == (2, 4, 7)


def test_horizontals_are_kept_and_ignored_by_value():
    """For every path of length <= 8 the H positions are the H steps of the
    word, a second read returns the same tuple, and the kept tuple changes
    neither equality, nor hashing, nor repr against a fresh copy."""
    for n in range(9):
        for p in enumerate_paths(n):
            first = p.horizontals
            assert first == tuple(i for i, ch in enumerate(p.steps, 1)
                                  if ch == "H")
            assert p.horizontals is first
            fresh = MotzkinPath(p.steps)
            assert p == fresh and hash(p) == hash(fresh)
            assert repr(p) == repr(fresh)


def test_heights_and_step_balance():
    for n in range(7):
        for p in enumerate_paths(n):
            assert p.steps.count("U") == p.steps.count("D") == p.down_count
            h = 0
            for i, ch in enumerate(p.steps, start=1):
                h += {"U": 1, "D": -1, "H": 0}[ch]
                assert p.heights[i] == h
            assert p.heights[0] == 0 and p.heights[n] == 0


def test_path_equality_and_hash():
    assert MotzkinPath("UHD") == MotzkinPath("UHD")
    assert len({MotzkinPath("UHD"), MotzkinPath("UHD")}) == 1
    assert MotzkinPath("UHD") != MotzkinPath("UDH")
