import pytest

from qlattice import (Involution, MotzkinPath, QPoly, TooLargeError, biane,
                      biane_fiber, down_height_product, enumerate_involutions,
                      involution_count, parse_involution)


def involution_count_oracle(n):
    c = [1, 1]
    for m in range(1, n):
        c.append(c[-1] + m * c[-2])
    return c[n]


def test_standard_form_and_validation():
    d = Involution(9, ((3, 9), (1, 8), (4, 7), (2, 6)))
    assert d.cycles == ((1, 8), (2, 6), (3, 9), (4, 7))
    with pytest.raises(ValueError):
        Involution(5, ((1, 6),))
    with pytest.raises(ValueError):
        Involution(5, ((1, 2), (2, 3)))
    with pytest.raises(ValueError):
        Involution(5, ((3, 3),))


def test_serialization():
    d = Involution(6, ((1, 6), (3, 5)))
    assert str(d) == "[1,6][3,5]"
    assert str(Involution(4, ())) == "[]"
    assert parse_involution("[1,6][3,5]") == d
    assert parse_involution("[]", 4) == Involution(4, ())
    assert parse_involution("[1,2]", 3) == Involution(3, ((1, 2),))
    with pytest.raises(ValueError):
        parse_involution("[1;2]")


def test_enumeration_counts():
    expected = [1, 1, 2, 4, 10, 26, 76, 232, 764]
    for n in range(9):
        assert involution_count(n) == expected[n] == involution_count_oracle(n)
    for n in range(7):
        assert sum(1 for _ in enumerate_involutions(n)) == expected[n]


def test_enumeration_n3_exact_set():
    got = {str(d) for d in enumerate_involutions(3)}
    assert got == {"[]", "[1,2]", "[1,3]", "[2,3]"}
    assert [str(d) for d in enumerate_involutions(0)] == ["[]"]


def test_enumeration_guard():
    with pytest.raises(TooLargeError):
        list(enumerate_involutions(8, max_size=100))


def test_weight_statistics():
    spans, crossings, w = Involution(
        9, ((1, 8), (2, 6), (3, 9), (4, 7))).weight_stats()
    assert (spans, crossings, w) == (16, 3, 13)
    assert Involution(7, ()).weight_stats() == (0, 0, 0)
    # nested arcs do not cross
    assert Involution(6, ((1, 6), (3, 5))).weight_stats() == (5, 0, 5)


def test_biane_examples():
    assert biane(Involution(6, ((1, 6), (3, 5)))).steps == "UHUHDD"
    assert biane(Involution(4, ())).steps == "HHHH"
    assert biane(Involution(3, ((1, 2),))).steps == "UDH"


def test_biane_preserves_cycle_count():
    for n in range(7):
        for d in enumerate_involutions(n):
            assert biane(d).down_count == d.size


def test_fiber_frozen_examples():
    fiber = biane_fiber(MotzkinPath("UHUHDD"))
    assert {str(d) for d in fiber} == {"[1,6][3,5]", "[1,5][3,6]"}
    assert biane_fiber(MotzkinPath("HHHH")) == [Involution(4, ())]
    small = biane_fiber(MotzkinPath("UHD"))
    assert [d.cycles for d in small] == [((1, 3),)]
    assert QPoly.monomial(small[0].weight_stats()[2]) == \
        MotzkinPath("UHD").weight()


def test_fiber_is_built_past_the_involution_ceiling():
    # I(13) = 568,504 involutions exceed the default ceiling; the fiber has one
    assert biane_fiber(MotzkinPath("UD" + "H" * 11)) == \
        [Involution(13, ((1, 2),))]
    with pytest.raises(TooLargeError, match="3628800 involutions over"):
        biane_fiber(MotzkinPath("U" * 10 + "D" * 10))


def test_fibers_partition_and_match_height_products():
    """Each fiber is the enumeration filtered by path, in the same order."""
    from qlattice import enumerate_paths
    for n in range(9):
        by_path = {}
        for d in enumerate_involutions(n):
            by_path.setdefault(biane(d), []).append(d)
        total = 0
        for p in enumerate_paths(n):
            fiber = biane_fiber(p)
            assert fiber == by_path[p]
            total += len(fiber)
            assert len(fiber) == down_height_product(p)
        assert total == involution_count(n)


def test_fiber_weight_sums_equal_path_weights():
    from qlattice import enumerate_paths
    for n in range(7):
        for p in enumerate_paths(n):
            acc = QPoly.zero()
            for d in biane_fiber(p):
                acc = acc + QPoly.monomial(d.weight_stats()[2])
            assert acc == p.weight()
