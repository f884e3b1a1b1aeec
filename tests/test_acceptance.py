"""The acceptance gate: run the full self-verification battery once and
assert every criterion, printing its pass/fail line."""

import pytest

import qlattice.acceptance
from qlattice.acceptance import ALL_KEYS, run_acceptance


@pytest.fixture(scope="module")
def battery():
    results = run_acceptance()
    return {r.key: r for r in results}


@pytest.mark.parametrize("key", ALL_KEYS)
def test_criterion(battery, key):
    result = battery[key]
    print(result.line())
    assert result.ok, result.line()


def test_battery_is_complete(battery):
    assert sorted(battery) == sorted(ALL_KEYS)


def test_a_raising_scan_fails_c04_and_c05_under_their_names(battery,
                                                           monkeypatch):
    def broken_psi(x):
        raise RuntimeError("broken")

    monkeypatch.setattr(qlattice.acceptance, "psi", broken_psi)
    results = run_acceptance(["c05", "c04"])
    assert [r.key for r in results] == ["c04", "c05"]
    for r in results:
        assert not r.ok
        assert r.description == battery[r.key].description
        assert r.detail == "raised RuntimeError('broken')"
