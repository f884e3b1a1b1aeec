"""The benchmark's span tracer (bench/tracer.py) resolves its targets by
name; a function renamed or removed in the library must fail here, not only
when a traced benchmark run is attempted."""

import types
from pathlib import Path

import pytest

import qlattice.cli  # noqa: F401  (loads every module the tracer wraps)
import qlattice.matspace

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    # executed from source so that no bytecode cache is written into bench/
    module = types.ModuleType("bench_tracer")
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def test_every_trace_target_exists():
    tracer = load_tracer()
    original = qlattice.matspace._eliminate
    t = tracer.Tracer()
    try:
        t.install()
        assert qlattice.matspace._eliminate is not original
    finally:
        t.uninstall()
    assert qlattice.matspace._eliminate is original


def test_a_missing_target_is_reported(monkeypatch):
    tracer = load_tracer()
    monkeypatch.delattr(qlattice.matspace, "express_in_rows")
    t = tracer.Tracer()
    try:
        with pytest.raises(tracer.MissingTarget, match="express_in_rows"):
            t.install()
    finally:
        t.uninstall()
