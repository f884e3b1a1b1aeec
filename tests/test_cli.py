import argparse
import importlib
import json
import os
import sys
from pathlib import Path

import pytest

import qlattice.cli
import qlattice.identities
import qlattice.matspace
from qlattice.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_weight(capsys):
    code, out, _ = run(capsys, "weight", "UHDHUUHDD")
    assert code == 0 and out.strip() == "q^4 + q^5"


def test_weight_json(capsys):
    code, out, _ = run(capsys, "weight", "UHUDHD", "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload == {"path": "UHUDHD", "downs": 2,
                       "weight": [0, 0, 0, 1, 1], "pretty": "q^3 + q^4"}


def test_weight_bad_path_exits_2(capsys):
    code, _, err = run(capsys, "weight", "DU")
    assert code == 2 and "error:" in err


def test_paths(capsys):
    code, out, _ = run(capsys, "paths", "--n", "3")
    assert code == 0
    assert out.split() == ["HHH", "HUD", "UDH", "UHD"]
    code, out, _ = run(capsys, "paths", "--n", "4", "--json")
    payload = json.loads(out)
    assert payload["count"] == 9 and len(payload["paths"]) == 9


def test_involutions(capsys):
    code, out, _ = run(capsys, "involutions", "--n", "3")
    assert code == 0
    assert set(out.split()) == {"[]", "[1,2]", "[1,3]", "[2,3]"}


def test_biane(capsys):
    code, out, _ = run(capsys, "biane", "[1,6][3,5]")
    assert code == 0 and out.strip() == "UHUHDD"
    code, out, _ = run(capsys, "biane", "[1,2]", "--n", "3")
    assert code == 0 and out.strip() == "UDH"


def test_psi_and_classify(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("2 6 3\n1 0 0 1 0 0\n0 0 1 1 0 1\n0 0 0 0 1 0\n")
    code, out, _ = run(capsys, "psi", "--matrix", str(f), "--json")
    payload = json.loads(out)
    assert code == 0
    assert payload["path"] == "UHUDHD"
    assert payload["left_pivots"] == [1, 3, 5]
    assert payload["right_pivots"] == [4, 5, 6]
    assert payload["set"] == [2, 5] and payload["subset"] == [5]
    code, out, _ = run(capsys, "psi", "--matrix", str(f))
    assert "UHUDHD" in out
    code, out, _ = run(capsys, "classify", "--matrix", str(f), "--json")
    cols = json.loads(out)["columns"]
    assert [c["essential"] for c in cols] == [True, False, True, True,
                                              False, True]


def test_psi_q_mismatch_exits_2(tmp_path, capsys):
    f = tmp_path / "m.txt"
    f.write_text("3 2 1\n0 1\n")
    code, _, err = run(capsys, "psi", "--matrix", str(f), "--q", "2")
    assert code == 2 and "disagrees" in err


@pytest.mark.parametrize("command", ["psi", "classify", "cover"])
def test_negative_n_in_matrix_header_exits_2(tmp_path, capsys, command):
    f = tmp_path / "m.txt"
    f.write_text("2 -1 0\n")
    code, out, err = run(capsys, command, "--matrix", str(f))
    assert code == 2 and out == ""
    assert err == "error: bad matrix header '2 -1 0'; n must be >= 0\n"


def test_cover_golden(tmp_path, capsys):
    f = tmp_path / "span.txt"
    f.write_text("2 3 1\n0 1 1\n")
    code, out, _ = run(capsys, "cover", "--q", "2", "--matrix", str(f))
    assert code == 0
    assert out.strip().splitlines() == ["2 3 2", "1 0 0", "0 1 1"]


def test_cover_accepts_redundant_spanning_set(tmp_path, capsys):
    f = tmp_path / "span.txt"
    f.write_text("2 3 3\n0 1 1\n0 1 1\n0 0 0\n")
    code, out, _ = run(capsys, "cover", "--matrix", str(f))
    assert code == 0 and out.strip().splitlines()[0] == "2 3 2"


def test_cover_top(tmp_path, capsys):
    f = tmp_path / "full.txt"
    f.write_text("2 2 2\n1 0\n0 1\n")
    code, out, _ = run(capsys, "cover", "--matrix", str(f))
    assert code == 0 and out.strip() == "TOP"
    code, out, _ = run(capsys, "cover", "--matrix", str(f), "--json")
    assert json.loads(out) == {"top": True, "cover": None}


def test_identity_commands(capsys):
    code, out, _ = run(capsys, "identity", "fs", "--n", "5")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "identity", "ds", "--n", "4", "--json")
    assert code == 0 and json.loads(out)["ok"] is True
    code, out, _ = run(capsys, "identity", "fs", "--n", "6", "--k", "3")
    assert code == 0 and "k=3" in out


def test_identity_mismatch_exits_1(capsys, monkeypatch):
    real = qlattice.identities.qbinomial
    monkeypatch.setattr(qlattice.identities, "qbinomial",
                        lambda n, k: real(n, k) + (1 if k == 3 else 0))
    lhs, rhs = (real(6, 3) + 1).to_list(), real(6, 3).to_list()
    for which in ("fs", "ds"):
        code, out, err = run(capsys, "identity", which, "--n", "6")
        assert code == 1 and err == ""
        assert out == (f"{which} n=6: MISMATCH\n"
                       f"counterexample: {{'k': 3, 'lhs': {lhs}, "
                       f"'rhs': {rhs}}}\n")
        code, out, _ = run(capsys, "identity", which, "--n", "6", "--json")
        assert code == 1
        assert json.loads(out)["counterexample"] == {"k": 3, "lhs": lhs,
                                                     "rhs": rhs}


def test_identity_overflow_names_the_bound(capsys):
    code, out, err = run(capsys, "identity", "fs", "--n", "35",
                         "--max-size", str(10**30))
    assert code == 2 and out == ""
    assert err == ("error: identity fs at n=35: polynomial coefficient "
                   "exceeds the 64-bit range [-2^63, 2^63 - 1]\n")


def test_identity_fs_has_no_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("QLATTICE_MAX_SIZE", "10")
    code, out, err = run(capsys, "identity", "fs", "--n", "34")
    assert (code, out, err) == (0, "fs n=34: ok\n", "")
    code, _, err = run(capsys, "identity", "ds", "--n", "5")
    assert code == 2 and "above the ceiling 10" in err


def test_census_csv_frozen(capsys):
    code, out, _ = run(capsys, "census", "--q", "2", "--n", "3", "--csv")
    assert code == 0
    assert out.strip().splitlines() == [
        "path,downs,predicted_poly,primary_count,block_size,fiber_size",
        "HHH,0,[1],1,8,8",
        "HUD,1,[-1,1],1,2,2",
        "UDH,1,[-1,1],1,2,2",
        "UHD,1,[0,-1,1],2,2,4",
    ]


def test_census_json(capsys):
    code, out, _ = run(capsys, "census", "--q", "3", "--n", "2", "--json")
    rows = json.loads(out)
    assert code == 0
    assert [r["path"] for r in rows] == ["HH", "UD"]
    assert rows[1]["primary_count"] == 2          # (q-1) * w(UD) at q=3
    assert sum(r["fiber_size"] for r in rows) == 6


def test_sbd_json_schema(capsys):
    code, out, _ = run(capsys, "sbd", "--q", "2", "--n", "3", "--json")
    blocks = json.loads(out)
    assert code == 0
    assert sorted(b["path"] for b in blocks) == \
        ["HHH", "HUD", "UDH", "UHD", "UHD"]
    for b in blocks:
        assert set(b) == {"path", "primary_rref", "set", "members"}
        assert b["members"] == 2 ** (3 - 2 * b["path"].count("D"))


def test_scd_output(capsys):
    code, out, _ = run(capsys, "scd", "--q", "2", "--n", "2", "--json")
    payload = json.loads(out)
    assert code == 0
    assert sorted(len(c) for c in payload["chains"]) == [1, 1, 3]
    code, out, _ = run(capsys, "scd", "--q", "2", "--n", "1")
    assert "chain 1" in out


ELIMINATION_PINS = [(("psi",), 2), (("psi", "--json"), 2),
                    (("classify",), 2), (("classify", "--json"), 2)]


@pytest.mark.parametrize("argv, eliminations", ELIMINATION_PINS,
                         ids=[" ".join(argv) for argv, _ in ELIMINATION_PINS])
def test_lattice_commands_eliminate_once_per_column(
        capsys, monkeypatch, tmp_path, argv, eliminations):
    """On the 8-column q=3 golden file: one elimination for the rref and
    one pivot pass (psi), whatever the number of columns; the path, both
    pivot sets and the column classes are all read off that pass.  The ids
    name the command only, so tightening a pin renames no test."""
    lattice = json.loads((Path(__file__).parent / "golden_lattice.json")
                         .read_text())
    path = tmp_path / "q3-eight"
    path.write_text(lattice["matrices"]["q3-eight"])
    calls = []
    real = qlattice.matspace._eliminate

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(qlattice.matspace, "_eliminate", counting)
    # the package name qlattice.psi is the function; patch the module
    monkeypatch.setattr(importlib.import_module("qlattice.psi"),
                        "_eliminate", counting)
    code, _, _ = run(capsys, argv[0], "--matrix", str(path), *argv[1:])
    assert code == 0 and len(calls) == eliminations


def test_max_size_flag_and_env(capsys, monkeypatch):
    code, _, err = run(capsys, "census", "--q", "2", "--n", "4",
                       "--max-size", "10")
    assert code == 2 and "above the ceiling" in err
    monkeypatch.setenv("QLATTICE_MAX_SIZE", "10")
    code, _, err = run(capsys, "census", "--q", "2", "--n", "4")
    assert code == 2 and "above the ceiling" in err
    monkeypatch.delenv("QLATTICE_MAX_SIZE")
    code, _, _ = run(capsys, "census", "--q", "2", "--n", "4")
    assert code == 0


def test_max_size_only_where_something_is_enumerated():
    parser = qlattice.cli.build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    offered = {name for name, p in sub.choices.items()
               if "--max-size" in p._option_string_actions}
    assert offered == {"paths", "involutions", "sbd", "scd", "census",
                       "identity"}
    with pytest.raises(SystemExit) as exc:
        main(["weight", "UD", "--max-size", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv, message", [
    (("census", "--q", "2", "--n", "4"), "F_2^4 has 67 subspaces"),
    (("sbd", "--q", "3", "--n", "3"), "F_3^3 has 28 subspaces"),
    (("scd", "--q", "2", "--n", "4"), "F_2^4 has 67 subspaces"),
    (("involutions", "--n", "5"), "26 involutions on [5]"),
    (("identity", "ds", "--n", "5"), "26 involutions on [5]")],
    ids=["census", "sbd", "scd", "involutions", "identity-ds"])
def test_enumeration_ceilings_are_exact(capsys, argv, message):
    code, out, err = run(capsys, *argv, "--max-size", "10")
    assert code == 2 and out == ""
    assert err == f"error: {message}, above the ceiling 10\n"


def test_paths_respects_the_ceiling(capsys, monkeypatch):
    code, out, err = run(capsys, "paths", "--n", "20", "--max-size", "10")
    assert code == 2 and out == ""
    assert err == "error: 50852019 paths of length 20, above the ceiling 10\n"
    monkeypatch.setenv("QLATTICE_MAX_SIZE", "20")
    code, _, err = run(capsys, "paths", "--n", "5")
    assert code == 2 and "above the ceiling 20" in err
    code, out, _ = run(capsys, "paths", "--n", "5", "--max-size", "21")
    assert code == 0 and len(out.split()) == 21


@pytest.mark.parametrize("argv", [
    ("paths",), ("involutions",), ("sbd",), ("scd",), ("census",),
    ("identity", "fs"), ("identity", "ds")], ids="-".join)
def test_negative_n_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv, "--n", "-1")
    assert code == 2 and out == ""
    assert err == "error: --n must be nonnegative, got -1\n"


def test_census_invariant_violation_exits_1(capsys, monkeypatch):
    def broken_census(field, n, max_size=None):
        raise RuntimeError("path UD: 3 primaries, predicted 2")

    monkeypatch.setattr(qlattice.cli, "fiber_census", broken_census)
    code, out, err = run(capsys, "census", "--q", "3", "--n", "2")
    assert code == 1 and out == ""
    assert err == ("error: census invariant violated: "
                   "path UD: 3 primaries, predicted 2\n")
    code, out, err = run(capsys, "census", "--q", "3", "--n", "2", "--json")
    assert code == 1
    assert json.loads(out) == {"ok": False, "counterexample":
                               "path UD: 3 primaries, predicted 2"}
    assert err == ("error: census invariant violated: "
                   "path UD: 3 primaries, predicted 2\n")


class ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_broken_pipe_exits_quietly(capsys, monkeypatch, tmp_path):
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", ClosedPipe(fd))
        code = main(["scd", "--q", "2", "--n", "3"])
        monkeypatch.undo()
        assert code == 1 and capsys.readouterr().err == ""
        # the recipe points the dead stdout at the null device
        assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
    finally:
        os.close(fd)


def test_unknown_flag_is_an_error():
    with pytest.raises(SystemExit) as exc:
        main(["paths", "--n", "3", "--bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("weight", "UD", "--max-size", "5"),  # an option the command lacks
    ("bogus",),                           # an unknown subcommand
    ("sbd", "--q", "x", "--n", "3"),      # a value of the wrong type
    ("paths",),                           # a missing required option
])
def test_usage_errors_are_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    err = capsys.readouterr().err
    assert exc.value.code == 2
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_help_is_unchanged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sbd", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0 and out.startswith("usage: qlattice sbd")


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "psi", "--matrix", "/nonexistent/m.txt")
    assert code == 2 and "error:" in err


def test_selftest_subset(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "c03")
    assert code == 0
    assert out.startswith("PASS [c03]")
    code, out, _ = run(capsys, "selftest", "--only", "c03", "c09", "--json")
    results = json.loads(out)
    assert code == 0
    assert [r["key"] for r in results] == ["c03", "c09"]
    assert all(r["ok"] for r in results)


def test_selftest_reports_each_key_once(capsys):
    code, out, _ = run(capsys, "selftest", "--only", "c03", "c03")
    assert code == 0 and len(out.splitlines()) == 1


def test_selftest_unknown_key(capsys):
    code, _, err = run(capsys, "selftest", "--only", "c99")
    assert code == 2 and "unknown check keys" in err
