"""The sbd and scd commands stream: they print each decomposition from its
generator one block at a time, with the bytes of printing the whole list
that sbd() and scd() return, and hold no more than one block in memory.
census, in text, CSV and JSON, goes through the same writer with the bytes
of printing its whole list of rows.  A ceiling refusal, --json and --csv
included, is checked with the other commands' in test_cli.py."""

import contextlib
import io
import json
import tracemalloc

import pytest

from conftest import ALL_FIELDS
from qlattice import decomp, fiber_census, gf, sbd, scd
from qlattice.cli import main

#: Largest n per field for the byte comparison; every n from 0 is run.
NMAX = {2: 5, 3: 4, 4: 3, 5: 3, 7: 2, 8: 2, 9: 2}


def rref_text(x):
    return ";".join(",".join(map(str, r)) for r in x.rows) or "-"


def whole_list_output(command, q, n, form):
    """What the CLI printed when it built the whole result first: the list
    of sbd(), the chains of scd() or the rows of fiber_census(), printed at
    once."""
    field = gf(q)
    as_json = form == "json"
    if command == "census":
        return census_output(fiber_census(field, n), form)
    if command == "sbd":
        blocks = sbd(field, n)
        if as_json:
            return json.dumps([{"path": b.path.steps,
                                "primary_rref": [list(r) for r in
                                                 b.primary.rows],
                                "set": list(b.ground),
                                "members": b.size} for b in blocks]) + "\n"
        return "".join(f"{b.path.steps or '-'} members={b.size} "
                       f"set={sorted(b.ground)} "
                       f"primary=[{rref_text(b.primary)}]\n" for b in blocks)
    chains = scd(field, n).chains
    if as_json:
        return json.dumps({"q": q, "n": n, "chains": [
            [[list(r) for r in x.rows] for x in chain]
            for chain in chains]}) + "\n"
    lines = []
    for i, chain in enumerate(chains, start=1):
        lines.append(f"chain {i} (ranks {chain[0].dim}..{chain[-1].dim})")
        lines.extend(f"  [{rref_text(x)}]" for x in chain)
    return "".join(line + "\n" for line in lines)


def census_output(rows, form):
    """The census rows in text, CSV or JSON, printed at once."""
    if form == "json":
        return json.dumps([{
            "path": r.path.steps, "downs": r.path.down_count,
            "predicted_poly": r.predicted.to_list(),
            "primary_count": r.primary_count,
            "block_size": r.block_size, "fiber_size": r.fiber_size,
        } for r in rows]) + "\n"
    if form == "csv":
        lines = ["path,downs,predicted_poly,primary_count,block_size,"
                 "fiber_size"]
        for r in rows:
            poly = "[" + ",".join(str(c) for c in r.predicted.to_list()) + "]"
            lines.append(f"{r.path.steps},{r.path.down_count},{poly},"
                         f"{r.primary_count},{r.block_size},{r.fiber_size}")
    else:
        lines = [f"{r.path.steps or '-':12s} downs={r.path.down_count} "
                 f"primaries={r.primary_count} block={r.block_size} "
                 f"fiber={r.fiber_size} predicted={r.predicted}"
                 for r in rows]
    return "".join(line + "\n" for line in lines)


@pytest.mark.parametrize("command, form", [
    ("sbd", "text"), ("sbd", "json"), ("scd", "text"), ("scd", "json"),
    ("census", "text"), ("census", "csv"), ("census", "json")])
@pytest.mark.parametrize("q", ALL_FIELDS)
def test_streamed_output_equals_the_whole_list_printer(capsys, q, command,
                                                        form):
    for n in range(NMAX[q] + 1):
        argv = [command, "--q", str(q), "--n", str(n)]
        code = main(argv + [f"--{form}"] * (form != "text"))
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        assert out == whole_list_output(command, q, n, form), argv


class Discard(io.TextIOBase):
    """A stdout that keeps nothing."""

    def writable(self):
        return True

    def write(self, text):
        return len(text)


def traced_peak(fn):
    """The peak of the memory traced while fn runs, in bytes."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def cli_into_discard(argv):
    with contextlib.redirect_stdout(Discard()):
        assert main(argv) == 0


@pytest.mark.parametrize("command, whole", [("sbd", sbd), ("scd", scd)])
def test_the_cli_holds_one_block_in_memory(command, whole):
    field = gf(2)
    listed = traced_peak(lambda: whole(field, 7))
    streamed = traced_peak(
        lambda: cli_into_discard([command, "--q", "2", "--n", "7"]))
    assert streamed < listed / 4, (streamed, listed)


@pytest.mark.parametrize("gen, whole", [
    (decomp.sbd_blocks, sbd),
    (decomp.scd_chains, lambda field, n: scd(field, n).chains)],
    ids=["sbd_blocks", "scd_chains"])
def test_next_walks_to_the_first_block_only(monkeypatch, gen, whole):
    walk = decomp.subspaces_with_paths
    walked = []

    def counted(*args, **kwargs):
        for item in walk(*args, **kwargs):
            walked.append(item)
            yield item

    monkeypatch.setattr(decomp, "subspaces_with_paths", counted)
    field = gf(3)
    expected = whole(field, 5)[0]
    walked.clear()
    assert next(gen(field, 5)) == expected
    assert len(walked) == 1
