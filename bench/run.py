#!/usr/bin/env python3
"""The qlattice benchmark.

Run from the repository root:

    python3 bench/run.py --workload enum-q2 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Each workload runs in its own process, single-threaded and closed-loop: one
caller issues the next op when the previous one has returned.

  enum-q2     ``qlattice sbd``, ``scd`` and ``census --q 2 --n 7`` through
              ``qlattice.cli.main`` in-process, stdout into a sink that
              hashes and counts bytes and keeps nothing.  The first pass is
              untimed: it also parses the output and checks it against the
              plain-integer oracle.
  cover-walk  seeded point queries: a full-rank spanning matrix over F_q^12,
              q in {3,4,5,7,8,9} in equal shares, dimension uniform in
              0..12.  One op is rref_left, psi, classify_columns, then
              scd_cover until the chain top.  Queries are generated in
              batches before each batch is timed; every step is checked
              after its batch.
  identities  ``qlattice identity fs --n 13`` and ``identity ds --n 11``.

With ``--trace 0`` passes repeat until ``--seconds`` of timed work is done
and the end-to-end metrics of BENCHMARK.json are reported: ``setup_s`` (the
median of several fresh imports of qlattice plus the workload's field
tables), ``wall_s`` (the median time of one pass: the three enumerations,
ten batches of walk queries, or the two identities) and ``peak_rss_mb``.
Per-command and per-op figures are printed above the result line.

With ``--trace 1`` one pass runs untraced (after enum-q2's untimed check
pass) and the same pass runs again under the span tracer of ``tracer.py``;
the per-layer metrics and the tracing overhead (traced over untraced wall
time) are reported, and the spans are written to
``bench/out/trace-<workload>.spans``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when every
check passed, 1 when an op failed or a check did not hold, and 2 when the
benchmark cannot run (no ``src/qlattice``, or a trace target is missing);
then no result line is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

import checks  # noqa: E402  (bench/ is on sys.path as the script's directory)
import oracle  # noqa: E402
from tracer import LATTICE_LAYERS, PER_LAYER, MissingTarget, Tracer  # noqa: E402

SETUP_REPEATS = 15
WALK_N = 12
WALK_QS = (3, 4, 5, 7, 8, 9)
WALK_BATCH = 300          # queries generated, then checked, at a time
# Batches per timed pass.  A pass lasts several seconds so that its time
# averages over the host's speed swings, which last seconds on a shared
# machine; a one-batch pass would see a single speed.
WALK_BATCHES = 10
WALK_PERCENTILE = 99      # needs >= 10 samples beyond it: >= 1000 ops

ENUM_COMMANDS = [
    ("sbd_s", ["sbd", "--q", "2", "--n", "7"], lambda: checks.SbdCheck(2, 7)),
    ("scd_s", ["scd", "--q", "2", "--n", "7"], lambda: checks.ScdCheck(2, 7)),
    ("census_s", ["census", "--q", "2", "--n", "7"],
     lambda: checks.CensusCheck(2, 7)),
]
IDENTITY_COMMANDS = [
    ("fs_s", ["identity", "fs", "--n", "13"],
     lambda: checks.IdentityCheck("fs", 13)),
    ("ds_s", ["identity", "ds", "--n", "11"],
     lambda: checks.IdentityCheck("ds", 11)),
]


class SetupError(RuntimeError):
    """The benchmark cannot run in this directory."""


@dataclass
class Pass:
    """One timed pass: seconds per CLI command (``by_label``) or per walk
    query (``latencies``), the ops run, their failures and the bytes they
    printed."""

    ops: int = 0
    by_label: dict = field(default_factory=dict)
    latencies: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    out_bytes: int = 0

    @property
    def wall_s(self):
        return sum(self.by_label.values()) + sum(self.latencies)


# -- set-up ------------------------------------------------------------------


def set_up(qs):
    """Import qlattice afresh and build the field tables of ``qs``; return
    the seconds taken."""
    for key in [k for k in sys.modules
                if k == "qlattice" or k.startswith("qlattice.")]:
        del sys.modules[key]
    start = time.perf_counter()
    lat = importlib.import_module("qlattice")
    importlib.import_module("qlattice.cli")
    for q in qs:
        lat.gf(q)
    elapsed = time.perf_counter() - start
    if not Path(lat.__file__).resolve().is_relative_to(SRC):
        raise SetupError(f"qlattice was imported from {lat.__file__}, "
                         f"not from {SRC}")
    return elapsed


def mod(name):
    return sys.modules["qlattice." + name]


# -- CLI workloads -----------------------------------------------------------


class Sink(io.TextIOBase):
    """Stdout of one CLI command: hashed and counted, and fed line by line to
    ``checker`` when one is given.  Only the current partial line is kept."""

    def __init__(self, checker=None):
        self.digest = hashlib.sha256()
        self.nbytes = 0
        self.checker = checker
        self._partial = ""

    def writable(self):
        return True

    def write(self, text):
        data = text.encode()
        self.digest.update(data)
        self.nbytes += len(data)
        if self.checker is not None:
            *lines, self._partial = (self._partial + text).split("\n")
            for line in lines:
                self.checker.feed(line)
        return len(text)


class CliWorkload:
    """Runs CLI commands in-process; one command is one op.  With
    ``warm_up`` the oracle checks run only in an untimed first pass, for
    output too large to check inside every timed pass; later passes still
    compare each output with its frozen digest."""

    def __init__(self, commands, frozen, qs=(), warm_up=False):
        self.commands = commands
        self.frozen = frozen
        self.qs = qs
        self.warm_up = warm_up
        self.passes = 0

    def run_pass(self, tracer=None):
        check = not self.warm_up or self.passes == 0
        self.passes += 1
        result = Pass(ops=len(self.commands))
        cli = mod("cli")
        for label, argv, make_checker in self.commands:
            if tracer is not None:
                tracer.op += 1
            sink = Sink(make_checker() if check else None)
            err = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(sink), \
                        contextlib.redirect_stderr(err):
                    code = cli.main(argv)
            except Exception as exc:  # an op that raises is a failed op
                code, err = 1, io.StringIO(f"{type(exc).__name__}: {exc}")
            result.by_label[label] = time.perf_counter() - start
            result.out_bytes += sink.nbytes
            result.failures.extend(
                self._errors(argv, code, err.getvalue(), sink))
        return result

    def _errors(self, argv, code, err, sink):
        cmd = " ".join(argv)
        errors = []
        if code != 0 or err:
            errors.append(f"exit {code}, stderr {err.strip()[:200]!r}")
        want = self.frozen[cmd]
        if (sink.digest.hexdigest(), sink.nbytes) != (want["sha256"],
                                                      want["bytes"]):
            errors.append(f"output ({sink.nbytes} bytes) differs from the "
                          f"frozen output ({want['bytes']} bytes)")
        if sink.checker is not None:
            errors.extend(sink.checker.finish())
        return [f"{cmd}: " + "; ".join(errors[:3])] if errors else []


# -- cover-walk --------------------------------------------------------------


class CoverWalk:
    """Seeded point queries; one walk from a query to its chain top is one
    op."""

    qs = WALK_QS
    warm_up = False

    def __init__(self, seed, frozen):
        self.rng = random.Random(seed)
        self.fields = {q: oracle.Field(q) for q in WALK_QS}
        self.pinned = None

    def batch(self):
        """WALK_BATCH queries (q, rows): uniformly random full-rank k x n
        matrices, k uniform in 0..n, each field once in every six."""
        rng, out = self.rng, []
        while len(out) < WALK_BATCH:
            order = list(WALK_QS)
            rng.shuffle(order)
            for q in order:
                k = rng.randint(0, WALK_N)
                while True:
                    rows = tuple(tuple(rng.randrange(q) for _ in range(WALK_N))
                                 for _ in range(k))
                    if oracle.rank(self.fields[q], rows, WALK_N) == k:
                        break
                out.append((q, rows))
        return out

    def table_errors(self):
        """The program's field tables must be the documented encoding, or
        the walk checks would compare different fields."""
        gf = importlib.import_module("qlattice").gf
        bad = [q for q, f in self.fields.items()
               if any(gf(q).add(a, b) != f.add[a][b]
                      or gf(q).mul(a, b) != f.mul[a][b]
                      for a in range(q) for b in range(q))]
        return [f"GF({q}) tables differ from the documented encoding"
                for q in bad]

    def run_pass(self, tracer=None):
        """WALK_BATCHES batches, each generated before it is timed and
        checked after; the batches of ``self.pinned`` when set, as in traced
        runs."""
        result = Pass()
        for queries in self.pinned or (self.batch()
                                       for _ in range(WALK_BATCHES)):
            self._run_batch(queries, result, tracer)
        return result

    def _run_batch(self, queries, result, tracer):
        result.ops += len(queries)
        gf = importlib.import_module("qlattice").gf
        mat_type = mod("matspace").Mat
        mats = [mat_type(gf(q), WALK_N, rows) for q, rows in queries]
        matspace, psi_mod, decomp = mod("matspace"), mod("psi"), mod("decomp")
        results = []
        for m in mats:
            if tracer is not None:
                tracer.op += 1
            start = time.perf_counter()
            try:
                x = matspace.rref_left(m)
                word = psi_mod.psi(x).steps
                classes = [tuple(c) for c in psi_mod.classify_columns(x)]
                chain = [x]
                while len(chain) <= WALK_N + 1:
                    y = decomp.scd_cover(chain[-1])
                    if y is None:
                        break
                    chain.append(y)
                outcome = (word, classes, [c.rows for c in chain])
            except Exception as exc:  # an op that raises is a failed op
                outcome = f"{type(exc).__name__}: {exc}"
            result.latencies.append(time.perf_counter() - start)
            results.append(outcome)
        for (q, rows), outcome in zip(queries, results):
            if isinstance(outcome, str):
                errors = [outcome]
            else:
                errors = checks.walk_errors(self.fields[q], WALK_N, rows,
                                            *outcome)
            if errors:
                result.failures.append(
                    f"cover-walk q={q} k={len(rows)}: {errors[0]}")


WORKLOADS = {
    "enum-q2": lambda seed, frozen: CliWorkload(ENUM_COMMANDS, frozen,
                                                qs=(2,), warm_up=True),
    "cover-walk": CoverWalk,
    "identities": lambda seed, frozen: CliWorkload(IDENTITY_COMMANDS, frozen),
}


# -- runs --------------------------------------------------------------------


class Run:
    """Tallies ops and failures of one benchmark process."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.failed = 0

    def add(self, result):
        self.attempted += result.ops
        self.failed += len(result.failures)
        self.failures.extend(result.failures[:max(0, 5 - len(self.failures))])
        return result


def measure(workload, seconds, run):
    """Timed passes until ``seconds`` of timed work; returns the passes."""
    if workload.warm_up:
        run.add(workload.run_pass())
    passes = []
    while not passes or sum(p.wall_s for p in passes) < seconds:
        passes.append(run.add(workload.run_pass()))
    return passes


def figures(passes):
    """The printed per-command and per-op figures: name -> (value, unit,
    note)."""
    out = {}
    for label in passes[0].by_label:
        ts = [p.by_label[label] for p in passes]
        out[label] = (statistics.median(ts), "s", f"median of {len(ts)}")
    latencies = [t for p in passes for t in p.latencies]
    if latencies:
        cut = statistics.quantiles(latencies, n=100)[WALK_PERCENTILE - 1]
        note = f"{len(latencies)} ops"
        out["walk_p50_ms"] = (1e3 * statistics.median(latencies), "ms", note)
        out[f"walk_p{WALK_PERCENTILE}_ms"] = (1e3 * cut, "ms", note)
    return out


def traced(workload, run):
    """One untraced pass, then the same pass traced; returns the per-layer
    metrics and the tracer."""
    if workload.warm_up:
        run.add(workload.run_pass())
    if isinstance(workload, CoverWalk):
        workload.pinned = [workload.batch() for _ in range(WALK_BATCHES)]
    untraced = run.add(workload.run_pass())
    tracer = Tracer()
    tracer.install()
    try:
        traced_pass = run.add(workload.run_pass(tracer))
    finally:
        tracer.uninstall()
    enumerated = tracer.items[tracer.names.index("matspace.enumerate_subspaces")]
    metrics = tracer.layer_metrics(enumerated or traced_pass.ops,
                                   traced_pass.out_bytes, untraced.wall_s,
                                   traced_pass.wall_s)
    return metrics, tracer


def trace_errors(name, metrics):
    """Calls that must, or must not, have happened on this workload."""
    if name == "identities":
        return [f"identities entered the lattice layers: {key} = {value}"
                for key, value in metrics.items()
                if key.startswith(LATTICE_LAYERS) and value]
    if not metrics["decomp.ins_col.calls"]:
        return [f"{name} made no decomp.ins_col calls"]
    return []


def _joined(errors):
    """Several findings of one check count as one failure."""
    return ["; ".join(errors)] if errors else []


def declared(mode):
    """Metric names and units that BENCHMARK.json declares for the mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if mode else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def one_workload(name, seed, seconds, trace):
    if not (SRC / "qlattice" / "__init__.py").is_file():
        raise SetupError(f"no qlattice sources under {SRC}")
    sys.path.insert(0, str(SRC))
    units = declared(trace)
    frozen = json.loads((BENCH / "spec.json").read_text())["frozen_outputs"]
    workload = WORKLOADS[name](seed, frozen)
    setups = [set_up(workload.qs) for _ in range(SETUP_REPEATS)]
    run = Run()
    if isinstance(workload, CoverWalk):
        run.add(Pass(failures=_joined(workload.table_errors())))
    print(f"workload {name}  seed {seed}  python {platform.python_version()}"
          f"  nproc {os.cpu_count()}  trace {trace}")
    if trace:
        metrics, tracer = traced(workload, run)
        run.add(Pass(failures=_joined(trace_errors(name, metrics))))
        out = BENCH / "out"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"trace-{name}.spans")
        units = dict(PER_LAYER)
        shown = {k: (v, units[k], "") for k, v in metrics.items()}
    else:
        passes = measure(workload, seconds, run)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(p.wall_s for p in passes),
            "peak_rss_mb": rss_mb,
        }
        shown = {
            "setup_s": (metrics["setup_s"], "s",
                        f"median of {SETUP_REPEATS} set-ups"),
            "wall_s": (metrics["wall_s"], "s",
                       f"median of {len(passes)} passes"),
            "peak_rss_mb": (rss_mb, "MB", "ru_maxrss, MiB"),
            **figures(passes),
        }
    shown["failed_ratio"] = (run.failed / run.attempted if run.attempted
                             else 0.0, "ratio",
                             f"{run.failed} of {run.attempted} ops")
    for key, (value, unit, note) in shown.items():
        print(f"  {key:<38} {value:>14.6g} {unit:<6} {note}")
    for failure in run.failures:
        print(f"  FAILED {failure}")
    if set(metrics) != set(units):
        raise SetupError("reported metrics differ from BENCHMARK.json: "
                         f"{sorted(set(metrics) ^ set(units))}")
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct, "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units}}))
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed),
                                 "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in WORKLOADS]
        return max(codes)
    try:
        return one_workload(args.workload, args.seed, args.seconds, args.trace)
    except (SetupError, MissingTarget) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
