"""Command-line front end.

Exit codes: 0 on success (or a verified identity), 1 when a verification
fails or a census invariant is violated, 2 on usage or input errors (a
negative --n among them).  A reader that closes stdout early (``| head``)
ends the command quietly with exit 1.  Every command takes --json; census
also takes --csv, and with --json reports a violated invariant as the object
{"ok": false, "counterexample": ...} on stdout as well.  The six commands
that enumerate (paths, involutions, sbd, scd, census, identity) take
--max-size, which like QLATTICE_MAX_SIZE overrides the enumeration ceiling;
identity fs enumerates nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import acceptance
from .algebra import gf
from .decomp import sbd, scd, scd_cover
from .identities import fiber_census, verify_ds, verify_fs
from .involution import biane, enumerate_involutions, parse_involution
from .matspace import format_matrix, parse_matrix, rref_left
from .motzkin import MotzkinPath, enumerate_paths
from .psi import _column_classes, psi


def _max_size(args):
    if args.max_size is not None:
        return args.max_size
    env = os.environ.get("QLATTICE_MAX_SIZE")
    return int(env) if env else None


def _load_rref(args):
    with open(args.matrix) as fh:
        mat = parse_matrix(fh.read())
    if args.q is not None and args.q != mat.field.q:
        raise ValueError(
            f"--q {args.q} disagrees with the file header q={mat.field.q}")
    return rref_left(mat)


def _emit(args, payload, text):
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        print(text)


def _cmd_paths(args):
    paths = [p.steps for p in enumerate_paths(args.n, _max_size(args))]
    _emit(args, {"n": args.n, "count": len(paths), "paths": paths},
          "\n".join(paths) if paths else "")
    return 0


def _cmd_weight(args):
    p = MotzkinPath(args.path)
    w = p.weight()
    _emit(args, {"path": p.steps, "downs": p.down_count,
                 "weight": w.to_list(), "pretty": str(w)}, str(w))
    return 0


def _cmd_involutions(args):
    invs = [str(d) for d in enumerate_involutions(args.n, _max_size(args))]
    _emit(args, {"n": args.n, "count": len(invs), "involutions": invs},
          "\n".join(invs))
    return 0


def _cmd_biane(args):
    d = parse_involution(args.involution, args.n)
    path = biane(d)
    _emit(args, {"involution": str(d), "n": d.n, "path": path.steps},
          path.steps)
    return 0


def _classification_lines(path, classes):
    lines = ["column pivotal essential step"]
    for j, cls in enumerate(classes, start=1):
        lines.append(f"{j:6d} {str(cls.pivotal):7s} {str(cls.essential):9s} "
                     f"{path.steps[j - 1]}")
    return lines


def _columns_payload(classes):
    return [{"column": j, "pivotal": c.pivotal, "essential": c.essential}
            for j, c in enumerate(classes, start=1)]


def _rref_text(x):
    return ";".join(",".join(map(str, row)) for row in x.rows) or "-"


def _cmd_psi(args):
    x = _load_rref(args)
    path = psi(x)
    ground = list(path.horizontals)
    inl = [j for j in ground if j in x.pivots]
    # an H step is in both pivot sets or in neither, a D step in R only
    right = sorted(inl + [j for j, s in enumerate(path.steps, 1) if s == "D"])
    classes = _column_classes(x, path)
    if args.json:
        print(json.dumps({
            "path": path.steps, "left_pivots": list(x.pivots),
            "right_pivots": right, "set": ground, "subset": inl,
            "columns": _columns_payload(classes)}))
    else:
        print("\n".join([f"path    {path.steps}",
                         f"L       {list(x.pivots)}", f"R       {right}",
                         f"set     {ground}", f"subset  {inl}",
                         *_classification_lines(path, classes)]))
    return 0


def _cmd_classify(args):
    x = _load_rref(args)
    path = psi(x)
    classes = _column_classes(x, path)
    if args.json:
        print(json.dumps({"columns": _columns_payload(classes)}))
    else:
        print("\n".join(_classification_lines(path, classes)))
    return 0


def _cmd_sbd(args):
    field = gf(args.q)
    blocks = sbd(field, args.n, _max_size(args))
    if args.json:
        print(json.dumps([{"path": b.path.steps,
                           "primary_rref": [list(r) for r in b.primary.rows],
                           "set": list(b.ground),
                           "members": b.size} for b in blocks]))
    else:
        for b in blocks:
            print(f"{b.path.steps or '-'} members={b.size} "
                  f"set={sorted(b.ground)} primary=[{_rref_text(b.primary)}]")
    return 0


def _cmd_scd(args):
    field = gf(args.q)
    dec = scd(field, args.n, _max_size(args))
    if args.json:
        payload = [[[list(r) for r in x.rows] for x in chain]
                   for chain in dec.chains]
        print(json.dumps({"q": args.q, "n": args.n,
                          "chains": payload}))
    else:
        for i, chain in enumerate(dec.chains, start=1):
            print(f"chain {i} (ranks {chain[0].dim}..{chain[-1].dim})")
            for x in chain:
                print(f"  [{_rref_text(x)}]")
    return 0


def _cmd_cover(args):
    x = _load_rref(args)
    y = scd_cover(x)
    if y is None:
        _emit(args, {"top": True, "cover": None}, "TOP")
    else:
        payload = {"top": False,
                   "cover": {"q": y.field.q, "n": y.n,
                             "rows": [list(r) for r in y.rows]}}
        _emit(args, payload, format_matrix(y).rstrip("\n"))
    return 0


def _cmd_identity(args):
    report = (verify_fs(args.n, k=args.k) if args.which == "fs"
              else verify_ds(args.n, _max_size(args), k=args.k))
    if args.json:
        print(json.dumps(report))
    else:
        at = f" k={args.k}" if args.k is not None else ""
        print(f"{args.which} n={args.n}{at}: "
              f"{'ok' if report['ok'] else 'MISMATCH'}")
        if not report["ok"]:
            print(f"counterexample: {report['counterexample']}")
    return 0 if report["ok"] else 1


def _cmd_census(args):
    field = gf(args.q)
    try:
        rows = fiber_census(field, args.n, _max_size(args))
    except RuntimeError as exc:
        if args.json:
            print(json.dumps({"ok": False, "counterexample": str(exc)}))
        print(f"error: census invariant violated: {exc}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps([{
            "path": r.path.steps, "downs": r.path.down_count,
            "predicted_poly": r.predicted.to_list(),
            "primary_count": r.primary_count,
            "block_size": r.block_size, "fiber_size": r.fiber_size,
        } for r in rows]))
        return 0
    if args.csv:
        print("path,downs,predicted_poly,primary_count,block_size,fiber_size")
        for r in rows:
            poly = "[" + ",".join(str(c) for c in r.predicted.to_list()) + "]"
            print(f"{r.path.steps},{r.path.down_count},{poly},"
                  f"{r.primary_count},{r.block_size},{r.fiber_size}")
        return 0
    for r in rows:
        print(f"{r.path.steps or '-':12s} downs={r.path.down_count} "
              f"primaries={r.primary_count} block={r.block_size} "
              f"fiber={r.fiber_size} predicted={r.predicted}")
    return 0


def _cmd_selftest(args):
    # timings are excluded so the output is identical across runs
    results = acceptance.run_acceptance(keys=args.only, seed=args.seed)
    if args.json:
        print(json.dumps([{
            "key": r.key, "description": r.description, "ok": r.ok,
            "detail": r.detail,
        } for r in results]))
    else:
        for r in results:
            print(r.line(with_time=False))
    return 0 if all(r.ok for r in results) else 1


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``error:`` line on stderr and exits 2;
    the subcommand parsers are of the same class."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="qlattice",
        description="Exact combinatorics of the subspace lattice: Motzkin "
                    "paths, Boolean and chain decompositions, q-identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, q=False, n=False, matrix=False):
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        if q:
            p.add_argument("--q", type=int, default=None if matrix else 2,
                           help="field cardinality (prime power)")
        if n:
            p.add_argument("--n", type=int, required=True,
                           help="ambient dimension / word length")
            p.add_argument("--max-size", type=int, default=None,
                           help="enumeration ceiling override")
        if matrix:
            p.add_argument("--matrix", required=True,
                           help="matrix file: 'q n k' header then k rows")

    p = sub.add_parser("paths", help="list Motzkin paths of length n")
    common(p, n=True)
    p.set_defaults(fn=_cmd_paths)

    p = sub.add_parser("weight", help="q-weight of a path")
    p.add_argument("path", help="step word over U/D/H")
    common(p)
    p.set_defaults(fn=_cmd_weight)

    p = sub.add_parser("involutions", help="list involutions on [n]")
    common(p, n=True)
    p.set_defaults(fn=_cmd_involutions)

    p = sub.add_parser("biane", help="path image of an involution")
    p.add_argument("involution", help='cycle string like "[1,6][3,5]", or []')
    common(p)
    p.add_argument("--n", type=int, default=None,
                   help="ambient size (default: largest point)")
    p.set_defaults(fn=_cmd_biane)

    p = sub.add_parser("psi", help="path and pivot data of a subspace")
    common(p, q=True, matrix=True)
    p.set_defaults(fn=_cmd_psi)

    p = sub.add_parser("classify", help="column classification of a subspace")
    common(p, q=True, matrix=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("sbd", help="Boolean decomposition blocks")
    common(p, q=True, n=True)
    p.set_defaults(fn=_cmd_sbd)

    p = sub.add_parser("scd", help="chain decomposition")
    common(p, q=True, n=True)
    p.set_defaults(fn=_cmd_scd)

    p = sub.add_parser("cover", help="covering subspace in the chain "
                                     "decomposition, or TOP")
    common(p, q=True, matrix=True)
    p.set_defaults(fn=_cmd_cover)

    p = sub.add_parser("identity", help="verify an expansion identity")
    p.add_argument("which", choices=("fs", "ds"),
                   help="fs: sum over paths; ds: sum over involutions")
    common(p, n=True)
    p.add_argument("--k", type=int, default=None,
                   help="check a single rank instead of all 0..n")
    p.set_defaults(fn=_cmd_identity)

    p = sub.add_parser("census", help="per-path fiber census")
    common(p, q=True, n=True)
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("selftest", help="run the acceptance battery")
    common(p)
    p.add_argument("--only", nargs="+", metavar="KEY", default=None,
                   help="run a subset of checks, e.g. --only c03 c09")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the randomized spot checks")
    p.set_defaults(fn=_cmd_selftest)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 0:
        print(f"error: --n must be nonnegative, got {args.n}", file=sys.stderr)
        return 2
    try:
        code = args.fn(args)
        # flush here so that a closed pipe is seen inside this try block
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away; point stdout at devnull so that the flush
        # at interpreter exit does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    except (ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
