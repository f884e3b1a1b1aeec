"""Command-line front end.

Exit codes: 0 on success (or a verified identity), 1 when a verification
fails or a census invariant is violated, 2 on usage or input errors (a
negative --n among them).  A reader that closes stdout early (``| head``)
ends the command quietly with exit 1.  Every command takes --json; census
also takes --csv.  The enumeration ceiling can be overridden by --max-size
or the QLATTICE_MAX_SIZE environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import acceptance
from .algebra import gf
from .decomp import sbd, scd, scd_cover
from .errors import TooLargeError
from .identities import fiber_census, verify_ds, verify_fs
from .involution import biane, enumerate_involutions, parse_involution
from .matspace import (format_matrix, left_pivots, parse_matrix, right_pivots,
                       rref_left)
from .motzkin import MotzkinPath, enumerate_paths
from .psi import classify_columns, psi, set_and_subset


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


def _classification_lines(x):
    lines = ["column pivotal essential step"]
    path = psi(x)
    for j, cls in enumerate(classify_columns(x), start=1):
        lines.append(f"{j:6d} {str(cls.pivotal):7s} {str(cls.essential):9s} "
                     f"{path.steps[j - 1]}")
    return lines


def _cmd_psi(args):
    x = _load_rref(args)
    path = psi(x)
    ground, inl = set_and_subset(x)
    payload = {
        "path": path.steps,
        "left_pivots": sorted(left_pivots(x)),
        "right_pivots": sorted(right_pivots(x)),
        "set": sorted(ground),
        "subset": sorted(inl),
        "columns": [{"column": j, "pivotal": c.pivotal, "essential": c.essential}
                    for j, c in enumerate(classify_columns(x), start=1)],
    }
    text = "\n".join([
        f"path    {path.steps}",
        f"L       {sorted(left_pivots(x))}",
        f"R       {sorted(right_pivots(x))}",
        f"set     {sorted(ground)}",
        f"subset  {sorted(inl)}",
        *_classification_lines(x),
    ])
    _emit(args, payload, text)
    return 0


def _cmd_classify(args):
    x = _load_rref(args)
    payload = {"columns": [{"column": j, "pivotal": c.pivotal,
                            "essential": c.essential}
                           for j, c in enumerate(classify_columns(x), start=1)]}
    _emit(args, payload, "\n".join(_classification_lines(x)))
    return 0


def _cmd_sbd(args):
    field = gf(args.q)
    blocks = sbd(field, args.n, _max_size(args))
    payload = [{"path": b.path.steps,
                "primary_rref": [list(r) for r in b.primary.rows],
                "set": list(b.ground),
                "members": b.size} for b in blocks]
    if args.json:
        print(json.dumps(payload))
    else:
        for b in blocks:
            rref = ";".join(",".join(str(e) for e in row)
                            for row in b.primary.rows) or "-"
            print(f"{b.path.steps or '-'} members={b.size} "
                  f"set={sorted(b.ground)} primary=[{rref}]")
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
                rref = ";".join(",".join(str(e) for e in row)
                                for row in x.rows) or "-"
                print(f"  [{rref}]")
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
    report = (verify_fs if args.which == "fs" else verify_ds)(
        args.n, _max_size(args), k=args.k)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="qlattice",
        description="Exact combinatorics of the subspace lattice: Motzkin "
                    "paths, Boolean and chain decompositions, q-identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, q=False, n=False, matrix=False):
        p.add_argument("--json", action="store_true",
                       help="emit machine-readable JSON")
        p.add_argument("--max-size", type=int, default=None,
                       help="enumeration ceiling override")
        if q:
            p.add_argument("--q", type=int, default=None if matrix else 2,
                           help="field cardinality (prime power)")
        if n:
            p.add_argument("--n", type=int, required=True,
                           help="ambient dimension / word length")
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
    except (TooLargeError, ValueError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
