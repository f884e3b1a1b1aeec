"""Span tracing of qlattice from outside the program.

Every traced function is replaced, in each ``qlattice`` module (or class)
that holds a reference to it, by a wrapper that records one span: its name,
start, end, parent span and the id of the benchmark op it belongs to.  So
``qlattice.decomp.ins_col`` and the ``ins_col`` that ``qlattice.acceptance``
imported are both caught, and so are calls from inside a module.  A
generator is traced once per resume and its yielded items are counted.  The
five GF field operations are counted, not timed, because a span costs more
than the operation.

Spans are kept in compact arrays and written out when the run ends.  A
target that no longer exists stops the run: a renamed function must never
read as zero calls.
"""

from __future__ import annotations

import itertools
import json
import sys
import time
from array import array

#: (span name, module, attribute path, kind); kind "gen" marks a generator.
SPANS = [
    ("cli.main", "qlattice.cli", "main", "call"),
    ("matspace.enumerate_subspaces", "qlattice.matspace",
     "enumerate_subspaces", "gen"),
    ("matspace.eliminate", "qlattice.matspace", "_eliminate", "call"),
    ("matspace.rank_of", "qlattice.matspace", "rank_of", "call"),
    ("matspace.lexically_first_basis", "qlattice.matspace",
     "lexically_first_basis", "call"),
    ("matspace.express_in_rows", "qlattice.matspace", "express_in_rows",
     "call"),
    ("psi.psi", "qlattice.psi", "psi", "call"),
    ("psi.set_and_subset", "qlattice.psi", "set_and_subset", "call"),
    ("psi.classify_column", "qlattice.psi", "classify_column", "call"),
    ("decomp.ins_col", "qlattice.decomp", "ins_col", "call"),
    ("decomp.del_col", "qlattice.decomp", "del_col", "call"),
    ("decomp.gamma_inv", "qlattice.decomp", "gamma_inv", "call"),
    ("decomp.phi", "qlattice.decomp", "phi", "call"),
    ("decomp.boolean_block", "qlattice.decomp", "boolean_block", "call"),
    ("decomp.scd_cover", "qlattice.decomp", "scd_cover", "call"),
    ("decomp.sbd", "qlattice.decomp", "sbd", "call"),
    ("decomp.scd", "qlattice.decomp", "scd", "call"),
    ("motzkin.enumerate_paths", "qlattice.motzkin", "enumerate_paths", "gen"),
    ("motzkin.weight", "qlattice.motzkin", "MotzkinPath.weight", "call"),
    ("involution.enumerate_involutions", "qlattice.involution",
     "enumerate_involutions", "gen"),
    ("involution.weight_stats", "qlattice.involution",
     "Involution.weight_stats", "call"),
    ("involution.biane", "qlattice.involution", "biane", "call"),
    ("identities.verify_fs", "qlattice.identities", "verify_fs", "call"),
    ("identities.verify_ds", "qlattice.identities", "verify_ds", "call"),
    ("identities.fiber_census", "qlattice.identities", "fiber_census", "call"),
    ("algebra.qpoly_mul", "qlattice.algebra", "QPoly.__mul__", "call"),
    ("algebra.qpoly_add", "qlattice.algebra", "QPoly.__add__", "call"),
]

#: Counted field operations: GF.add, sub, mul (two operands), neg, inv (one).
FIELD_OPS = [("add", 2), ("sub", 2), ("mul", 2), ("neg", 1), ("inv", 1)]

#: Spans whose return value adds to ``decomp.members_built``: the
#: decomposition members each one materialises.
MEMBERS = {
    "decomp.boolean_block": lambda block: len(block.members),
    "decomp.scd": lambda dec: dec.size,
    "decomp.scd_cover": lambda cover: cover is not None,
}

#: The four elimination kernels behind ``matspace.eliminations_per_item``.
KERNELS = ("matspace.eliminate", "matspace.rank_of",
           "matspace.lexically_first_basis", "matspace.express_in_rows")


def _timed(name, count="calls"):
    return [(f"{name}.{count}", "count"), (f"{name}.self_s", "s")]


#: Every per-layer metric a traced run reports, in order, with its unit.
PER_LAYER = (
    [("algebra.field_ops", "count")]
    + _timed("algebra.qpoly_mul") + _timed("algebra.qpoly_add")
    + _timed("matspace.enumerate_subspaces", "items")
    + [m for name in KERNELS for m in _timed(name)]
    + [("matspace.eliminations_per_item", "ratio")]
    + _timed("psi.psi") + _timed("psi.set_and_subset")
    + _timed("psi.classify_column")
    + [("psi.pivot_passes_per_item", "ratio")]
    + _timed("decomp.ins_col") + _timed("decomp.del_col")
    + _timed("decomp.gamma_inv") + [("decomp.phi.calls", "count")]
    + _timed("decomp.boolean_block") + _timed("decomp.scd_cover")
    + [("decomp.sbd.self_s", "s"), ("decomp.scd.self_s", "s"),
       ("decomp.members_built", "count"),
       ("decomp.ins_col_per_member", "ratio")]
    + _timed("motzkin.enumerate_paths", "items") + _timed("motzkin.weight")
    + _timed("involution.enumerate_involutions", "items")
    + _timed("involution.weight_stats") + _timed("involution.biane")
    + [("identities.verify_fs.self_s", "s"),
       ("identities.verify_ds.self_s", "s"),
       ("identities.fiber_census.self_s", "s"),
       ("cli.self_s", "s"), ("cli.output_bytes", "count"),
       ("trace.items", "count"), ("trace.spans", "count"),
       ("trace.untraced_wall_s", "s"), ("trace.traced_wall_s", "s"),
       ("trace.overhead", "ratio")]
)

#: Layers that the identities workload must never enter.
LATTICE_LAYERS = ("matspace.", "psi.", "decomp.")


class MissingTarget(RuntimeError):
    """A traced function or class named in SPANS does not exist."""


class Tracer:
    """Installs the wrappers, records spans, and aggregates them."""

    def __init__(self):
        self.names = [name for name, *_ in SPANS]
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("i")
        self.name_ids = array("H")
        self.op_ids = array("i")
        self.stack = [-1]
        self.op = -1
        self.items = [0] * len(self.names)
        self.members = 0
        self._field_ops = itertools.count()
        self._restore = []

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every target; raise MissingTarget before wrapping anything if
        one is absent."""
        mods = {m: _module(m) for _, m, _, _ in SPANS}
        resolved = [(nid, kind, _resolve(mods[mod], path), path)
                    for nid, (_, mod, path, kind) in enumerate(SPANS)]
        gf_cls = _resolve(_module("qlattice.algebra"), "GF")[2]
        field = [(op, arity, _resolve(gf_cls, op)) for op, arity in FIELD_OPS]
        for nid, kind, (holder, attr, orig), path in resolved:
            make = self._gen_wrapper if kind == "gen" else self._call_wrapper
            wrapper = make(orig, nid, MEMBERS.get(self.names[nid]))
            if "." in path:
                self._replace_in(holder, orig, wrapper)
            else:
                for mod in _qlattice_modules():
                    self._replace_in(mod, orig, wrapper)
        tick = self._field_ops.__next__
        for _, arity, (holder, _, orig) in field:
            self._replace_in(gf_cls, orig, _counted(orig, arity, tick))

    def uninstall(self):
        for holder, key, orig in reversed(self._restore):
            setattr(holder, key, orig)
        self._restore.clear()

    def _replace_in(self, holder, orig, wrapper):
        for key, value in list(vars(holder).items()):
            if value is orig:
                setattr(holder, key, wrapper)
                self._restore.append((holder, key, orig))

    def _call_wrapper(self, fn, nid, on_return):
        starts, ends, parents = self.starts, self.ends, self.parents
        name_ids, op_ids, stack = self.name_ids, self.op_ids, self.stack
        clock, tracer = time.perf_counter, self

        def wrapper(*args, **kwargs):
            i = len(starts)
            parents.append(stack[-1])
            name_ids.append(nid)
            op_ids.append(tracer.op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if on_return is not None:
                tracer.members += on_return(result)
            return result

        return wrapper

    def _gen_wrapper(self, fn, nid, _on_return):
        resume = self._call_wrapper(next, nid, None)
        items = self.items

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                try:
                    item = resume(it)
                except StopIteration:
                    return
                items[nid] += 1
                yield item

        return wrapper

    # -- results ------------------------------------------------------------

    def aggregate(self):
        """Per span name: (calls, self seconds).  A span's self time is its
        duration minus the durations of its direct children, which nest
        inside it because the run is single-threaded."""
        starts, ends, parents, name_ids = (self.starts, self.ends,
                                           self.parents, self.name_ids)
        covered = [0.0] * len(starts)
        for i in range(len(starts)):
            p = parents[i]
            if p >= 0:
                covered[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(len(starts)):
            nid = name_ids[i]
            calls[nid] += 1
            self_s[nid] += ends[i] - starts[i] - covered[i]
        return {name: (calls[k], self_s[k]) for k, name in enumerate(self.names)}

    def layer_metrics(self, items_base, output_bytes, untraced_s, traced_s):
        """Every metric of PER_LAYER as {name: value}.  ``items_base`` is the
        number of subspaces enumerated, or of ops where nothing is."""
        agg = self.aggregate()
        # the counter has ticked once per field op, so next() returns the total
        out = {"algebra.field_ops": next(self._field_ops)}
        for name, (calls, self_s) in agg.items():
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        for name, (_, _, _, kind), items in zip(self.names, SPANS,
                                                 self.items):
            if kind == "gen":
                out[name + ".items"] = items

        def per(num, base):
            return num / base if base else 0.0

        out["matspace.eliminations_per_item"] = per(
            sum(agg[name][0] for name in KERNELS), items_base)
        out["psi.pivot_passes_per_item"] = per(
            agg["psi.psi"][0] + agg["psi.set_and_subset"][0], items_base)
        out["decomp.members_built"] = self.members
        out["decomp.ins_col_per_member"] = per(agg["decomp.ins_col"][0],
                                               self.members)
        out["cli.self_s"] = agg["cli.main"][1]
        out["cli.output_bytes"] = output_bytes
        out["trace.items"] = items_base
        out["trace.spans"] = len(self.starts)
        out["trace.untraced_wall_s"] = untraced_s
        out["trace.traced_wall_s"] = traced_s
        out["trace.overhead"] = traced_s / untraced_s
        return {name: out[name] for name, _ in PER_LAYER}

    def write(self, path):
        """Write the spans: a JSON header line, then the raw arrays in the
        order the header lists them."""
        arrays = [("start_s", self.starts), ("end_s", self.ends),
                  ("parent", self.parents), ("name_id", self.name_ids),
                  ("op_id", self.op_ids)]
        header = {"names": self.names, "spans": len(self.starts),
                  "byteorder": sys.byteorder,
                  "arrays": [[key, arr.typecode] for key, arr in arrays]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in arrays:
                arr.tofile(fh)


def _qlattice_modules():
    return [mod for key, mod in list(sys.modules.items())
            if key == "qlattice" or key.startswith("qlattice.")]


def _module(name):
    try:
        return sys.modules[name]
    except KeyError:
        raise MissingTarget(f"module {name} is not loaded") from None


def _resolve(holder, path):
    """(object holding the last attribute, attribute, value) for a dotted
    path such as "QPoly.__mul__"."""
    *outer, attr = path.split(".")
    for part in outer:
        holder = _lookup(holder, part, path)
    return holder, attr, _lookup(holder, attr, path)


def _lookup(holder, attr, path):
    found = vars(holder).get(attr)
    if found is None:
        raise MissingTarget(
            f"trace target {getattr(holder, '__name__', holder)}.{attr} "
            f"(from {path}) does not exist")
    return found


def _counted(orig, arity, tick):
    if arity == 1:
        def wrapper(self, a):
            tick()
            return orig(self, a)
    else:
        def wrapper(self, a, b):
            tick()
            return orig(self, a, b)
    return wrapper
