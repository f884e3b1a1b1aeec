"""Output checks that do not come from the code under test.

The CLI checkers read the text output of ``sbd``, ``scd`` and ``census`` one
line at a time and compare it with the plain-integer results of
:mod:`oracle`; each returns its list of failures from ``finish``.  The walk
check re-derives ranks, containment and paths of a ``cover-walk`` op with
the benchmark's own elimination.
"""

from __future__ import annotations

import re
from collections import Counter

import oracle

_SBD = re.compile(r"(\S+) members=(\d+) set=\[([\d, ]*)\] primary=\[(.*)\]")
_CHAIN = re.compile(r"chain (\d+) \(ranks (\d+)\.\.(\d+)\)")
_MEMBER = re.compile(r"  \[(.*)\]")
_CENSUS = re.compile(r"(\S+) +downs=(\d+) primaries=(\d+) block=(\d+) "
                     r"fiber=(\d+) predicted=.+")


def _rows(text):
    """Rows of the CLI's one-line rref form "1,0,1;0,1,1", "-" when empty."""
    if text == "-":
        return []
    return [tuple(int(e) for e in row.split(",")) for row in text.split(";")]


def _word(text):
    return "" if text == "-" else text


class _LineCheck:
    def __init__(self, q, n):
        self.q, self.n, self.field = q, n, oracle.Field(q)
        self.errors = []

    def fail(self, msg):
        if len(self.errors) < 5:
            self.errors.append(msg)


class SbdCheck(_LineCheck):
    """Blocks: one per primary rref, sized 2^(n-2d), covering the lattice."""

    def __init__(self, q, n):
        super().__init__(q, n)
        self.blocks = Counter()
        self.members = 0

    def feed(self, line):
        m = _SBD.fullmatch(line)
        if not m:
            return self.fail(f"sbd: unreadable line {line!r}")
        word, size = _word(m[1]), int(m[2])
        ground = [int(c) for c in m[3].split(",") if c.strip()]
        rows = _rows(m[4])
        if len(word) != self.n or not oracle.is_motzkin(word):
            return self.fail(f"sbd: {word!r} is not a Motzkin path")
        if size != oracle.block_size(self.n, word) or size != 2 ** len(ground):
            self.fail(f"sbd: block {word} has {size} members")
        if len(rows) != word.count("U") or \
                oracle.path_of(self.field, rows, self.n) != word:
            self.fail(f"sbd: primary {m[4]} does not lie over {word}")
        self.blocks[word] += 1
        self.members += size

    def finish(self):
        total = oracle.galois_number(self.n, self.q)
        if self.members != total:
            self.fail(f"sbd: {self.members} members, G_q(n) = {total}")
        for word in oracle.motzkin_words(self.n):
            want = oracle.primaries_over(word, self.q)
            if self.blocks.pop(word, 0) != want:
                self.fail(f"sbd: path {word or '-'} needs {want} blocks")
        if self.blocks:
            self.fail(f"sbd: blocks over unknown paths {sorted(self.blocks)}")
        return self.errors


class ScdCheck(_LineCheck):
    """Chains: [n, n/2]_q of them, symmetric, saturated, path-preserving,
    covering the lattice."""

    def __init__(self, q, n):
        super().__init__(q, n)
        self.chains = self.members = 0
        self.ranks = None   # (lowest, highest) of the open chain
        self.prev = None    # rows of the previous member of the open chain
        self.word = None

    def feed(self, line):
        m = _CHAIN.fullmatch(line)
        if m:
            self._close()
            self.chains += 1
            if int(m[1]) != self.chains:
                self.fail(f"scd: chain {m[1]} out of order")
            lo, hi = int(m[2]), int(m[3])
            if lo + hi != self.n:
                self.fail(f"scd: chain {m[1]} ranks {lo}..{hi} not symmetric")
            self.ranks, self.prev, self.word = (lo, hi), None, None
            return None
        m = _MEMBER.fullmatch(line)
        if not m or self.ranks is None:
            return self.fail(f"scd: unreadable line {line!r}")
        rows = _rows(m[1])
        dim = len(rows)
        self.members += 1
        expect = self.ranks[0] if self.prev is None else len(self.prev) + 1
        if dim != expect or oracle.rank(self.field, rows, self.n) != dim:
            self.fail(f"scd: chain {self.chains} member [{m[1]}] has the "
                      f"wrong dimension")
        if self.prev is not None and \
                oracle.rank(self.field, self.prev + rows, self.n) != dim:
            self.fail(f"scd: chain {self.chains} is not a chain at [{m[1]}]")
        word = oracle.path_of(self.field, rows, self.n)
        if self.word is None:
            self.word = word
        elif word != self.word:
            self.fail(f"scd: chain {self.chains} changes path at [{m[1]}]")
        self.prev = rows
        return None

    def _close(self):
        if self.ranks is not None and (self.prev is None
                                       or len(self.prev) != self.ranks[1]):
            self.fail(f"scd: chain {self.chains} does not reach its top")

    def finish(self):
        self._close()
        want = oracle.gaussian_binomial(self.n, self.n // 2, self.q)
        if self.chains != want:
            self.fail(f"scd: {self.chains} chains, [n, n/2]_q = {want}")
        total = oracle.galois_number(self.n, self.q)
        if self.members != total:
            self.fail(f"scd: {self.members} members, G_q(n) = {total}")
        return self.errors


class CensusCheck(_LineCheck):
    """One row per path, in order, with primaries (q-1)^d w(P,q), blocks
    2^(n-2d) and fibers summing to G_q(n)."""

    def __init__(self, q, n):
        super().__init__(q, n)
        self.expect = iter(oracle.motzkin_words(n))
        self.fibers = 0

    def feed(self, line):
        m = _CENSUS.fullmatch(line)
        if not m:
            return self.fail(f"census: unreadable line {line!r}")
        word = _word(m[1])
        downs, primaries, block, fiber = (int(m[k]) for k in range(2, 6))
        if word != next(self.expect, None):
            self.fail(f"census: path {word or '-'} out of order")
        if downs != word.count("D") \
                or primaries != oracle.primaries_over(word, self.q) \
                or block != oracle.block_size(self.n, word) \
                or fiber != primaries * block:
            self.fail(f"census: wrong row {line.strip()!r}")
        self.fibers += fiber
        return None

    def finish(self):
        if next(self.expect, None) is not None:
            self.fail("census: paths missing")
        total = oracle.galois_number(self.n, self.q)
        if self.fibers != total:
            self.fail(f"census: fibers sum to {self.fibers}, G_q(n) = {total}")
        return self.errors


def walk_errors(field, n, query_rows, word, classes, chain):
    """Failures of one cover-walk op: ``chain`` holds the rows of the rref of
    the query followed by each cover up to the chain top, ``word`` and
    ``classes`` are what psi and classify_columns returned for the rref."""
    errors = []
    k = len(query_rows)
    start = chain[0]
    if oracle.rank(field, start, n) != k or len(start) != k \
            or oracle.rank(field, list(query_rows) + list(start), n) != k:
        errors.append("rref_left changed the row space")
    own = oracle.path_of(field, start, n)
    if word != own:
        errors.append(f"psi gave {word}, expected {own}")
    left = set(oracle.echelon_pivots(field, start, n))
    for j, (pivotal, essential) in enumerate(classes):
        step = ("U" if pivotal else "D") if essential else "H"
        if pivotal != (j in left) or step != own[j]:
            errors.append(f"column {j + 1} misclassified")
            break
    for lower, upper in zip(chain, chain[1:]):
        dim = len(upper)
        if dim != len(lower) + 1 or oracle.rank(field, upper, n) != dim:
            errors.append(f"cover of a {len(lower)}-space has dimension {dim}")
        elif oracle.rank(field, list(lower) + list(upper), n) != dim:
            errors.append("cover does not contain its predecessor")
        elif oracle.path_of(field, upper, n) != own:
            errors.append("cover changed the path")
    if 2 * len(chain[-1]) < n:
        errors.append(f"walk stopped at dimension {len(chain[-1])} < n/2")
    return errors


class IdentityCheck:
    """``identity <which> --n <n>`` must print exactly its "ok" line."""

    def __init__(self, which, n):
        self.want = [f"{which} n={n}: ok"]
        self.lines = []

    def feed(self, line):
        self.lines.append(line)

    def finish(self):
        return [] if self.lines == self.want else [
            f"identity: printed {self.lines!r}, expected {self.want!r}"]
