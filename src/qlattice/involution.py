"""Involutions of the symmetric group: span/crossing statistics and the
classical map onto Motzkin paths (initial points up, terminal points down,
fixed points horizontal)."""

from __future__ import annotations

import re

from .errors import _check_ceiling, _check_length
from .motzkin import MotzkinPath, _down_height_products

_CYCLE_RE = re.compile(r"\[\s*(\d+)\s*,\s*(\d+)\s*\]")


class Involution:
    """An involution on [n] stored in standard form: 2-cycles (i, j) with
    i < j, listed in increasing order of initial points."""

    __slots__ = ("n", "cycles")

    def __init__(self, n, cycles):
        _check_length(n)
        cyc = tuple(sorted((int(i), int(j)) for i, j in cycles))
        seen = set()
        for i, j in cyc:
            if not (1 <= i < j <= n):
                raise ValueError(f"2-cycle [{i},{j}] is not inside [1,{n}]")
            if i in seen or j in seen:
                raise ValueError(f"point repeated in 2-cycles at [{i},{j}]")
            seen.update((i, j))
        self.n = n
        self.cycles = cyc

    @property
    def size(self):
        """Number of 2-cycles."""
        return len(self.cycles)

    def weight_stats(self):
        """(total span, crossing count, weight), where span([i,j]) = j-i-1,
        a crossing is an interleaved pair of 2-cycles, and the weight is
        total span minus crossings."""
        spans = sum(j - i - 1 for i, j in self.cycles)
        crossings = 0
        cyc = self.cycles
        for a in range(len(cyc)):
            i, j = cyc[a]
            for b in range(a + 1, len(cyc)):
                k, l = cyc[b]
                if k < j < l:
                    crossings += 1
        return spans, crossings, spans - crossings

    def __eq__(self, other):
        return (isinstance(other, Involution)
                and other.n == self.n and other.cycles == self.cycles)

    def __hash__(self):
        return hash((self.n, self.cycles))

    def __repr__(self):
        return f"Involution({self.n}, {list(self.cycles)})"

    def __str__(self):
        if not self.cycles:
            return "[]"
        return "".join(f"[{i},{j}]" for i, j in self.cycles)


def parse_involution(s, n=None):
    """Parse the cycle-string form "[1,6][3,5]"; "[]" is the identity.
    When n is omitted it defaults to the largest point mentioned."""
    s = s.strip()
    if s == "[]":
        return Involution(n or 0, ())
    cycles = [(int(a), int(b)) for a, b in _CYCLE_RE.findall(s)]
    if _CYCLE_RE.sub("", s).strip():
        raise ValueError(f"malformed involution string {s!r}")
    if not cycles:
        raise ValueError(f"malformed involution string {s!r}")
    if n is None:
        n = max(j for _, j in cycles)
    return Involution(n, cycles)


def _involution_counts(n):
    """I(0), ..., I(n), by I(m+1) = I(m) + m * I(m-1)."""
    _check_length(n)
    prev, cur = 0, 1
    for m in range(n + 1):
        yield cur
        prev, cur = cur, cur + m * prev


def involution_count(n):
    """Size of the involution set: the last, and largest, running count."""
    return max(_involution_counts(n))


def _check_involution_ceiling(n, max_size):
    """TooLargeError when the involutions on [n] outnumber max_size."""
    _check_ceiling(_involution_counts(n), max_size,
                   lambda total: f"{total} involutions on [{n}]")


def enumerate_involutions(n, max_size=None):
    """Yield every involution on [n] exactly once, depth first on one stack
    of (points left, 2-cycles) entries: the least point left is fixed first,
    then paired with each later point in increasing order.  So the order is
    lexicographic in the partners of 1, 2, ..., n, skipping each point
    already paired with a smaller one and reading a fixed point as 0."""
    _check_involution_ceiling(n, max_size)
    stack = [(tuple(range(1, n + 1)), ())]
    while stack:
        points, cycles = stack.pop()
        if not points:
            yield Involution(n, cycles)
            continue
        a, rest = points[0], points[1:]
        for idx in reversed(range(len(rest))):
            stack.append((rest[:idx] + rest[idx + 1:],
                          cycles + ((a, rest[idx]),)))
        stack.append((rest, cycles))


def biane(d):
    """The Motzkin path with U at initial points, D at terminal points and
    H at fixed points; it has as many down steps as d has 2-cycles."""
    steps = ["H"] * d.n
    for i, j in d.cycles:
        steps[i - 1] = "U"
        steps[j - 1] = "D"
    return MotzkinPath("".join(steps))


def biane_fiber(p):
    """All involutions mapping onto the path p, built along its steps: a U
    opens a 2-cycle, an H is a fixed point, and a D closes each still-open U
    in turn.  Sorted by cycles, which is the order of
    :func:`enumerate_involutions`.  The count is the product of down-step
    heights, held to the size ceiling."""
    _check_ceiling(_down_height_products(p), None,
                   lambda total: f"{total} involutions over a path of "
                                 f"length {len(p)}")
    partial = [((), ())]  # (closed 2-cycles, open initial points)
    for j, step in enumerate(p.steps, 1):
        if step == "U":
            partial = [(c, o + (j,)) for c, o in partial]
        elif step == "D":
            partial = [(c + ((i, j),), o[:t] + o[t + 1:])
                       for c, o in partial for t, i in enumerate(o)]
    return sorted((Involution(len(p), c) for c, _ in partial),
                  key=lambda d: d.cycles)
