"""Motzkin paths, their enumeration, and the q-weight statistic.

A path is a word over {U, D, H} whose running height never dips below the
axis and ends at 0.  The weight multiplies q^j for a horizontal step at
height j and q^j + ... + q^(2j) for a down step landing at height j; up
steps weigh 1.  At q = 1 a down step therefore weighs its starting height.
The weights summed over all paths with a given number of down steps come
from a transfer over (height, downs) that lists no path.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import QPoly
from .errors import TooLargeError
from .matspace import DEFAULT_MAX_SIZE


@lru_cache(maxsize=None)
def step_weight(step, h):
    """Weight of an H or D step ending at height h: q^h for H and
    q^h + ... + q^(2h) for D.  Up steps weigh 1 and are never multiplied
    in."""
    return QPoly.monomial(h) if step == "H" else QPoly.geometric(h, 2 * h)


class MotzkinPath:
    __slots__ = ("steps", "heights")

    def __init__(self, steps):
        h = 0
        heights = [0]
        for i, ch in enumerate(steps, start=1):
            if ch == "U":
                h += 1
            elif ch == "D":
                h -= 1
            elif ch != "H":
                raise ValueError(f"invalid step character {ch!r}")
            if h < 0:
                raise ValueError(f"path goes below the axis at step {i}")
            heights.append(h)
        if h != 0:
            raise ValueError(f"path ends at height {h}, not on the axis")
        self.steps = str(steps)
        self.heights = tuple(heights)

    def __len__(self):
        return len(self.steps)

    def __iter__(self):
        return iter(self.steps)

    def __eq__(self, other):
        return isinstance(other, MotzkinPath) and other.steps == self.steps

    def __hash__(self):
        return hash(self.steps)

    def __repr__(self):
        return f"MotzkinPath({self.steps!r})"

    def __str__(self):
        return self.steps

    @property
    def down_count(self):
        """Number of down steps (equals the number of up steps)."""
        return self.steps.count("D")

    def weight(self):
        """The q-weight: product of the step weights."""
        w = QPoly.one()
        for ch, h in zip(self.steps, self.heights[1:]):
            if ch != "U":
                w = w * step_weight(ch, h)
        return w


def check_path_ceiling(n, max_size=None):
    """Raise TooLargeError when the paths of length n outnumber the ceiling
    (default DEFAULT_MAX_SIZE)."""
    limit = DEFAULT_MAX_SIZE if max_size is None else max_size
    total = motzkin_number(n)
    if total > limit:
        raise TooLargeError(
            f"{total} paths of length {n}, above the ceiling {limit}")


def enumerate_paths(n, max_size=None):
    """Yield every path of length n once, lexicographic with D < H < U."""
    check_path_ceiling(n, max_size)
    buf = []

    def rec(i, h):
        if i == n:
            if h == 0:
                yield MotzkinPath("".join(buf))
            return
        if h > n - i:
            return
        if h > 0:
            buf.append("D")
            yield from rec(i + 1, h - 1)
            buf.pop()
        buf.append("H")
        yield from rec(i + 1, h)
        buf.pop()
        buf.append("U")
        yield from rec(i + 1, h + 1)
        buf.pop()

    yield from rec(0, 0)


def weight_sums_by_downs(n):
    """[sum of w(P, q) over the paths P of length n with d down steps, for
    d = 0..n//2], without enumerating a path.

    One left-to-right transfer over the states (height, downs) carries the
    summed weight of all prefixes that reach each state; a height above the
    number of steps left can no longer return to the axis and is dropped.
    """
    sums = {(0, 0): QPoly.one()}
    for left in range(n - 1, -1, -1):  # steps left after this one
        nxt = {}
        for (h, d), w in sums.items():
            for step, h2, d2 in (("D", h - 1, d + 1), ("H", h, d),
                                 ("U", h + 1, d)):
                if 0 <= h2 <= left:
                    term = w if step == "U" else w * step_weight(step, h2)
                    prev = nxt.get((h2, d2))
                    nxt[h2, d2] = term if prev is None else prev + term
        sums = nxt
    out = [QPoly.zero()] * (n // 2 + 1)
    for (_, d), w in sums.items():  # only height 0 is left
        out[d] = w
    return out


def motzkin_number(n):
    """Count of paths of length n, by the convolution recurrence."""
    m = [1] * (n + 1)
    for i in range(1, n + 1):
        m[i] = m[i - 1] + sum(m[k] * m[i - 2 - k] for k in range(i - 1))
    return m[n]


def down_height_product(p):
    """Product over down steps of their starting heights; the size of the
    matching-involution fiber over p."""
    out = 1
    h = 0
    for ch in p.steps:
        if ch == "U":
            h += 1
        elif ch == "D":
            out *= h
            h -= 1
    return out
