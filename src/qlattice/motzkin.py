"""Motzkin paths, their enumeration, and the q-weight statistic.

A path is a word over {U, D, H} whose running height never dips below the
axis and ends at 0.  The weight multiplies q^j for a horizontal step at
height j and q^j + ... + q^(2j) for a down step landing at height j; up
steps weigh 1.  At q = 1 a down step therefore weighs its starting height.
:func:`_steps` is the one rule for a path's next steps and :func:`_paths`
the one walk, which :func:`enumerate_paths` and the ds fiber walk share.
The weights summed over all paths with a given number of down steps come
from a transfer over (height, downs) along that rule that lists no path, so
only :func:`enumerate_paths` is bounded by the enumeration ceiling.
"""

from __future__ import annotations

from functools import lru_cache

from .algebra import QPoly
from .errors import _check_ceiling, _check_length


@lru_cache(maxsize=None)
def step_weight(step, h):
    """Weight of an H or D step ending at height h: q^h for H and
    q^h + ... + q^(2h) for D.  Up steps weigh 1 and are never multiplied
    in."""
    return QPoly.monomial(h) if step == "H" else QPoly.geometric(h, 2 * h)


class MotzkinPath:
    __slots__ = ("steps", "heights", "_horizontals")

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
        self.steps = steps if isinstance(steps, str) else "".join(steps)
        self.heights = tuple(heights)

    @classmethod
    def _walked(cls, steps, heights):
        """The path of a word and its heights as a walk built them, with no
        check: :func:`enumerate_paths` takes only the steps of
        :func:`_steps`, so each word is a path and its heights are right."""
        path = cls.__new__(cls)
        path.steps = steps
        path.heights = heights
        return path

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

    @property
    def horizontals(self):
        """1-based positions of the H steps, increasing: one scan of the
        word, kept in a slot that equality, hashing and repr do not read."""
        try:
            return self._horizontals
        except AttributeError:
            self._horizontals = tuple(
                i for i, ch in enumerate(self.steps, 1) if ch == "H")
            return self._horizontals

    def weight(self):
        """The q-weight: product of the step weights."""
        w = QPoly.one()
        for ch, h in zip(self.steps, self.heights[1:]):
            if ch != "U":
                w = w * step_weight(ch, h)
        return w


def _steps(h, left):
    """The steps from height h, D < H < U, each as (step, height after),
    whose height after is in [0, left], left the steps after this one: a
    higher path cannot return to the axis."""
    return [(step, h2) for step, h2 in (("D", h - 1), ("H", h), ("U", h + 1))
            if 0 <= h2 <= left]


def _paths(n, state, step):
    """Yield (word, state) for every path of length n in D < H < U order:
    the empty word has the given state, and a word's j-th step ch, from
    height h, maps its prefix's state s to step(s, j, ch, h).  One
    depth-first walk on an explicit stack; its moves come from
    :func:`_steps` once per call, reversed so that D is popped first."""
    moves = [[_steps(h, n - j - 1)[::-1] for h in range(n + 1)]
             for j in range(n)]
    stack = [("", 0, state)]
    while stack:
        word, h, state = stack.pop()
        j = len(word)
        if j == n:
            yield word, state
            continue
        for ch, h2 in moves[j][h]:
            stack.append((word + ch, h2, step(state, j + 1, ch, h)))


def _with_height(heights, j, ch, h):
    """The ``step`` of :func:`enumerate_paths`: the heights so far, and the
    height after ch from height h."""
    return heights + (h + 1 if ch == "U" else h - 1 if ch == "D" else h,)


def enumerate_paths(n, max_size=None):
    """Yield every path of length n once, in the D < H < U order of
    :func:`_paths`, which carries the heights of each prefix so that no
    word is checked again; TooLargeError past max_size (default
    DEFAULT_MAX_SIZE)."""
    _check_ceiling(_motzkin_numbers(n), max_size,
                   lambda total: f"{total} paths of length {n}")
    for word, heights in _paths(n, (0,), _with_height):
        yield MotzkinPath._walked(word, heights)


def weight_sums_by_downs(n):
    """[sum of w(P, q) over the paths P of length n with d down steps, for
    d = 0..n//2], without enumerating a path.

    One left-to-right transfer over the states (height, downs) carries the
    summed weight of all prefixes that reach each state, to the successors
    that :func:`_steps` allows.
    """
    _check_length(n)
    sums = {(0, 0): QPoly.one()}
    for left in range(n - 1, -1, -1):  # steps left after this one
        nxt = {}
        for (h, d), w in sums.items():
            for step, h2 in _steps(h, left):
                d2 = d + (step == "D")
                term = w if step == "U" else w * step_weight(step, h2)
                prev = nxt.get((h2, d2))
                nxt[h2, d2] = term if prev is None else prev + term
        sums = nxt
    out = [QPoly.zero()] * (n // 2 + 1)
    for (_, d), w in sums.items():  # only height 0 is left
        out[d] = w
    return out


def _motzkin_numbers(n):
    """M(0), ..., M(n), by (i + 2) M(i) = (2i + 1) M(i-1) + 3(i - 1) M(i-2)."""
    _check_length(n)
    prev, cur = 0, 1
    for i in range(1, n + 2):
        yield cur
        prev, cur = cur, ((2 * i + 1) * cur + 3 * (i - 1) * prev) // (i + 2)


def motzkin_number(n):
    """Count of paths of length n: the last, and largest, running count."""
    return max(_motzkin_numbers(n))


def _down_height_products(p):
    """1, then the running product of the down steps' starting heights;
    nondecreasing, since a down step starts at height >= 1."""
    out = 1
    yield out
    for ch, h in zip(p.steps, p.heights):  # h is the height before ch
        if ch == "D":
            out *= h
            yield out


def down_height_product(p):
    """Product over down steps of their starting heights, the size of the
    matching-involution fiber over p: the last running product."""
    return max(_down_height_products(p))
