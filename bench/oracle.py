"""Plain-integer reference computations for the benchmark's output checks.

Nothing here imports qlattice: the field tables are rebuilt from the
documented element encoding (base-p digits of the polynomial basis, the
irreducibles x^2+x+1, x^3+x+1 and x^2+1 for q = 4, 8, 9), and every count is
computed from its closed form, so a defect in the code under test cannot
hide in its own check.
"""

from __future__ import annotations

_IRREDUCIBLE = {4: (1, 1, 1), 8: (1, 1, 0, 1), 9: (1, 0, 1)}  # low degree first
_PRIME_POWER = {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1),
                8: (2, 3), 9: (3, 2)}


class Field:
    """Addition, multiplication and inverse tables of F_q, q <= 9."""

    def __init__(self, q):
        p, e = _PRIME_POWER[q]
        digits = [[(v // p**i) % p for i in range(e)] for v in range(q)]

        def pack(coeffs):
            return sum(c * p**i for i, c in enumerate(coeffs))

        def times(a, b):
            prod = [0] * (2 * e - 1)
            for i, x in enumerate(digits[a]):
                for j, y in enumerate(digits[b]):
                    prod[i + j] = (prod[i + j] + x * y) % p
            mod = _IRREDUCIBLE.get(q)
            for top in range(len(prod) - 1, e - 1, -1):
                lead = prod[top]
                if lead:
                    for i, c in enumerate(mod):
                        prod[top - e + i] = (prod[top - e + i] - lead * c) % p
            return pack(prod[:e])

        self.q = q
        self.add = [[pack((x + y) % p for x, y in zip(digits[a], digits[b]))
                     for b in range(q)] for a in range(q)]
        self.mul = [[times(a, b) for b in range(q)] for a in range(q)]
        self.neg = [self.add[a].index(0) for a in range(q)]
        self.inv = [0] + [self.mul[a].index(1) for a in range(1, q)]


def echelon_pivots(field, rows, n):
    """0-based pivot columns of a row echelon form of ``rows``; its length is
    the rank."""
    add, mul, neg, inv = field.add, field.mul, field.neg, field.inv
    work = [list(r) for r in rows if any(r)]
    pivots = []
    for col in range(n):
        piv = next((i for i in range(len(pivots), len(work)) if work[i][col]),
                   None)
        if piv is None:
            continue
        r = len(pivots)
        work[r], work[piv] = work[piv], work[r]
        prow = work[r]
        scale = inv[prow[col]]
        for i in range(r + 1, len(work)):
            c = work[i][col]
            if c:
                f = neg[mul[c][scale]]
                row = work[i]
                for t in range(col, n):
                    row[t] = add[row[t]][mul[f][prow[t]]]
        pivots.append(col)
        if len(pivots) == len(work):
            break
    return pivots


def rank(field, rows, n):
    return len(echelon_pivots(field, rows, n))


def path_of(field, rows, n):
    """Motzkin word of the row space: U at a left pivot only, D at a right
    pivot only, H elsewhere."""
    left = set(echelon_pivots(field, rows, n))
    right = {n - 1 - c
             for c in echelon_pivots(field, [r[::-1] for r in rows], n)}
    return "".join("U" if (j in left and j not in right)
                   else "D" if (j in right and j not in left) else "H"
                   for j in range(n))


def is_motzkin(word):
    h = 0
    for ch in word:
        h += {"U": 1, "D": -1, "H": 0}[ch]
        if h < 0:
            return False
    return h == 0


def motzkin_words(n):
    """Every Motzkin word of length n."""
    out = []

    def rec(prefix, h):
        if len(prefix) == n:
            if h == 0:
                out.append(prefix)
            return
        if h > n - len(prefix):
            return
        if h:
            rec(prefix + "D", h - 1)
        rec(prefix + "H", h)
        rec(prefix + "U", h + 1)

    rec("", 0)
    return out


def path_weight(word, q):
    """w(P, q): q^h for an H at height h, q^h + ... + q^(2h) for a D that
    lands at height h."""
    w, h = 1, 0
    for ch in word:
        if ch == "U":
            h += 1
        elif ch == "H":
            w *= q**h
        else:
            h -= 1
            w *= sum(q**t for t in range(h, 2 * h + 1))
    return w


def primaries_over(word, q):
    """Number of primary rrefs over the path: (q-1)^|P| w(P, q)."""
    return (q - 1) ** word.count("D") * path_weight(word, q)


def gaussian_binomial(n, k, q):
    if not 0 <= k <= n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def galois_number(n, q):
    """Number of subspaces of F_q^n."""
    return sum(gaussian_binomial(n, k, q) for k in range(n + 1))


def block_size(n, word):
    return 2 ** (n - 2 * word.count("D"))

