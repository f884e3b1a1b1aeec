"""Shared builders for the two worked rref families used across tests, the
path-by-path reference for the weight sums by down count, and the full
Gauss-Jordan reference for the forward elimination kernel."""

from qlattice import QPoly, Rref, enumerate_paths


def six_col_family(field, a, b, c, d, e):
    """Three-pivot rref on six columns; b and d must be units for the
    documented pivot/essentiality pattern to hold."""
    rows = ((1, a, 0, b, 0, 0),
            (0, 0, 1, c, 0, d),
            (0, 0, 0, 0, 1, e))
    return Rref(field, 6, rows, (1, 3, 5))


def eight_col_family(field, a, b, c, d, e, f):
    """Primary three-pivot rref on eight columns; a, d, e, f units."""
    rows = ((1, 0, a, 0, 0, 0, 0, 0),
            (0, 1, b, c, 0, d, e, e),
            (0, 0, 0, 0, 1, 0, f, f))
    return Rref(field, 8, rows, (1, 2, 5))


def weight_sums_by_enumeration(n):
    """Sum of p.weight() over every path of length n, grouped by down
    count: the reference for motzkin.weight_sums_by_downs."""
    sums = [QPoly.zero()] * (n // 2 + 1)
    for p in enumerate_paths(n):
        sums[p.down_count] = sums[p.down_count] + p.weight()
    return sums


def gauss_jordan(field, rows, n):
    """Full Gauss-Jordan elimination, column by column with row swaps:
    (reduced nonzero rows, 1-based pivots).  The reference that
    matspace._eliminate and rref_left are checked against."""
    mul, sub, inv = field.mul, field.sub, field.inv
    work = [list(r) for r in rows]
    k = len(work)
    pivots = []
    rank = 0
    for col in range(n):
        piv = None
        for i in range(rank, k):
            if work[i][col]:
                piv = i
                break
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        prow = work[rank]
        a = prow[col]
        if a != 1:
            ai = inv(a)
            for t in range(col, n):
                prow[t] = mul(ai, prow[t])
        for i in range(k):
            if i != rank and work[i][col]:
                fctr = work[i][col]
                wrow = work[i]
                for t in range(col, n):
                    wrow[t] = sub(wrow[t], mul(fctr, prow[t]))
        pivots.append(col + 1)
        rank += 1
        if rank == k:
            break
    return tuple(tuple(r) for r in work[:rank]), tuple(pivots)
