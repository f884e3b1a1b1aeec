"""Shared test references: the path-by-path reference for the weight sums
by down count, and the full Gauss-Jordan reference for the forward
elimination kernel.  The two worked rref families live in
qlattice.acceptance, which checks them in c10 and c11."""

from qlattice import QPoly, enumerate_paths


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
