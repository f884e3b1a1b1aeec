#!/usr/bin/env python3
"""Involutions, their span/crossing weight, and the map onto Motzkin paths.

Writing an involution as 2-cycles [i,j], initial points become up steps,
terminal points down steps, fixed points horizontal steps.  The number of
involutions over a fixed path is the product of its down-step heights, and
grouping q^weight over each fiber reproduces the path's q-weight exactly.
"""

from qlattice import (Involution, QPoly, biane, biane_fiber, enumerate_paths,
                      parse_involution)

delta = parse_involution("[1,8][2,6][3,9][4,7]")
spans, crossings, w = delta.weight_stats()
print(f"{delta}: total span {spans}, crossings {crossings}, weight {w}")
print("its path:", biane(delta))

print("\nFibers over every path of length 5:")
for p in enumerate_paths(5):
    fiber = biane_fiber(p)
    qsum = QPoly.zero()
    for d in fiber:
        qsum = qsum + QPoly.monomial(d.weight_stats()[2])
    tag = "ok" if qsum == p.weight() else "MISMATCH"
    print(f"  {p!s:6s} |fiber| = {len(fiber):2d}   "
          f"sum q^w = {qsum!s:18s} path weight = {p.weight()!s:18s} {tag}")

print("\nThe two involutions over UHUHDD:",
      ", ".join(str(d) for d in biane_fiber(biane(Involution(6, ((1, 6), (3, 5)))))))
