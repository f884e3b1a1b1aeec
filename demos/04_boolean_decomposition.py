#!/usr/bin/env python3
"""The symmetric Boolean decomposition of the subspace lattice.

Primary echelon forms (no pivotal inessential column) are block
representatives: inserting every subset of the inessential columns of a
primary rref produces a family order-isomorphic to a Boolean lattice whose
ranks are symmetric about n/2.  These blocks partition the lattice, and per
path P the number of blocks is (q-1)^|P| w(P,q).
"""

from qlattice import QPoly, fiber_census, gf, sbd, subspace_count

f2 = gf(2)
n = 4

print(f"Census of F_2^{n} ({subspace_count(2, n)} subspaces):")
print(f"{'path':6s} {'downs':5s} {'primaries':9s} {'block':5s} "
      f"{'fiber':5s} predicted")
for row in fiber_census(f2, n):
    print(f"{row.path.steps:6s} {row.path.down_count:5d} "
          f"{row.primary_count:9d} {row.block_size:5d} {row.fiber_size:5d} "
          f"{row.predicted}")

print("\nEvery block of the decomposition:")
for blk in sbd(f2, n):
    members = sorted(sorted(cols) for cols in blk.members)
    print(f"  path {blk.path.steps:6s} ranks {blk.min_rank}..{blk.max_rank} "
          f"ground {list(blk.ground)} subsets {members}")

total = sum(2 ** (n - 2 * blk.path.down_count) for blk in sbd(f2, n))
print(f"\nBlock sizes sum to {total} = number of subspaces; "
      f"predicted primaries check against (q-1)^d * weight at q = 2, e.g. "
      f"{(QPoly((-1, 1)) * QPoly((0, 1)))(2)} for the path UHD "
      f"of F_2^3.")
