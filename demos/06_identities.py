#!/usr/bin/env python3
"""The q-binomial expansion identities, verified symbolically.

The count of k-dimensional subspaces of F_q^n expands over Motzkin paths as
sum_P (q-1)^|P| w(P,q) C(n-2|P|, k-|P|), and over involutions with q^w(d)
in place of the grouped path weight.  The Galois numbers (total subspace
counts) obey G(m+1) = 2 G(m) + (q^m - 1) G(m-1).
"""

from qlattice import galois, goldman_rota_check, qbinomial, verify_ds, \
    verify_fs

print("q-binomials of n = 5:")
for k in range(6):
    print(f"  [5 choose {k}]_q = {qbinomial(5, k)}")

print("\nGalois numbers as polynomials:")
for n in range(5):
    print(f"  G({n}) = {galois(n)}")
print("values at q = 2:", [galois(n)(2) for n in range(9)])
print("recurrence holds symbolically up to n = 10:", goldman_rota_check(10))

print("\nExpansion identities, exact polynomial equality per k:")
for n in range(9):
    fs = verify_fs(n)["ok"]
    ds = verify_ds(n)["ok"]
    print(f"  n = {n}: over paths {'ok' if fs else 'FAIL'}, "
          f"over involutions {'ok' if ds else 'FAIL'}")
