#!/usr/bin/env python3
"""Motzkin paths and their q-weights.

A path is a word over U (up), H (horizontal), D (down) that stays on or
above the axis and ends on it.  Each horizontal step at height j weighs q^j;
each down step landing at height j weighs q^j + ... + q^(2j); up steps are
free.  Setting q = 1 turns the down-step weight into the starting height.
"""

from qlattice import MotzkinPath, enumerate_paths, motzkin_number

print("All paths of length 4, with weights and down-step counts:")
for p in enumerate_paths(4):
    print(f"  {p}   weight = {p.weight()!s:14s} downs = {p.down_count}")

print("\nPath counts for n = 0..10:", [motzkin_number(n) for n in range(11)])

p = MotzkinPath("UHDHUUHDD")
print(f"\nThe nine-step path {p}:")
print("  prefix heights:", p.heights)
print("  weight:        ", p.weight())
print("  weight at q=1: ", p.weight()(1),
      "(= product of down-step heights 1*2*1)")
