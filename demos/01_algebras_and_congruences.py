"""Operation tables, congruence generation and the lattice Con(A).

Run with: python demos/01_algebras_and_congruences.py
"""

from congruence_lab import (
    con_lattice,
    dump_algebra,
    interval_above,
    join,
    join_irreducibles,
    load_algebra,
    meet,
    principal_congruence,
    quotient,
)
from congruence_lab.builders import chain_lattice, pentagon, ring_congruence, ring_zn

print("=" * 66)
print("Finite algebras are plain operation tables.")
print("=" * 66)

z6 = ring_zn(6)
print(f"\n{z6!r}")
print("add table (row-major, last argument fastest):")
add = z6.operation("add")
for a in range(6):
    print("   ", [add.apply(6, (a, b)) for b in range(6)])

print("\nThe JSON document round-trips losslessly:")
text = dump_algebra(z6)
print(text.splitlines()[0], "...")
assert load_algebra(text) == z6

print("\n" + "=" * 66)
print("Principal congruences by partition closure under translations.")
print("=" * 66)

cg = principal_congruence(z6, 0, 2)
print(f"\nCg(0, 2) on Z_6 = {cg}   blocks (least representatives) = {cg.as_list()}")

print("\nAll congruences of Z_6 (one per divisor):")
lattice = con_lattice(z6)
for i, c in enumerate(lattice.congruences):
    marks = []
    if i == lattice.bottom_index:
        marks.append("bottom")
    if i == lattice.top_index:
        marks.append("top")
    print(f"   [{i}] {str(c):22s} {' '.join(marks)}")

print("\nJoin and meet are gcd and lcm of the moduli:")
t4, t6 = ring_congruence(ring_zn(12), 4), ring_congruence(ring_zn(12), 6)
print(f"   theta_4 v theta_6 on Z_12 = {join(t4, t6)}   (gcd(4,6) = 2)")
print(f"   theta_4 ^ theta_6 on Z_12 = {meet(t4, t6)}   (lcm(4,6) = 12)")

print("\nJoin-irreducible congruences of Con(Z_12):")
z12 = ring_zn(12)
for c in join_irreducibles(con_lattice(z12)):
    print("   ", c)

print("\nThe interval [theta_6) matches Con(Z_12/theta_6) = Con(Z_6):")
t6 = ring_congruence(z12, 6)
above = interval_above(con_lattice(z12), t6)
print(f"   |[theta_6)| = {len(above)},  |Con(Z_12/theta_6)| =",
      len(con_lattice(quotient(z12, t6))))

print("\nCongruence lattices of non-modular lattices are still distributive:")
n5 = pentagon()
print(f"   Con(N5) has {len(con_lattice(n5))} elements:",
      ", ".join(str(c) for c in con_lattice(n5).congruences))

print("\nChains double their congruence count with every extra cover:")
for k in range(1, 6):
    print(f"   |Con(C_{k})| = {len(con_lattice(chain_lattice(k)))}")
