"""
Decomposing symmetric powers into irreducibles
==============================================

S^m(C2 (x) C2 (x) C2) is a completely reducible module over
sl2(C) + sl2(C) + sl2(C), so it splits into irreducibles
V(n1) (x) V(n2) (x) V(n3).  A multiplicity needs no weight dimension at
all: it counts the monomials of degree m in the six covariants f, B1,
B2, B3, T and Delta (the hyperdeterminant) that have the label as
highest weight and T-exponent 0 or 1.  A whole table runs that count at
every label, one plane n1 at a time.  The invariants, copies of the
trivial module, are then the powers of Delta.
"""

from math import comb

from symcube import decompose_symmetric_power, multiplicity_sym

# The first few decomposition tables.  Each row is
# (n1, n2, n3) x multiplicity, and the dimensions always total C(m+7, 7).
for m in range(5):
    dec = decompose_symmetric_power(m)
    rows = ", ".join(
        f"{label}x{dec[label]}" for label in sorted(dec, reverse=True)
    )
    print(f"S^{m} = {rows}")
    assert sum(x * (n1 + 1) * (n2 + 1) * (n3 + 1)
               for (n1, n2, n3), x in dec.items()) == comb(m + 7, 7)

# A single multiplicity without building the table: V(4) (x) V(8) (x) V(8)
# appears three times in S^40.
print("\nmultiplicity of (4,8,8) in S^40:", multiplicity_sym(40, (4, 8, 8)))

# Invariants (copies of the trivial module) are the powers of Cayley's
# hyperdeterminant Delta, of degree 4: the only covariant monomials of
# weight (0, 0, 0).  So mult(m; 0, 0, 0) = 1 exactly when 4 divides m.
print("\ntrivial-module multiplicities for m = 0..24:")
print([multiplicity_sym(m, (0, 0, 0)) for m in range(25)])

# How the number of distinct irreducible constituents grows with m.
print("\n  m   labels   copies   dim")
for m in range(0, 13, 2):
    dec = decompose_symmetric_power(m)
    print(f"{m:3} {len(dec):8} {sum(dec.values()):8} {comb(m + 7, 7):8}")
