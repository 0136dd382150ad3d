"""
Brute-force oracles behind every formula
========================================

Each closed-form count in the library is backed by a deliberately naive
enumeration.  The oracles are slow and obviously correct; the formulas
are fast.  This script replays the cross-checks the test suite pins.
"""

from symcube import (
    c2,
    c2_bruteforce,
    convolution_bruteforce,
    dim_by_convolution,
    dim_closed_form,
)
from symcube.oracle import enumerated_lines
from symcube.verify import check_characters

# 2x2 contingency matrices: count matrices with a given total, second-row
# sum and second-column sum.  The closed form is min(r2, r3, r1-r2, r1-r3)+1;
# the oracle visits every matrix of total r1 once and tallies its margins
# into a table indexed by (r2, r3).
print("2x2 counts (closed vs enumerated):")
for r1, r2, r3 in [(5, 2, 3), (2, 1, 1), (4, 2, 2), (9, 4, 7)]:
    print(f"  c2{r1, r2, r3} = {c2(r1, r2, r3)} / "
          f"{c2_bruteforce(r1)[r2][r3]}")

# A plausible-looking variant of that formula, with r2 - r3 as the last
# argument of the min, is refuted by a single enumeration:
r1, r2, r3 = 5, 2, 3
variant = min(r2, r3, r1 - r2, r2 - r3) + 1
print(f"  variant min(r2, r3, r1-r2, r2-r3)+1 at (5,2,3) gives {variant}, "
      f"enumeration gives {c2_bruteforce(r1)[r2][r3]}")

# Weight dimensions three ways: quartic polynomial, convolution of 2x2
# counts, and raw enumeration of exponent-block pairs.
print("\nweight dimensions, three routes:")
for idx in [(8, 3, 2, 2), (11, 5, 4, 1), (40, 18, 16, 16)]:
    print(f"  C{idx}: {dim_closed_form(*idx)} / {dim_by_convolution(*idx)}"
          f" / {convolution_bruteforce(*idx)}")

# Whole characters: enumerating all C(m+7, 7) degree-m monomials, each as
# a pair of factor multisets from the blocks i = 0 and i = 1, and tallying
# their weights one monomial at a time reproduces the closed-form character
# exactly.
check_characters(8)
print("\nmonomial enumeration == closed-form characters for m <= 8")

# The enumeration yields the character line by line: counts[n] monomials
# of degree 6 have weight (l1, l2, 6 - 2n).
lines = {(l1, l2): counts for l1, l2, counts in enumerated_lines(6)}
print("a few S^6 weight spaces by raw count:",
      {(l1, l2, l3): lines[l1, l2][(6 - l3) // 2]
       for l1, l2, l3 in [(6, 6, 6), (4, 4, 2), (0, 0, 0)]})
