"""
Weight-space dimensions of S^m(C2 (x) C2 (x) C2)
================================================

The m-th symmetric power of the 2 x 2 x 2 tensor space is spanned by the
degree-m monomials in the eight vectors x[i,j,l].  Each weight space
collects the monomials with a fixed usage count of i = 1, j = 1, l = 1,
and its exact dimension comes out of a closed-form quartic polynomial.
"""

from math import comb

from symcube import dim_weight, dim_by_convolution, dim_closed_form, polynomial_case

# A single weight space: S^2 at the origin is 4-dimensional, spanned by
# x000*x111, x001*x110, x010*x101, x100*x011.
print("dim S^2 at (0,0,0):", dim_weight(2, (0, 0, 0)))

# The top weight (m, m, m) is always the line through x000^m.
print("dim S^7 at (7,7,7):", dim_weight(7, (7, 7, 7)))

# Weights of the wrong parity or out of range carry nothing.
print("dim S^3 at (0,1,1):", dim_weight(3, (0, 1, 1)))
print("dim S^3 at (9,1,1):", dim_weight(3, (9, 1, 1)))

# The dimension only depends on component order and signs through
# absolute values, so these four queries agree:
for w in [(4, 8, 8), (8, 4, 8), (-4, 8, 8), (8, -8, -4)]:
    print(f"dim S^40 at {w}:", dim_weight(40, w))

# Behind dim_weight sits a normalized index (m, k, r, n) with
# m/2 >= k >= r >= n >= 0.  The paper splits it six ways, on the size of
# r + n against the walls k and m - k and on parities; the closed form
# evaluates one quartic in (r, n), less one wall-crossing term for each
# wall that r + n lies past, and the label names the paper's case.  The
# same numbers fall out of a convolution of 2x2 contingency-matrix counts.
print("\n  m   k   r   n   case    dim")
for idx in [(12, 5, 2, 1), (12, 4, 4, 2), (12, 4, 4, 1),
            (12, 6, 6, 6), (12, 5, 5, 4), (13, 5, 5, 4)]:
    m, k, r, n = idx
    assert dim_closed_form(*idx) == dim_by_convolution(*idx)
    print(f"{m:3} {k:3} {r:3} {n:3}   {polynomial_case(*idx):6}"
          f" {dim_closed_form(*idx):5}")

# Summing every weight-space dimension recovers the full dimension of
# the symmetric power, the stars-and-bars count C(m+7, 7).
m = 9
total = sum(
    dim_weight(m, (m - 2 * a, m - 2 * b, m - 2 * c))
    for a in range(m + 1) for b in range(m + 1) for c in range(m + 1)
)
print(f"\nsum of weight dims for m={m}:", total, "== C(16,7) ==", comb(16, 7))
