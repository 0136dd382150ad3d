"""Brute-force ground truth.

Everything here counts the defined sets by direct enumeration, with no
formula beyond non-negativity bounds, so that the closed forms and the
convolution identities elsewhere are validated against plain counting.
The character of S^m, m <= ENUMERATION_CAP, comes as enumerated_lines(m),
in the line shape of dims.weight_dimensions(m): no dict of all weights.
"""

from collections import Counter
from collections.abc import Iterator
from itertools import combinations_with_replacement, product, starmap
from operator import add

from .core import check_cap

ENUMERATION_CAP = 20  # largest power enumerated: C(27, 7) = 888,030 monomials
# the top power of ``symcube verify`` by --mode
MODES = {"ci": 12, "extended": ENUMERATION_CAP}


def enumerated_lines(m: int) -> Iterator[tuple[int, int, list[int]]]:
    """The lines (l1, l2, counts) of dims.weight_dimensions(m), in order,
    by enumeration: counts[n] monomials of degree m have weight
    (l1, l2, m - 2n).

    Splitting a degree-m monomial in the factors x[i,j,l] by i is a
    bijection onto the pairs of a size-(m - k) multiset from the block
    i = 0 and a size-k one from the block i = 1, k in 0..m.  Coding
    x[i,j,l] as j*b + l with b = m + 1, a pair's code sum is r*b + n with
    r, n <= m < b its counts of factors with j = 1 and l = 1.  Each factor
    x[i,j,l] has weight (1-2i, 1-2j, 1-2l), so the weight of the monomial
    is (m-2k, m-2r, m-2n).  Each of the C(m+7, 7) pairs adds one to its
    code's tally, with the sums and tallies done in C (itertools,
    Counter).  The (m+1)^2 tallies of one k are listed once, as the plane
    l1 = m - 2k, and cut into its m + 1 lines l2 = m - 2r.
    """
    check_cap(m, ENUMERATION_CAP, "oracle")
    b, values = m + 1, range(m, -m - 1, -2)
    for k, l1 in enumerate(values):  # code sums of sizes m - k and k only
        codes = Counter(starmap(add, product(*(
            map(sum, combinations_with_replacement((0, 1, b, b + 1), s))
            for s in (m - k, k)))))
        plane = [codes[code] for code in range(b * b)]
        for l2, i in zip(values, range(0, b * b, b)):
            yield l1, l2, plane[i:i + b]


def c2_bruteforce(r1: int) -> list[list[int]]:
    """counts[r2][r3], 0 <= r2, r3 <= r1: the number of 2x2 non-negative
    integer matrices with total r1, second-row sum r2 and second-column
    sum r3.  Each matrix (a11, a12, a21, a22) adds one at its margins
    (a21 + a22, a12 + a22).  [] for r1 < 0; ValueError unless r1 is an int
    (bool excluded)."""
    if type(r1) is not int:
        raise ValueError(f"c2_bruteforce takes an int, got {r1!r}")
    counts = [[0] * (r1 + 1) for _ in range(r1 + 1)]
    for a22 in range(r1 + 1):
        for a21 in range(r1 - a22 + 1):
            row = counts[a21 + a22]
            for a12 in range(r1 - a22 - a21 + 1):  # a11 takes the rest
                row[a12 + a22] += 1
    return counts


def convolution_bruteforce(m: int, k: int, r: int, n: int) -> int:
    """Count degree-m exponent tuples with co-index (k, r, n) by direct
    enumeration of the two 2x2 exponent blocks.

    The i = 0 block (a000, a001, a010, a011) must total m - k with
    second-row sum a and second-column sum b; the i = 1 block
    (a100, a101, a110, a111) must total k with second-row sum r - a and
    second-column sum n - b.  Given the split (a, b), a011 fixes the i = 0
    block, whose entry a000 = (m - k) - a - b + a011, and a111 fixes the
    i = 1 block, whose entry a100 = k - (r - a) - (n - b) + a111.  So a011
    runs over max(0, a + b - (m - k)) .. min(a, b) and a111 over
    max(0, (r - a) + (n - b) - k) .. min(r - a, n - b): exactly the values
    at which every entry is >= 0.  Each enumerated pair (a011, a111) is one
    exponent tuple and adds one; no matrix-count formula is used.  0 when
    an argument is negative (the empty set); ValueError unless all four
    are ints (bool excluded).
    """
    if not (type(m) is type(k) is type(r) is type(n) is int):
        raise ValueError(
            f"convolution_bruteforce takes four ints, got {(m, k, r, n)!r}")
    total, mk = 0, m - k
    for a in range(r + 1):
        ra = r - a
        for b in range(n + 1):
            nb = n - b
            low0, high0 = a + b - mk, a if a < b else b
            low1, high1 = ra + nb - k, ra if ra < nb else nb
            block1 = range(low1 if low1 > 0 else 0, high1 + 1)
            for a011 in range(low0 if low0 > 0 else 0, high0 + 1):
                for a111 in block1:
                    total += 1
    return total
