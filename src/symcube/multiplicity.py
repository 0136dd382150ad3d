"""Multiplicities of the irreducible summands of the symmetric powers.

One multiplicity is a count of covariant monomials.  The covariants of
SL2 x SL2 x SL2 on C2 (x) C2 (x) C2 are generated by six, of degree d
and highest weight w: the form f itself (d = 1, w = (1, 1, 1)), B1, B2
and B3 (d = 2, w = (2, 0, 0), (0, 2, 0), (0, 0, 2)), T (d = 3,
w = (1, 1, 1)) and Cayley's hyperdeterminant Delta (d = 4, w = 0), with
one syzygy, which writes T^2 in the others (Briand, Luque and Thibon,
"A complete set of covariants of the three qubit system", J. Phys. A 36
(2003) 9915-9927).  The monomials with T-exponent c in {0, 1} are thus a
basis, and multiplicity_sym counts those of degree m and the label's
weight in O(1), reading no weight dimension.

Full tables, and the character as prefix sums, run the same count one
plane (one n1) at a time in O(m^2) ints, reading no weight dimension.
"""

from collections.abc import Iterator
from itertools import accumulate, count
from operator import add, sub

from .core import Decomposition, IrrepLabel, check_label, check_power


def _count(low: int, h: int) -> int:
    # the d of multiplicity_sym: max(0, ceil(-h / 2)) <= d <= (low - h) // 2,
    # low = min(ni), whose floor subtracts c; a count <= 0 means none
    return (low - h) // 2 + 1 - ((1 - h) // 2 if h < 1 else 0)


def multiplicity_sym(m: int, label: IrrepLabel) -> int:
    """Multiplicity of the labeled irreducible in the m-th symmetric
    power of C2 (x) C2 (x) C2: the number of covariant monomials
    f^a B1^b1 B2^b2 B3^b3 T^c Delta^d, c in {0, 1}, of degree
    a + 2(b1 + b2 + b3) + 3c + 4d = m and weight ni = a + 2bi + c.

    These give a = h + 2d with h = (n1 + n2 + n3 - m) / 2 and
    c = (n1 - h) mod 2, so the count is that of d >= 0 with
    max(0, h) <= a <= min(ni) - c.  A label with a component above m or
    of parity different from m returns 0.  Raises ValueError on a
    malformed power or label.
    """
    check_power(m)
    check_label(label)
    if any(v > m or (v - m) % 2 != 0 for v in label):
        return 0
    return max(0, _count(min(label), (sum(label) - m) // 2))


def decomposition_planes(m: int) -> Iterator[list[tuple[IrrepLabel, int]]]:
    """The decomposition of the m-th symmetric power, one plane at a time.

    Labels have components in {m mod 2, m mod 2 + 2, ..., m} (weights of
    the power lie in [-m, m]^3, so nothing outside can occur).  Yields,
    for n1 = m, m - 2, ..., the (label, mult) rows with first component n1
    and mult != 0 in descending lexicographic order, each mult by _count,
    as in multiplicity_sym, with h falling by 1 as n3 falls by 2.  Holds
    one plane of rows, O(m^2) ints.  Raises ValueError on a malformed power.
    """
    check_power(m)
    values = range(m, -1, -2)
    for n1 in values:
        rows = []
        for n2 in values:
            # min and max as conditional expressions: under CPython 3.11
            # they make this loop about 2.4 times faster
            lo12 = n1 if n1 < n2 else n2
            rows += [((n1, n2, n3), x) for n3, h in
                     zip(values, count((n1 + n2) // 2, -1))
                     if (x := _count(lo12 if lo12 < n3 else n3, h)) > 0]
        yield rows


def decompose_symmetric_power(m: int) -> Decomposition:
    """Complete decomposition of the m-th symmetric power: every row of
    decomposition_planes(m), in its order, held in one dict."""
    return {label: x for rows in decomposition_planes(m) for label, x in rows}


def _count_row(m: int, a: int, b: int, up: list[int]) -> list[int]:
    # Counts at co-indices (m - ni) / 2 = (a, b, c), c <= m // 2, as slices
    # of the half-ramp up.  With lo = min(a, b) and s = a + b, d <= (min(ni)
    # - h) / 2 holds for min(c - s + 2 lo, s - c) // 2 + 1 of them on
    # [s - 2 lo, s], less ceil((c - m + s) / 2) below -h / 2 for c > m - s.
    lo, s, half, zeros = (a if a < b else b), a + b, m // 2, [0] * len(up)
    row = (zeros[:s - 2 * lo] + up[:lo + 1] + up[:lo][::-1] + zeros)[:half + 1]
    if m - s < half:
        row = list(map(sub, row, zeros[:m - s + 1] + up[:half - m + s]))
    return row


def character_lines(m: int) -> Iterator[tuple[int, int, list[int]]]:
    """The lines (l1, l2, dims) of dims.weight_dimensions(m), in its order,
    from O(m^2) state: the dimension at co-indices (m - |li|) / 2 = (a, b, c)
    sums the counts at co-indices <= (a, b, c), so going down l1 a running
    plane adds each count plane's 2-D prefix sums, and coming back up it
    subtracts them.  Raises ValueError on a malformed power."""
    check_power(m)
    half, values = m // 2, range(m, -m - 1, -2)
    up = [j // 2 + 1 for j in range(half + 1)]  # 1, 1, 2, 2, 3, ...
    fold = [min(i, m - i) for i in range(m + 1)]  # co-index of m - 2i
    running, last = [[0] * (half + 1)] * (half + 1), -1
    for l1, a in zip(values, fold):
        if a != last:  # add plane a going down, subtract plane last going up
            op, k, last = (add, a, a) if a > last else (sub, last, a)
            prefix = [0] * (half + 1)  # row b of plane k's 2-D prefix sums
            for b in range(half + 1):
                row = accumulate(_count_row(m, k, b, up))
                prefix = list(map(add, prefix, row))
                running[b] = list(map(op, running[b], prefix))
        for l2, b in zip(values, fold):  # l3 < 0 mirror l3 > 0
            yield l1, l2, running[b] + running[b][:m - half][::-1]
