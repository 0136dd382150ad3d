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

_count_plane is the same count as rows, one plane (one n1) at a time,
each row (one n1, n2) of m // 2 + 1 ints: the decomposition table reads
it a row at a time and the character's prefix sums a plane at a time,
up to core.CHARACTER_CAP; the tests pin each row to multiplicity_sym.
"""

from collections.abc import Iterator
from itertools import accumulate
from operator import add, sub

from .core import (CHARACTER_CAP, Decomposition, IrrepLabel, check_cap,
                   check_label, check_power)


def multiplicity_sym(m: int, label: IrrepLabel) -> int:
    """Multiplicity of the labeled irreducible in the m-th symmetric
    power of C2 (x) C2 (x) C2: the number of covariant monomials
    f^a B1^b1 B2^b2 B3^b3 T^c Delta^d, c in {0, 1}, of degree
    a + 2(b1 + b2 + b3) + 3c + 4d = m and weight ni = a + 2bi + c.

    These give a = h + 2d with h = (n1 + n2 + n3 - m) / 2 and
    c = (n1 - h) mod 2, so the count is that of d >= 0 with
    max(0, h) <= a <= min(ni) - c.  A label with a component of parity
    different from m returns 0, and so does one with a component above m,
    with no test: every monomial counted has ni = a + 2bi + c <= m.
    Raises ValueError on a malformed power or label.
    """
    check_power(m)
    check_label(label)
    if any((v - m) % 2 for v in label):
        return 0
    h = (sum(label) - m) // 2
    # max(0, ceil(-h / 2)) <= d <= (min(ni) - h) // 2, whose floor
    # subtracts c; a count <= 0 means none
    return max(0, (min(label) - h) // 2 + 1 - max(0, (1 - h) // 2))


def decomposition_rows(m: int) -> Iterator[tuple[int, int, list[int]]]:
    """The decomposition of the m-th symmetric power as lines (n1, n2, row)
    in the shape of character_lines: for n1 = m, m - 2, ... and within it
    n2 = m, m - 2, ..., row[i] is the multiplicity of (n1, n2, m - 2i),
    zeros kept, a row of _count_plane (labels have components in
    {m mod 2, ..., m - 2, m}: weights of the power lie in [-m, m]^3).
    Holds one count row, O(m) ints.  Raises ValueError on a malformed
    power."""
    check_power(m)
    values = range(m, -1, -2)
    for a, n1 in enumerate(values):
        for n2, row in zip(values, _count_plane(m, a)):
            yield n1, n2, row


def decompose_symmetric_power(m: int) -> Decomposition:
    """Complete decomposition of the m-th symmetric power: the non-zero
    entries of decomposition_rows(m), in its order, held in one dict."""
    return {(n1, n2, m - 2 * i): x for n1, n2, row in decomposition_rows(m)
            for i, x in enumerate(row) if x}


def _count_plane(m: int, a: int) -> Iterator[list[int]]:
    # Counts at co-indices (m - ni) / 2 = (a, b, c), one row of c <= m // 2
    # for each b <= m // 2, as slices of the half-ramp up.  With lo =
    # min(a, b) and s = a + b, d <= (min(ni) - h) / 2 holds for
    # min(c - s + 2 lo, s - c) // 2 + 1 of them on [s - 2 lo, s], less
    # ceil((c - m + s) / 2) below -h / 2 for c > m - s.
    half = m // 2
    up = [j // 2 + 1 for j in range(half + 1)]  # 1, 1, 2, 2, 3, ...
    zeros = [0] * (half + 1)
    for b in range(half + 1):
        lo, s = (a if a < b else b), a + b
        row = (zeros[:s - 2 * lo] + up[:lo + 1] + up[:lo][::-1]
               + zeros)[:half + 1]
        if m - s < half:
            row = list(map(sub, row, zeros[:m - s + 1] + up[:half - m + s]))
        yield row


def character_lines(m: int) -> Iterator[tuple[int, int, list[int]]]:
    """The lines (l1, l2, dims) of dims.weight_dimensions(m), in its order,
    from O(m^2) state: the dimension at co-indices (m - |li|) / 2 = (a, b, c)
    sums the counts at co-indices <= (a, b, c), so going down l1 a running
    plane adds each count plane's 2-D prefix sums, and coming back up it
    subtracts them.  Raises ValueError on a malformed power, and on one
    above CHARACTER_CAP, when called: before any state is built."""
    check_cap(m, CHARACTER_CAP, "character")

    def lines():
        half, values = m // 2, range(m, -m - 1, -2)
        fold = [min(i, m - i) for i in range(m + 1)]  # co-index of m - 2i
        running, last = [[0] * (half + 1)] * (half + 1), -1
        for l1, a in zip(values, fold):
            if a != last:  # down: add plane a; up: subtract plane last
                op, k, last = (add, a, a) if a > last else (sub, last, a)
                prefix = [0] * (half + 1)  # row b of plane k's 2-D prefix sums
                for b, row in enumerate(_count_plane(m, k)):
                    prefix = list(map(add, prefix, accumulate(row)))
                    running[b] = list(map(op, running[b], prefix))
            for l2, b in zip(values, fold):  # l3 < 0 mirror l3 > 0
                yield l1, l2, running[b] + running[b][:m - half][::-1]
    return lines()
