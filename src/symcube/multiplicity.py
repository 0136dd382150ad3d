"""Multiplicities by inclusion-exclusion on weight-space dimensions.

The weight space of a module M at a dominant weight w collects one
dimension from every irreducible summand whose label dominates w in the
even-componentwise order.  Alternating the dimensions over the eight
corners w + (d1, d2, d3), di in {0, 2}, cancels everything except the
multiplicity at w itself, turning a character into a multiplicity
without any recursion.  In co-indices (m - n) / 2 the eight corners of
every label at once are three backward differences, one along each
axis, of the dimensions at the dominant weights (Fulton and Harris,
Representation Theory, section 11), taken one plane (one n1) at a time
while holding the cube and two difference planes, never the whole table.
"""

from collections.abc import Iterator
from itertools import product
from operator import sub

from . import dims
from .core import (Character, Decomposition, IrrepLabel, check_label,
                   check_power)

_CORNERS = [
    (offs, -1 if (sum(offs) // 2) % 2 else 1)
    for offs in product((0, 2), repeat=3)
]


def multiplicity_general(c: Character, label: IrrepLabel) -> int:
    """Multiplicity of the labeled irreducible in the module with
    character c, as the alternating eight-corner sum of dimensions.

    Returns the raw signed value: it is non-negative whenever c really is
    a module character, so a negative result flags an invalid input.
    Raises ValueError on a label with a negative component.
    """
    check_label(label)
    n1, n2, n3 = label
    return sum(
        sign * c.get((n1 + d1, n2 + d2, n3 + d3), 0)
        for (d1, d2, d3), sign in _CORNERS
    )


def multiplicity_sym(m: int, label: IrrepLabel) -> int:
    """Multiplicity of the labeled irreducible in the m-th symmetric
    power of C2 (x) C2 (x) C2.

    Labels with a component exceeding m or of parity different from m
    cannot occur and return 0 without touching the dimension formulas.
    Raises ValueError on a malformed power or label.
    """
    check_power(m)
    check_label(label)
    n1, n2, n3 = label
    if any(v > m or (v - m) % 2 != 0 for v in label):
        return 0
    return sum(
        sign * dims.dim_weight(m, (n1 + d1, n2 + d2, n3 + d3))
        for (d1, d2, d3), sign in _CORNERS
    )


def decomposition_planes(m: int) -> Iterator[list[tuple[IrrepLabel, int]]]:
    """The decomposition of the m-th symmetric power, one plane at a time.

    Labels have components in {m mod 2, m mod 2 + 2, ..., m}, co-indices
    (m - n) / 2 in [0, m/2] (weights of the power lie in [-m, m]^3, so
    nothing outside can occur).  The eight-corner sum at every label is
    the backward difference of the dominant_dimensions(m) cube along l,
    then j, then i, with dimension 0 below co-index 0.  Yields, for
    n1 = m, m - 2, ..., the (label, mult) rows with first component n1
    and mult != 0 in descending lexicographic order, holding besides the
    cube (O(m^3) ints) only O(m^2) ints of difference planes and rows.
    """
    cube = dims.dominant_dimensions(m)
    values = range(m, -1, -2)
    zero = [0] * len(values)
    below = [zero] * len(values)  # the plane at co-index i - 1
    for n1, plane in zip(values, cube):
        d_l = [[row[0], *map(sub, row[1:], row)] for row in plane]
        d_lj = [list(map(sub, row, prev))
                for row, prev in zip(d_l, [zero, *d_l])]
        yield [((n1, n2, n3), x)
               for n2, row, prev in zip(values, d_lj, below)
               for n3, x in zip(values, map(sub, row, prev)) if x]
        below = d_lj


def decompose_symmetric_power(m: int) -> Decomposition:
    """Complete decomposition of the m-th symmetric power: every row of
    decomposition_planes(m), in its order, held in one dict."""
    return {label: x for rows in decomposition_planes(m) for label, x in rows}
