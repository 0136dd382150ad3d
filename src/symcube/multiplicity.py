"""Multiplicities by inclusion-exclusion on weight-space dimensions.

The weight space of a module M at a dominant weight w collects one
dimension from every irreducible summand whose label dominates w in the
even-componentwise order.  Alternating the dimensions over the eight
corners w + (d1, d2, d3), di in {0, 2}, cancels everything except the
multiplicity at w itself, turning a character into a multiplicity
without any recursion.
"""

from itertools import permutations, product

from .core import (Character, Decomposition, IrrepLabel, check_label,
                   check_power)
from .dims import dim_weight, dimension_table, normalized_index

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
        sign * dim_weight(m, (n1 + d1, n2 + d2, n3 + d3))
        for (d1, d2, d3), sign in _CORNERS
    )


def decompose_symmetric_power(m: int) -> Decomposition:
    """Complete decomposition of the m-th symmetric power.

    Candidate labels have components in {m mod 2, m mod 2 + 2, ..., m}
    (weights of the power lie in [-m, m]^3, so nothing outside can
    occur).  Multiplicities are invariant under permuting the label, so
    only sorted labels n1 >= n2 >= n3 are summed, each over one
    dimension_table(m), and every positive one is copied to its
    permutations.  Entries are inserted in descending lexicographic label
    order.
    """
    table = dimension_table(m)
    found: Decomposition = {}
    for n1 in range(m, -1, -2):
        for n2 in range(n1, -1, -2):
            for n3 in range(n2, -1, -2):
                # a corner that is no weight of S^m has index None: dim 0
                x = sum(
                    sign * table.get(
                        normalized_index(m, (n1 + d1, n2 + d2, n3 + d3)), 0)
                    for (d1, d2, d3), sign in _CORNERS
                )
                if x:
                    for label in permutations((n1, n2, n3)):
                        found[label] = x
    return {label: found[label] for label in sorted(found, reverse=True)}
