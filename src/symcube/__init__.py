"""Exact decomposition of symmetric powers of C2 (x) C2 (x) C2 into
irreducible modules of sl2(C) + sl2(C) + sl2(C).

Weight-space dimensions come from closed-form quartic polynomials and an
independent convolution identity.  Every multiplicity, alone or in a
full decomposition table, is an O(1) count of covariant monomials that
reads no dimension.  Every formula is cross-checked against brute-force
monomial enumeration.  All arithmetic is exact (Python ints throughout).
"""

from .characters import (
    NotAModuleCharacterError,
    character_irrep,
    character_symmetric_power,
    greedy_decompose,
)
from .core import (
    Character,
    CharacterFormatError,
    Decomposition,
    IrrepLabel,
    Weight,
)
from .dims import (
    c2,
    dim_by_convolution,
    dim_closed_form,
    dim_weight,
    polynomial_case,
)
from .multiplicity import decompose_symmetric_power, multiplicity_sym
from .oracle import (
    OracleCapError,
    c2_bruteforce,
    convolution_bruteforce,
)

__all__ = [
    "Character",
    "CharacterFormatError",
    "Decomposition",
    "IrrepLabel",
    "NotAModuleCharacterError",
    "OracleCapError",
    "Weight",
    "c2",
    "c2_bruteforce",
    "character_irrep",
    "character_symmetric_power",
    "convolution_bruteforce",
    "decompose_symmetric_power",
    "dim_by_convolution",
    "dim_closed_form",
    "dim_weight",
    "greedy_decompose",
    "multiplicity_sym",
    "polynomial_case",
]
