"""Exact decomposition of symmetric powers of C2 (x) C2 (x) C2 into
irreducible modules of sl2(C) + sl2(C) + sl2(C).

Weight-space dimensions come from closed-form quartic polynomials and an
independent convolution identity.  Every multiplicity, alone or in a
full decomposition table, is an O(1) count of covariant monomials that
reads no dimension.  Every formula is cross-checked against brute-force
monomial enumeration.  All arithmetic is exact (Python ints throughout).

``import symcube`` loads no submodule.  An export is read from its home
module on first use (PEP 562) and kept; the home modules characters,
core, dims, multiplicity and oracle resolve as attributes the same way.
"""

from importlib import import_module

_HOMES = {  # export -> its home module
    "Character": "core",
    "CharacterFormatError": "core",
    "Decomposition": "core",
    "IrrepLabel": "core",
    "NotAModuleCharacterError": "characters",
    "Weight": "core",
    "c2": "dims",
    "c2_bruteforce": "oracle",
    "character_irrep": "characters",
    "character_symmetric_power": "characters",
    "convolution_bruteforce": "oracle",
    "decompose_symmetric_power": "multiplicity",
    "dim_by_convolution": "dims",
    "dim_closed_form": "dims",
    "dim_weight": "dims",
    "greedy_decompose": "characters",
    "multiplicity_sym": "multiplicity",
    "polynomial_case": "dims",
}
__all__ = list(_HOMES)


def __getattr__(name: str):
    if name in _HOMES.values():  # a home module
        return import_module(f".{name}", __name__)
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(
        import_module(f".{_HOMES[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
