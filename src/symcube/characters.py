"""Formal characters and the greedy peel-off decomposition.

A finite-dimensional module is determined by its character, and the
character of a direct sum is the sum of characters.  Decomposing a
module therefore reduces to writing its character as a sum of
irreducible characters.  The greedy algorithm does this in one sweep
over the support in descending lexicographic order: every weight that
dominates w (exceeds it by non-negative even amounts) is
lexicographically greater than w, so by the time the sweep reaches w
every irreducible whose highest weight dominates w has already been
subtracted, and what is left at w is the multiplicity of the
irreducible with highest weight w.
"""

from collections.abc import Iterator
from itertools import product

from .core import (Character, Decomposition, IrrepLabel, Weight,
                   check_label, check_power, check_weight)
from .dims import weight_dimensions


class NotAModuleCharacterError(ValueError):
    """The input cannot be the character of a finite-dimensional module."""


def character_irrep(label: IrrepLabel) -> Character:
    """Character of V(n1) (x) V(n2) (x) V(n3): the weights (w1, w2, w3)
    with wi in {ni, ni-2, ..., -ni}, every one of the (n1+1)(n2+1)(n3+1)
    weight spaces being 1-dimensional."""
    check_label(label)
    return dict.fromkeys(_irrep_weights(label), 1)


def _irrep_weights(label: IrrepLabel) -> Iterator[Weight]:
    """The weights of the labeled irreducible, lazily, descending."""
    return product(*(range(n, -n - 1, -2) for n in label))


def character_symmetric_power(m: int) -> Character:
    """Character of the m-th symmetric power of C2 (x) C2 (x) C2.

    Support is all of [-m, m]^3 with every component congruent to m
    mod 2, inserted in descending lexicographic order; the dimensions sum
    to C(m+7, 7).
    """
    check_power(m)
    values = range(m, -m - 1, -2)
    return {
        (l1, l2, l3): d
        for l1, l2, dims in weight_dimensions(m)
        for l3, d in zip(values, dims)
    }


def greedy_decompose(c: Character) -> Decomposition:
    """Decompose a module character by peeling off irreducibles.

    Sweeps the support once in descending lexicographic order.  Weights
    of an irreducible lie below its highest weight in the dominance
    order, hence lexicographically below it, so peeling never touches a
    weight the sweep has passed, and the remainder at each weight reached
    is exactly the multiplicity x of the irreducible with that highest
    weight.  A positive x is recorded and x copies of that irreducible's
    character are subtracted weight by weight, so entries are inserted in
    descending lexicographic label order, and a short input fails at its
    first short weight.  On characters of actual modules this
    reconstructs the multiset of irreducible summands exactly.

    Raises ValueError on a key that is not a weight, and its subclass
    NotAModuleCharacterError on an entry that is not a positive int, on a
    weight with positive remainder and a negative component (a module's
    highest weights are dominant) and on a subtraction below zero.
    """
    for w, d in c.items():
        check_weight(w)
        if type(d) is not int or d <= 0:
            raise NotAModuleCharacterError(
                f"not a module character: weight {w} has non-positive "
                f"or non-integer dimension {d!r}"
            )
    remainder = dict(c)
    found: Decomposition = {}
    for top in sorted(c, reverse=True):
        x = remainder[top]
        if not x:
            continue
        if min(top) < 0:
            raise NotAModuleCharacterError(
                f"not a module character: maximal weight {top} "
                f"has a negative component"
            )
        for w in _irrep_weights(top):
            have = remainder.get(w, 0)
            if have < x:
                raise NotAModuleCharacterError(
                    f"not a module character: the irreducible with highest "
                    f"weight {top} has multiplicity {x}, but weight {w} has "
                    f"only {have} left"
                )
            remainder[w] = have - x
        found[top] = x
    return found
