"""Formal characters and their decomposition into irreducibles.

A finite-dimensional module is determined by its character, and the
character of a direct sum is the sum of characters.  Decomposing a
module therefore reduces to writing its character as a sum of
irreducible characters.  The multiplicity of the irreducible with
highest weight t is the alternating sum of the character over the eight
corners t + {0, 2}^3 (Fulton and Harris, Representation Theory,
section 11), so one pass over a module character decomposes it.  An input that is not a
module character goes to the greedy peel, which names the first weight
it leaves short: a sweep in descending lexicographic order, valid
because every weight that dominates w (exceeds it by non-negative even
amounts) is lexicographically greater than w.
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
    """Decompose a module character into irreducibles, inserted in
    descending lexicographic label order.

    With |w| the componentwise absolute value of w, c is accepted when
    (a) c[w] == c[|w|] at every weight w, (b) the dimensions sum to
    c[v] * 2^(number of non-zero components of v) summed over the dominant
    weights v of the support, and (c) the corner sum x_t, the alternating
    sum of c over t + {0, 2}^3, is >= 0 at every dominant t with a corner
    in the support; the result is then {t: x_t for x_t > 0}.  This is
    exact: (a) and (b) say c is invariant under sign changes, and Moebius
    inversion over the dominance order writes any such c as the sum of
    x_t * ch V(t) with integer x_t, so (c) holds exactly when c is the
    character of a module, whose multiplicities the x_t then are.

    Any other input goes to the greedy peel, which runs only to name the
    fault: it sweeps the support in descending lexicographic order,
    subtracts each irreducible weight by weight and stops at the first
    short weight.  Raises ValueError on a key that is not a weight, and
    its subclass NotAModuleCharacterError on an entry that is not a
    positive int, on a weight with positive remainder and a negative
    component (a module's highest weights are dominant) and on a
    subtraction below zero.
    """
    for w, d in c.items():
        check_weight(w)
        if type(d) is not int or d <= 0:
            raise NotAModuleCharacterError(
                f"not a module character: weight {w} has non-positive "
                f"or non-integer dimension {d!r}"
            )
    found = _corner_decomposition(c)
    return _peel(c) if found is None else found


def _corner_decomposition(c: Character) -> Decomposition | None:
    """The corner-sum decomposition of c, or None if (a)-(c) fail."""
    dominant = {w: d for w, d in c.items() if min(w) >= 0}
    if sum(c.values()) != sum(d << ((a > 0) + (b > 0) + (e > 0))
                              for (a, b, e), d in dominant.items()):
        return None
    for (a, b, e), d in c.items():
        if dominant.get((abs(a), abs(b), abs(e))) != d:
            return None
    x = dominant  # one backward difference per axis leaves the corner sums
    for i, j, k in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        diff = dict(x)
        for (a, b, e), d in x.items():
            if a >= i and b >= j and e >= k:
                t = (a - i, b - j, e - k)
                diff[t] = diff.get(t, 0) - d
        x = diff
    if any(n < 0 for n in x.values()):
        return None
    return dict(sorted(((t, n) for t, n in x.items() if n), reverse=True))


def _peel(c: Character) -> Decomposition:
    """The greedy sweep of greedy_decompose over validated entries."""
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
