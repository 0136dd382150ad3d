"""Formal characters and their decomposition into irreducibles.

A finite-dimensional module is determined by its character, and the
character of a direct sum is the sum of characters.  Decomposing a
module therefore reduces to writing its character as a sum of
irreducible characters.  The multiplicity of the irreducible with
highest weight t is the alternating sum of the character over the eight
corners t + {0, 2}^3 (Fulton and Harris, Representation Theory,
section 11), so one pass over a module character decomposes it.  The
same pass rejects any other input and names its fault: the
lexicographically largest weight whose dimension differs from that of
its sign images, or else the largest label whose corner sum is negative.
"""

from itertools import chain, product

from .core import (Character, Decomposition, IrrepLabel,
                   check_label, check_power, check_weight)
from .dims import weight_dimensions


class NotAModuleCharacterError(ValueError):
    """The input cannot be the character of a finite-dimensional module."""


def character_irrep(label: IrrepLabel) -> Character:
    """Character of V(n1) (x) V(n2) (x) V(n3): the weights (w1, w2, w3)
    with wi in {ni, ni-2, ..., -ni}, every one of the (n1+1)(n2+1)(n3+1)
    weight spaces being 1-dimensional."""
    check_label(label)
    return dict.fromkeys(product(*(range(n, -n - 1, -2) for n in label)), 1)


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

    Raises ValueError on a c that is not a dict or a key that is not a
    weight, and its subclass NotAModuleCharacterError on an entry that is
    not a positive int, on a failure of (a) or (b), naming the
    lexicographically largest weight w with c[w] != c[|w|], and on a
    failure of (c), naming the largest t with x_t < 0.
    """
    if not isinstance(c, dict):
        raise ValueError(f"a character must be a dict, got {type(c).__name__}")
    for w, d in c.items():
        check_weight(w)
        if type(d) is not int or d <= 0:
            raise NotAModuleCharacterError(
                f"not a module character: weight {w} has non-positive "
                f"or non-integer dimension {d!r}"
            )
    dominant = {w: d for w, d in c.items() if min(w) >= 0}
    orbit_total = sum(d << ((a > 0) + (b > 0) + (e > 0))
                      for (a, b, e), d in dominant.items())
    if sum(c.values()) != orbit_total or any(
            dominant.get((abs(a), abs(b), abs(e))) != d
            for (a, b, e), d in c.items()):
        w = max(chain(
            (w for w, d in c.items() if c.get(tuple(map(abs, w)), 0) != d),
            (w for v in dominant
             for w in product(*((n, -n) if n else (0,) for n in v))
             if w not in c)))
        v = tuple(map(abs, w))
        raise NotAModuleCharacterError(
            f"not a module character: weight {w} has dimension "
            f"{c.get(w, 0)}, but {v}, the same weight up to signs, has "
            f"{c.get(v, 0)}"
        )
    x = dominant  # one backward difference per axis leaves the corner sums
    for i, j, k in ((2, 0, 0), (0, 2, 0), (0, 0, 2)):
        diff = dict(x)
        for (a, b, e), d in x.items():
            if a >= i and b >= j and e >= k:
                t = (a - i, b - j, e - k)
                diff[t] = diff.get(t, 0) - d
        x = diff
    if any(n < 0 for n in x.values()):
        t = max(t for t, n in x.items() if n < 0)
        raise NotAModuleCharacterError(
            f"not a module character: the irreducible with highest weight "
            f"{t} would have multiplicity {x[t]}, the alternating sum over "
            f"the eight corners {t} + {{0, 2}}^3"
        )
    return dict(sorted(((t, n) for t, n in x.items() if n), reverse=True))

