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

from collections.abc import Iterable
from itertools import product, repeat

from .core import (Character, CharacterFormatError, Decomposition,
                   IrrepLabel, Weight, check_label, check_power, check_weight)


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
    from . import dims

    check_power(m)
    values = range(m, -m - 1, -2)
    return {
        (l1, l2, l3): d
        for l1, l2, row in dims.weight_dimensions(m)
        for l3, d in zip(values, row)
    }


def greedy_decompose(c: Character) -> Decomposition:
    """Decompose a module character into irreducibles, inserted in
    descending lexicographic label order.

    With |w| the componentwise absolute value of w, c is accepted when
    (a) c[w] == c[|w|] > 0 at every w with |w| = |u| for a weight u of c,
    and (b) the corner sum x_t, the alternating sum of c over
    t + {0, 2}^3, is >= 0 at every dominant t with a corner in the
    support; the result is then {t: x_t for x_t > 0}.  This is exact: (a)
    says c is invariant under sign changes, and Moebius inversion over the
    dominance order writes any such c as the sum of x_t * ch V(t) with
    integer x_t, so (b) holds exactly when c is the character of a module,
    whose multiplicities the x_t then are.

    Raises ValueError on a c that is not a dict or a key that is not a
    weight, and its subclass NotAModuleCharacterError on an entry that is
    not a positive int, on a failure of (a), naming the lexicographically
    largest weight w with c.get(w, 0) != c.get(|w|, 0) among the weights
    of c and the sign images of its dominant weights, and on a failure of
    (b), naming the largest t with x_t < 0.
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
    return decompose_entries(zip(repeat(0), c, c.values()))


def decompose_entries(entries: Iterable[tuple[int, Weight, int]]
                      ) -> Decomposition:
    """greedy_decompose of the character with these (lineno, weight, dim)
    entries, dims positive ints, read in one pass that keeps state per
    sign orbit; CharacterFormatError names the line of a repeated weight."""
    # x[|w|]: the first dim seen in the orbit of w, 8 bits up, OR the flag
    # 1 << 4 (l1 < 0) + 2 (l2 < 0) + (l3 < 0) of each weight seen (a zero
    # component has no flag for its sign); odd[|w|, flag]: a dim unlike it
    x, odd = {}, {}
    for lineno, w, d in entries:
        a, b, e = w
        v = (abs(a), abs(b), abs(e))
        flag = 1 << (a < 0) * 4 + (b < 0) * 2 + (e < 0)
        packed = x.setdefault(v, d << 8)
        if packed & flag:
            raise CharacterFormatError(f"line {lineno}: duplicate weight {w}")
        x[v] = packed | flag
        if packed >> 8 != d:
            odd[v, flag] = d
    faulty = {v for v, _ in odd}.union(v for v, p in x.items() if p & 255 != (
        v[0] and 255 or 15) & (v[1] and 255 or 51) & (v[2] and 255 or 85))
    if faulty:
        def dim(w):  # c.get(w, 0)
            v = tuple(map(abs, w))
            flag = 1 << (w[0] < 0) * 4 + (w[1] < 0) * 2 + (w[2] < 0)
            return odd.get((v, flag), x[v] >> 8) if x[v] & flag else 0

        w = max(w for v in faulty for w in product(
            *((n, -n) if n else (0,) for n in v)) if dim(w) != dim(v))
        v = tuple(map(abs, w))
        raise NotAModuleCharacterError(
            f"not a module character: weight {w} has dimension {dim(w)}, "
            f"but {v}, the same weight up to signs, has {dim(v)}")
    for v, packed in x.items():  # the dim at each |w|, then one backward
        x[v] = packed >> 8  # difference per axis leaves the corner sums
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
