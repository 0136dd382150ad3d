"""Cross-checks of the formulas against independent computations, one
check per quantity; those of the weight dimensions and the character
enumerate only up to oracle.ENUMERATION_CAP.  Each check returns its case
count and raises VerificationError at the first disagreement; a function
replaced on its module is the one checked.  ``symcube verify`` runs
CHECKS: (check, bound of the top power, report), with the top power that
oracle.MODES gives its --mode unless --max-m is given.
"""

import random
from itertools import chain, product, starmap, zip_longest
from operator import ne

from . import characters, core, dims, multiplicity, oracle
from .core import VerificationError


def check_c2(top_r1: int) -> int:
    """c2 vs brute force for every 0 <= r2, r3 <= r1 <= top_r1.  Then c2 at
    (r1, -1, r1) and (r1, r1 + 1, 0) for each r1, which read 0: margins
    out of range, one for each test after c2's swap."""
    core.check_power(top_r1)
    c2, cases = dims.c2, 0
    for r1 in range(top_r1 + 1):
        for r2, row in enumerate(oracle.c2_bruteforce(r1)):
            for r3, count in enumerate(row):
                if c2(r1, r2, r3) != count:
                    raise VerificationError(
                        f"c2 vs brute force at (r1, r2, r3) = {r1, r2, r3}")
            cases += len(row)
    for r1 in range(top_r1 + 1):
        for triple in ((r1, -1, r1), (r1, r1 + 1, 0)):
            if value := c2(*triple):
                raise VerificationError(f"c2 {value} != 0 off the range at "
                                        f"(r1, r2, r3) = {triple}")
            cases += 1
    return cases


def check_dimensions(top_m: int) -> int:
    """First that 48 divides the polynomials dims._chamber and dims._wall
    at every residue mod 48, so everywhere: _closed_form's // 48 is exact.
    Then routes to every weight dimension C(m; k, r, n), m <= top_m: the
    closed form by dim_weight at an unsorted, sign-flipped weight, the
    convolution and, where m <= oracle.ENUMERATION_CAP, pair enumeration;
    the first two also at 50 indices seeded by m with n <= r <= 6 and
    k <= 12 or k >= m/2 - 12 (cases I and II) at each of m = 10^12 and
    10^12 + 1.  Then dim_weight at two weights off the support of each
    S^m, which read 0: one with a component of the wrong parity and one
    with a component m + 8 (the quartic vanishes at n = -1, -2, -3)."""
    core.check_power(top_m)
    for name, arity in (("_chamber", 2), ("_wall", 1)):
        for residue in product(range(48), repeat=arity):
            if getattr(dims, name)(*residue) % 48:
                raise VerificationError(f"48 does not divide {name}{residue}")
    cases = 0
    huge = []
    for m in (10 ** 12, 10 ** 12 + 1):
        rng = random.Random(m)
        for _ in range(50):
            r = rng.randint(0, 6)
            n = rng.randint(0, r)
            k = rng.choice([*range(r, 13), *range(m // 2 - 12, m // 2 + 1)])
            huge.append((m, k, r, n))
    for m, k, r, n in chain(((m, k, r, n) for m in range(top_m + 1)
                             for k in range(m // 2 + 1)
                             for r in range(k + 1) for n in range(r + 1)),
                            huge):
        enumerated = m <= oracle.ENUMERATION_CAP
        closed = dims.dim_weight(m, (m - 2 * n, 2 * k - m, m - 2 * r))
        conv = dims.dim_by_convolution(m, k, r, n)
        pairs = (oracle.convolution_bruteforce(m, k, r, n) if enumerated
                 else closed)
        if not closed == conv == pairs:
            raise VerificationError(
                f"dimensions diverge at (m, k, r, n) = "
                f"{m, k, r, n}: closed={closed} convolution="
                f"{conv}" + f" enumerated={pairs}" * enumerated)
        cases += 1
    for m in range(top_m + 1):
        for w in ((m, m - 1, -m), (m, -m - 8, m)):
            if value := dims.dim_weight(m, w):
                raise VerificationError(f"dim_weight {value} != 0 off the "
                                        f"support at m = {m}, weight {w}")
            cases += 1
    return cases


def check_corner_sums(top_m: int) -> int:
    """The count multiplicity_sym, the route of ``symcube mult``, vs the
    alternating sum of dim_weight over the eight corners t + {0, 2}^3
    (Fulton and Harris, section 11): at every label t of S^m, m <= top_m,
    and at 100 labels seeded by m with co-indices (m - ti) / 2 <= 40 at
    each of m = 10^12 and 10^12 + 1, far beyond any table.  Then at two
    labels off the support of each S^m, whose eight corners are off it
    too, so the sum reads 0: one with a component m + 2 and one with a
    component of the wrong parity (m ^ 1 is m + 1 or m - 1)."""
    core.check_power(top_m)
    cases = [(m, t) for m in range(top_m + 1)
             for t in product(range(m, -1, -2), repeat=3)]
    for m in (10 ** 12, 10 ** 12 + 1):
        rng = random.Random(m)
        cases += [(m, tuple(m - 2 * rng.randint(0, 40) for _ in "123"))
                  for _ in range(100)]
    cases += [(m, label) for m in range(top_m + 1)
              for label in ((m + 2, m, m), (m, m, m ^ 1))]
    for m, (n1, n2, n3) in cases:
        count = multiplicity.multiplicity_sym(m, (n1, n2, n3))
        corners = sum((-1) ** ((a + b + c) // 2)
                      * dims.dim_weight(m, (n1 + a, n2 + b, n3 + c))
                      for a, b, c in product((0, 2), repeat=3))
        if count != corners:
            raise VerificationError(
                f"multiplicity_sym {count} != eight-corner sum {corners} "
                f"at m = {m}, label {n1, n2, n3}")
    return len(cases)


def check_characters(top_m: int) -> int:
    """Routes to the character and decomposition of S^m, m <= top_m, one
    line or row at a time: each closed-form line vs the count prefix sums
    and, where m <= oracle.ENUMERATION_CAP, monomial enumeration (one l1
    plane at a time), then fed to greedy (eight-corner sums, as ``symcube
    greedy`` reads a file), whose result is compared in order with the
    count rows that ``symcube decompose`` prints."""
    core.check_power(top_m)

    def entries(m):
        values, enumerating = range(m, -m - 1, -2), m <= oracle.ENUMERATION_CAP
        for closed, counted, enumerated in zip_longest(
                dims.weight_dimensions(m), multiplicity.character_lines(m),
                oracle.enumerated_lines(m) if enumerating else ()):
            if enumerating and closed != enumerated:
                raise VerificationError(f"monomial enumeration differs from "
                                        f"closed-form character at m = {m}")
            if closed != counted:
                raise VerificationError(f"count prefix sums differ at m = {m}")
            l1, l2, row = closed
            for l3, d in zip(values, row):
                yield 0, (l1, l2, l3), d

    for m in range(top_m + 1):
        greedy = characters.decompose_entries(entries(m))
        rows = chain.from_iterable(multiplicity.decomposition_rows(m))
        if any(starmap(ne, zip_longest(greedy.items(), rows))):
            raise VerificationError(
                f"greedy (eight-corner sums of the closed-form character) vs "
                f"covariant count decompositions differ at m = {m}")
    return top_m + 1


CHECKS = (
    (check_c2, lambda top: 40,
     "2x2 matrix counts: closed form == brute force for r1 <= {0}, 0 off "
     "the range ({1} triples)"),
    (check_dimensions, lambda top: 16,
     "weight dimensions: 48 divides 48 C at every index (residues mod 48), "
     "closed form == convolution == pair enumeration "
     "for m <= {0}, closed form == convolution at m = 10^12, 10^12 + 1, "
     "0 off the support ({1} weights)"),
    (check_corner_sums, lambda top: 8,
     "multiplicities: covariant count == eight-corner sums of closed forms "
     "for m <= {0} and at m = 10^12, 10^12 + 1, 0 off the support ({1} "
     "labels)"),
    (check_characters, lambda top: top,
     "characters and decompositions: monomial enumeration == covariant "
     "count prefix sums == closed forms, greedy == covariant count for "
     "m <= {0}"),
)
