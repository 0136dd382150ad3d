"""Cross-checks of the formulas against independent computations.  Each
check returns its case count and raises VerificationError at the first
disagreement; a function replaced on its module is the one checked.
``symcube verify`` runs CHECKS: (check, bound of the top power, report).
"""

from itertools import chain, starmap, zip_longest
from operator import ne

from . import characters, core, dims, multiplicity, oracle


class VerificationError(Exception):
    """Two routes to the same quantity disagree."""


def check_c2(top_r1: int) -> int:
    """c2 vs brute force for every 0 <= r2, r3 <= r1 <= top_r1."""
    core.check_power(top_r1)
    c2, cases = dims.c2, 0
    for r1 in range(top_r1 + 1):
        for r2, row in enumerate(oracle.c2_bruteforce(r1)):
            for r3, count in enumerate(row):
                if c2(r1, r2, r3) != count:
                    raise VerificationError(
                        f"c2 vs brute force at (r1, r2, r3) = {r1, r2, r3}")
            cases += len(row)
    return cases


def check_dimensions(top_m: int) -> int:
    """Routes to every weight dimension C(m; k, r, n), m <= top_m: the
    closed form by dim_weight at an unsorted, sign-flipped weight, the
    convolution and, where m <= oracle.ENUMERATION_CAP, pair enumeration."""
    core.check_power(top_m)
    cases = 0
    for m in range(top_m + 1):
        enumerated = m <= oracle.ENUMERATION_CAP
        for k in range(m // 2 + 1):
            for r in range(k + 1):
                for n in range(r + 1):
                    closed = dims.dim_weight(m, (m - 2 * n, 2 * k - m,
                                                 m - 2 * r))
                    conv = dims.dim_by_convolution(m, k, r, n)
                    pairs = (oracle.convolution_bruteforce(m, k, r, n)
                             if enumerated else closed)
                    if not closed == conv == pairs:
                        raise VerificationError(
                            f"dimensions diverge at (m, k, r, n) = "
                            f"{m, k, r, n}: closed={closed} convolution="
                            f"{conv}" + f" enumerated={pairs}" * enumerated)
                    cases += 1
    return cases


def check_characters(top_m: int) -> int:
    """Routes to the character of S^m, m <= top_m, each held one line at a
    time: the closed form, monomial enumeration (one l1 plane of (m+1)^2
    weights at a time) and the covariant count prefix sums."""
    core.check_power(top_m)
    for m in range(top_m + 1):
        for closed, enumerated, counted in zip_longest(
                dims.weight_dimensions(m), oracle.enumerated_lines(m),
                multiplicity.character_lines(m)):
            if closed != enumerated:
                raise VerificationError(f"monomial enumeration differs from "
                                        f"closed-form character at m = {m}")
            if closed != counted:
                raise VerificationError(f"count prefix sums differ at m = {m}")
    return top_m + 1


def check_greedy(top_m: int) -> int:
    """Greedy (eight-corner sums of the closed-form character, read as
    ``symcube greedy`` reads a file) vs the covariant count rows that
    ``symcube decompose`` prints, in order, of S^m, m <= top_m."""
    core.check_power(top_m)
    for m in range(top_m + 1):
        values = range(m, -m - 1, -2)
        greedy = characters.decompose_entries(
            (0, (l1, l2, l3), d) for l1, l2, row in dims.weight_dimensions(m)
            for l3, d in zip(values, row))
        rows = chain.from_iterable(multiplicity.decomposition_rows(m))
        if any(starmap(ne, zip_longest(greedy.items(), rows))):
            raise VerificationError(
                f"greedy (eight-corner sums of the closed-form character) vs "
                f"covariant count decompositions differ at m = {m}")
    return top_m + 1


CHECKS = (
    (check_c2, lambda top: 40,
     "2x2 matrix counts: closed form == brute force for r1 <= {0}"),
    (check_dimensions, lambda top: 16,
     "weight dimensions: closed form == convolution == pair enumeration "
     "for m <= {0} ({1} indices)"),
    (check_characters, lambda top: top,
     "characters: monomial enumeration == covariant count prefix sums == "
     "closed forms for m <= {0}"),
    (check_greedy, lambda top: top,
     "decompositions: greedy == covariant count for m <= {0}"),
)
