"""Brute-force ground truth, deliberately naive.

Everything here recounts objects by direct enumeration, with no formulas
beyond non-negativity checks, so that the closed forms and convolution
identities elsewhere can be validated against code that is obviously
counting the defined sets.
"""

from .core import Character, check_power, weight_of_monomial

DEFAULT_ENUMERATION_CAP = 20


class OracleCapError(ValueError):
    """Requested enumeration exceeds the configured cap."""


def enumerate_character(m: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Character:
    """Character of the m-th symmetric power by enumerating every monomial.

    Visits all C(m+7, 7) exponent tuples of degree m via seven nested
    bounded loops with the eighth exponent derived, computes each weight
    and tallies.  Intentionally unoptimized.
    """
    check_power(m)
    if m > cap:
        raise OracleCapError(f"oracle cap exceeded: m={m} > cap={cap}")
    tally: Character = {}
    for a001 in range(m + 1):
        s1 = a001
        for a010 in range(m + 1 - s1):
            s2 = s1 + a010
            for a011 in range(m + 1 - s2):
                s3 = s2 + a011
                for a100 in range(m + 1 - s3):
                    s4 = s3 + a100
                    for a101 in range(m + 1 - s4):
                        s5 = s4 + a101
                        for a110 in range(m + 1 - s5):
                            s6 = s5 + a110
                            for a111 in range(m + 1 - s6):
                                a000 = m - s6 - a111
                                w = weight_of_monomial(
                                    (a000, a001, a010, a011,
                                     a100, a101, a110, a111)
                                )
                                tally[w] = tally.get(w, 0) + 1
    return tally


def c2_bruteforce(r1: int, r2: int, r3: int) -> int:
    """Count 2x2 non-negative integer matrices with total r1, second-row
    sum r2 and second-column sum r3, by trying every bottom-right entry."""
    count = 0
    for a22 in range(min(r2, r3) + 1):
        a21 = r2 - a22
        a12 = r3 - a22
        a11 = r1 - a12 - a21 - a22
        if a21 >= 0 and a12 >= 0 and a11 >= 0:
            count += 1
    return count


def convolution_bruteforce(m: int, k: int, r: int, n: int) -> int:
    """Count degree-m exponent tuples with co-index (k, r, n) by direct
    enumeration of the two 2x2 exponent blocks.

    The i = 0 block (a000, a001, a010, a011) must total m - k with
    second-row sum a and second-column sum b; the i = 1 block
    (a100, a101, a110, a111) must total k with second-row sum r - a and
    second-column sum n - b.  All splits (a, b) and all entries are
    enumerated; no matrix-count formula is used.
    """
    total = 0
    for a in range(r + 1):
        for b in range(n + 1):
            for a011 in range(min(a, b) + 1):
                a010 = a - a011
                a001 = b - a011
                a000 = (m - k) - a010 - a001 - a011
                if a000 < 0:
                    continue
                for a111 in range(min(r - a, n - b) + 1):
                    a110 = (r - a) - a111
                    a101 = (n - b) - a111
                    a100 = k - a110 - a101 - a111
                    if a100 >= 0:
                        total += 1
    return total
