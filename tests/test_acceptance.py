"""Acceptance suite.

Every test prints one PASS/FAIL line (visible with ``pytest -s``) and
enforces both an exact expected result and a wall-clock budget.
"""

import contextlib
import io
import random
import time
from collections import Counter
from itertools import permutations, product
from math import comb

from symcube import (
    c2,
    c2_bruteforce,
    character_irrep,
    decompose_symmetric_power,
    dim_closed_form,
    dim_weight,
    greedy_decompose,
    multiplicity_sym,
    polynomial_case,
)
from symcube.cli import main
from symcube.verify import check_c2, check_characters, check_dimensions

@contextlib.contextmanager
def criterion(num: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {num}: {name}")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget_s:
        print(f"FAIL criterion {num}: {name} "
              f"(took {elapsed:.2f}s, budget {budget_s:g}s)")
        raise AssertionError(
            f"criterion {num} exceeded its {budget_s:g}s budget: {elapsed:.2f}s"
        )
    print(f"PASS criterion {num}: {name} ({elapsed:.2f}s)")


def cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_criterion_1_reference_dimensions_and_multiplicity():
    with criterion(1, "reference m=40 dimensions and multiplicity", 1.0):
        known = {
            (40, 18, 16, 16): 6957,
            (40, 17, 16, 16): 6710,
            (40, 18, 16, 15): 6421,
            (40, 17, 16, 15): 6208,
            (40, 18, 15, 15): 5952,
            (40, 17, 15, 15): 5770,
        }
        for (m, k, r, n), want in known.items():
            assert dim_closed_form(m, k, r, n) == want
            weight = (m - 2 * k, m - 2 * r, m - 2 * n)
            code, out = cli(["dim", str(m)] + [str(c) for c in weight])
            assert code == 0 and int(out.strip()) == want
        assert multiplicity_sym(40, (4, 8, 8)) == 3
        code, out = cli(["mult", "40", "4", "8", "8"])
        assert code == 0 and int(out.strip()) == 3


def test_criterion_2_trivial_module_pattern():
    with criterion(2, "trivial-module multiplicity is [4 | m] for m <= 40", 1.0):
        for m in range(41):
            want = 1 if m % 4 == 0 else 0
            assert multiplicity_sym(m, (0, 0, 0)) == want, m


def test_criterion_3_oracle_equivalence():
    with criterion(3, "monomial enumeration == closed forms for m <= 12",
                   10.0):
        assert check_characters(12) == 13


def test_criterion_4_closed_form_vs_convolution():
    with criterion(4, "closed form == convolution for m <= 60, all six "
                      "polynomial branches exercised", 30.0):
        assert check_dimensions(60) == 87518
        # the branch of each of those indices
        hits = Counter(polynomial_case(m, k, r, n) for m in range(61)
                       for k in range(m // 2 + 1) for r in range(k + 1)
                       for n in range(r + 1))
        for case in ("I", "II.1", "II.2", "III.1", "III.2", "III.3"):
            assert hits[case] >= 100, (case, hits[case])


def test_criterion_5_matrix_count_correction():
    with criterion(5, "2x2 matrix count matches brute force; printed-formula "
                      "variant refuted", 1.0):
        assert check_c2(40) == sum((r1 + 1) ** 2 + 2 for r1 in range(41))
        # the min(..., r2 - r3) variant of the count formula is wrong:
        # at (5, 2, 3) it gives 0 while the true count is 3
        r1, r2, r3 = 5, 2, 3
        variant = min(r2, r3, r1 - r2, r2 - r3) + 1
        assert variant == 0
        assert c2(r1, r2, r3) == c2_bruteforce(r1)[r2][r3] == 3 != variant


def test_criterion_6_dimension_checksums():
    with criterion(6, "decomposition dimensions sum to C(m+7, 7) for "
                      "m <= 50", 30.0):
        for m in range(51):
            dec = decompose_symmetric_power(m)
            assert sum(x * (n1 + 1) * (n2 + 1) * (n3 + 1)
                       for (n1, n2, n3), x in dec.items()) == \
                comb(m + 7, 7), m


def test_criterion_7_greedy_matches_covariant_count():
    with criterion(7, "greedy decomposition == covariant count for "
                      "m <= 10", 10.0):
        assert check_characters(10) == 11


def test_criterion_8_greedy_round_trip():
    with criterion(8, "greedy recovers 200 random synthetic decompositions",
                   10.0):
        rng = random.Random(1789)
        for _ in range(200):
            dec = {}
            for _ in range(rng.randint(1, 4)):
                label = tuple(rng.randint(0, 6) for _ in range(3))
                dec[label] = rng.randint(1, 3)
            total = Counter()
            for label, mult in dec.items():
                total.update(dict.fromkeys(character_irrep(label), mult))
            assert greedy_decompose(total) == dec


def test_criterion_9_symmetry_suite():
    with criterion(9, "dimension invariant under 6 permutations x 8 sign "
                      "patterns on 1000 random weights", 5.0):
        rng = random.Random(40320)
        for _ in range(1000):
            m = rng.randint(0, 30)
            w = tuple(rng.randint(-m, m) if m else 0 for _ in range(3))
            base = dim_weight(m, w)
            for perm in permutations(range(3)):
                for signs in product((1, -1), repeat=3):
                    image = tuple(signs[i] * w[perm[i]] for i in range(3))
                    assert dim_weight(m, image) == base, (m, w, image)
