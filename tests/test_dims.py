import gc
import random
import tracemalloc
from itertools import permutations, product
from math import comb

import pytest

from symcube import (
    c2,
    c2_bruteforce,
    character_symmetric_power,
    decompose_symmetric_power,
    dim_by_convolution,
    dim_closed_form,
    dim_weight,
    enumerate_character,
    polynomial_case,
)


class TestC2:
    # values frozen from the brute-force count in oracle.c2_bruteforce
    @pytest.mark.parametrize("args,want", [
        ((5, 2, 3), 3),
        ((2, 1, 1), 2),
        ((4, 2, 2), 3),
        ((1, 1, 1), 1),
    ])
    def test_known_counts(self, args, want):
        assert c2(*args) == want
        assert c2_bruteforce(*args) == want

    def test_zero_second_row(self):
        # a21 = a22 = 0 forces the rest of the matrix
        for r1 in range(10):
            for r3 in range(r1 + 1):
                assert c2(r1, 0, r3) == 1

    def test_out_of_range(self):
        assert c2(3, 5, 0) == 0
        assert c2(3, 0, 5) == 0
        assert c2(0, 1, 1) == 0

    def test_matches_bruteforce_everywhere(self):
        for r1 in range(26):
            for r2 in range(r1 + 3):
                for r3 in range(r1 + 3):
                    assert c2(r1, r2, r3) == c2_bruteforce(r1, r2, r3)


class TestConvolution:
    def test_small(self):
        assert dim_by_convolution(4, 2, 1, 0) == 2

    def test_zero_index(self):
        for m in range(8):
            assert dim_by_convolution(m, 0, 0, 0) == 1

    def test_large_reference_value(self):
        assert dim_by_convolution(40, 18, 16, 16) == 6957

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            dim_by_convolution(4, 1, 2, 0)
        with pytest.raises(ValueError):
            dim_by_convolution(3, 2, 1, 0)


class TestClosedForm:
    # six large values cross-checked against the pair-enumeration oracle
    # (see test_oracle.py for the enumeration of the first one)
    @pytest.mark.parametrize("idx,want", [
        ((40, 18, 16, 16), 6957),
        ((40, 17, 16, 16), 6710),
        ((40, 18, 16, 15), 6421),
        ((40, 17, 16, 15), 6208),
        ((40, 18, 15, 15), 5952),
        ((40, 17, 15, 15), 5770),
    ])
    def test_reference_values(self, idx, want):
        assert dim_closed_form(*idx) == want

    def test_top_row(self):
        for m in range(12):
            for k in range(m // 2 + 1):
                assert dim_closed_form(m, k, 0, 0) == 1

    def test_small_value(self):
        assert dim_closed_form(4, 2, 1, 0) == 2

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            dim_closed_form(4, 1, 2, 0)

    def test_case_labels(self):
        assert polynomial_case(10, 4, 2, 1) == "I"
        assert polynomial_case(10, 3, 3, 2) == "II.1"
        assert polynomial_case(10, 3, 3, 1) == "II.2"
        assert polynomial_case(10, 4, 4, 4) == "III.1"
        assert polynomial_case(10, 4, 4, 3) == "III.2"
        assert polynomial_case(11, 4, 4, 4) == "III.3"


class TestDimWeight:
    def test_sign_flip_of_reference_value(self):
        assert dim_weight(40, (-4, 8, 8)) == 6957

    def test_parity_mismatch(self):
        assert dim_weight(3, (0, 1, 1)) == 0

    def test_top_weight(self):
        for m in range(8):
            assert dim_weight(m, (m, m, m)) == 1

    def test_origin_of_square(self):
        # four products: x000*x111, x001*x110, x010*x101, x100*x011
        assert dim_weight(2, (0, 0, 0)) == 4

    def test_out_of_range(self):
        assert dim_weight(4, (6, 0, 0)) == 0
        assert dim_weight(4, (0, 0, -6) ) == 0
        assert dim_weight(2, (100, 100, 100)) == 0

    def test_rejects_negative_power(self):
        for f in (lambda m: dim_weight(m, (1, 1, 1)), enumerate_character,
                  character_symmetric_power, decompose_symmetric_power):
            for m in (-1, 2.0, True):
                with pytest.raises(ValueError, match=f"got {m!r}"):
                    f(m)
        for w in ((0, 0), (0, 0, 0, 0), (2.0, 0, 0), (True, 1, 1), [0, 0, 0]):
            with pytest.raises(ValueError, match="three ints"):
                dim_weight(2, w)

    def test_permutation_and_sign_invariance(self):
        rng = random.Random(7)
        for _ in range(300):
            m = rng.randint(0, 25)
            w = tuple(rng.randint(-m - 2, m + 2) for _ in range(3))
            base = dim_weight(m, w)
            assert base >= 0
            for perm in permutations(w):
                assert dim_weight(m, perm) == base
            for signs in product((1, -1), repeat=3):
                flipped = tuple(s * comp for s, comp in zip(signs, w))
                assert dim_weight(m, flipped) == base

    def test_total_dimension(self):
        # all weight-space dimensions sum to dim S^m(C^8) = C(m+7, 7)
        for m in range(51):
            total = sum(
                dim_weight(m, (m - 2 * a, m - 2 * b, m - 2 * c))
                for a in range(m + 1)
                for b in range(m + 1)
                for c in range(m + 1)
            )
            assert total == comb(m + 7, 7), m


class TestTableMemory:
    def test_nothing_held_after_a_sweep_of_powers(self):
        # each power builds its own dimension table and drops it; a cache
        # keyed by normalized index would keep about 100,000 entries here
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for m in range(40, 61):
                decompose_symmetric_power(m)
                character_symmetric_power(m)
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1_000_000, held
