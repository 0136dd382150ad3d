from math import comb

import pytest

from symcube import (
    OracleCapError,
    c2_bruteforce,
    convolution_bruteforce,
    enumerate_character,
)
from symcube.verify import check_dimensions


class TestEnumerateCharacter:
    def test_degree_zero(self):
        assert enumerate_character(0) == {(0, 0, 0): 1}

    def test_degree_one(self):
        want = {(s1, s2, s3): 1 for s1 in (1, -1)
                for s2 in (1, -1) for s3 in (1, -1)}
        assert enumerate_character(1) == want

    def test_degree_two_origin(self):
        c = enumerate_character(2)
        assert c[(0, 0, 0)] == 4
        assert sum(c.values()) == comb(9, 7)

    def test_cap(self):
        with pytest.raises(OracleCapError, match="cap exceeded"):
            enumerate_character(21)
        # caps are configurable, not hard-coded
        assert enumerate_character(3, cap=3) == enumerate_character(3)

    @pytest.mark.parametrize("m", range(9))
    def test_totals(self, m):
        assert sum(enumerate_character(m).values()) == comb(m + 7, 7)


class TestBruteforceCounts:
    def test_c2_examples(self):
        assert c2_bruteforce(5, 2, 3) == 3
        assert c2_bruteforce(1, 1, 1) == 1
        for r1 in range(8):
            assert c2_bruteforce(r1, 0, 0) == 1

    def test_convolution_examples(self):
        assert convolution_bruteforce(4, 2, 1, 0) == 2
        for m in range(8):
            assert convolution_bruteforce(m, 0, 0, 0) == 1

    def test_convolution_large_point(self):
        # the one large reference value, pinned by raw enumeration
        assert convolution_bruteforce(40, 18, 16, 16) == 6957


class TestAgreement:
    def test_three_way_dimension_agreement(self):
        check_dimensions(20)
