import contextlib
import io
import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from symcube import (
    CharacterFormatError,
    character_symmetric_power,
    character_total,
    decomposition_total,
    irrep_dimension,
    parse_character,
)
from symcube.cli import main

weights = st.tuples(
    st.integers(-15, 15), st.integers(-15, 15), st.integers(-15, 15)
)
characters = st.dictionaries(weights, st.integers(1, 5), max_size=8)


class TestCharacterArithmetic:
    @given(characters, characters)
    def test_totals_add(self, c1, c2):
        # the dimension of a direct sum is the sum of the dimensions
        assert character_total(Counter(c1) + Counter(c2)) == \
            character_total(c1) + character_total(c2)


class TestDimensions:
    def test_irrep_dimension(self):
        assert irrep_dimension((0, 0, 0)) == 1
        assert irrep_dimension((1, 1, 1)) == 8
        assert irrep_dimension((2, 4, 0)) == 15

    def test_irrep_dimension_rejects_negative(self):
        for label in ((-2, 0, 0), (1.5, 0, 0), (1, 1)):
            with pytest.raises(ValueError):
                irrep_dimension(label)

    def test_decomposition_total(self):
        dec = {(2, 2, 2): 1, (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}
        assert decomposition_total(dec) == 27 + 3 + 3 + 3

    def test_totals_reject_non_positive_or_non_int_counts(self):
        for total, counts, named in (
                (decomposition_total, {(0, 0, 0): -1}, "-1 at (0, 0, 0)"),
                (decomposition_total, {(0, 0, 0): 1.5}, "1.5 at (0, 0, 0)"),
                (decomposition_total, {(1, 1, 1): True}, "True at (1, 1, 1)"),
                (decomposition_total, {(2, 0, 0): 0}, "0 at (2, 0, 0)"),
                (character_total, {(0, 0, 0): -3}, "-3 at (0, 0, 0)"),
                (character_total, {(1, 1, 1): 1, (0, 0, 0): 2.0},
                 "2.0 at (0, 0, 0)")):
            with pytest.raises(ValueError, match=re.escape(named)):
                total(counts)


class TestCharacterFile:
    def test_parse_basic(self):
        text = "# a comment\n1 1 1 1\n-1 -1 -1 1\n\n"
        assert parse_character(text) == {(1, 1, 1): 1, (-1, -1, -1): 1}

    def test_duplicate_weight(self):
        with pytest.raises(CharacterFormatError, match="duplicate"):
            parse_character("0 0 0 1\n0 0 0 2\n")

    def test_nonpositive_dim(self):
        with pytest.raises(CharacterFormatError, match="positive"):
            parse_character("0 0 0 0\n")

    def test_wrong_field_count(self):
        with pytest.raises(CharacterFormatError):
            parse_character("0 0 0\n")

    def test_non_integer(self):
        with pytest.raises(CharacterFormatError):
            parse_character("0 0 x 1\n")

    @pytest.mark.parametrize("line", ["1_0 0 0 1", "0 0 0 1_0",
                                      "\u0661 1 1 1", "1\u00a01 1 1"])
    def test_only_ascii_decimal_digits(self, line):
        with pytest.raises(CharacterFormatError, match="^line 2: "):
            parse_character(f"# comment \u00e9\n{line}\n")

    def test_round_trip(self):
        # `symcube character m` writes the format parse_character reads
        for m in range(6):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["character", str(m)]) == 0
            assert parse_character(out.getvalue()) == \
                character_symmetric_power(m)
