import contextlib
import io

import pytest

from symcube import (
    CharacterFormatError,
    character_irrep,
    character_symmetric_power,
    parse_character,
)
from symcube.cli import main


class TestDimensions:
    def test_irrep_dimension(self):
        # dim V(n1) (x) V(n2) (x) V(n3) = (n1+1)(n2+1)(n3+1)
        for label, dim in (((0, 0, 0), 1), ((1, 1, 1), 8), ((2, 4, 0), 15)):
            assert sum(character_irrep(label).values()) == dim

    def test_irrep_dimension_rejects_negative(self):
        for label in ((-2, 0, 0), (1.5, 0, 0), (1, 1)):
            with pytest.raises(ValueError):
                character_irrep(label)


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
