import contextlib
import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from symcube import (
    CharacterFormatError,
    character_irrep,
    character_symmetric_power,
    greedy_decompose,
)
from symcube.characters import decompose_entries
from symcube.cli import main
from symcube.core import character_entries


class TestDimensions:
    def test_irrep_dimension(self):
        # dim V(n1) (x) V(n2) (x) V(n3) = (n1+1)(n2+1)(n3+1)
        for label, dim in (((0, 0, 0), 1), ((1, 1, 1), 8), ((2, 4, 0), 15)):
            assert sum(character_irrep(label).values()) == dim

    def test_irrep_dimension_rejects_negative(self):
        for label in ((-2, 0, 0), (1.5, 0, 0), (1, 1)):
            with pytest.raises(ValueError):
                character_irrep(label)


def parse_character_reference(text):
    """The line parser as it read before its loop was tightened, kept to
    pin that every text gives the same result or the same error."""
    entries = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "_" in line or not line.isascii():
            raise CharacterFormatError(
                f"line {lineno}: not an ASCII decimal integer in {raw!r}")
        fields = line.split()
        if len(fields) != 4:
            raise CharacterFormatError(
                f"line {lineno}: expected 'l1 l2 l3 dim', got {raw!r}"
            )
        try:
            l1, l2, l3, dim = (int(f) for f in fields)
        except ValueError:
            raise CharacterFormatError(
                f"line {lineno}: non-integer field in {raw!r}"
            ) from None
        if dim <= 0:
            raise CharacterFormatError(
                f"line {lineno}: dimension must be positive, got {dim}"
            )
        w = (l1, l2, l3)
        if w in entries:
            raise CharacterFormatError(f"line {lineno}: duplicate weight {w}")
        entries[w] = dim
    return entries


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def greedy(tmp_path, text):
    """(exit code, stdout, stderr) of `symcube greedy` on a file of text."""
    path = tmp_path / "in.char"
    path.write_text(text)
    return run(["greedy", str(path)])


def outcome(parse, text):
    try:
        return parse(text)
    except Exception as exc:  # the error's type and message are compared
        return type(exc), str(exc)


# small numbers, so that weights repeat and dimensions hit 0 and below
NUMBERS = st.builds("{}{}".format, st.sampled_from(["", "-", "+"]),
                    st.integers(0, 2))
# mostly integers, now and then an ASCII field int() refuses
FIELDS = st.sampled_from(["0", "1", "-1", "+1", "01", "-0", "2"] * 4
                         + ["x", "1.0", "--1"])
TOKENS = NUMBERS | st.sampled_from(
    ["#", "_", "1_0", "x", "\u00a0", "\u0661", "\uff12", "-\u0662", "007"])
SEPARATORS = st.sampled_from([" ", "  ", "\t", "\u00a0", "\u3000", ""])
ENDS = st.sampled_from(["", " ", "\t", "\u00a0"])


def joined(parts, seps):
    # each part followed by a separator; seps is at least as long as parts
    return "".join(p + s for p, s in zip(parts, seps))


# a line of four fields half the time, else any run of tokens
LINES = st.builds(
    lambda lead, body, tail: lead + body + tail,
    ENDS | st.just("  # "),
    st.builds(lambda weight, dim, seps: joined([*weight, dim], seps),
              st.lists(FIELDS, min_size=3, max_size=3),
              st.sampled_from(["1", "2", "+3", "01", "0", "-1"]),
              st.lists(st.sampled_from([" ", "\t", " \t "]), min_size=4))
    | st.builds(joined, st.lists(TOKENS, max_size=6),
                st.lists(SEPARATORS, min_size=6)),
    ENDS | st.just("\r"))
# repeating the first lines at the end repeats their weights
TEXTS = st.builds(lambda lines, again: "\n".join(lines + lines[:again]),
                  st.lists(LINES, max_size=8), st.integers(0, 2))


class TestCharacterFile:
    @given(TEXTS)
    @example("\u00a01 1 1 1\u00a0\n\n  # note\n-1 -1 +1 2\n")
    @example("1 1\u00a01 1\n")
    @example("1_0 0 0 1\n")
    @example("1_0 0 0\n0 0 0 0\n")
    @example("\n\n   #0 0 0 1\n0 0 0 1\n0 0 0 3\n")
    @example("\u0661 1 1 1\n")
    @example("+1 -0 0 -1\n")
    def test_same_result_as_the_reference_parser(self, text):
        # `symcube greedy` reads the entries of character_entries into
        # decompose_entries, which names a repeated weight: the first
        # format fault or repeat is named at its line, as the reference
        # names it, and a text with neither has the reference's entries
        assert outcome(lambda t: decompose_entries(character_entries(t)),
                       text) == \
            outcome(lambda t: greedy_decompose(parse_character_reference(t)),
                    text)
        reference = outcome(parse_character_reference, text)
        if isinstance(reference, dict):
            assert [(w, d) for _, w, d in character_entries(text)] == \
                list(reference.items())

    def test_parse_basic(self):
        text = "# a comment\n1 1 1 1\n-1 -1 -1 1\n\n"
        assert list(character_entries(text)) == [
            (2, (1, 1, 1), 1), (3, (-1, -1, -1), 1)]

    def test_duplicate_weight(self, tmp_path):
        assert greedy(tmp_path, "0 0 0 1\n0 0 0 2\n") == (
            2, "", "error: line 2: duplicate weight (0, 0, 0)\n")

    def test_nonpositive_dim(self):
        with pytest.raises(CharacterFormatError, match="positive"):
            list(character_entries("0 0 0 0\n"))

    def test_wrong_field_count(self):
        with pytest.raises(CharacterFormatError):
            list(character_entries("0 0 0\n"))

    def test_non_integer(self):
        with pytest.raises(CharacterFormatError):
            list(character_entries("0 0 x 1\n"))

    @pytest.mark.parametrize("line", ["1_0 0 0 1", "0 0 0 1_0",
                                      "\u0661 1 1 1", "1\u00a01 1 1"])
    def test_only_ascii_decimal_digits(self, line):
        with pytest.raises(CharacterFormatError, match="^line 2: "):
            list(character_entries(f"# comment \u00e9\n{line}\n"))

    @pytest.mark.parametrize("text,kind", [(None, "NoneType"),
                                           (b"0 0 0 1", "bytes"),
                                           (["0 0 0 1"], "list")])
    def test_text_that_is_not_a_str_rejected(self, text, kind):
        with pytest.raises(ValueError,
                           match=f"^text must be a str, got {kind}$"):
            next(character_entries(text))

    def test_round_trip(self, tmp_path):
        # `symcube character m` writes the format `symcube greedy` reads
        for m in range(6):
            code, out, _ = run(["character", str(m)])
            assert code == 0
            assert [(w, d) for _, w, d in character_entries(out)] == \
                list(character_symmetric_power(m).items())
            assert greedy(tmp_path, out) == run(["decompose", str(m)])
