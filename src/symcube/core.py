"""Shared objects for the weight combinatorics of sl2(C) + sl2(C) + sl2(C).

A weight is a plain integer triple (l1, l2, l3): the simultaneous
eigenvalues of the three Cartan generators H1, H2, H3.  An irreducible
module V(n1) (x) V(n2) (x) V(n3) is named by its highest weight
(n1, n2, n3), a triple of non-negative integers; its dimension is
(n1+1)(n2+1)(n3+1).

A character is a sparse dict from weight to weight-space dimension, a
decomposition is a sparse dict from irreducible label to multiplicity.
Both store strictly positive counts only, so dict equality is equality
of the objects described and "is zero" is plain emptiness.  A character
text is read as a stream of entries by character_entries; a repeated
weight is named by characters.decompose_entries, which reads them.

Counts are Python ints and therefore exact at any size.  Every function
here is pure and all values are immutable once built, so concurrent use
needs no locking.
"""

from collections.abc import Iterator

Weight = tuple[int, int, int]
IrrepLabel = tuple[int, int, int]
Character = dict[Weight, int]
Decomposition = dict[IrrepLabel, int]

# largest power of the character routes: character_lines' running plane
# peaks at about 40 MB RSS at m = 2000 (CPython 3.11 on Linux), and the 8e9
# weights of that character are more than anyone reads
CHARACTER_CAP = 2000


class CharacterFormatError(ValueError):
    """A character file violates the line format."""


class VerificationError(Exception):
    """Two routes to the same quantity disagree."""


def check_power(m: int) -> None:
    """Raise ValueError unless m is a non-negative int (bool excluded)."""
    if type(m) is not int or m < 0:
        raise ValueError(f"power must be a non-negative int, got {m!r}")


def check_cap(m: int, cap: int, name: str) -> None:
    """check_power(m), then ValueError if m > cap, the cap of route name."""
    check_power(m)
    if m > cap:
        raise ValueError(f"{name} cap exceeded: m={m} > cap={cap}")


def check_weight(w: Weight) -> None:
    """Raise ValueError unless w is a tuple of three ints (bool excluded)."""
    if not (type(w) is tuple and len(w) == 3
            and type(w[0]) is type(w[1]) is type(w[2]) is int):
        raise ValueError(f"a weight must be a tuple of three ints, got {w!r}")


def check_label(label: IrrepLabel) -> None:
    """Raise ValueError unless label is a weight with no negative component."""
    check_weight(label)
    if min(label) < 0:
        raise ValueError(f"highest weights must be non-negative, got {label}")


def character_entries(text: str) -> Iterator[tuple[int, Weight, int]]:
    """(lineno, weight, dim) of each entry of a character text, in order;
    CharacterFormatError at the first malformed line.

    One entry per line: four whitespace-separated ASCII decimal integers
    ``l1 l2 l3 dim`` (sign allowed, no ``_``) with dim > 0.  Lines starting
    with ``#`` are comments and blank lines are skipped; a non-str text is
    a ValueError.  Lines are split an 8 KiB slice at a time, cut after a
    "\\n", which ends a line under every break str.splitlines knows, so no
    list of all lines is held."""
    if not isinstance(text, str):
        raise ValueError(f"text must be a str, got {type(text).__name__}")
    lineno = start = 0
    while start < len(text):
        cut = text.find("\n", start + 8192) + 1 or len(text)
        for lineno, raw in enumerate(text[start:cut].splitlines(), lineno + 1):
            line = raw.strip()
            if not line or line[0] == "#":
                continue
            if "_" in line or not line.isascii():
                raise CharacterFormatError(
                    f"line {lineno}: not an ASCII decimal integer in {raw!r}")
            fields = line.split()
            if len(fields) != 4:
                raise CharacterFormatError(
                    f"line {lineno}: expected 'l1 l2 l3 dim', got {raw!r}")
            try:
                l1, l2, l3, dim = map(int, fields)
            except ValueError:
                raise CharacterFormatError(
                    f"line {lineno}: non-integer field in {raw!r}") from None
            if dim <= 0:
                raise CharacterFormatError(
                    f"line {lineno}: dimension must be positive, got {dim}")
            yield lineno, (l1, l2, l3), dim
        start = cut
