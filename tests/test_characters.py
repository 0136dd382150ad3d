import contextlib
import io
import re
import time
import tracemalloc
from ast import literal_eval
from collections import Counter
from itertools import product
from math import comb
from operator import add

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from symcube import (
    NotAModuleCharacterError,
    character_irrep,
    character_symmetric_power,
    dim_weight,
    greedy_decompose,
)
from symcube.cli import main
from test_core import parse_character_reference

labels = st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 6))
decompositions = st.dictionaries(labels, st.integers(1, 3), min_size=1, max_size=4)


def character_of_decomposition(dec):
    total = Counter()
    for label, mult in dec.items():
        total.update(dict.fromkeys(character_irrep(label), mult))
    return dict(total)


@st.composite
def altered_characters(draw):
    """A module character with one weight moved by -1 or +1, or deleted."""
    c = character_of_decomposition(draw(decompositions))
    w = draw(st.sampled_from(sorted(c)))
    c[w] += draw(st.sampled_from((-1, 1, -c[w])))
    return {k: d for k, d in c.items() if d}


peel_inputs = st.one_of(
    decompositions.map(character_of_decomposition),
    altered_characters(),
    st.dictionaries(st.tuples(*[st.integers(-4, 4)] * 3), st.integers(1, 3)),
)


def peel(c):
    """The greedy sweep, the reference greedy_decompose must agree with:
    a weight that dominates w is lexicographically greater, so the
    remainder at each weight reached in descending order is the
    multiplicity of the irreducible with that highest weight."""
    remainder = dict(c)
    found = {}
    for top in sorted(c, reverse=True):
        x = remainder[top]
        if not x:
            continue
        if min(top) < 0:
            raise NotAModuleCharacterError(
                f"not a module character: maximal weight {top} "
                f"has a negative component"
            )
        for w in product(*(range(n, -n - 1, -2) for n in top)):
            have = remainder.get(w, 0)
            if have < x:
                raise NotAModuleCharacterError(
                    f"not a module character: the irreducible with highest "
                    f"weight {top} has multiplicity {x}, but weight {w} has "
                    f"only {have} left"
                )
            remainder[w] = have - x
        found[top] = x
    return found


def corner_sum(c, t):
    """The alternating sum of c over the eight corners t + {0, 2}^3."""
    return sum((-1) ** (len(s) - s.count(0)) * c.get(tuple(map(add, t, s)), 0)
               for s in product((0, 2), repeat=3))


def sign_images(w):
    """Every weight that equals w up to the signs of its components."""
    return set(product(*((n, -n) for n in w)))


def sl2_factor(n, slot):
    """Weights of V(n), top down with their dimensions, read off slot
    `slot` of character_irrep with V(0) in the other two slots."""
    label = [0, 0, 0]
    label[slot] = n
    out = []
    for w, d in sorted(character_irrep(tuple(label)).items(), reverse=True):
        assert w[:slot] + w[slot + 1:] == (0, 0)
        out.append((w[slot], d))
    return out


class TestSl2Character:
    def test_trivial(self):
        for slot in range(3):
            assert sl2_factor(0, slot) == [(0, 1)]

    def test_defining(self):
        for slot in range(3):
            assert sl2_factor(1, slot) == [(1, 1), (-1, 1)]

    def test_adjoint(self):
        for slot in range(3):
            assert sl2_factor(2, slot) == [(2, 1), (0, 1), (-2, 1)]

    def test_rejects_negative(self):
        for slot in range(3):
            with pytest.raises(ValueError):
                sl2_factor(-1, slot)
        with pytest.raises(ValueError, match="three ints"):
            character_irrep((1, 1))


class TestIrrepCharacter:
    def test_trivial(self):
        assert character_irrep((0, 0, 0)) == {(0, 0, 0): 1}

    def test_cube_of_defining(self):
        c = character_irrep((1, 1, 1))
        assert len(c) == 8
        assert all(d == 1 for d in c.values())
        assert set(c) == {(s1, s2, s3) for s1 in (1, -1)
                          for s2 in (1, -1) for s3 in (1, -1)}

    def test_one_nontrivial_factor(self):
        assert character_irrep((2, 0, 0)) == {
            (2, 0, 0): 1, (0, 0, 0): 1, (-2, 0, 0): 1
        }

    @given(st.tuples(st.integers(0, 10), st.integers(0, 10), st.integers(0, 10)))
    def test_total_is_product_of_factor_dims(self, label):
        c = character_irrep(label)
        n1, n2, n3 = label
        assert sum(c.values()) == (n1 + 1) * (n2 + 1) * (n3 + 1)
        assert all(d == 1 for d in c.values())

    @given(labels)
    def test_support_below_top_weight(self, label):
        # every weight is below the label by non-negative even amounts
        for w in character_irrep(label):
            assert all(n - x >= 0 and (n - x) % 2 == 0
                       for x, n in zip(w, label)), (w, label)


class TestSymmetricPowerCharacter:
    def test_degree_zero(self):
        assert character_symmetric_power(0) == {(0, 0, 0): 1}

    def test_degree_one(self):
        assert character_symmetric_power(1) == character_irrep((1, 1, 1))

    def test_degree_two(self):
        c = character_symmetric_power(2)
        assert sum(c.values()) == comb(9, 7) == 36
        assert c[(0, 0, 0)] == 4

    @pytest.mark.parametrize("m", list(range(11)) + [25])
    def test_totals(self, m):
        assert sum(character_symmetric_power(m).values()) == comb(m + 7, 7)

    def test_matches_point_queries(self):
        # the table-built character against dim_weight, in the same
        # descending lexicographic order, at every weight of the power
        for m in range(25):
            values = range(m, -m - 1, -2)
            expected = [((l1, l2, l3), dim_weight(m, (l1, l2, l3)))
                        for l1 in values for l2 in values for l3 in values]
            assert list(character_symmetric_power(m).items()) == expected, m


class TestGreedyDecompose:
    @given(st.tuples(*[st.integers(-15, 15)] * 3),
           st.tuples(*[st.integers(0, 6)] * 3),
           st.tuples(*[st.integers(0, 6)] * 3))
    def test_dominating_weights_are_lexicographically_greater(self, w, step1,
                                                              step2):
        # the reference peel's sweep order relies on it: a weight that
        # exceeds w by non-negative even amounts comes before w in
        # descending order
        mid = tuple(a + 2 * s for a, s in zip(w, step1))
        top = tuple(a + 2 * s for a, s in zip(mid, step2))
        assert w <= mid <= top

    def test_single_irrep(self):
        assert greedy_decompose(character_irrep((1, 1, 1))) == {(1, 1, 1): 1}

    def test_square(self):
        dec = greedy_decompose(character_symmetric_power(2))
        assert dec == {(2, 2, 2): 1, (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1}

    def test_fourth_power_contains_invariant(self):
        # Cayley's hyperdeterminant: the degree-4 invariant of 2x2x2 arrays
        dec = greedy_decompose(character_symmetric_power(4))
        assert dec[(0, 0, 0)] == 1

    def test_negative_maximal_weight_rejected(self):
        with pytest.raises(NotAModuleCharacterError):
            greedy_decompose({(-2, 0, 0): 1})

    def test_subtraction_underflow_rejected(self):
        # V(2) (x) V(0) (x) V(0) is all the top weight (2,0,0) allows, and
        # it needs weight (0,0,0), which is missing: the corner sum there
        # is 0 - 1 = -1
        with pytest.raises(NotAModuleCharacterError, match=r"\(0, 0, 0\)"):
            greedy_decompose({(2, 0, 0): 1, (-2, 0, 0): 1})
        # two copies of V(2) (x) V(0) (x) V(0) need (0,0,0) twice: 1 - 2
        with pytest.raises(NotAModuleCharacterError, match=r"\(0, 0, 0\)"):
            greedy_decompose({(2, 0, 0): 2, (0, 0, 0): 1, (-2, 0, 0): 2})

    def test_short_weight_rejected_without_building_the_irreducible(self):
        # (60, 60, -60) is the largest sign image of (60, 60, 60) that the
        # input lacks; building the 226,981 weights of
        # V(60) (x) V(60) (x) V(60) first takes tens of MB
        tracemalloc.start()
        try:
            with pytest.raises(NotAModuleCharacterError,
                               match=r"weight \(60, 60, -60\) has dimension 0, "
                                     r"but \(60, 60, 60\)"):
                greedy_decompose({(0, 0, 0): 1, (60, 60, 60): 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak

    @pytest.mark.parametrize("c,message", [
        ({(-2, 0, 0): 1}, "weight (-2, 0, 0) has dimension 1, but (2, 0, 0), "
         "the same weight up to signs, has 0"),
        ({(2, 0, 0): 1, (-2, 0, 0): 1}, "the irreducible with highest weight "
         "(0, 0, 0) would have multiplicity -1, the alternating sum over the "
         "eight corners (0, 0, 0) + {0, 2}^3"),
        ({(0, 0, 1): 1}, "weight (0, 0, -1) has dimension 0, but (0, 0, 1), "
         "the same weight up to signs, has 1"),
    ])
    def test_fault_message(self, c, message):
        with pytest.raises(NotAModuleCharacterError) as info:
            greedy_decompose(c)
        assert str(info.value) == "not a module character: " + message

    def test_corrupted_large_power_rejected_fast(self):
        # naming the fault costs one pass over the input, as acceptance does
        c = character_symmetric_power(40)
        c[(2, 0, -4)] += 1
        start = time.perf_counter()
        with pytest.raises(NotAModuleCharacterError,
                           match=r"weight \(2, 0, -4\) has dimension 9261, "
                                 r"but \(2, 0, 4\)"):
            greedy_decompose(c)
        assert time.perf_counter() - start < 2

    def test_non_positive_entry_rejected(self):
        for c in ({(1, 1, 1): 0},
                  {(0, 0, 0): 1, (2, 0, 0): -1},
                  {**character_irrep((1, 1, 1)), (-1, -1, -1): 0},
                  {(0, 0, 0): 1.5}, {(0, 0, 0): True}):
            with pytest.raises(NotAModuleCharacterError, match="non-positive"):
                greedy_decompose(c)

    @pytest.mark.parametrize("key", [(0, 0, 0, 0), (0, 0), (True, 0, 0),
                                     (0.0, 0, 0)])
    def test_key_that_is_not_a_weight_rejected(self, key):
        with pytest.raises(ValueError, match=re.escape(
                f"a weight must be a tuple of three ints, got {key!r}")):
            greedy_decompose({key: 1})

    @pytest.mark.parametrize("c,kind", [([], "list"), (None, "NoneType"),
                                        ("0 0 0 1", "str"),
                                        ((((0, 0, 0), 1),), "tuple")])
    def test_character_that_is_not_a_dict_rejected(self, c, kind):
        with pytest.raises(ValueError, match=re.escape(
                f"a character must be a dict, got {kind}")):
            greedy_decompose(c)
        # a Counter is a dict
        assert greedy_decompose(Counter({(0, 0, 0): 1})) == {(0, 0, 0): 1}

    @settings(max_examples=60)
    @given(decompositions)
    def test_round_trip(self, dec):
        found = greedy_decompose(character_of_decomposition(dec))
        assert found == dec
        # the CLI renders in insertion order, without sorting
        assert list(found) == sorted(found, reverse=True)

    @settings(max_examples=300)
    @given(peel_inputs)
    # complete sign orbits with unequal values: (1, 0, 0) is peeled twice
    @example({(1, 0, 0): 2, (-1, 0, 0): 1, (0, 1, 0): 1, (0, -1, 0): 2})
    # every corner sum on the support is >= 0, but x = -1 at (0, 0, 0)
    @example({(2, 0, 0): 1, (-2, 0, 0): 1})
    def test_corner_sums_agree_with_the_peel(self, c):
        # the corner sums accept exactly the inputs the peel decomposes,
        # and return the peel's dict in the peel's order
        try:
            peeled = peel(c)
        except NotAModuleCharacterError:
            with pytest.raises(NotAModuleCharacterError):
                greedy_decompose(c)
        else:
            found = greedy_decompose(c)
            assert found == peeled
            assert list(found) == list(peeled)

    @settings(max_examples=300)
    @given(peel_inputs)
    # the sign orbit of (2, 2, 0) alone: corner sums -1 at (2, 0, 0) and
    # at (0, 2, 0)
    @example({(2, 2, 0): 1, (2, -2, 0): 1, (-2, 2, 0): 1, (-2, -2, 0): 1})
    def test_named_fault_is_real_and_largest(self, c):
        # every weight with a fault is a sign image of a weight of c, and
        # every t with a non-zero corner sum is dominant and has a weight
        # of c among its corners, so it lies in w - {0, 2}^3 for a
        # dominant weight w of c
        images = set().union(*map(sign_images, c))
        asymmetric = [w for w in images
                      if c.get(w, 0) != c.get(tuple(map(abs, w)), 0)]
        tops = {t for w in c if min(w) >= 0
                for t in product(*((n, n - 2) for n in w)) if min(t) >= 0}
        negative = [t for t in tops if corner_sum(c, t) < 0]
        try:
            greedy_decompose(c)
        except NotAModuleCharacterError as exc:
            message = str(exc)
        else:
            assert not asymmetric and not negative
            return
        found = re.search(r"weight (\(.*?\)) (has dimension|would have)",
                          message)
        w = literal_eval(found[1])
        if found[2] == "has dimension":
            v = tuple(map(abs, w))
            assert message == (
                f"not a module character: weight {w} has dimension "
                f"{c.get(w, 0)}, but {v}, the same weight up to signs, has "
                f"{c.get(v, 0)}")
            assert w == max(asymmetric)
        else:
            assert not asymmetric
            assert message == (
                f"not a module character: the irreducible with highest "
                f"weight {w} would have multiplicity {corner_sum(c, w)}, the "
                f"alternating sum over the eight corners {w} + {{0, 2}}^3")
            assert w == max(negative)


def greedy_file(tmp_path, data):
    """(exit code, stdout, stderr) of `symcube greedy` on a file holding
    the bytes data."""
    path = tmp_path / "in.char"
    path.write_bytes(data)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["greedy", str(path)])
    return code, out.getvalue(), err.getvalue()


def by_whole_parse(data):
    """greedy_file's result as a whole read and a whole-text parse give it:
    the bytes decoded at once, split by text.splitlines() and rejoined
    with "\\n" alone, then greedy_decompose of
    parse_character_reference(text)."""
    try:
        text = "".join(line + "\n" for line in data.decode().splitlines())
        dec = greedy_decompose(parse_character_reference(text))
    except ValueError as exc:
        return 2, "", f"error: {exc}\n"
    rows = "".join(f"{a} {b} {c} {x}\n" for (a, b, c), x in dec.items())
    total = sum(x * (a + 1) * (b + 1) * (c + 1)
                for (a, b, c), x in dec.items())
    return 0, rows + f"total_dim = {total}\n", ""


def character_text(c):
    return "".join(f"{a} {b} {e} {d}\n" for (a, b, e), d in c.items())


# every line break of str.splitlines but "\n", and CR, CRLF; the CLI reads
# with universal newlines, which turn CR and CRLF into "\n"
LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
               "\u2029", "\r", "\r\n"]


class TestGreedyFile:
    """`symcube greedy FILE` reads the file in one pass that keeps state
    per sign orbit; its stdout, stderr and exit code are those of a whole
    read followed by greedy_decompose of
    parse_character_reference(text)."""

    @pytest.mark.parametrize("brk", LINE_BREAKS,
                             ids=[f"U+{ord(b[0]):04X}" + "+LF" * (len(b) > 1)
                                  for b in LINE_BREAKS])
    @pytest.mark.parametrize("tail", [
        "", "0 0 0 1\n", "# end\n0 0 x 1\n", "1 2 3\n", "10 -10 10 1\n"],
        ids=["module", "duplicate", "non-integer", "three-fields", "asymmetric"])
    def test_line_breaks_beyond_newline(self, tmp_path, brk, tail):
        # S^10 is 1,331 lines of about 17 KiB, read in more than one slice;
        # every other line ends in brk, and the tail's faults name a line
        # past the slices
        lines = character_text(character_symmetric_power(10)).splitlines()
        text = "".join(line + (brk if i % 2 else "\n")
                       for i, line in enumerate(lines)) + tail
        data = text.encode()
        assert greedy_file(tmp_path, data) == by_whole_parse(data)

    def test_a_break_beyond_newline_splits_a_line(self, tmp_path):
        assert greedy_file(tmp_path, "1 1 1 1\u20282 2 2 1".encode()) == (
            2, "", "error: not a module character: weight (2, 2, -2) has "
            "dimension 0, but (2, 2, 2), the same weight up to signs, has "
            "1\n")
        assert greedy_file(tmp_path, b"0 0 0 1\x1c# c\x0b0 0 0 1") == (
            2, "", "error: line 3: duplicate weight (0, 0, 0)\n")

    def test_undecodable_byte_after_a_malformed_line(self, tmp_path):
        # the whole file is decoded before any line is read, so the decode
        # error, which names the absolute byte position, comes first
        head = ("0 0 x 1\n" + character_text(
            character_symmetric_power(10))).encode()
        assert len(head) > 8192
        data = head + b"\xff\n"
        code, out, err = greedy_file(tmp_path, data)
        assert (code, out, err) == by_whole_parse(data)
        assert err == (f"error: 'utf-8' codec can't decode byte 0xff in "
                       f"position {len(head)}: invalid start byte\n")

    @settings(max_examples=150, suppress_health_check=[
        HealthCheck.function_scoped_fixture])
    @given(peel_inputs, st.randoms(use_true_random=False), st.booleans())
    def test_shuffled_files_read_as_the_whole_parse(self, tmp_path, c, rng,
                                                    repeated):
        lines = character_text(c).splitlines(keepends=True)
        if repeated and lines:
            lines.append(rng.choice(lines))
        rng.shuffle(lines)
        data = "".join(lines).encode()
        assert greedy_file(tmp_path, data) == by_whole_parse(data)
