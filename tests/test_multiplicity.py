import random
from collections import Counter
from itertools import permutations, product
from math import comb
from operator import sub

import pytest

from symcube import (
    character_irrep,
    character_symmetric_power,
    decompose_symmetric_power,
    multiplicity_sym,
)
from symcube import characters, dims, multiplicity, oracle, verify
from symcube.multiplicity import character_lines, decomposition_rows
from symcube.verify import VerificationError, check_characters


def cube_differences(m):
    """cube[i][j][l], the multiplicity of (m - 2i, m - 2j, m - 2l) in S^m:
    the backward differences along l, then j, then i of the dimensions
    at the dominant weights, with dimension 0 below co-index 0.  They take
    the alternating sum over the eight corners w + {0, 2}^3 at every label
    at once (Fulton and Harris, Representation Theory, section 11).  The
    dimensions are the lines of dims.weight_dimensions(m) with l1, l2 >= 0,
    cut to l3 >= 0: the closed form, not the count."""
    half = m // 2 + 1
    lines = [line[:half] for l1, l2, line in dims.weight_dimensions(m)
             if l1 >= 0 and l2 >= 0]
    cube = [lines[i * half:(i + 1) * half] for i in range(half)]
    zero = [0] * len(cube)
    out, below = [], [zero] * len(cube)  # the plane at co-index i - 1
    for plane in cube:
        d_l = [[row[0], *map(sub, row[1:], row)] for row in plane]
        d_lj = [list(map(sub, row, prev))
                for row, prev in zip(d_l, [zero, *d_l])]
        out.append([list(map(sub, row, prev))
                    for row, prev in zip(d_lj, below)])
        below = d_lj
    return out


class TestMultiplicitySym:
    def test_large_reference_value(self):
        assert multiplicity_sym(40, (4, 8, 8)) == 3

    def test_invariant_degrees(self):
        assert multiplicity_sym(4, (0, 0, 0)) == 1
        assert multiplicity_sym(6, (0, 0, 0)) == 0

    def test_first_power_is_itself(self):
        assert multiplicity_sym(1, (1, 1, 1)) == 1

    def test_square_top(self):
        assert multiplicity_sym(2, (2, 2, 2)) == 1

    def test_parity_short_circuit(self):
        assert multiplicity_sym(2, (1, 1, 1)) == 0
        assert multiplicity_sym(3, (2, 2, 2)) == 0

    def test_label_beyond_power(self):
        # 0 with no range test: a counted monomial has every ni <= m
        assert multiplicity_sym(2, (4, 0, 0)) == 0
        for m in range(31):
            for label in product(range(m % 2, m + 12, 2), repeat=3):
                if max(label) > m:
                    assert multiplicity_sym(m, label) == 0, (m, label)
        m, rng = 10 ** 12, random.Random(10 ** 12)
        for _ in range(1000):
            label = [rng.choice((m, 0)) + 2 * rng.randint(-100, 100)
                     for _ in "123"]
            label[rng.randrange(3)] = m + 2 * rng.randint(1, 100)
            label = tuple(map(abs, label))
            assert multiplicity_sym(m, label) == 0, label

    def test_negative_label_rejected(self):
        for m, label in ((4, (-2, 0, 0)), (4, (-2, -2, 0)), (8, (0, 0, -2)),
                         (4.0, (0, 0, 0)), (True, (1, 1, 1)), (-1, (1, 1, 1))):
            with pytest.raises(ValueError, match="non-negative"):
                multiplicity_sym(m, label)
        with pytest.raises(ValueError, match="three ints"):
            multiplicity_sym(4, (0, 0))

    def test_trivial_module_pattern(self):
        # the invariant ring of 2x2x2 arrays is generated by the degree-4
        # hyperdeterminant, so invariants appear exactly in degrees 4t
        for m in range(25):
            want = 1 if m % 4 == 0 else 0
            assert multiplicity_sym(m, (0, 0, 0)) == want, m

    def test_independent_of_the_dimensions(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the count read a weight dimension")

        for name in ("dim_weight", "dim_closed_form", "weight_dimensions",
                     "_closed_form", "_wall"):
            monkeypatch.setattr(dims, name, refuse)
        assert multiplicity_sym(40, (4, 8, 8)) == 3
        dec = decompose_symmetric_power(40)
        assert sum(x * (n1 + 1) * (n2 + 1) * (n3 + 1)
                   for (n1, n2, n3), x in dec.items()) == comb(47, 7)

    @pytest.mark.parametrize("m", [10**12, 10**12 + 1])
    def test_corner_sums_at_a_huge_power(self, m):
        # the count against the paper's own route, the alternating sum of
        # the weight dimensions at the eight corners t + {0, 2}^3 (Fulton
        # and Harris, section 11), by point queries at seeded labels whose
        # components lie near the parity floor, m/3, m/2 and m, where the
        # count's cases meet
        rng = random.Random(m)
        anchors = (m % 2, m // 3, m // 2, m)
        for _ in range(1000):
            near = [rng.choice(anchors) + rng.randint(-6, 6) for _ in "123"]
            label = tuple(abs(v + (v - m) % 2) for v in near)
            corners = sum(
                (-1) ** sum(e) * dims.dim_weight(
                    m, tuple(v + 2 * s for v, s in zip(label, e)))
                for e in product((0, 1), repeat=3))
            assert multiplicity_sym(m, label) == corners, label

    def test_permutation_equivariance(self):
        for m in range(21):
            for n1 in range(m % 2, m + 1, 2):
                for n2 in range(n1, m + 1, 2):
                    for n3 in range(n2, m + 1, 2):
                        base = multiplicity_sym(m, (n1, n2, n3))
                        for perm in permutations((n1, n2, n3)):
                            assert multiplicity_sym(m, perm) == base


class TestDecomposeSymmetricPower:
    def test_degree_zero(self):
        assert decompose_symmetric_power(0) == {(0, 0, 0): 1}

    def test_degree_one(self):
        assert decompose_symmetric_power(1) == {(1, 1, 1): 1}

    def test_degree_two(self):
        assert decompose_symmetric_power(2) == {
            (2, 2, 2): 1, (2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1
        }

    @pytest.mark.parametrize("m", range(21))
    def test_checksum(self, m):
        dec = decompose_symmetric_power(m)
        assert sum(x * (n1 + 1) * (n2 + 1) * (n3 + 1)
                   for (n1, n2, n3), x in dec.items()) == comb(m + 7, 7)

    @pytest.mark.parametrize("m", range(11))
    def test_reconstructs_character(self, m):
        total = Counter()
        for label, mult in decompose_symmetric_power(m).items():
            total.update(dict.fromkeys(character_irrep(label), mult))
        assert total == character_symmetric_power(m)

    def test_multiplicities_positive(self):
        for m in range(12):
            dec = decompose_symmetric_power(m)
            assert all(v > 0 for v in dec.values())
            # the CLI renders in insertion order, without sorting
            assert list(dec) == sorted(dec, reverse=True)

    def test_matches_point_queries(self):
        # the table-built decomposition against multiplicity_sym at every
        # candidate label, in the same descending lexicographic order
        for m in range(25):
            values = range(m, -1, -2)
            expected = [((n1, n2, n3), multiplicity_sym(m, (n1, n2, n3)))
                        for n1 in values for n2 in values for n3 in values]
            expected = [(label, x) for label, x in expected if x > 0]
            assert list(decompose_symmetric_power(m).items()) == expected, m

    @pytest.mark.parametrize("m", range(101))
    def test_matches_point_queries_at_benchmark_size(self, m):
        # the count of covariant monomials, which reads no dimension,
        # against the backward differences of the dimension cube at every
        # sorted label of every power up to the largest the benchmark
        # decomposes
        dec = decompose_symmetric_power(m)
        want = cube_differences(m)
        for i, n1 in enumerate(range(m, -1, -2)):
            for j, n2 in enumerate(range(n1, -1, -2), i):
                for l, n3 in enumerate(range(n2, -1, -2), j):
                    label = (n1, n2, n3)
                    assert dec.get(label, 0) == want[i][j][l], label


class TestDecompositionPlanes:
    @pytest.mark.parametrize("m", range(31))
    def test_dict_is_the_planes_in_order(self, m):
        # one count row (n1, n2, row) per n1 then n2 descending, row[i] the
        # multiplicity of (n1, n2, m - 2i), zeros kept
        rows = list(decomposition_rows(m))
        assert len(rows) == (m // 2 + 1) ** 2
        values = range(m, -1, -2)
        assert [(n1, n2) for n1, n2, _ in rows] == [
            (n1, n2) for n1 in values for n2 in values]
        assert all(len(row) == len(values) for _, _, row in rows)
        assert list(decompose_symmetric_power(m).items()) == [
            ((n1, n2, n3), x) for n1, n2, row in rows
            for n3, x in zip(values, row) if x]


class TestCheckGreedy:
    def test_count_matches_the_corner_sums_to_m_30(self):
        # the eight-corner sums of the closed-form character are the route
        # independent of the covariant count
        assert check_characters(30) == 31

    def test_detects_one_wrong_multiplicity_at_m_7(self, monkeypatch):
        # row[3] of count row (3, 3) at m = 7: the label (3, 3, 1)
        real_rows = multiplicity.decomposition_rows

        def off_by_one(m):
            for n1, n2, row in real_rows(m):
                if (m, n1, n2) == (7, 3, 3):
                    row = row[:3] + [row[3] + 1] + row[4:]
                yield n1, n2, row

        monkeypatch.setattr(multiplicity, "decomposition_rows", off_by_one)
        with pytest.raises(VerificationError, match=r"at m = 7$"):
            check_characters(10)

    def test_names_planes_with_their_rows_reversed(self, monkeypatch):
        # the rows `symcube decompose` prints, compared in order: the same
        # count rows in another order, each plane's in ascending n2, are
        # named, here first at m = 2, whose plane n1 = 2 is the first to
        # hold two rows
        real_rows = multiplicity.decomposition_rows
        monkeypatch.setattr(multiplicity, "decomposition_rows",
                            lambda m: sorted(real_rows(m), key=lambda line: (
                                -line[0], line[1])))
        with pytest.raises(VerificationError, match=r"at m = 2$"):
            check_characters(10)

    def test_reads_only_the_streamed_routes(self, monkeypatch):
        # every check at ci depth, with the dict builders refused
        def refuse(*args):
            raise AssertionError("a check built a whole dict")

        monkeypatch.setattr(characters, "character_symmetric_power", refuse)
        monkeypatch.setattr(characters, "greedy_decompose", refuse)
        monkeypatch.setattr(multiplicity, "decompose_symmetric_power", refuse)
        assert [check(bound(12)) for check, bound, _ in verify.CHECKS] == [
            sum((r1 + 1) ** 2 + 2 for r1 in range(41)), 959, 543, 13]


class TestCharacterLines:
    @pytest.mark.parametrize("m", [*range(61), 99, 100, 101])
    def test_lines_are_the_closed_form_lines(self, m):
        assert list(character_lines(m)) == list(dims.weight_dimensions(m))

    @pytest.mark.parametrize("m", range(61))
    def test_count_rows_are_the_count_at_every_label(self, m):
        # the row form against the one scalar statement of the count
        half = m // 2
        for a in range(half + 1):
            rows = list(multiplicity._count_plane(m, a))
            assert len(rows) == half + 1, a
            for b, row in enumerate(rows):
                assert row == [multiplicity_sym(m, (m - 2 * a, m - 2 * b,
                                                    m - 2 * c))
                               for c in range(half + 1)], (a, b)

    def test_reads_no_weight_dimension(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the lines read a weight dimension")

        for name in ("dim_weight", "dim_closed_form", "weight_dimensions",
                     "_closed_form", "_wall"):
            monkeypatch.setattr(dims, name, refuse)
        lines = list(character_lines(21))
        assert len(lines) == 22 ** 2
        assert sum(sum(line) for _, _, line in lines) == comb(28, 7)

    @pytest.mark.parametrize("m", [-1, 2.0, True, "3"])
    def test_malformed_power_rejected(self, m):
        with pytest.raises(ValueError):
            next(character_lines(m))


class TestCheckCharacterLines:
    def test_counts_the_powers(self):
        assert check_characters(20) == 21

    def test_detects_one_wrong_count_at_m_7(self, monkeypatch):
        plane = multiplicity._count_plane

        def off_by_one(m, a):
            rows = list(plane(m, a))
            if (m, a) == (7, 1):
                rows[2][3] += 1
            return rows

        monkeypatch.setattr(multiplicity, "_count_plane", off_by_one)
        with pytest.raises(VerificationError) as raised:
            check_characters(10)
        assert str(raised.value) == "count prefix sums differ at m = 7"

    def test_detects_one_wrong_count_above_the_oracle_cap(self, monkeypatch):
        # above ENUMERATION_CAP the closed form meets the count alone
        plane, enumerated = multiplicity._count_plane, oracle.enumerated_lines

        def off_by_one(m, a):
            rows = list(plane(m, a))
            if (m, a) == (25, 1):
                rows[2][3] += 1
            return rows

        def capped(m):
            assert m <= oracle.ENUMERATION_CAP, f"enumerated S^{m}"
            return enumerated(m)

        monkeypatch.setattr(multiplicity, "_count_plane", off_by_one)
        monkeypatch.setattr(oracle, "enumerated_lines", capped)
        with pytest.raises(VerificationError) as raised:
            check_characters(25)
        assert str(raised.value) == "count prefix sums differ at m = 25"
