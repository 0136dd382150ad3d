import os
import re
import subprocess
import sys
from collections import Counter
from itertools import product
from math import comb
from pathlib import Path

import pytest

from symcube import c2_bruteforce, convolution_bruteforce
from symcube import characters, dims, multiplicity, oracle, verify
from symcube.oracle import ENUMERATION_CAP, enumerated_lines
from symcube.verify import (
    VerificationError,
    check_c2,
    check_characters,
    check_corner_sums,
    check_dimensions,
)


# the weight (1-2i, 1-2j, 1-2l) of x[i,j,l], at index 4i + 2j + l
FACTOR_WEIGHTS = list(product((1, -1), repeat=3))


def exponents_up_to(m, parts):
    """Every tuple of `parts` non-negative ints with sum <= m, once each."""
    if not parts:
        yield ()
        return
    for a in range(m + 1):
        for rest in exponents_up_to(m - a, parts - 1):
            yield (a, *rest)


def character_by_definition(m):
    """Tally the weight of every exponent tuple of degree m, the sum of its
    factors' weights: seven free exponents, the eighth what is left of m."""
    return Counter(
        tuple(sum(a * w[c] for a, w in zip((m - sum(e), *e), FACTOR_WEIGHTS))
              for c in range(3))
        for e in exponents_up_to(m, 7))


def lines_of(c, m):
    """The lines (l1, l2, counts) of the weight cube of S^m in the order of
    dims.weight_dimensions(m), counts[n] = c.get((l1, l2, m - 2n), 0)."""
    values = range(m, -m - 1, -2)
    return [(l1, l2, [c.get((l1, l2, l3), 0) for l3 in values])
            for l1 in values for l2 in values]


def convolution_by_full_loop(m, k, r, n):
    """The pair count with no bounds worked out: every entry of both blocks
    enumerated, the tuples with a000 < 0 or a100 < 0 skipped."""
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


class TestEnumerateCharacter:
    def test_degree_zero(self):
        assert list(enumerated_lines(0)) == [(0, 0, [1])]

    def test_degree_one(self):
        want = {(s1, s2, s3): 1 for s1 in (1, -1)
                for s2 in (1, -1) for s3 in (1, -1)}
        assert list(enumerated_lines(1)) == lines_of(want, 1)

    def test_degree_two_origin(self):
        lines = list(enumerated_lines(2))
        assert lines[4] == (0, 0, [2, 4, 2])
        assert sum(sum(counts) for _, _, counts in lines) == comb(9, 7)

    def test_cap(self):
        with pytest.raises(ValueError,
                           match=r"^oracle cap exceeded: m=21 > cap=20$"):
            next(enumerated_lines(21))

    @pytest.mark.parametrize("m", [True, 2.5, "2", -1])
    def test_malformed_power_rejected(self, m):
        # by name, before any plane is enumerated
        with pytest.raises(ValueError, match=r"power must be a non-negative"):
            next(enumerated_lines(m))

    @pytest.mark.parametrize("m", range(21))
    def test_totals(self, m):
        # one tally increment per monomial: the counts sum to C(m+7, 7),
        # over (m+1)^2 lines of m + 1 weights, every one of them occupied
        lines = list(enumerated_lines(m))
        assert sum(sum(counts) for _, _, counts in lines) == comb(m + 7, 7)
        assert len(lines) == (m + 1) ** 2
        assert all(len(counts) == m + 1 and min(counts) > 0
                   for _, _, counts in lines)

    @pytest.mark.parametrize("m", range(9))
    def test_matches_definition(self, m):
        assert list(enumerated_lines(m)) == \
            lines_of(character_by_definition(m), m)

    def test_independent_of_the_formulas(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle called a formula")

        for module, name in ((dims, "dim_closed_form"),
                             (dims, "weight_dimensions"),
                             (dims, "_closed_form"),
                             (characters, "character_symmetric_power")):
            monkeypatch.setattr(module, name, refuse)
        assert sum(sum(counts) for _, _, counts in enumerated_lines(10)) \
            == comb(17, 7)

    def test_detects_one_wrong_dimension_at_m_20(self, monkeypatch):
        lines = dims.weight_dimensions

        def off_by_one(m):
            for l1, l2, row in lines(m):
                if (m, l1, l2) == (20, 4, -2):
                    row[10] += 1  # the weight (4, -2, 0)
                yield l1, l2, row

        monkeypatch.setattr(dims, "weight_dimensions", off_by_one)
        with pytest.raises(VerificationError, match=r"at m = 20$"):
            check_characters(20)

    @pytest.mark.parametrize("mutant", [
        lambda lines: lines[:-1],
        lambda lines: lines + lines[-1:],
        lambda lines: [(l1, l2, row[:-1]) for l1, l2, row in lines],
        lambda lines: [(l1, l2, row + [1]) for l1, l2, row in lines],
        lambda lines: [(l1, -l2, row) for l1, l2, row in lines],
    ], ids=["line-missing", "line-extra", "row-short", "row-long",
            "l2-flipped"])
    def test_names_a_misshapen_closed_form_at_its_power(self, monkeypatch,
                                                        mutant):
        # the check streams the closed form line for line: a line too few
        # or too many, a row of another length, or a line under another
        # head, is named at its power, here m = 7
        lines = dims.weight_dimensions
        monkeypatch.setattr(dims, "weight_dimensions", lambda m: iter(
            mutant(list(lines(m))) if m == 7 else lines(m)))
        with pytest.raises(VerificationError, match=r"at m = 7$"):
            check_characters(9)

    def test_streams_each_route_once_per_power(self, monkeypatch):
        # the closed form, the enumeration and the count prefix sums, in
        # all of verify.CHECKS at ci depth
        calls = Counter()
        for module, name in ((dims, "weight_dimensions"),
                             (oracle, "enumerated_lines"),
                             (multiplicity, "character_lines")):
            def counted(m, lines=getattr(module, name), name=name):
                calls[name, m] += 1
                return lines(m)

            monkeypatch.setattr(module, name, counted)
        top = oracle.MODES["ci"]
        for check, bound, _ in verify.CHECKS:
            check(bound(top))
        assert calls == {(name, m): 1 for name in ("weight_dimensions",
                         "enumerated_lines", "character_lines")
                         for m in range(top + 1)}

    def test_check_holds_one_plane_at_a_time(self):
        # the two whole S^20 characters peaked at 2.16 MB traced, and the
        # two whole S^20 decompositions and the character dict at 1.94 MB.
        # A fresh child, because the peak depends on what the process ran
        # before: a second traced run in one process reads about 2/3 of
        # the first.
        code = """import tracemalloc
from symcube.verify import check_characters
check_characters(3)
tracemalloc.start()
check_characters(20)
print(tracemalloc.get_traced_memory()[1])
"""
        env = {**os.environ,
               "PYTHONPATH": str(Path(oracle.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (0, "")
        peak = int(proc.stdout)
        assert peak < 500_000, peak


@pytest.mark.parametrize("check", [check_c2, check_dimensions,
                                   check_corner_sums, check_characters])
@pytest.mark.parametrize("bound", [True, 3.0, -1, "2"])
def test_checks_reject_a_bound_that_is_not_a_non_negative_int(check, bound):
    with pytest.raises(ValueError, match=re.escape(f"int, got {bound!r}")):
        check(bound)


class TestCheckC2:
    def test_counts_every_triple(self):
        # (r1 + 1)^2 in range and two out of range for each r1
        assert check_c2(40) == sum((r1 + 1) ** 2 + 2 for r1 in range(41))

    @pytest.mark.parametrize("wrong", [(40, 17, 33), (0, 0, 0)])
    def test_names_the_one_wrong_triple(self, monkeypatch, wrong):
        count = dims.c2
        calls = Counter()

        def off_at_one_triple(r1, r2, r3):
            calls[r1, r2, r3] += 1
            return count(r1, r2, r3) + ((r1, r2, r3) == wrong)

        monkeypatch.setattr(dims, "c2", off_at_one_triple)
        with pytest.raises(VerificationError) as raised:
            check_c2(40)
        assert str(raised.value) == \
            f"c2 vs brute force at (r1, r2, r3) = {wrong}"
        # once per triple, up to the wrong one
        assert set(calls.values()) == {1}
        assert max(calls) == wrong


class TestBruteforceCounts:
    def test_c2_examples(self):
        assert c2_bruteforce(5)[2][3] == 3
        assert c2_bruteforce(1)[1][1] == 1
        for r1 in range(8):
            assert c2_bruteforce(r1)[0][0] == 1

    def test_convolution_examples(self):
        assert convolution_bruteforce(4, 2, 1, 0) == 2
        for m in range(8):
            assert convolution_bruteforce(m, 0, 0, 0) == 1

    def test_convolution_large_point(self):
        # the one large reference value, pinned by raw enumeration
        assert convolution_bruteforce(40, 18, 16, 16) == 6957


class TestConvolutionBruteforce:
    def test_matches_the_full_loop_at_small_indices(self):
        # normalized or not: either bound may be the one that binds
        for m in range(11):
            for k, r, n in product(range(m + 1), repeat=3):
                assert convolution_bruteforce(m, k, r, n) == \
                    convolution_by_full_loop(m, k, r, n), (m, k, r, n)

    def test_matches_the_full_loop_at_normalized_indices(self):
        for m in range(21):
            for k in range(m // 2 + 1):
                for r in range(k + 1):
                    for n in range(r + 1):
                        assert convolution_bruteforce(m, k, r, n) == \
                            convolution_by_full_loop(m, k, r, n), (m, k, r, n)

    def test_independent_of_the_formulas(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the oracle called a formula")

        for name in ("c2", "dim_by_convolution", "dim_closed_form"):
            monkeypatch.setattr(dims, name, refuse)
        assert convolution_bruteforce(40, 18, 16, 16) == 6957

    def test_rejects_non_int(self):
        for args in ((4.0, 1, 1, 1), (4, True, 1, 1), (4, 1, 1, 0.0)):
            with pytest.raises(ValueError, match=re.escape(repr(args))):
                convolution_bruteforce(*args)

    def test_negative_index_counts_the_empty_set(self):
        for args in ((-1, 0, 0, 0), (4, -1, 1, 1), (4, 1, -1, 1),
                     (4, 1, 1, -1), (-4, -2, -1, -1)):
            assert convolution_bruteforce(*args) == 0, args


class TestAgreement:
    def test_three_way_dimension_agreement(self):
        check_dimensions(20)

    def test_names_a_closed_form_fault_above_the_enumeration_cap(
            self, monkeypatch):
        # at (m, k, r, n) = (37, 9, 7, 5), the weight (27, -19, 23), only
        # the convolution is compared with the closed form
        assert 37 > ENUMERATION_CAP
        real = dims.dim_weight
        monkeypatch.setattr(dims, "dim_weight", lambda m, w: real(m, w) + (
            (m, w) == (37, (27, -19, 23))))
        assert check_dimensions(16) == 959
        with pytest.raises(VerificationError) as raised:
            check_dimensions(60)
        want = dims.dim_closed_form(37, 9, 7, 5)
        assert str(raised.value) == (
            f"dimensions diverge at (m, k, r, n) = (37, 9, 7, 5): "
            f"closed={want + 1} convolution={want}")
