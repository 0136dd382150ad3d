import gc
import os
import random
import re
import resource
import subprocess
import sys
import tracemalloc
from itertools import permutations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symcube import (
    c2,
    c2_bruteforce,
    character_symmetric_power,
    decompose_symmetric_power,
    dim_by_convolution,
    dim_closed_form,
    dim_weight,
    polynomial_case,
)
from symcube import dims
from symcube.oracle import enumerated_lines
from symcube.verify import VerificationError, check_dimensions

# One normalized index per closed-form branch, in the order of
# polynomial_case's docstring, at the largest powers sampled below.
BRANCH_EXAMPLES = [
    (2000, 1000, 900, 3),   # I
    (2000, 600, 600, 2),    # II.1
    (2000, 600, 600, 1),    # II.2
    (2000, 1000, 1000, 2),  # III.1
    (2000, 1000, 1000, 1),  # III.2
    (1999, 999, 999, 2),    # III.3
]

# dim_by_convolution makes (r + 1)(n + 1) c2 calls; bounding that keeps
# an example to a few milliseconds at any power.
CONVOLUTION_BUDGET = 20_000


@st.composite
def normalized_indices(draw):
    # each of k, r, n near its upper bound half the time, so that r + n
    # crosses the walls k and m - k of the three regimes while n stays small
    def up_to(top):
        return draw(st.integers(0, top) | st.integers(max(0, top - 30), top))

    m = draw(st.integers(0, 2000))
    k = up_to(m // 2)
    r = up_to(k)
    n = up_to(min(r, CONVOLUTION_BUDGET // (r + 1) - 1))
    return m, k, r, n


class TestC2:
    # values frozen from the brute-force count in oracle.c2_bruteforce
    @pytest.mark.parametrize("args,want", [
        ((5, 2, 3), 3),
        ((2, 1, 1), 2),
        ((4, 2, 2), 3),
        ((1, 1, 1), 1),
    ])
    def test_known_counts(self, args, want):
        r1, r2, r3 = args
        assert c2(*args) == want
        assert c2_bruteforce(r1)[r2][r3] == want

    def test_zero_second_row(self):
        # a21 = a22 = 0 forces the rest of the matrix
        for r1 in range(10):
            for r3 in range(r1 + 1):
                assert c2(r1, 0, r3) == 1

    def test_out_of_range(self):
        assert c2(3, 5, 0) == 0
        assert c2(3, 0, 5) == 0
        assert c2(0, 1, 1) == 0

    def test_rejects_non_int(self):
        for args in ((2.5, 1, 1), (True, True, 0), (1, 1, 1.0)):
            with pytest.raises(ValueError, match=re.escape(repr(args))):
                c2(*args)
        for r1 in (2.5, True):
            with pytest.raises(ValueError, match=re.escape(repr(r1))):
                c2_bruteforce(r1)

    def test_matches_bruteforce_everywhere(self):
        def bruteforce(counts, r2, r3):
            # the table holds 0 <= r2, r3 <= r1 and is empty for r1 < 0
            inside = 0 <= r2 < len(counts) and 0 <= r3 < len(counts)
            return counts[r2][r3] if inside else 0

        for r1 in range(-3, 26):
            counts = c2_bruteforce(r1)
            for r2 in range(-3, r1 + 3):
                for r3 in range(-3, r1 + 3):
                    assert c2(r1, r2, r3) == bruteforce(counts, r2, r3)

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_docstring_formula(self, data):
        r1 = data.draw(st.integers(0, 10**6))
        # each of r2, r3 anywhere, or within 5 of one of the walls 0 and r1
        margin = (st.integers(-5, r1 + 5) | st.integers(-5, 5)
                  | st.integers(r1 - 5, r1 + 5))
        r2, r3 = data.draw(margin), data.draw(margin)
        want = (min(r2, r3, r1 - r2, r1 - r3) + 1
                if 0 <= r2 <= r1 and 0 <= r3 <= r1 else 0)
        assert c2(r1, r2, r3) == want

    def test_bruteforce_counts_every_matrix_once(self):
        for r1 in range(41):
            counts = c2_bruteforce(r1)
            assert len(counts) == r1 + 1, r1
            # C(r1 + 3, 3) matrices have total r1, each adding one
            assert sum(map(sum, counts)) == comb(r1 + 3, 3), r1
            # transposing a matrix swaps its second-row and -column sums
            assert counts == [list(col) for col in zip(*counts)], r1

    def test_bruteforce_negative_total_is_empty(self):
        for r1 in (-1, -2, -40):
            assert c2_bruteforce(r1) == []


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
        for index, named in (((4.0, 1, 1, 1), "m must be an int, got 4.0"),
                             ((4, True, 1, 1), "k must be an int, got True"),
                             ((4, 1, 1, 0.0), "n must be an int, got 0.0")):
            with pytest.raises(ValueError, match=f"^index {named}$"):
                dim_by_convolution(*index)


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
        for index, named in (((True, 0, 0, 0), "m must be an int, got True"),
                             ((4.0, 1, 1, 1), "m must be an int, got 4.0"),
                             ((4, 1, 1.0, 1), "r must be an int, got 1.0")):
            with pytest.raises(ValueError, match=f"^index {named}$"):
                dim_closed_form(*index)
        with pytest.raises(ValueError, match="^index m must be an int, got"):
            polynomial_case(4.5, 1, 1, 1)

    def test_case_labels(self):
        assert polynomial_case(10, 4, 2, 1) == "I"
        assert polynomial_case(10, 3, 3, 2) == "II.1"
        assert polynomial_case(10, 3, 3, 1) == "II.2"
        assert polynomial_case(10, 4, 4, 4) == "III.1"
        assert polynomial_case(10, 4, 4, 3) == "III.2"
        assert polynomial_case(11, 4, 4, 4) == "III.3"

    def test_branch_examples_hit_every_case(self):
        assert [polynomial_case(*idx) for idx in BRANCH_EXAMPLES] == \
            ["I", "II.1", "II.2", "III.1", "III.2", "III.3"]

    @settings(max_examples=300, deadline=None)
    @given(normalized_indices())
    @example(BRANCH_EXAMPLES[0])
    @example(BRANCH_EXAMPLES[1])
    @example(BRANCH_EXAMPLES[2])
    @example(BRANCH_EXAMPLES[3])
    @example(BRANCH_EXAMPLES[4])
    @example(BRANCH_EXAMPLES[5])
    def test_agrees_with_convolution_up_to_m_2000(self, idx):
        assert dim_closed_form(*idx) == dim_by_convolution(*idx)

    def test_inexact_division_raises(self, monkeypatch):
        # _closed_form's // 48 checks nothing: past a wall, a wall term
        # that 48 does not divide reads as a floor, one too low, and
        # check_dimensions' residue proof names it before any index
        real = dims._wall
        want = dim_closed_form(10, 3, 3, 2)
        monkeypatch.setattr(dims, "_wall", lambda t: real(t) + 1)
        assert dim_closed_form(10, 3, 3, 2) == want - 1
        with pytest.raises(VerificationError,
                           match=r"^48 does not divide _wall\(0,\)$"):
            check_dimensions(0)

    def test_case_is_the_chamber_of_the_index(self):
        # polynomial_case's docstring table, read off r + n, k, m - k and
        # the parities: each regime holds its closed chamber, the wall
        # r + n = k going to I and the wall r + n = m - k to III
        wrong, indices = [], 0
        for m in range(61):
            for k in range(m // 2 + 1):
                for r in range(k + 1):
                    for n in range(r + 1):
                        parity = "2" if (r + n - k) % 2 else "1"
                        if r + n <= k:
                            want = "I"
                        elif r + n < m - k:
                            want = "II." + parity
                        else:
                            want = "III." + ("3" if m % 2 else parity)
                        if polynomial_case(m, k, r, n) != want:
                            wrong.append((m, k, r, n))
                        indices += 1
        assert indices == 87_296
        assert not wrong, (len(wrong), wrong[:5])

    def test_wall_term_vanishes_on_the_wall(self):
        # so moving a wall's gate onto it, or up to four past it, changes
        # no value: an index on a wall reads the same from either side
        assert [dims._wall(t) for t in range(5)] == [0] * 5

    # 48 C at an index is the chamber quartic less one wall term per wall
    # crossed: none in regime I, the wall at k in II, both in III
    @pytest.mark.parametrize("regime,walls", [("I", 0), ("II", 1),
                                              ("III", 2)])
    def test_label_is_the_branch_taken(self, monkeypatch, regime, walls):
        # at the indices of the label's regime the closed form subtracts
        # that many wall terms, and _wall + 1, which 48 does not divide,
        # moves the floor of // 48 there exactly when it subtracts any;
        # check_dimensions names it by its residue
        indices = [(m, k, r, n) for m in range(21) for k in range(m // 2 + 1)
                   for r in range(k + 1) for n in range(r + 1)
                   if polynomial_case(m, k, r, n).split(".")[0] == regime]
        assert len(indices) == {0: 1001, 1: 359, 2: 356}[walls]
        want = {index: dim_closed_form(*index) for index in indices}
        real = dims._wall
        calls = []

        def counted(t):
            calls.append(t)
            return real(t)

        monkeypatch.setattr(dims, "_wall", counted)
        for index in indices:
            calls.clear()
            dim_closed_form(*index)
            assert len(calls) == walls, index
        monkeypatch.setattr(dims, "_wall", lambda t: real(t) + 1)
        for index in indices:
            assert dim_closed_form(*index) == want[index] - (walls > 0), index
        with pytest.raises(VerificationError,
                           match=r"^48 does not divide _wall\(0,\)$"):
            check_dimensions(0)


class TestDominantDimensions:
    @pytest.mark.parametrize("m", list(range(31)) + [99, 100, 101])
    def test_matches_closed_form(self, m):
        # the lines with l1, l2 >= 0, cut to l3 >= 0: the dominant weights
        span = range(m // 2 + 1)
        assert [line[:len(span)]
                for l1, l2, line in dims.weight_dimensions(m)
                if l1 >= 0 and l2 >= 0] == [
            [dim_closed_form(m, *sorted((i, j, l), reverse=True))
             for l in span] for i in span for j in span]


    def test_evaluates_each_normalized_index_once(self, monkeypatch):
        # one closed-form value per normalized index, 23,426 at m = 100,
        # against the 132,651 values of the dominant cube
        calls = []
        closed_form = dims._closed_form

        def counted(*index):
            calls.append(index)
            return closed_form(*index)

        monkeypatch.setattr(dims, "_closed_form", counted)
        for _ in dims.weight_dimensions(100):
            pass
        assert len(calls) == len(set(calls)) == 23_426

    def test_a_power_above_the_cap_is_refused_at_once(self):
        # in a child whose address space is 256 MiB, as the row table of an
        # uncapped m = 10^6 would not fit there (and one of m = 2^64 not
        # even be indexable); the character's dict reads the same cap
        code = """import time
from symcube import character_symmetric_power
from symcube.dims import weight_dimensions
start = time.perf_counter()
for call in (lambda: next(weight_dimensions(10 ** 6)),
             lambda: next(weight_dimensions(2 ** 64)),
             lambda: character_symmetric_power(10 ** 12)):
    try:
        call()
    except ValueError as exc:
        print(exc)
print(time.perf_counter() - start < 1)
"""
        limit = 256 << 20
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=30, env={**os.environ, "PYTHONPATH": str(
                Path(dims.__file__).resolve().parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (limit, limit)))
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.splitlines() == [
            f"character cap exceeded: m={m} > cap=2000"
            for m in (10 ** 6, 2 ** 64, 10 ** 12)] + ["True"]


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
        for f in (lambda m: dim_weight(m, (1, 1, 1)),
                  lambda m: next(enumerated_lines(m)),
                  character_symmetric_power, decompose_symmetric_power):
            for m in (-1, 2.0, True):
                with pytest.raises(ValueError, match=f"got {m!r}"):
                    f(m)
        for w in ((0, 0), (0, 0, 0, 0), (2.0, 0, 0), (True, 1, 1), [0, 0, 0]):
            with pytest.raises(ValueError, match="three ints"):
                dim_weight(2, w)

    @pytest.mark.parametrize("m", [10**12, 10**12 + 1])
    def test_point_query_at_a_huge_power_reads_no_table(self, monkeypatch, m):
        # one normalized index per regime; the table would hold (m/2)^2 rows
        def refuse(*args):
            raise AssertionError("a point query read the table")

        monkeypatch.setattr(dims, "weight_dimensions", refuse)
        h = m // 2
        for (k, r, n), regime in (((h, 3, 2), "I"),
                                  ((h // 2, h // 2 - 1, 5), "II"),
                                  ((h, h - 1, h - 3), "III")):
            assert polynomial_case(m, k, r, n).split(".")[0] == regime
            want = dim_closed_form(m, k, r, n)
            assert dim_weight(m, (m - 2 * k, m - 2 * r, m - 2 * n)) == want
            assert dim_weight(m, (2 * n - m, m - 2 * k, 2 * r - m)) == want

    @pytest.mark.parametrize("m", [10**12, 10**12 + 1])
    def test_agrees_with_convolution_at_a_huge_power(self, m):
        # every normalized index with r <= 6 at the bottom and top dozen
        # planes k, regimes I and II: at most 49 c2 calls each.  verify's
        # eight-corner sums at this power cancel a constant offset of the
        # closed form; the convolution does not.
        h = m // 2
        checked, regimes = 0, set()
        for k in [*range(13), *range(h - 12, h + 1)]:
            for r in range(min(k, 6) + 1):
                for n in range(r + 1):
                    w = (m - 2 * k, m - 2 * r, m - 2 * n)
                    assert dim_weight(m, w) == dim_by_convolution(m, k, r, n)
                    regimes.add(polynomial_case(m, k, r, n).split(".")[0])
                    checked += 1
        assert (checked, regimes) == (616, {"I", "II"})

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
