"""Exact weight-space dimensions of symmetric powers of C2 (x) C2 (x) C2.

Write C(m; k, r, n) for the dimension of the weight space of the m-th
symmetric power at weight (m-2k, m-2r, m-2n).  It counts exponent tuples
of degree-m monomials in the eight basis vectors x[i,j,l] whose factors
use i = 1 exactly k times, j = 1 exactly r times and l = 1 exactly n
times.  Permuting (k, r, n) or replacing a weight component by its
absolute value does not change the dimension, so everything below works
in the normalized position

    m/2 >= k >= r >= n >= 0,

which normalized_index produces from an arbitrary weight: 23,426
indices at m = 100, against (m+1)^3 = 1,030,301 weights.  A power's
tables read one cube, dominant_dimensions(m), the dimensions at the
dominant weights, indexed by the co-indices (m - l) / 2 of the three
components: the character mirrors each line of it to the negative
components, and the decomposition takes its backward differences.

Two independent computations are provided:

* dim_by_convolution splits the eight exponents into the i = 0 and i = 1
  halves and sums products of 2x2 contingency-matrix counts (c2);
* dim_closed_form evaluates one of six quartic polynomials in
  (m, k, r, n), selected by the size of r + n relative to k and m - k
  and by parities.

The polynomial coefficients are rationals whose denominators divide 48.
Each evaluator therefore computes the polynomial scaled by 48 in integer
arithmetic and divides once at the end; an inexact division can only
mean the coefficient tables are mistranscribed, never bad input, and
raises immediately.
"""

from collections.abc import Iterator

from .core import Weight, check_power, check_weight


def c2(r1: int, r2: int, r3: int) -> int:
    """Number of 2x2 non-negative integer matrices with total r1,
    second-row sum r2 and second-column sum r3.

    Zero whenever r2 > r1 or r3 > r1; otherwise
    min(r2, r3, r1 - r2, r1 - r3) + 1.
    """
    if r2 > r1 or r3 > r1:
        return 0
    return min(r2, r3, r1 - r2, r1 - r3) + 1


def _check_normalized(m: int, k: int, r: int, n: int) -> None:
    if not (0 <= n <= r <= k and 2 * k <= m):
        raise ValueError(
            f"index not normalized: need m/2 >= k >= r >= n >= 0, "
            f"got m={m}, k={k}, r={r}, n={n}"
        )


def dim_by_convolution(m: int, k: int, r: int, n: int) -> int:
    """C(m; k, r, n) as a convolution of 2x2 matrix counts.

    The i = 0 exponents form a 2x2 matrix with total m - k, second-row
    sum a and second-column sum b; the i = 1 exponents one with total k,
    second-row sum r - a and second-column sum n - b.  Summing the counts
    over all splits (a, b) counts every admissible exponent tuple once.
    """
    _check_normalized(m, k, r, n)
    total = 0
    mk = m - k
    for a in range(r + 1):
        for b in range(n + 1):
            left = c2(mk, a, b)
            if left:
                total += left * c2(k, r - a, n - b)
    return total


# Closed-form evaluators.  Each returns the applicable quartic polynomial
# multiplied by 48; _poly_mid/_poly_high omit the constant term, which is
# the only coefficient that differs between the parity variants.


def _poly_low_x48(k: int, r: int, n: int) -> int:
    # regime r + n <= k (constant term included: 48 = 48 * 1)
    return (
        48 + 64 * n + 4 * n**2 - 16 * n**3 - 4 * n**4
        + 48 * r + 88 * n * r + 48 * n**2 * r + 8 * n**3 * r
    )


def _poly_mid_x48(k: int, r: int, n: int) -> int:
    # regime k < r + n < m - k, shared terms
    return (
        16 * k - 20 * k**2 + 8 * k**3 - k**4
        + 48 * n + 40 * k * n - 24 * k**2 * n + 4 * k**3 * n
        - 16 * n**2 + 24 * k * n**2 - 6 * k**2 * n**2
        - 24 * n**3 + 4 * k * n**3 - 5 * n**4
        + 32 * r + 40 * k * r - 24 * k**2 * r + 4 * k**3 * r
        + 48 * n * r + 48 * k * n * r - 12 * k**2 * n * r
        + 24 * n**2 * r + 12 * k * n**2 * r + 4 * n**3 * r
        - 20 * r**2 + 24 * k * r**2 - 6 * k**2 * r**2
        - 24 * n * r**2 + 12 * k * n * r**2 - 6 * n**2 * r**2
        - 8 * r**3 + 4 * k * r**3 - 4 * n * r**3 - r**4
    )


def _poly_high_x48(m: int, k: int, r: int, n: int) -> int:
    # regime r + n >= m - k, shared terms
    return (
        -40 * k**2 - 2 * k**4
        + 16 * m + 40 * k * m + 24 * k**2 * m + 4 * k**3 * m
        - 20 * m**2 - 24 * k * m**2 - 6 * k**2 * m**2
        + 8 * m**3 + 4 * k * m**3 - m**4
        + 32 * n - 48 * k**2 * n + 40 * m * n + 48 * k * m * n
        + 12 * k**2 * m * n - 24 * m**2 * n - 12 * k * m**2 * n + 4 * m**3 * n
        - 36 * n**2 - 12 * k**2 * n**2 + 24 * m * n**2 + 12 * k * m * n**2
        - 6 * m**2 * n**2
        - 32 * n**3 + 4 * m * n**3 - 6 * n**4
        + 16 * r - 48 * k**2 * r + 40 * m * r + 48 * k * m * r
        + 12 * k**2 * m * r - 24 * m**2 * r - 12 * k * m**2 * r + 4 * m**3 * r
        + 8 * n * r - 24 * k**2 * n * r + 48 * m * n * r + 24 * k * m * n * r
        - 12 * m**2 * n * r + 12 * m * n**2 * r
        - 40 * r**2 - 12 * k**2 * r**2 + 24 * m * r**2 + 12 * k * m * r**2
        - 6 * m**2 * r**2
        - 48 * n * r**2 + 12 * m * n * r**2 - 12 * n**2 * r**2
        - 16 * r**3 + 4 * m * r**3 - 8 * n * r**3 - 2 * r**4
    )


def polynomial_case(m: int, k: int, r: int, n: int) -> str:
    """Label of the closed-form branch that applies to a normalized index.

    'I'     : r + n <= k
    'II.1'  : k < r + n < m - k and r + n - k even
    'II.2'  : k < r + n < m - k and r + n - k odd
    'III.1' : r + n >= m - k, m even, r + n - k even
    'III.2' : r + n >= m - k, m even, r + n - k odd
    'III.3' : r + n >= m - k, m odd
    """
    _check_normalized(m, k, r, n)
    if r + n <= k:
        return "I"
    if r + n < m - k:
        return "II.1" if (r + n - k) % 2 == 0 else "II.2"
    if m % 2 == 1:
        return "III.3"
    return "III.1" if (r + n - k) % 2 == 0 else "III.2"


def dim_closed_form(m: int, k: int, r: int, n: int) -> int:
    """C(m; k, r, n) by the closed-form polynomial of the applicable case.

    Requires the normalized position m/2 >= k >= r >= n >= 0.
    """
    case = polynomial_case(m, k, r, n)
    if case == "I":
        val48 = _poly_low_x48(k, r, n)
    elif case == "II.1":
        val48 = 48 + _poly_mid_x48(k, r, n)  # constant 1
    elif case == "II.2":
        val48 = 45 + _poly_mid_x48(k, r, n)  # constant 15/16
    elif case == "III.1":
        val48 = 48 + _poly_high_x48(m, k, r, n)  # constant 1
    elif case == "III.2":
        val48 = 42 + _poly_high_x48(m, k, r, n)  # constant 7/8
    else:  # III.3
        val48 = 45 + _poly_high_x48(m, k, r, n)  # constant 15/16
    value, rem = divmod(val48, 48)
    if rem:
        raise ArithmeticError(
            f"scaled polynomial not divisible by 48 at m={m}, k={k}, r={r}, "
            f"n={n} (case {case}): coefficient table transcription defect"
        )
    return value


def normalized_index(m: int, w: Weight) -> tuple[int, int, int] | None:
    """The normalized index (k, r, n) of the weight w of S^m, or None when
    w lies outside [-m, m]^3 or has a component of parity different from
    m (no weight of S^m)."""
    a1, a2, a3 = sorted(map(abs, w))
    if a3 > m or (m - a1) % 2 or (m - a2) % 2 or (m - a3) % 2:
        return None
    # Ascending absolute values give descending co-indices (m - |l|) / 2,
    # each in [0, m/2]: the normalized position.
    return (m - a1) // 2, (m - a2) // 2, (m - a3) // 2


def dominant_dimensions(m: int) -> list[list[list[int]]]:
    """The cube cube[i][j][l] = C(m; sorted((i, j, l), reverse=True)) for
    i, j, l in [0, m/2]: the dimensions of S^m at the dominant weights
    (m - 2i, m - 2j, m - 2l).

    dim_closed_form is evaluated once per normalized index and copied to
    the other positions of its orbit.  Built per call and owned by the
    caller, so nothing outlives the computation that needs it.
    """
    check_power(m)
    span = range(m // 2 + 1)
    # table[k][r][n] at the normalized indices k >= r >= n
    table = [[[dim_closed_form(m, k, r, n) for n in range(r + 1)]
              for r in range(k + 1)] for k in span]
    cube = [[[] for _ in span] for _ in span]
    for i in span:
        for j in range(i + 1):
            # (i, j, l) sorted descending, for l <= j, j < l <= i, l > i
            row = (table[i][j]
                   + [table[i][l][j] for l in range(j + 1, i + 1)]
                   + [table[l][i][j] for l in range(i + 1, len(span))])
            cube[i][j], cube[j][i] = row, row[:]
    return cube


def weight_dimensions(m: int) -> Iterator[tuple[int, int, list[int]]]:
    """The dimensions of S^m at all (m+1)^3 weights, mirrored from one
    dominant_dimensions(m) cube, one line (l1, l2, *) of the weight cube
    at a time.

    Yields (l1, l2, dims) for l1, l2 = m, m - 2, ..., -m in that order;
    dims[i] is the dimension at the weight (l1, l2, m - 2i), so the
    weights come in descending lexicographic order.  Every dimension is
    positive.
    """
    cube = dominant_dimensions(m)
    # co-index (m - |m - 2i|) / 2 of the component m - 2i
    fold = [min(i, m - i) for i in range(m + 1)]
    values = range(m, -m - 1, -2)
    for l1, a in zip(values, fold):
        for l2, b in zip(values, fold):
            row = cube[a][b]
            # the negative components m - 2i, i > m/2, mirror the positive
            yield l1, l2, row + row[:m - m // 2][::-1]


def dim_weight(m: int, w: Weight) -> int:
    """Dimension of the weight-w space of the m-th symmetric power.

    Zero for weights outside [-m, m]^3 or with a component of parity
    different from m.  Invariant under permuting components and flipping
    their signs; the implementation uses both symmetries to reach the
    normalized index and evaluates dim_closed_form there.  A point query:
    tables over all weights of a power read dominant_dimensions instead.
    """
    check_power(m)
    check_weight(w)
    index = normalized_index(m, w)
    return 0 if index is None else dim_closed_form(m, *index)
