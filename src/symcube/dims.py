"""Exact weight-space dimensions of symmetric powers of C2 (x) C2 (x) C2.

Write C(m; k, r, n) for the dimension of the weight space of the m-th
symmetric power at weight (m-2k, m-2r, m-2n).  It counts exponent tuples
of degree-m monomials in the eight basis vectors x[i,j,l] whose factors
use i = 1 exactly k times, j = 1 exactly r times and l = 1 exactly n
times.  Permuting (k, r, n) or replacing a weight component by its
absolute value does not change the dimension, so everything below works
in the normalized position

    m/2 >= k >= r >= n >= 0,

which dim_weight reaches from an arbitrary weight by sorting absolute
values: 23,426 indices at m = 100, against (m+1)^3 = 1,030,301 weights.
A power's character, weight_dimensions(m), holds the dimensions at the
dominant weights once per unordered pair of the co-indices (m - l) / 2
of the first two components, read under both orders: 1,326 rows of 51
values at m = 100, against the 132,651 values of the full cube.  It
mirrors each row to the negative components as it yields it.

Two independent computations are provided:

* dim_by_convolution splits the eight exponents into the i = 0 and i = 1
  halves and sums products of 2x2 contingency-matrix counts (c2);
* dim_closed_form evaluates one of six quartic polynomials in
  (m, k, r, n), selected by the size of r + n relative to k and m - k
  and by parities.

The polynomial coefficients are rationals whose denominators divide 48,
so each regime is stored as the five integer coefficients in n of its
quartic scaled by 48, polynomials in (m, k, r).  Along a line (k, r) they
are computed once per regime the line crosses; each n then costs one
Horner evaluation and one division by 48, checked at every value: an
inexact division can only mean mistranscribed coefficients, never bad
input, and raises ArithmeticError.
"""

from collections.abc import Iterator

from .core import Weight, check_power, check_weight


def c2(r1: int, r2: int, r3: int) -> int:
    """Number of 2x2 non-negative integer matrices with total r1,
    second-row sum r2 and second-column sum r3: zero unless
    0 <= r2, r3 <= r1, else min(r2, r3, r1 - r2, r1 - r3) + 1.
    Raises ValueError unless r1, r2, r3 are ints (bool excluded)."""
    if not (type(r1) is type(r2) is type(r3) is int):
        raise ValueError(f"c2 takes three ints, got {(r1, r2, r3)!r}")
    if r2 > r3:  # with r2 <= r3 the min above is min(r2, r1 - r3)
        r2, r3 = r3, r2
    if r2 < 0 or r3 > r1:
        return 0
    return (r2 if r2 < r1 - r3 else r1 - r3) + 1


def _check_normalized(m: int, k: int, r: int, n: int) -> None:
    if (type(m) is type(k) is type(r) is type(n) is int
            and 0 <= n <= r <= k and 2 * k <= m):
        return
    for name, value in zip("mkrn", (m, k, r, n)):
        if type(value) is not int:
            raise ValueError(f"index {name} must be an int, got {value!r}")
    raise ValueError(
        f"index not normalized: need m/2 >= k >= r >= n >= 0, "
        f"got m={m}, k={k}, r={r}, n={n}")


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
    for a in range(r + 1):  # r <= k <= m - k and n <= r: both counts >= 1
        for b in range(n + 1):
            total += c2(mk, a, b) * c2(k, r - a, n - b)
    return total


# The six quartics as coefficients (c0, ..., c4) of 48 * C in powers of n,
# one function per regime, without the constant term 48, 45 or 42 that
# tells the parity variants apart.  With d = k - r and e = m - k - r,
# regime III is regime II plus f(e - n), f(t) = -t (t - 2)^2 (t - 4).


def _coeffs_low(m: int, k: int, r: int) -> tuple[int, ...]:
    # regime I, r + n <= k
    return 48 * r, 88 * r + 64, 48 * r + 4, 8 * r - 16, -4


def _coeffs_mid(m: int, k: int, r: int) -> tuple[int, ...]:
    # regime II, k < r + n < m - k
    d, s = k - r, k + r
    return (((8 - d) * d - 20) * d * d + 16 * k + 32 * r,
            (4 * d - 24) * d * d + 40 * k + 48 * r + 48,
            24 * s - 6 * d * d - 16, 4 * s - 24, -5)


def _coeffs_high(m: int, k: int, r: int) -> tuple[int, ...]:
    # regime III, r + n >= m - k: regime II plus f(e - n) expanded in n
    e = m - k - r
    c0, c1, c2, c3, c4 = _coeffs_mid(m, k, r)
    return (c0 + ((8 - e) * e - 20) * e * e + 16 * e,
            c1 + ((4 * e - 24) * e + 40) * e - 16,
            c2 + (24 - 6 * e) * e - 20, c3 + 4 * e - 8, c4 - 1)


def _regime(m: int, d: int, e: int, n: int) -> tuple:
    """The closed form's one case selector, at n with d = k - r and
    e = m - k - r: the regime's coefficient function, its (label, constant)
    for r + n - k even and odd, and the first n beyond it (III: m + 1)."""
    if n <= d:
        return _coeffs_low, (("I", 48), ("I", 48)), d + 1
    if n < e:
        return _coeffs_mid, (("II.1", 48), ("II.2", 45)), e
    if m % 2:
        return _coeffs_high, (("III.3", 45), ("III.3", 45)), m + 1
    return _coeffs_high, (("III.1", 48), ("III.2", 42)), m + 1


def _line_dimensions(m: int, k: int, r: int, lo: int, hi: int) -> list[int]:
    """C(m; k, r, n) for lo <= n <= hi on one normalized line (k, r).

    With d = k - r and e = m - k - r, regime I holds for n <= d, II for
    d < n < e and III for n >= max(e, d + 1); the constant term follows
    the parity of r + n - k = n - d.  Only the regimes that hold some n
    in [lo, hi] are visited, each computing its coefficients once, so a
    point (lo = hi) costs one regime choice and one Horner step.
    """
    d, e = k - r, m - k - r
    values = []
    while lo <= hi:  # pick the regime that holds lo, and where it stops
        coeffs, cases, stop = _regime(m, d, e, lo)
        constants = cases[d & 1][1], cases[~d & 1][1]  # for n even, odd
        c0, c1, c2, c3, c4 = coeffs(m, k, r)
        for n in range(lo, min(hi + 1, stop)):
            value, rem = divmod((((c4 * n + c3) * n + c2) * n + c1) * n
                                + c0 + constants[n & 1], 48)
            if rem:
                raise ArithmeticError(
                    f"scaled polynomial not divisible by 48 at m={m}, k={k}, "
                    f"r={r}, n={n} (case {cases[(n - d) & 1][0]}): "
                    f"coefficient table transcription defect")
            values.append(value)
        lo = n + 1
    return values


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
    return _regime(m, k - r, m - k - r, n)[1][(r + n - k) & 1][0]


def dim_closed_form(m: int, k: int, r: int, n: int) -> int:
    """C(m; k, r, n) by the closed-form polynomial of the applicable case.

    Requires the normalized position m/2 >= k >= r >= n >= 0.
    """
    _check_normalized(m, k, r, n)
    return _line_dimensions(m, k, r, n, n)[0]


def weight_dimensions(m: int) -> Iterator[tuple[int, int, list[int]]]:
    """The dimensions of S^m at all (m+1)^3 weights, one line (l1, l2, *)
    of the weight cube at a time.

    Yields (l1, l2, dims) for l1, l2 = m, m - 2, ..., -m in that order;
    dims[i] is the dimension at the weight (l1, l2, m - 2i), so the
    weights come in descending lexicographic order.  Every dimension is
    positive.
    """
    check_power(m)
    half = m // 2
    # rows[i][j] is rows[j][i]: C(m; sorted((i, j, l), reverse=True)) for
    # 0 <= l <= m/2.  With i >= j running downward, the entries l > j read
    # rows already built, so each normalized line is evaluated once.
    rows: list[list[list[int]]] = [[[]] * (half + 1) for _ in range(half + 1)]
    for i in range(half, -1, -1):
        for j in range(i, -1, -1):
            rows[i][j] = rows[j][i] = (
                _line_dimensions(m, i, j, 0, j)
                + [rows[i][l][j] for l in range(j + 1, half + 1)])
    # co-index (m - |m - 2i|) / 2 of the component m - 2i
    fold = [min(i, m - i) for i in range(m + 1)]
    values = range(m, -m - 1, -2)
    for l1, a in zip(values, fold):
        for l2, b in zip(values, fold):
            # the negative components m - 2i, i > m/2, mirror the positive
            yield l1, l2, rows[a][b] + rows[a][b][:m - half][::-1]


def dim_weight(m: int, w: Weight) -> int:
    """Dimension of the weight-w space of the m-th symmetric power.

    Zero for weights outside [-m, m]^3 or with a component of parity
    different from m.  Invariant under permuting components and flipping
    their signs; the implementation uses both symmetries to reach the
    normalized index and evaluates the closed form there.  A point query:
    tables over all weights of a power read weight_dimensions instead.
    """
    check_power(m)
    check_weight(w)
    a1, a2, a3 = sorted(map(abs, w))
    if a3 > m or (m - a1) % 2 or (m - a2) % 2 or (m - a3) % 2:
        return 0
    # Ascending absolute values give descending co-indices (m - |l|) / 2,
    # each in [0, m/2]: the normalized position.
    k, r, n = (m - a1) // 2, (m - a2) // 2, (m - a3) // 2
    return _line_dimensions(m, k, r, n, n)[0]
