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
A power's character, weight_dimensions(m) for m <= core.CHARACTER_CAP,
holds the dimensions at the dominant weights once per unordered pair of the
co-indices (m - l) / 2 of the first two components, read under both orders:
1,326 rows of 51 values at m = 100, against the 132,651 values of the full
cube.  It mirrors each row to the negative components as it yields it.

Two independent computations are provided:

* dim_by_convolution splits the eight exponents into the i = 0 and i = 1
  halves and sums products of 2x2 contingency-matrix counts (c2);
* dim_closed_form evaluates the paper's six piecewise quartics as one:

    48 C = P(r, n) + 48 - w(k - r - n) [r + n > k]
                        - w(m - k - r - n) [r + n >= m - k],

  with P(r, n) = -4n^4 + (8r - 16)n^3 + (48r + 4)n^2 + (88r + 64)n + 48r
  the quartic of the chamber r + n <= k, which reads neither m nor k, and
  w(t) = t (t - 2)^2 (t - 4) + 3 (t mod 2) the term a vector partition
  function loses across each wall it crosses (Brion and Vergne, 1997).
  w vanishes at t = 0, ..., 4, so an index on a wall reads the same from
  either side.  The division by 48 is exact: verify.check_dimensions
  proves that 48 divides P and w at every residue mod 48.
"""

from collections.abc import Iterator

from .core import CHARACTER_CAP, Weight, check_cap, check_power, check_weight


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


def _wall(t: int) -> int:
    """What 48 C loses past a chamber wall, at the signed distance
    t = k - (r + n) or m - k - (r + n) <= 0 of the index from it."""
    return t * (t - 2) ** 2 * (t - 4) + 3 * (t & 1)


def _chamber(r: int, n: int) -> int:
    """P(r, n), 48 C - 48 in the chamber r + n <= k, by Horner in n."""
    return ((((8 * r - 16 - 4 * n) * n + 48 * r + 4) * n + 88 * r + 64) * n
            + 48 * r)


def _closed_form(m: int, k: int, r: int, n: int) -> int:
    """C(m; k, r, n) at a normalized index, unchecked."""
    value = _chamber(r, n)
    if r + n > k:
        value -= _wall(k - r - n)
        if r + n >= m - k:
            value -= _wall(m - k - r - n)
    return value // 48 + 1


def polynomial_case(m: int, k: int, r: int, n: int) -> str:
    """Label of the paper's case that holds a normalized index: the
    chamber of r + n against the walls k and m - k, then the parities.

    'I'     : r + n <= k
    'II.1'  : k < r + n < m - k and r + n - k even
    'II.2'  : k < r + n < m - k and r + n - k odd
    'III.1' : r + n >= m - k, m even, r + n - k even
    'III.2' : r + n >= m - k, m even, r + n - k odd
    'III.3' : r + n >= m - k, m odd

    Nothing branches on the label: the closed form crosses walls.
    """
    _check_normalized(m, k, r, n)
    if r + n <= k:
        return "I"
    parity = "2" if (r + n - k) & 1 else "1"
    if r + n < m - k:
        return "II." + parity
    return "III.3" if m % 2 else "III." + parity


def dim_closed_form(m: int, k: int, r: int, n: int) -> int:
    """C(m; k, r, n) by the closed-form polynomial.

    Requires the normalized position m/2 >= k >= r >= n >= 0.
    """
    _check_normalized(m, k, r, n)
    return _closed_form(m, k, r, n)


def weight_dimensions(m: int) -> Iterator[tuple[int, int, list[int]]]:
    """The dimensions of S^m at all (m+1)^3 weights, one line (l1, l2, *)
    of the weight cube at a time.

    Yields (l1, l2, dims) for l1, l2 = m, m - 2, ..., -m in that order;
    dims[i] is the dimension at the weight (l1, l2, m - 2i), so the
    weights come in descending lexicographic order.  Every dimension is
    positive.  Its table holds O(m^3) ints, 33 MB traced at m = 300 and GBs
    near the cap, as character_symmetric_power's dict does.  ValueError at
    the first next() on a malformed power or one above core.CHARACTER_CAP.
    """
    check_cap(m, CHARACTER_CAP, "character")
    half = m // 2
    # rows[i][j] is rows[j][i]: C(m; sorted((i, j, l), reverse=True)) for
    # 0 <= l <= m/2.  With i >= j running downward, the entries l > j read
    # rows already built, so each normalized index is evaluated once.
    rows: list[list[list[int]]] = [[[]] * (half + 1) for _ in range(half + 1)]
    for i in range(half, -1, -1):
        for j in range(i, -1, -1):
            rows[i][j] = rows[j][i] = (
                [_closed_form(m, i, j, l) for l in range(j + 1)]
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
    return _closed_form(m, k, r, n)
