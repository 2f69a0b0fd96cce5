"""Eigen-structure of the Adams operations.

The unitary matrix for psi^l has simple spectrum l^n, l^(n-1), ..., l and a
basis of common eigenvectors independent of l.  The eigenvector for the
eigenvalue l^(n-k) is written in closed form through the even Taylor
coefficients of (t/sinh t)^y: coefficient j is a degree-j polynomial q_j(y)
satisfying a Bernoulli-number recurrence.  One cached run of that recurrence
on numbers at y = n serves every level.  Each level of U(n) is built from
it as integer numerators over one positive denominator, in lowest terms,
and kept in that one form: the `Eigenvector` record, which `eigenvector`
returns, `eigenbasis_determinant` reads and the command line prints.  The
records of all n levels and the determinant are each cached once per rank.
`sinh_pow_coeff_poly` builds the polynomials themselves and serves as the
independent check on the numbers.

Every other family gets its eigenvectors by restriction from U(m), m the
defining dimension.  The restriction R from the primitives of U(m) to those
of G, the one the functoriality pipeline applies (`ktheory._restrict`,
over the terms cached by `ktheory._restriction`), satisfies
R.M_U(m)(l) = M_G(l).R, so R.v_k is zero or an eigenvector with
eigenvalue l^(m-k).  `eigenbasis(group)` restricts the levels it needs in
one call and collects the images, scaled to primitive integer columns,
plus the eigenvectors restriction misses (d(S+) - d(S-) for Spin(2n)); it
does not depend on l and is kept in a bounded cache.

`spectrum_check` proves char(M) = prod_i (x - l^(m_i + 1)) with that basis V
as a certificate.  V must be well formed, which does not depend on l and is
computed once per basis (`Eigenbasis.well_formed`): V is square with
exactly the eigenvalue exponents m_i + 1, every column w is nonzero, and no
exponent has more than two columns, two that share one not proportional.
At l = 1 the matrix M must be the identity.  At l >= 2, M.w = l^e.w must
hold exactly for every column.  The relations alone then prove V
invertible: at l >= 2 distinct exponents are distinct eigenvalues, nonzero
eigenvectors of distinct eigenvalues are linearly independent, and so are
two non-proportional ones of one eigenvalue.  So M = V.diag(l^e).V^-1 and
no determinant is taken.  Only Spin(4k) repeats an exponent, twice.  Only
if a part fails does it compute the characteristic polynomial, by
Berkowitz's division-free algorithm over the integers (`char_poly`), which
is also the check on the certificate in the tests.

The relations M.w = l^e.w are checked by one integer mat-vec (Kronecker
substitution in mixed radix).  The columns w_1..w_r, w_t with eigenvalue
l^(e_t) and its own digit width K_t, are packed as u = sum_t w_t B_t and
u' = sum_t l^(e_t) w_t B_t, with B_r = 1 and B_(t-1) = B_t 2^(K_t), and
M.u = u' is compared exactly.  The difference in row i is sum_t D_t B_t
with D_t = (M.w_t - l^(e_t) w_t)_i, and |D_t| <= (||M|| + l^(e_t)) max|w_t|,
||M|| the largest row L1 norm.  Each K_t is chosen so that its own column's
bound is below 2^(K_t - 1).  Mixed-radix balanced digits are unique when
every digit is below half of its own base: the difference is congruent to
D_r modulo 2^(K_r), so a zero difference forces D_r = 0, and dividing by
2^(K_r) leaves the same question for the columns without w_r.  So the
packed rows are equal exactly when every D_t is zero.  A column thus takes
only the bits its own bound needs, not those of the widest column.  u and
u' are built by merging neighbouring columns pairwise, (a << K_b) + b row
by row, round after round: the integers one Horner run over the columns
would build, but with each column shifted about log2(r) times instead of
up to r times.  Packing saves a Python-level product per extra column but
lengthens the one left by about the bits of ||M|| per column, so the
columns are packed only while ||M|| < 2^256, and otherwise each takes its
own mat-vec.

`spectrum_check` keeps its reports in one bounded memo by (group, l).  A
`SpectrumReport` depends on nothing else: the cross-checked matrix, the
eigenbasis and the expected polynomial are each a function of the group and
l alone, and so is what the certificate or `char_poly` makes of them.  So a
repeat returns the report a fresh run would make, the same object, with no
matrix, no polynomial and no certificate.  A `ConsistencyError` from the
matrix is raised, never kept, so it is raised again on every call.  The
certificate itself keeps nothing: a miss proves its matrix from the start.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial, gcd, lcm, prod
from operator import itemgetter, mul
from typing import Sequence

from .exactmath import _require_int
from .ktheory import (
    GroupSpec,
    _family_of,
    _require_l,
    _restrict,
    _times,
    adams_matrix,
)
from .record import Record
from .series import UniPoly, bernoulli_even

__all__ = [
    "sinh_pow_coeff_poly",
    "Eigenvector",
    "eigenvector",
    "eigenbasis_determinant",
    "Eigenbasis",
    "eigenbasis",
    "char_poly",
    "family_exponents",
    "expected_char_poly",
    "SpectrumReport",
    "spectrum_check",
]

# Ranks, groups and (group, l) reports kept by each eigen cache.
# eigen-spectrum's lap touches 5 unitary ranks and 26 groups and makes 30
# spectrum reports, 25 of them on a (group, l) of the lap before.  Measured
# with tracemalloc, the eigenvector records of U(80) take about 0.4 MB and
# the eigenbasis of Spin(161) about 0.6 MB.  A report holds no matrix: the
# memo takes 83 KiB after that lap (30 reports), and 24 KiB after the eigen
# suite at its defaults and 30 KiB at its caps (64 reports each time).
_BASIS_CACHE_SIZE = 64

# Where ||M|| < 2^256 the certificate packs every column into one product,
# and otherwise takes one mat-vec per column.  Packed time over per-column
# time, packing included, interleaved, median of 7-9 rounds: U(80) l = 8
# (||M|| of 241 bits) 0.71, l = 12 (287 bits) 0.85, l = 20 (346) 1.03,
# l = 50 (452) 1.44; SpinOdd(80) l = 3 (332) 0.93, l = 50 (981) 2.3; but
# U(50) l = 100 (333) 1.18 and U(30) l = 1000 (299) 1.11.  The crossover
# moves with d, near 2^300 at d = 30 and 2^340 at d = 80, so no bound on
# ||M|| picks the faster path at every one of them, on both sides.
_PACK_NORM_BITS = 256


def _recurrence_weights(j: int) -> list[Fraction]:
    """The weights c_k = 2^(2k) B_{2k} / (2k)! for k = 0..j (c_0 unused)."""
    return [
        Fraction(2 ** (2 * k), factorial(2 * k)) * bernoulli_even(2 * k) for k in range(j + 1)
    ]


def sinh_pow_coeff_poly(j: int) -> UniPoly:
    """The coefficient of t^(2j) in (t/sinh t)^y, as a polynomial in y.

    Defined by the recurrence

        q_0(y) = 1,
        q_j(y) = -(y / 2j) * sum_{k=1}^{j} c_k q_{j-k}(y),
        c_k = 2^(2k) B_{2k} / (2k)!,

    with B_{2k} the Bernoulli numbers; q_j has degree exactly j.  The
    recurrence runs as a loop, so no index is too deep for the stack.
    """
    _require_int("coefficient index j", j)
    if j < 0:
        raise ValueError(f"coefficient index must be nonnegative, got {j}")
    return _sinh_pow_coeff_polys(j)[j]


def _sinh_pow_coeff_polys(top: int) -> list[UniPoly]:
    """q_0, ..., q_top of `sinh_pow_coeff_poly`, from one run of its
    recurrence, for top >= 0."""
    c = _recurrence_weights(top)
    q = [UniPoly((1,))]
    for i in range(1, top + 1):
        acc = UniPoly()
        for k in range(1, i + 1):
            acc = acc + q[i - k] * c[k]
        q.append(UniPoly((0, Fraction(-1, 2 * i))) * acc)
    return q


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _sinh_values(y: int) -> tuple[Fraction, ...]:
    """q_j(y) for j = 0..(y-1)//2, enough for every level of U(y): the
    recurrence of `sinh_pow_coeff_poly` run once on numbers."""
    top = (y - 1) // 2
    c = _recurrence_weights(top)
    q = [Fraction(1)]
    for j in range(1, top + 1):
        q.append(Fraction(-y, 2 * j) * sum(c[m] * q[j - m] for m in range(1, j + 1)))
    return tuple(q)


def _unitary_level(n: int, k: int, q: Sequence[Fraction]) -> tuple[tuple[int, ...], int]:
    """Level k of U(n) as integer numerators over one positive denominator,
    in lowest terms, with q = `_sinh_values(n)`; `eigenvector` gives the
    formula.

    The weights q_j(n) / (k-2j)! are put over one common denominator D, so
    each numerator is a single integer Horner evaluation in (n-2i)^2, times
    (n-2i) when k is odd.  One gcd then reduces the level.
    """
    weights = [q[j] / factorial(k - 2 * j) for j in range(k // 2 + 1)]
    den = lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (den // w.denominator) for w in weights]
    nums = []
    for i in range(1, n + 1):
        x = n - 2 * i
        square = x * x
        s = 0
        for a in ints:
            s = s * square + a
        if k % 2:
            s *= x
        nums.append(s if i % 2 else -s)
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def _require_rank(n: int) -> None:
    _require_int("rank n", n)
    if n < 1:
        raise ValueError(f"rank must be positive, got n={n}")


class Eigenvector(Record):
    """The closed-form eigenvector of the U(n) Adams matrices at level k;
    its eigenvalue under psi^l is l^(n-k) for every l >= 1 simultaneously.
    Coordinate i is nums[i] / den: n integer numerators over one positive
    denominator, in lowest terms (gcd(den, *nums) = 1)."""

    n: int
    k: int
    nums: tuple[int, ...]
    den: int

    @property
    def coords(self) -> tuple[Fraction, ...]:
        """The coordinates as exact fractions, built on each read."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def eigenvalue_exponent(self) -> int:
        return self.n - self.k


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def _unitary_vectors(n: int) -> tuple[Eigenvector, ...]:
    """The `Eigenvector` record of every level k = 0..n-1 of U(n), each
    built from `_unitary_level` over the one cached `_sinh_values(n)`."""
    q = _sinh_values(n)
    return tuple(Eigenvector(n, k, *_unitary_level(n, k, q)) for k in range(n))


def eigenvector(n: int, k: int) -> Eigenvector:
    """Coordinate i (over the wedge basis of U(n), i = 1..n) is

        (-1)^(i-1) * sum_{j=0}^{floor(k/2)} q_j(n) / (k-2j)! * (n-2i)^(k-2j),

    with q_j the sinh-power coefficient polynomials and 0^0 = 1.

    The numbers q_j(n) come from the recurrence of `sinh_pow_coeff_poly`
    run at y = n.  The rank and the level are checked first; then the
    record is read from the records of U(n), built once per rank from its
    levels and cached, so a repeated call returns the same record.
    """
    _require_rank(n)
    _require_int("level k", k)
    if not 0 <= k <= n - 1:
        raise ValueError(f"level must satisfy 0 <= k <= n-1, got k={k}, n={n}")
    return _unitary_vectors(n)[k]


def _bareiss_det(rows: list[list[int]]) -> int:
    """Fraction-free determinant of a square integer matrix."""
    d = len(rows)
    if d == 0:
        return 1
    m = [row[:] for row in rows]
    sign = 1
    prev = 1
    for i in range(d - 1):
        if m[i][i] == 0:
            swap = next((r for r in range(i + 1, d) if m[r][i] != 0), None)
            if swap is None:
                return 0
            m[i], m[swap] = m[swap], m[i]
            sign = -sign
        for r in range(i + 1, d):
            for c in range(i + 1, d):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[d - 1][d - 1]


# typed, so that True or 2.0 misses the entry of 1 or 2 and is rejected
@lru_cache(maxsize=_BASIS_CACHE_SIZE, typed=True)
def eigenbasis_determinant(n: int) -> Fraction:
    """Determinant of the matrix whose rows are the n eigenvectors of U(n);
    nonzero means the closed-form vectors are linearly independent.

    It equals 2^(n(n-1)/2).  Coordinate i of level k is (-1)^(i-1) p_k(x_i)
    with x_i = n - 2i and p_k a polynomial of degree k whose leading
    coefficient is 1/k!.  So the matrix is a lower triangular matrix with
    diagonal 1/k! times the Vandermonde matrix (x_i^k) times the diagonal
    signs (-1)^(i-1), and its determinant is

        prod_k 1/k! * prod_{i<j} (x_j - x_i) * (-1)^(n(n-1)/2)
          = prod_k 1/k! * 2^(n(n-1)/2) prod_{i<j} (j - i) = 2^(n(n-1)/2),

    since x_j - x_i = -2(j - i) and prod_{i<j} (j - i) = prod_k k!.  The
    tests hold the computation, one Bareiss pass over the integer
    numerators of the n cached records, each row first divided by the gcd
    of its entries, to that value.  The value for each n is kept in a
    bounded cache.
    """
    _require_rank(n)
    vectors = _unitary_vectors(n)
    gcds = [gcd(*v.nums) or 1 for v in vectors]
    rows = [[x // g for x in v.nums] for v, g in zip(vectors, gcds)]
    return Fraction(_bareiss_det(rows) * prod(gcds), prod(v.den for v in vectors))


class Eigenbasis(Record):
    """Integer eigenvectors of every psi^l matrix of the group, over its
    primitive basis: column j has eigenvalue l^eigenvalue_exponents[j] for
    every l >= 1.  Each column is primitive (its entries have gcd 1).  The
    record carries no proof that the columns are independent: `_certifies`
    proves it from the eigen-relations at each l >= 2.

    What does not depend on l is computed once per record, on first use:
    `heights`, and `well_formed`, the conditions of the certificate that
    hold or fail for every l alike."""

    group: GroupSpec
    eigenvalue_exponents: tuple[int, ...]
    columns: tuple[tuple[int, ...], ...]

    @cached_property
    def heights(self) -> tuple[int, ...]:
        """The largest absolute entry of each column, which bounds the
        packed certificate's digits."""
        return tuple(max(map(abs, col), default=0) for col in self.columns)

    @cached_property
    def well_formed(self) -> bool:
        """Whether the columns can certify a spectrum at all: d columns of d
        entries each, the exponents m_i + 1 of the family as a multiset,
        every column nonzero, and no exponent shared by more than two
        columns or by two proportional ones."""
        d = len(self.columns)
        exponents = self.eigenvalue_exponents
        if not (
            all(len(col) == d for col in self.columns)
            and sorted(exponents) == sorted(m + 1 for m in family_exponents(self.group))
            and all(self.heights)
        ):
            return False
        shared: dict[int, list[tuple[int, ...]]] = {}
        for e, col in zip(exponents, self.columns):
            shared.setdefault(e, []).append(col)
        return all(
            len(cols) == 1 or len(cols) == 2 and not _proportional(*cols)
            for cols in shared.values()
        )


@lru_cache(maxsize=_BASIS_CACHE_SIZE)
def eigenbasis(group: GroupSpec) -> Eigenbasis:
    """The l-independent eigenbasis of the group's psi^l matrices, by
    restriction from U(m), m the defining dimension.

    Only the levels k of U(m) whose eigenvalue exponent m - k is one of the
    m_i + 1 are built.  They are restricted together by
    `ktheory._restrict`, the map the functoriality pipeline applies; a
    zero image is dropped and a nonzero one divided by the gcd of its
    entries.  The family's `extra_eigenvectors` follow, and the columns
    are ordered by exponent.  `spectrum_check` does not
    trust the result: it checks it for every report it makes.
    """
    family = _family_of(group, "eigenbasis")
    n, m = group.n, family.dimension(group.n)
    wanted = {e + 1 for e in family.exponents(n)}
    levels = [k for k in range(m) if m - k in wanted]
    q = _sinh_values(m)
    # the levels are the columns of the matrix `_restrict` maps, which it takes by rows:
    # a level's numerators are its coordinates over wedges 1..m; wedge 0 has none
    wedges = zip(*(_unitary_level(m, k, q)[0] for k in levels))
    images = _restrict(group, [(0,) * len(levels), *wedges])
    found = []
    for k, col in zip(levels, zip(*images)):
        g = gcd(*col)
        if g:
            found.append((m - k, tuple(x // g for x in col)))
    found += family.extra_eigenvectors(n)
    found.sort(key=itemgetter(0))
    return Eigenbasis(group, tuple(e for e, _ in found), tuple(col for _, col in found))


def char_poly(entries: Sequence[Sequence[int]]) -> tuple[int, ...]:
    """Coefficients (ascending, monic) of det(x*I - M) for a square integer
    matrix, by Berkowitz's division-free algorithm (Berkowitz 1984).

    Write the leading (r+1)x(r+1) block as [[A, S], [R, a]] with A the
    leading r x r block.  Its characteristic polynomial is the lower
    triangular Toeplitz matrix with first column 1, -a, -R.S, -R.A.S, ...,
    -R.A^(r-1).S times that of A.  Only integer products and sums occur: no
    pivoting and no division.  Each Krylov product R.A^m.S takes half of
    the powers of A from the row side and half from the column side, which
    keeps the intermediate integers about half as long.
    """
    d = len(entries)
    if any(len(row) != d for row in entries):
        raise ValueError(
            f"char_poly needs a square matrix, got {d} rows of lengths "
            f"{sorted({len(row) for row in entries})}"
        )
    for i, row in enumerate(entries):
        for j, x in enumerate(row):
            if isinstance(x, bool) or not isinstance(x, int):
                raise ValueError(
                    f"char_poly needs integer entries, got {x!r} at row {i}, column {j}"
                )
    cols = list(zip(*entries))
    poly = [1]  # descending coefficients of det(x*I - A)
    for r in range(d):
        block_rows = [row[:r] for row in entries[:r]]
        block_cols = [col[:r] for col in cols[:r]]
        top = max(r - 1, 0) // 2  # A^0..A^top from the column side, the rest from the row
        col_side = [cols[r][:r]]  # S, A.S, A^2.S, ...
        for _ in range(top):
            col_side.append(_times(block_rows, col_side[-1]))
        row_side = [entries[r][:r]]  # R, R.A, R.A^2, ...
        for _ in range(r - 1 - top):
            row_side.append(_times(block_cols, row_side[-1]))
        toeplitz = [1, -entries[r][r]] + [
            -sum(map(mul, row_side[m - min(m, top)], col_side[min(m, top)])) for m in range(r)
        ]
        poly = [sum(map(mul, poly, toeplitz[i::-1])) for i in range(r + 2)]
    return tuple(reversed(poly))


def family_exponents(group: GroupSpec) -> tuple[int, ...]:
    """The exponents m_i of the group; the psi^l eigenvalues are l^(m_i + 1).

    U(n): 0..n-1; SU(n): 1..n-1; Sp(n) and Spin(2n+1): 1, 3, ..., 2n-1;
    Spin(2n): 1, 3, ..., 2n-3 together with n-1; G2: 1, 5.
    """
    return _family_of(group, "family_exponents").exponents(group.n)


def expected_char_poly(group: GroupSpec, l: int) -> tuple[int, ...]:
    """Coefficients of prod_i (x - l^(m_i + 1)), for an l >= 1 like every
    matrix's."""
    _require_l(l)
    _family_of(group, "expected_char_poly")  # refuses anything but a GroupSpec
    coeffs = [1]
    for m in family_exponents(group):
        root = l ** (m + 1)
        coeffs = [a - root * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


class SpectrumReport(Record):
    """What `spectrum_check` found: `ok` says whether the characteristic
    polynomial `char_coeffs` is the `expected_coeffs` of the eigenvalues,
    and `certified` whether the group's eigenbasis proved it, so that no
    characteristic polynomial was computed."""

    group: GroupSpec
    l: int
    ok: bool
    eigenvalues: tuple[int, ...]
    char_coeffs: tuple[int, ...]
    expected_coeffs: tuple[int, ...]
    certified: bool = False


def _columns(vb: Eigenbasis, norm: int, l: int) -> list[tuple[int, list[int]]]:
    """The columns w of V, in order, as (K, w stacked on l^e.w), K the
    column's own digit width: 2^(K-1) > (||M|| + l^e) max|w|, ||M|| = norm."""
    columns = []
    for e, col, height in zip(vb.eigenvalue_exponents, vb.columns, vb.heights):
        value = l**e
        width = ((norm + value) * height).bit_length() + 1
        columns.append((width, [*col, *[value * x for x in col]]))
    return columns


def _merged(columns: list[tuple[int, list[int]]]) -> tuple[int, list[int]]:
    """The columns (K, w) packed into one in mixed radix, the first most
    significant.  Neighbours merge entry by entry into
    (K_a + K_b, (w_a << K_b) + w_b), and an unpaired last column waits for
    the next round, until one column is left."""
    while len(columns) > 1:
        merged = [
            (ka + kb, [(x << kb) + y for x, y in zip(wa, wb)])
            for (ka, wa), (kb, wb) in zip(columns[::2], columns[1::2])
        ]
        columns = merged + columns[2 * len(merged) :]
    return columns[0]


def _proportional(u: Sequence[int], v: Sequence[int]) -> bool:
    """Whether v is a multiple of the nonzero column u: with u_i its first
    nonzero entry, v = (v_i / u_i) u exactly when v u_i = u v_i."""
    i = next(j for j, x in enumerate(u) if x)
    return [x * u[i] for x in v] == [x * v[i] for x in u]


def _certifies(vb: Eigenbasis, entries: Sequence[Sequence[int]], l: int) -> bool:
    """Whether V = vb.columns proves that the matrix `entries` has the
    characteristic polynomial prod_i (x - l^(m_i + 1)).  V must be
    `vb.well_formed`: one column per row, each with one entry per row, the
    exponents m_i + 1 as a multiset, every column nonzero, and an exponent
    shared by at most two columns, which must not be proportional.  Those
    conditions do not depend on l and are computed once per basis.  Then:

    - l = 1: M must be the identity, so char(M) = (x - 1)^d outright.
    - l >= 2: M.w = l^e.w must hold exactly for every column.

    For l >= 2 distinct exponents give distinct eigenvalues, and nonzero
    eigenvectors of distinct eigenvalues are linearly independent; within
    one exponent, one nonzero column or two non-proportional ones are
    independent too.  So V is invertible and M = V.diag(l^e).V^-1, which
    has the wanted characteristic polynomial.  No determinant is needed.

    The relations are checked by one product of M with the columns packed
    into one integer column (`_columns`, `_merged`), or one per column
    where ||M|| >= 2^256.  With ||M|| the largest row L1 norm, each packed
    digit of M.u - u' is at most (||M|| + l^e) max|w| < 2^(K-1) in absolute
    value, K that column's own width, so the packed check holds exactly
    when every column's does (see the module docstring)."""
    if not (len(vb.columns) == len(entries) and vb.well_formed):
        return False
    if l == 1:
        # row i is the unit row e_i: its entry i is 1 and its L1 norm is 1
        return all(row[i] == 1 == sum(map(abs, row)) for i, row in enumerate(entries))
    norm = max((sum(map(abs, row)) for row in entries), default=0)
    columns = _columns(vb, norm, l)
    if norm.bit_length() <= _PACK_NORM_BITS:
        columns = [_merged(columns)]
    d = len(entries)
    return all(_times(entries, w[:d]) == w[d:] for _, w in columns)


def spectrum_check(group: GroupSpec, l: int) -> SpectrumReport:
    """Compare the characteristic polynomial of the group's psi^l matrix
    with the product of (x - l^(m_i + 1)) over the family exponents.

    The group's cached `eigenbasis` proves the equality when it certifies
    the matrix; only when it does not is the characteristic polynomial
    computed, by `char_poly`, to fill the report.  `ok` compares the two
    polynomials, so it stays True when `char_poly` finds the wanted one
    that the certificate did not prove; `certified` says whether the
    eigenbasis proved it.

    The group and l are checked first.  The report is then read from a
    bounded memo by (group, l), so a repeat returns the same object; see
    the module docstring for why that is the report a fresh run would make.
    """
    if not isinstance(group, GroupSpec):
        raise ValueError(f"spectrum_check needs a GroupSpec, got {group!r}")
    _require_l(l)
    return _spectrum_report(group, l)


# typed, so that a report's l is always of the type it was asked for
@lru_cache(maxsize=_BASIS_CACHE_SIZE, typed=True)
def _spectrum_report(group: GroupSpec, l: int) -> SpectrumReport:
    """The report of `spectrum_check` on a checked group and l, made
    afresh: kept by (group, l), and read by `spectrum_check` alone."""
    mat = adams_matrix(group, l)
    want = expected_char_poly(group, l)
    certified = _certifies(eigenbasis(group), mat.entries, l)
    got = want if certified else char_poly(mat.entries)
    eigenvalues = tuple(sorted(l ** (m + 1) for m in family_exponents(group)))
    return SpectrumReport(group, l, got == want, eigenvalues, got, want, certified)
