"""Eigen-structure of the Adams operations.

The unitary matrix for psi^l has simple spectrum l^n, l^(n-1), ..., l and a
basis of common eigenvectors independent of l.  The eigenvector for the
eigenvalue l^(n-k) is written in closed form through the even Taylor
coefficients of (t/sinh t)^y: coefficient j is a degree-j polynomial q_j(y)
satisfying a Bernoulli-number recurrence.  `eigenvector` runs that
recurrence on numbers at y = n; `sinh_pow_coeff_poly` builds the polynomials
themselves and serves as the independent check on it.  The module also
gives exact characteristic polynomials (Berkowitz's division-free
algorithm over the integers) and spectrum checks for every supported family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from operator import mul
from typing import Sequence

from .exactmath import UniPoly, bernoulli_even
from .ktheory import FAMILY_TABLE, GroupSpec, adams_matrix, unitary_adams_matrix

__all__ = [
    "sinh_pow_coeff_poly",
    "Eigenvector",
    "eigenvector",
    "verify_eigen_relation",
    "eigenbasis_determinant",
    "char_poly",
    "family_exponents",
    "expected_char_poly",
    "SpectrumReport",
    "spectrum_check",
]


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
    if j < 0:
        raise ValueError(f"coefficient index must be nonnegative, got {j}")
    c = _recurrence_weights(j)
    q = [UniPoly((1,))]
    for i in range(1, j + 1):
        acc = UniPoly()
        for k in range(1, i + 1):
            acc = acc + q[i - k] * c[k]
        q.append(UniPoly((0, Fraction(-1, 2 * i))) * acc)
    return q[j]


@dataclass(frozen=True)
class Eigenvector:
    """The closed-form eigenvector of the U(n) Adams matrices at level k;
    its eigenvalue under psi^l is l^(n-k) for every l >= 1 simultaneously."""

    n: int
    k: int
    coords: tuple[Fraction, ...]

    @property
    def eigenvalue_exponent(self) -> int:
        return self.n - self.k


def eigenvector(n: int, k: int) -> Eigenvector:
    """Coordinate i (over the wedge basis of U(n), i = 1..n) is

        (-1)^(i-1) * sum_{j=0}^{floor(k/2)} q_j(n) / (k-2j)! * (n-2i)^(k-2j),

    with q_j the sinh-power coefficient polynomials and 0^0 = 1.

    The numbers q_j(n) come from the recurrence of `sinh_pow_coeff_poly`
    run at y = n.  The weights q_j(n) / (k-2j)! are put over one common
    denominator D, so each coordinate is a single integer Horner evaluation
    in (n-2i)^2, times (n-2i) when k is odd, divided by D.
    """
    if n < 1:
        raise ValueError(f"rank must be positive, got n={n}")
    if not 0 <= k <= n - 1:
        raise ValueError(f"level must satisfy 0 <= k <= n-1, got k={k}, n={n}")
    half = k // 2
    c = _recurrence_weights(half)
    q = [Fraction(1)]
    for j in range(1, half + 1):
        q.append(Fraction(-n, 2 * j) * sum(c[m] * q[j - m] for m in range(1, j + 1)))
    weights = [q[j] / factorial(k - 2 * j) for j in range(half + 1)]
    den = lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (den // w.denominator) for w in weights]
    coords = []
    for i in range(1, n + 1):
        x = n - 2 * i
        square = x * x
        s = 0
        for a in ints:
            s = s * square + a
        if k % 2:
            s *= x
        coords.append(Fraction(s if i % 2 else -s, den))
    return Eigenvector(n, k, tuple(coords))


def verify_eigen_relation(n: int, l: int) -> tuple[tuple[int, bool], ...]:
    """For each level k = 0..n-1, whether the U(n) matrix maps the level-k
    eigenvector to l^(n-k) times itself, exactly."""
    mat = unitary_adams_matrix(n, l)
    results = []
    for k in range(n):
        v = eigenvector(n, k)
        image = mat.apply(v.coords)
        expected = tuple(Fraction(l ** (n - k)) * c for c in v.coords)
        results.append((k, image == expected))
    return tuple(results)


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


def eigenbasis_determinant(n: int) -> Fraction:
    """Determinant of the matrix whose rows are the n eigenvectors of U(n);
    nonzero means the closed-form vectors are linearly independent."""
    rows = []
    scale = Fraction(1)
    for k in range(n):
        coords = eigenvector(n, k).coords
        mult = lcm(*(c.denominator for c in coords)) if coords else 1
        rows.append([int(c * mult) for c in coords])
        scale *= mult
    return Fraction(_bareiss_det(rows)) / scale


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
    cols = list(zip(*entries))
    poly = [1]  # descending coefficients of det(x*I - A)
    for r in range(d):
        block_rows = [row[:r] for row in entries[:r]]
        block_cols = [col[:r] for col in cols[:r]]
        top = max(r - 1, 0) // 2  # A^0..A^top from the column side, the rest from the row
        col_side = [cols[r][:r]]  # S, A.S, A^2.S, ...
        for _ in range(top):
            col_side.append([sum(map(mul, row, col_side[-1])) for row in block_rows])
        row_side = [entries[r][:r]]  # R, R.A, R.A^2, ...
        for _ in range(r - 1 - top):
            row_side.append([sum(map(mul, row_side[-1], col)) for col in block_cols])
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
    return FAMILY_TABLE[group.family].exponents(group.n)


def expected_char_poly(group: GroupSpec, l: int) -> tuple[int, ...]:
    """Coefficients of prod_i (x - l^(m_i + 1))."""
    coeffs = [1]
    for m in family_exponents(group):
        root = l ** (m + 1)
        coeffs = [a - root * b for a, b in zip([0] + coeffs, coeffs + [0])]
    return tuple(coeffs)


@dataclass(frozen=True)
class SpectrumReport:
    group: GroupSpec
    l: int
    ok: bool
    eigenvalues: tuple[int, ...]
    char_coeffs: tuple[int, ...]
    expected_coeffs: tuple[int, ...]


def spectrum_check(group: GroupSpec, l: int) -> SpectrumReport:
    """Compare the characteristic polynomial of the group's psi^l matrix
    with the product of (x - l^(m_i + 1)) over the family exponents."""
    mat = adams_matrix(group, l)
    got = char_poly(mat.entries)
    want = expected_char_poly(group, l)
    eigenvalues = tuple(sorted(l ** (m + 1) for m in family_exponents(group)))
    return SpectrumReport(group, l, got == want, eigenvalues, got, want)
