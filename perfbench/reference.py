"""Reference values the benchmark checks the library's outputs against.

Nothing here imports `adamsops`.  The exponent table and the count rows are
written from their definitions, so a defect in the library cannot hide in
the check that is meant to catch it, and checking an output never warms a
library cache.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

Matrix = Sequence[Sequence[int]]


def exponents(family: str, n: int) -> tuple[int, ...]:
    """The exponents m_i of the group; psi^l has eigenvalues l^(m_i + 1)."""
    if family == "U":
        return tuple(range(n))
    if family == "SU":
        return tuple(range(1, n))
    if family in ("Sp", "SpinOdd"):
        return tuple(range(1, 2 * n, 2))
    if family == "SpinEven":
        return tuple(range(1, 2 * n - 2, 2)) + (n - 1,)
    if family == "G2":
        return (1, 5)
    raise ValueError(f"unknown family {family!r}")


def expected_trace(family: str, n: int, l: int) -> int:
    return sum(l ** (e + 1) for e in exponents(family, n))


def expected_char_poly(family: str, n: int, l: int) -> tuple[int, ...]:
    """Ascending coefficients of prod_i (x - l^(m_i + 1))."""
    coeffs = [1]
    for e in exponents(family, n):
        root = l ** (e + 1)
        shifted = [0] + coeffs
        for i, c in enumerate(coeffs):
            shifted[i] -= root * c
        coeffs = shifted
    return tuple(coeffs)


def matrix_problem(entries: Matrix, family: str, n: int, l: int) -> str | None:
    """Why `entries` cannot be the psi^l matrix of the group, or None.

    Checks the shape, that every entry is a Python int (not a bool, float or
    Fraction), and that the trace is the sum of the eigenvalues.
    """
    d = len(exponents(family, n))
    if len(entries) != d or any(len(row) != d for row in entries):
        return f"{family}({n}) l={l}: shape is not {d}x{d}"
    for row in entries:
        for e in row:
            if type(e) is not int:
                return f"{family}({n}) l={l}: entry {e!r} is not an int"
    trace = sum(entries[i][i] for i in range(d))
    want = expected_trace(family, n, l)
    if trace != want:
        return f"{family}({n}) l={l}: trace {trace} != {want}"
    return None


def count_row(n: int, l: int) -> list[int]:
    """Coefficients of (1 + x + ... + x^(l-1))^n: entry s counts the n-tuples
    with parts in 0..l-1 summing to s.  Built by prefix-sum convolution."""
    row = [1]
    for _ in range(n):
        prefix = [0]
        for c in row:
            prefix.append(prefix[-1] + c)
        top = len(row) - 1 + l - 1
        row = [prefix[min(s, len(row) - 1) + 1] - prefix[max(0, s - l + 1)] for s in range(top + 1)]
    return row


def mu(n: int, l: int, k: int, p: int, row: Sequence[int] | None = None) -> int:
    s = l * k - p
    if row is None:
        row = count_row(n, l)
    return row[s] if 0 <= s < len(row) else 0


def unitary_matrix(n: int, l: int) -> list[list[int]]:
    """The U(n) psi^l matrix: entry (p, k) is (-1)^(k+p) * l * mu(n, l, k, p)."""
    row = count_row(n, l)
    return [
        [(-1) ** (k + p) * l * mu(n, l, k, p, row) for k in range(1, n + 1)]
        for p in range(1, n + 1)
    ]


def eigen_problem(matrix: Matrix, coords: Sequence[Fraction], eigenvalue: int) -> str | None:
    """Why `coords` is not a nonzero eigenvector of `matrix` for `eigenvalue`, or None."""
    scale = lcm(*(Fraction(c).denominator for c in coords))
    v = [int(Fraction(c) * scale) for c in coords]
    if not any(v):
        return "zero vector"
    for i, row in enumerate(matrix):
        got = sum(a * b for a, b in zip(row, v))
        if got != eigenvalue * v[i]:
            return f"(M v)[{i}] = {got} != {eigenvalue} * {v[i]}"
    return None
