"""Exact integer primitives: guarded binomial coefficients and int checks.

Every quantity in this package is an arbitrary-precision integer or a
`fractions.Fraction`; nothing ever rounds.  This module holds the integer
part that every command uses.  The rational layer (Bernoulli numbers,
polynomials and power series) lives in `series`, which only the eigen
routes import.
"""

from __future__ import annotations

from math import comb

__all__ = ["binomial"]


def _require_int(name: str, value: object) -> None:
    """Reject bools, floats and anything else that is not an int."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an int, got {value!r}")


def binomial(a: int, b: int) -> int:
    """Binomial coefficient C(a, b) with the out-of-range convention.

    Returns 0 when b < 0 or b > a.  A negative top argument is rejected
    rather than silently treated as zero: the generalized value C(-2, 2) = 3
    is nonzero, and accepting negative tops is a classic source of sign bugs
    in alternating binomial sums.  Callers must keep a >= 0 themselves.
    Both arguments must be ints: a bool or a float raises ValueError.
    """
    _require_int("binomial: top argument", a)
    _require_int("binomial: bottom argument", b)
    if a < 0:
        raise ValueError(f"binomial: top argument must be nonnegative, got {a}")
    if b < 0 or b > a:
        return 0
    return comb(a, b)
