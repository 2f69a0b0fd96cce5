"""Exact rational polynomial and power-series arithmetic.

The rational layer under the eigenvectors of U(n): Bernoulli numbers,
one-variable rational polynomials and truncated rational power series,
all in `fractions.Fraction`, so nothing here ever rounds.  Only `eigen` and
the `verify` eigen suite use it, and a command-line call that needs
neither never imports it.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Iterable, Union

from .exactmath import _require_int

__all__ = [
    "bernoulli_even",
    "UniPoly",
    "TruncSeries",
    "t_over_sinh_pow",
]

Scalar = Union[int, Fraction]


def _exact(name: str, value: object) -> Fraction:
    """`value` as a Fraction.  Only an int or a Fraction is exact: a float
    would bring its binary expansion in, and a bool would count as 0 or 1."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise ValueError(f"{name} must be an int or a Fraction, got {value!r}")
    return Fraction(value)


# Bernoulli numbers kept: the eigenvectors of U(n), n <= 256, read at most 128.
_BERNOULLI_CACHE_SIZE = 128


@lru_cache(maxsize=_BERNOULLI_CACHE_SIZE)
def _bernoulli(m: int) -> Fraction:
    """B_m for even m >= 0 from the tangent numbers T_1..T_k, k = m/2:

        B_2k = (-1)^(k-1) 2k T_k / (4^k (4^k - 1)).

    The T_k come from Brent and Harvey's integer triangle, O(k^2) steps in
    a loop, so no index needs a deep stack or its lower indices cached."""
    if m == 0:
        return Fraction(1)
    k = m // 2
    t = [0] + [factorial(i - 1) for i in range(1, k + 1)]
    for i in range(2, k + 1):
        for j in range(i, k + 1):
            t[j] = (j - i) * t[j - 1] + (j - i + 2) * t[j]
    return Fraction(2 * k * t[k] if k % 2 else -2 * k * t[k], 4**k * (4**k - 1))


def bernoulli_even(m: int) -> Fraction:
    """The Bernoulli number B_m for even m >= 0 (B_0 = 1, B_2 = 1/6, ...).

    Only even indices are exposed; the odd ones vanish beyond B_1 and are
    never needed by callers.
    """
    _require_int("Bernoulli index m", m)
    if m < 0 or m % 2 != 0:
        raise ValueError(f"bernoulli_even: index must be even and nonnegative, got {m}")
    return _bernoulli(m)


class UniPoly:
    """A polynomial in one variable with Fraction coefficients.

    Coefficients are stored in ascending degree with trailing zeros trimmed;
    the zero polynomial has an empty coefficient tuple and degree -1.  A
    coefficient, a scalar factor or an evaluation point must be an int or a
    Fraction; a float or a bool raises ValueError.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()) -> None:
        cs = [_exact("polynomial coefficient", c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def variable(cls) -> "UniPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other: "UniPoly") -> "UniPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return UniPoly(out)

    def __neg__(self) -> "UniPoly":
        return UniPoly(-c for c in self.coeffs)

    def __sub__(self, other: "UniPoly") -> "UniPoly":
        return self + (-other)

    def __mul__(self, other: "UniPoly | Scalar") -> "UniPoly":
        if not isinstance(other, UniPoly):
            factor = _exact("polynomial scalar factor", other)
            return UniPoly(c * factor for c in self.coeffs)
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs))
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    def __rmul__(self, other: Scalar) -> "UniPoly":
        return self * other

    def __call__(self, x: Scalar) -> Fraction:
        x = _exact("evaluation point", x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __eq__(self, other: object) -> bool:
        return isinstance(other, UniPoly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"UniPoly({list(self.coeffs)!r})"


class TruncSeries:
    """A power series truncated at a fixed order, with exact coefficients.

    Stores the coefficients of t^0 .. t^order.  Ring operations (addition,
    multiplication, inversion when the constant term is nonzero, integer
    powers) are exact through the stated order.  A coefficient must be an
    int or a Fraction; a float or a bool raises ValueError.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[Scalar] = ()) -> None:
        _require_int("series order", order)
        if order < 0:
            raise ValueError(f"TruncSeries: order must be nonnegative, got {order}")
        cs = [_exact("series coefficient", c) for c in coeffs][: order + 1]
        cs += [Fraction(0)] * (order + 1 - len(cs))
        self.order = order
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls(order, (1,))

    def coefficient(self, i: int) -> Fraction:
        if not 0 <= i <= self.order:
            raise ValueError(f"coefficient index {i} outside order {self.order}")
        return self.coeffs[i]

    def _same_order(self, other: "TruncSeries") -> None:
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        self._same_order(other)
        return TruncSeries(self.order, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "TruncSeries") -> "TruncSeries":
        self._same_order(other)
        return TruncSeries(self.order, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        self._same_order(other)
        out = [Fraction(0)] * (self.order + 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j in range(self.order + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return TruncSeries(self.order, out)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse by long division; the constant term must be nonzero."""
        a0 = self.coeffs[0]
        if a0 == 0:
            raise ValueError("TruncSeries.inverse: constant term is zero")
        out = [Fraction(0)] * (self.order + 1)
        out[0] = 1 / a0
        for k in range(1, self.order + 1):
            s = sum((self.coeffs[i] * out[k - i] for i in range(1, k + 1)), Fraction(0))
            out[k] = -s / a0
        return TruncSeries(self.order, out)

    def __pow__(self, exponent: int) -> "TruncSeries":
        _require_int("series exponent", exponent)
        if exponent < 0:
            raise ValueError(f"TruncSeries: negative exponent {exponent}")
        result = TruncSeries.one(self.order)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, TruncSeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"TruncSeries(order={self.order}, coeffs={list(self.coeffs)!r})"


def _sinh_over_t(order: int) -> TruncSeries:
    # sinh(t)/t = sum_{m >= 0} t^(2m) / (2m+1)!
    cs = [Fraction(0)] * (order + 1)
    for i in range(0, order + 1, 2):
        cs[i] = Fraction(1, factorial(i + 1))
    return TruncSeries(order, cs)


def t_over_sinh_pow(y: int, order: int) -> TruncSeries:
    """The series (t / sinh t)^y through t^order, for integer y >= 0.

    The odd coefficients vanish; the coefficient of t^(2j) is the value at y
    of the degree-j coefficient polynomial produced by the eigen module.
    """
    _require_int("exponent y", y)
    _require_int("series order", order)
    if y < 0:
        raise ValueError(f"t_over_sinh_pow: exponent must be nonnegative, got {y}")
    return _sinh_over_t(order).inverse() ** y
