import time
from fractions import Fraction
from math import comb, factorial

import pytest

from adamsops.eigen import bernoulli_even, t_over_sinh_pow
from adamsops.exactmath import binomial


# ---------------------------------------------------------------------------
# binomial


@pytest.mark.parametrize(
    "a, b, want",
    [
        (0, 0, 1),
        (5, 2, 10),
        (5, 0, 1),
        (5, 5, 1),
        (5, 6, 0),
        (5, -1, 0),
        (3, 2, 3),
        (10, 3, 120),
    ],
)
def test_binomial_values(a, b, want):
    assert binomial(a, b) == want


def test_binomial_rejects_negative_top():
    # the generalized binomial C(-2, 2) = 3 is nonzero; silently returning 0
    # there would be a correctness trap, so a negative top argument is an error
    with pytest.raises(ValueError):
        binomial(-1, 0)
    with pytest.raises(ValueError):
        binomial(-2, 2)


@pytest.mark.parametrize(
    "a, b, argument",
    [(True, 1, "top"), (2, 5.0, "bottom"), (3.0, 1, "top"), (4, False, "bottom")],
)
def test_binomial_rejects_bools_and_floats(a, b, argument):
    # True would count as 1 and 5.0 as 5; 3.0 used to reach math.comb's TypeError
    with pytest.raises(ValueError, match=f"binomial: {argument} argument must be an int"):
        binomial(a, b)


def test_binomial_matches_math_comb():
    for a in range(31):
        for b in range(a + 1):
            assert binomial(a, b) == comb(a, b)


def test_binomial_row_sums_and_symmetry():
    for a in range(1, 25):
        assert sum(binomial(a, b) for b in range(a + 1)) == 2**a
        for b in range(a + 1):
            assert binomial(a, b) == binomial(a, a - b)


# ---------------------------------------------------------------------------
# Bernoulli numbers


def test_bernoulli_small_values():
    assert bernoulli_even(0) == 1
    assert bernoulli_even(2) == Fraction(1, 6)
    assert bernoulli_even(4) == Fraction(-1, 30)
    assert bernoulli_even(6) == Fraction(1, 42)
    assert bernoulli_even(8) == Fraction(-1, 30)
    assert bernoulli_even(10) == Fraction(5, 66)
    assert bernoulli_even(12) == Fraction(-691, 2730)


def test_bernoulli_rejects_odd_or_negative_index():
    with pytest.raises(ValueError):
        bernoulli_even(3)
    with pytest.raises(ValueError):
        bernoulli_even(-2)
    # a float or a bool is no index, even when it equals an even int
    for bad in (4.0, True, False):
        with pytest.raises(ValueError, match="Bernoulli index m must be an int"):
            bernoulli_even(bad)


def _product(a, b):
    """The product of two power series given by their coefficients,
    truncated to the length of the first."""
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0)) for k in range(len(a))]


def _inverse(a):
    """The inverse of a power series with constant term 1, by long division,
    to as many coefficients as it has."""
    out = [Fraction(1)]
    for k in range(1, len(a)):
        out.append(-sum((a[i] * out[k - i] for i in range(1, k + 1)), Fraction(0)))
    return out


def test_bernoulli_against_generating_series():
    # t/(e^t - 1) expanded by series inversion is an independent route to
    # the same numbers
    order = 20
    gen = _inverse([Fraction(1, factorial(i + 1)) for i in range(order + 1)])
    assert gen[1] == Fraction(-1, 2)
    for m in range(0, order + 1, 2):
        assert gen[m] == bernoulli_even(m) / factorial(m)
    for m in range(3, order, 2):
        assert gen[m] == 0


def _bernoulli_reference(top):
    # sum_{j=0}^{m} C(m+1, j) B_j = 0 with B_0 = 1, every index up to top
    b = [Fraction(1)]
    for m in range(1, top + 1):
        b.append(-sum(comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    return b


def test_bernoulli_against_the_recurrence():
    reference = _bernoulli_reference(160)
    assert bernoulli_even(40) == Fraction(-261082718496449122051, 13530)
    for m in range(0, 161, 2):
        assert bernoulli_even(m) == reference[m], m


def test_bernoulli_at_a_far_index():
    # one loop over the tangent-number triangle, no recursion
    m = 1024
    t0 = time.perf_counter()
    value = bernoulli_even(m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 2.0, elapsed
    # von Staudt-Clausen: B_m + sum of 1/p over the primes p with (p-1) | m
    # is an integer; for m = 1024 those primes are 2, 3, 5, 17 and 257
    primes = (2, 3, 5, 17, 257)
    assert value.denominator == 2 * 3 * 5 * 17 * 257
    assert (value + sum(Fraction(1, p) for p in primes)).denominator == 1


# ---------------------------------------------------------------------------
# (t / sinh t)^y


def test_t_over_sinh_known_expansions():
    flat = t_over_sinh_pow(0, 4)
    assert flat == (1, 0, 0, 0, 0)
    assert all(type(c) is Fraction for c in flat)

    single = t_over_sinh_pow(1, 6)
    # 1 - t^2/6 + 7 t^4/360 - 31 t^6/15120
    assert single[0] == 1
    assert single[2] == Fraction(-1, 6)
    assert single[4] == Fraction(7, 360)
    assert single[6] == Fraction(-31, 15120)

    squared = t_over_sinh_pow(2, 4)
    assert squared[2] == Fraction(-1, 3)
    assert squared[4] == Fraction(1, 15)
    assert t_over_sinh_pow(5, 0) == (1,)


def test_t_over_sinh_pow_is_a_true_power():
    # sinh(t)/t inverted by long division and multiplied up, term by term
    order = 20
    base = _inverse([Fraction(1, factorial(i + 1)) if i % 2 == 0 else 0 for i in range(order + 1)])
    assert t_over_sinh_pow(1, order) == tuple(base)
    power = [Fraction(1)] + [Fraction(0)] * order
    for y in range(11):
        assert t_over_sinh_pow(y, order) == tuple(power), y
        power = _product(power, base)


def test_t_over_sinh_odd_coefficients_vanish():
    s = t_over_sinh_pow(3, 15)
    assert len(s) == 16
    for i in range(1, 16, 2):
        assert s[i] == 0


def test_t_over_sinh_rejects_negative_power():
    with pytest.raises(ValueError, match="exponent must be nonnegative, got -1"):
        t_over_sinh_pow(-1, 4)
    # named by the function called, not by any helper
    with pytest.raises(ValueError, match="^t_over_sinh_pow: order must be nonnegative, got -1$"):
        t_over_sinh_pow(2, -1)
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="exponent y must be an int"):
            t_over_sinh_pow(bad, 4)
        with pytest.raises(ValueError, match="series order must be an int"):
            t_over_sinh_pow(2, bad)
