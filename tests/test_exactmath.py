import random
import time
from fractions import Fraction
from math import comb, factorial

import pytest

from adamsops import series
from adamsops.exactmath import binomial
from adamsops.series import TruncSeries, UniPoly, bernoulli_even, t_over_sinh_pow


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


def test_bernoulli_against_generating_series():
    # t/(e^t - 1) expanded by series inversion is an independent route to
    # the same numbers
    order = 20
    expm1_over_t = TruncSeries(order, [Fraction(1, factorial(i + 1)) for i in range(order + 1)])
    gen = expm1_over_t.inverse()
    assert gen.coefficient(1) == Fraction(-1, 2)
    for m in range(0, order + 1, 2):
        assert gen.coefficient(m) == bernoulli_even(m) / factorial(m)
    for m in range(3, order, 2):
        assert gen.coefficient(m) == 0


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


def test_bernoulli_far_above_the_cache_bound():
    # the cache is bounded, and an index far above the bound is one miss:
    # it neither thrashes the cache nor recurses
    maxsize = series._bernoulli.cache_info().maxsize
    assert maxsize is not None and maxsize > 0
    m = 8 * maxsize
    series._bernoulli.cache_clear()
    t0 = time.perf_counter()
    value = bernoulli_even(m)
    elapsed = time.perf_counter() - t0
    assert series._bernoulli.cache_info().misses == 1
    assert elapsed < 2.0, elapsed
    # von Staudt-Clausen: B_m + sum of 1/p over the primes p with (p-1) | m
    # is an integer; for m = 1024 those primes are 2, 3, 5, 17 and 257
    assert m == 1024
    primes = (2, 3, 5, 17, 257)
    assert value.denominator == 2 * 3 * 5 * 17 * 257
    assert (value + sum(Fraction(1, p) for p in primes)).denominator == 1


# ---------------------------------------------------------------------------
# truncated series


def test_series_basic_arithmetic():
    a = TruncSeries(4, [1, 2, 3])
    b = TruncSeries(4, [0, 1])
    assert (a + b).coeffs == (1, 3, 3, 0, 0)
    assert (a - b).coeffs == (1, 1, 3, 0, 0)
    assert (a * b).coeffs == (0, 1, 2, 3, 0)
    with pytest.raises(ValueError):
        a.coefficient(7)  # beyond the truncation order is unknowable, not zero


def test_series_order_mismatch_rejected():
    with pytest.raises(ValueError):
        TruncSeries(3, [1]) + TruncSeries(4, [1])


def test_series_inverse_round_trip():
    rng = random.Random(0)
    order = 12
    for _ in range(25):
        coeffs = [Fraction(rng.randint(1, 5))] + [
            Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(order)
        ]
        s = TruncSeries(order, coeffs)
        assert (s * s.inverse()).coeffs == TruncSeries.one(order).coeffs


def test_series_inverse_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncSeries(3, [0, 1]).inverse()


def test_series_ring_laws_randomized():
    rng = random.Random(0)
    order = 8

    def rand_series():
        return TruncSeries(
            order, [Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(order + 1)]
        )

    one = TruncSeries.one(order)
    for _ in range(40):
        a, b, c = rand_series(), rand_series(), rand_series()
        assert (a * b).coeffs == (b * a).coeffs
        assert ((a * b) * c).coeffs == (a * (b * c)).coeffs
        assert (a * (b + c)).coeffs == (a * b + a * c).coeffs
        assert (a * one).coeffs == a.coeffs


def test_series_power():
    t = TruncSeries(6, [0, 1])
    assert (t**3).coeffs == (0, 0, 0, 1, 0, 0, 0)
    s = TruncSeries(6, [1, 1])
    assert (s**4).coefficient(2) == 6  # (1+t)^4
    assert (s**0).coeffs == TruncSeries.one(6).coeffs


def test_series_rejects_a_negative_order_or_exponent():
    with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
        TruncSeries(-1)
    with pytest.raises(ValueError, match="negative exponent -2"):
        TruncSeries(3, [1, 1]) ** -2
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="series order must be an int"):
            TruncSeries(bad)
        with pytest.raises(ValueError, match="series exponent must be an int"):
            TruncSeries.one(4) ** bad
    # a float coefficient would keep its binary expansion, a bool count as 0 or 1
    for bad in (0.1, 2.0, True, False):
        with pytest.raises(ValueError, match="series coefficient must be an int or a Fraction"):
            TruncSeries(3, [1, bad])


def test_series_equality_hash_and_repr():
    s = TruncSeries(2, [1, Fraction(1, 2)])
    assert s == TruncSeries(2, (1, Fraction(1, 2), 0))
    assert hash(s) == hash(TruncSeries(2, (1, Fraction(1, 2), 0)))
    assert s != TruncSeries(3, [1, Fraction(1, 2)])  # the same terms at another order
    assert s != s.coeffs
    assert repr(s) == (
        "TruncSeries(order=2, coeffs=[Fraction(1, 1), Fraction(1, 2), Fraction(0, 1)])"
    )


# ---------------------------------------------------------------------------
# (t / sinh t)^y


def test_t_over_sinh_known_expansions():
    flat = t_over_sinh_pow(0, 4)
    assert flat.coeffs == (1, 0, 0, 0, 0)

    single = t_over_sinh_pow(1, 6)
    # 1 - t^2/6 + 7 t^4/360 - 31 t^6/15120
    assert single.coefficient(0) == 1
    assert single.coefficient(2) == Fraction(-1, 6)
    assert single.coefficient(4) == Fraction(7, 360)
    assert single.coefficient(6) == Fraction(-31, 15120)

    squared = t_over_sinh_pow(2, 4)
    assert squared.coefficient(2) == Fraction(-1, 3)
    assert squared.coefficient(4) == Fraction(1, 15)


def test_t_over_sinh_pow_is_a_true_power():
    base = t_over_sinh_pow(1, 20)
    for y in range(11):
        assert t_over_sinh_pow(y, 20).coeffs == (base**y).coeffs


def test_t_over_sinh_odd_coefficients_vanish():
    s = t_over_sinh_pow(3, 15)
    for i in range(1, 16, 2):
        assert s.coefficient(i) == 0


def test_t_over_sinh_rejects_negative_power():
    with pytest.raises(ValueError):
        t_over_sinh_pow(-1, 4)
    for bad in (2.0, True):
        with pytest.raises(ValueError, match="exponent y must be an int"):
            t_over_sinh_pow(bad, 4)
        with pytest.raises(ValueError, match="series order must be an int"):
            t_over_sinh_pow(2, bad)


# ---------------------------------------------------------------------------
# dense univariate polynomials


def test_unipoly_basics():
    x = UniPoly.variable()
    p = x * x - 3 * x + UniPoly((1,))
    assert p == UniPoly((1, -3, 1))
    assert p.degree == 2
    assert p(0) == 1
    assert p(2) == -1
    assert p(Fraction(1, 2)) == Fraction(-1, 4)


def test_unipoly_rejects_inexact_scalars():
    # 0.1 would be kept as its binary expansion and a float point would
    # evaluate to a float; a bool would count as 0 or 1
    p = UniPoly((1, 1))
    exact = "must be an int or a Fraction"
    for bad in (0.1, 0.5, 2.0, True, False):
        with pytest.raises(ValueError, match=f"polynomial coefficient {exact}"):
            UniPoly((1, bad))
        with pytest.raises(ValueError, match=f"polynomial scalar factor {exact}"):
            p * bad
        with pytest.raises(ValueError, match=f"polynomial scalar factor {exact}"):
            bad * p
        with pytest.raises(ValueError, match=f"evaluation point {exact}"):
            p(bad)
    assert p * 2 == 2 * p == UniPoly((2, 2))
    assert p * Fraction(1, 2) == UniPoly((Fraction(1, 2), Fraction(1, 2)))
    assert p(Fraction(1, 2)) == Fraction(3, 2) and type(p(1)) is Fraction


def test_unipoly_zero_and_trim():
    z = UniPoly((0, 0, 0))
    assert z.degree == -1
    assert z == UniPoly(())
    p = UniPoly((1, 2)) - UniPoly((0, 2))
    assert p.coeffs == (1,)


def test_unipoly_product_degree_and_eval():
    rng = random.Random(1)
    for _ in range(30):
        a = UniPoly(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))))
        b = UniPoly(tuple(Fraction(rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))))
        prod = a * b
        for point in (-2, -1, 0, 1, 3):
            assert prod(point) == a(point) * b(point)


def test_unipoly_truth_hash_and_repr():
    assert not UniPoly((0, 0))
    assert UniPoly((0, 1))
    assert hash(UniPoly((1, 2, 0))) == hash(UniPoly((1, 2)))
    assert len({UniPoly((1, 2)), UniPoly((1, 2, 0)), UniPoly((2,))}) == 2
    assert repr(UniPoly((1, Fraction(1, 2)))) == "UniPoly([Fraction(1, 1), Fraction(1, 2)])"
