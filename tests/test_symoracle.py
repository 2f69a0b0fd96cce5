"""The symmetric-function route must agree with direct monomial enumeration
everywhere the two can both be afforded; that agreement is what makes the
module usable as an independent oracle for the counting layer."""

import inspect
import re
import sys

import pytest

from adamsops import symoracle
from adamsops.counts import mu_closed
from adamsops.symoracle import (
    SymPoly,
    adams_symbolic_coefficients,
    bounded_composition_poly,
    complete_by_recursion,
    symmetric_basis,
    verify_product_identity,
)


def _sym(n, pairs):
    out = SymPoly.zero(n)
    for exps, c in pairs:
        out = out + SymPoly.monomial(n, exps, c)
    return out


def test_sympoly_arithmetic():
    x = SymPoly.monomial(2, (1, 0))
    y = SymPoly.monomial(2, (0, 1))
    assert (x + y) * (x - y) == x * x - y * y
    assert (x + y).substitute_power(3) == _sym(2, [((3, 0), 1), ((0, 3), 1)])
    assert 0 * x == SymPoly.zero(2)
    assert (x * y).truncate(1) == SymPoly.zero(2)
    assert (x + x * y).truncate(1) == x


def test_sympoly_rejects_mixed_variable_counts():
    with pytest.raises(ValueError):
        SymPoly.monomial(2, (1, 0)) + SymPoly.monomial(3, (1, 0, 0))


def test_sympoly_times_a_non_integer_is_a_type_error():
    # it used to raise AttributeError from inside __mul__
    x = SymPoly.monomial(2, (1, 0), 3)
    for bad in (2.5, "2", None, [1]):
        with pytest.raises(TypeError):
            x * bad
        with pytest.raises(TypeError):
            bad * x
    assert x * 2 == 2 * x == SymPoly.monomial(2, (1, 0), 6)


def test_elementary_and_complete_small():
    e2 = symmetric_basis(3, 2, "elementary")
    assert e2 == _sym(3, [((1, 1, 0), 1), ((1, 0, 1), 1), ((0, 1, 1), 1)])
    h2 = symmetric_basis(2, 2, "complete")
    assert h2 == _sym(2, [((2, 0), 1), ((1, 1), 1), ((0, 2), 1)])
    # elementary polynomials vanish above the variable count
    assert symmetric_basis(2, 3, "elementary").is_zero()
    assert symmetric_basis(3, 0, "complete") == SymPoly.one(3)


def test_complete_recursion_needs_no_deep_stack():
    # the cache is filled bottom-up, so a stack only 50 frames deeper than
    # the caller's is enough for any degree
    symoracle._complete_tables.cache_clear()
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        h = complete_by_recursion(1, 1500)
    finally:
        sys.setrecursionlimit(old)
    assert h == SymPoly.monomial(1, (1500,))


def _reference_complete(n, top):
    # the monomial-by-monomial route the partition tables replaced: h_0 ..
    # h_top by the triangular recursion over whole SymPoly products
    h = [SymPoly.one(n)]
    for c in range(1, top + 1):
        acc = SymPoly.zero(n)
        for j in range(1, min(c, n) + 1):
            term = symmetric_basis(n, j, "elementary") * h[c - j]
            acc = acc + (term if j % 2 else -term)
        h.append(acc)
    return h


def _reference_coefficients(n, l, k, h):
    # B_p = sum_{q<k} (-1)^q e_q(lambda^l) h_{l(k-q)-p}, h from _reference_complete
    out = []
    for p in range(1, n + 1):
        acc = SymPoly.zero(n)
        for q in range(k):
            c = l * (k - q) - p
            if c < 0:
                continue
            term = symmetric_basis(n, q, "elementary").substitute_power(l) * h[c]
            acc = acc + (-term if q % 2 else term)
        out.append(acc)
    return tuple(out)


def test_partition_tables_match_the_monomial_route():
    for n, max_l in [(1, 5), (2, 5), (3, 5), (4, 5), (5, 3)]:
        h = _reference_complete(n, max(12, max_l * n - 1))
        for c in range(13):
            assert complete_by_recursion(n, c) == h[c], (n, c)
        for l in range(1, max_l + 1):
            for k in range(1, n + 1):
                assert adams_symbolic_coefficients(n, l, k) == _reference_coefficients(
                    n, l, k, h
                ), (n, l, k)


def test_sympoly_rejects_bad_exponent_tuples():
    for exps in [(1,), (1, 0, 0), (1, -1), ()]:
        with pytest.raises(ValueError, match="bad exponent tuple"):
            SymPoly(2, {exps: 1})
    assert SymPoly(2, {(1, -1): 0}).is_zero()  # zero terms are dropped unchecked


def test_complete_recursion_matches_definition():
    for n in range(1, 6):
        for k in range(9):
            assert complete_by_recursion(n, k) == symmetric_basis(n, k, "complete")


def test_symbolic_coefficients_smallest_case():
    # two variables, squaring operation, single wedge factor
    b1, b2 = adams_symbolic_coefficients(2, 2, 1)
    assert b1 == _sym(2, [((1, 0), 1), ((0, 1), 1)])
    assert b2 == SymPoly.one(2)


def test_identity_operation_gives_kronecker_columns():
    for n in range(1, 5):
        for k in range(1, n + 1):
            coeffs = adams_symbolic_coefficients(n, 1, k)
            for p in range(1, n + 1):
                expected = SymPoly.one(n) if p == k else SymPoly.zero(n)
                assert coeffs[p - 1] == expected


def test_symbolic_equals_composition_enumeration():
    # the whole point: the e/h rewriting reproduces, monomial for monomial,
    # the brute-force sum over bounded compositions
    for n in range(1, 5):
        for l in range(1, 4):
            for k in range(1, n + 1):
                coeffs = adams_symbolic_coefficients(n, l, k)
                for p in range(1, n + 1):
                    assert coeffs[p - 1] == bounded_composition_poly(n, l, k, p), (n, l, k, p)


def test_specializing_at_one_recovers_counts():
    for n in range(1, 6):
        for l in range(1, 5):
            for k in range(1, n + 1):
                coeffs = adams_symbolic_coefficients(n, l, k)
                for p in range(1, n + 1):
                    assert coeffs[p - 1].specialize_ones() == mu_closed(n, l, k, p)


def test_coefficients_are_symmetric_polynomials():
    n = 4
    swap = (1, 0, 2, 3)
    cycle = (1, 2, 3, 0)
    for l in (2, 3):
        for k in range(1, n + 1):
            for poly in adams_symbolic_coefficients(n, l, k):
                assert poly.permute_variables(swap) == poly
                assert poly.permute_variables(cycle) == poly


def test_product_identity_sweep():
    for n in range(1, 5):
        for l in range(1, 4):
            ok, detail = verify_product_identity(n, l, 10)
            assert ok, detail


def test_sympoly_repr():
    assert repr(SymPoly.monomial(2, (1, 0), 3)) == "SymPoly(n=2, terms={(1, 0): 3})"


def test_product_identity_reports_a_failing_product(monkeypatch):
    # with every geometric factor 1, the left side is prod (1 - lambda_i^l)
    # and the right side 1
    monkeypatch.setattr(symoracle, "_geometric", lambda n, i, top: SymPoly.one(n))
    assert verify_product_identity(2, 2, 4) == (
        False, "product identity fails for n=2, l=2 through degree 4"
    )


def test_validation():
    with pytest.raises(ValueError):
        symmetric_basis(3, -1, "elementary")
    with pytest.raises(ValueError):
        symmetric_basis(3, 1, "power")
    with pytest.raises(ValueError):
        adams_symbolic_coefficients(3, 2, 0)
    with pytest.raises(ValueError):
        adams_symbolic_coefficients(3, 0, 1)
    with pytest.raises(ValueError, match="need at least one variable, got n=0"):
        SymPoly(0)
    with pytest.raises(ValueError, match="exponent must be positive, got 0"):
        SymPoly.monomial(2, (1, 0)).substitute_power(0)
    with pytest.raises(ValueError, match="degree must be nonnegative, got -1"):
        complete_by_recursion(2, -1)
    with pytest.raises(ValueError, match="need n, l >= 1, got n=2, l=0"):
        bounded_composition_poly(2, 0, 1, 1)
    with pytest.raises(ValueError, match="need n, l >= 1 and max_degree >= 0"):
        verify_product_identity(2, 2, -1)


@pytest.mark.parametrize("bad", [True, 2.0, "2", None])
def test_symbolic_coefficients_reject_non_int_arguments(bad):
    # True would be computed with as l = 1 and 2.0 would fail deep inside
    with pytest.raises(ValueError, match="number of variables n must be an int"):
        adams_symbolic_coefficients(bad, 2, 1)
    with pytest.raises(ValueError, match="Adams operation index l must be an int"):
        adams_symbolic_coefficients(2, bad, 1)
    with pytest.raises(ValueError, match="wedge degree k must be an int"):
        adams_symbolic_coefficients(2, 2, bad)
    for call, arguments in [
        (complete_by_recursion, (2, 2)),
        (symmetric_basis, (2, 2, "complete")),
        (bounded_composition_poly, (2, 2, 1, 1)),
        (verify_product_identity, (2, 2, 4)),
    ]:
        for i in [i for i, value in enumerate(arguments) if isinstance(value, int)]:
            with pytest.raises(ValueError, match=re.escape(f"must be an int, got {bad!r}")):
                call(*arguments[:i], bad, *arguments[i + 1:])
