"""Acceptance gate: thirteen exact end-to-end properties, each a single test.

Every comparison is exact integer or rational equality -- there is no
tolerance anywhere -- and each test enforces its own wall-clock budget.
Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.
"""

import time
from fractions import Fraction
from functools import lru_cache

from adamsops.counts import mu_closed, mu_enumerate
from adamsops.eigen import (
    eigenbasis_determinant,
    eigenvector,
    expected_char_poly,
    char_poly,
    sinh_pow_coeff_poly,
    spectrum_check,
    verify_eigen_relation,
)
from adamsops.exactmath import binomial
from adamsops.ktheory import (
    GroupSpec,
    _restrict,
    adams_matrix,
    pullback_adams_matrix,
)
from adamsops.series import t_over_sinh_pow
from adamsops.symoracle import adams_symbolic_coefficients, verify_product_identity


class _Budget:
    def __init__(self, name: str, seconds: float) -> None:
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.perf_counter() - self.start
        status = "FAIL" if exc_type else "PASS"
        print(f"{status} {self.name} ({elapsed:.2f}s)")
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.name}: took {elapsed:.2f}s, budget {self.seconds:.0f}s"
            )
        return False


@lru_cache(maxsize=None)
def _mat(family: str, rank: int, l: int):
    return adams_matrix(GroupSpec(family, rank), l, cross_check=False)


def _all_groups():
    return (
        [("U", n) for n in range(1, 6)]
        + [("SU", n) for n in range(2, 6)]
        + [("Sp", n) for n in range(1, 6)]
        + [("SpinOdd", n) for n in range(1, 6)]
        + [("SpinEven", n) for n in (3, 4, 5)]
        + [("G2", 2)]
    )


def test_criterion_01_closed_count_equals_enumeration():
    with _Budget("criterion 01: closed count formula == enumeration", 10):
        for n in range(1, 9):
            for l in range(1, 7):
                for k in range(n + 1):
                    for p in range(l * n + 1):
                        assert mu_closed(n, l, k, p) == mu_enumerate(n, l, k, p), (n, l, k, p)


def test_criterion_02_count_duality():
    with _Budget("criterion 02: duality (k, p) -> (n-k, n-p)", 5):
        for n in range(1, 9):
            for l in range(1, 7):
                for k in range(n + 1):
                    for p in range(l * n + 1):
                        assert mu_closed(n, l, k, p) == mu_closed(n, l, n - k, n - p), (
                            n,
                            l,
                            k,
                            p,
                        )


def test_criterion_03_count_multiplicativity():
    with _Budget("criterion 03: convolution over p == count for l*m", 5):
        for n in range(1, 7):
            for l in range(1, 5):
                for m in range(1, 5):
                    for k in range(1, n + 1):
                        for q in range(1, n + 1):
                            lhs = sum(
                                mu_closed(n, l, k, p) * mu_closed(n, m, p, q)
                                for p in range(1, n + 1)
                            )
                            assert lhs == mu_closed(n, m * l, k, q), (n, l, m, k, q)


def test_criterion_04_square_operation_single_binomial():
    with _Budget("criterion 04: l=2 count == C(n, 2k-p)", 1):
        for n in range(1, 11):
            for k in range(n + 1):
                for p in range(2 * n + 1):
                    assert mu_closed(n, 2, k, p) == binomial(n, 2 * k - p), (n, k, p)


def test_criterion_05_closed_forms_equal_pipeline():
    with _Budget("criterion 05: closed matrices == functoriality pipeline", 30):
        groups = (
            [("Sp", n) for n in range(1, 6)]
            + [("SpinOdd", n) for n in range(1, 6)]
            + [("SpinEven", n) for n in (3, 4, 5)]
            + [("G2", 2)]
        )
        for family, rank in groups:
            g = GroupSpec(family, rank)
            for l in range(1, 6):
                closed = adams_matrix(g, l, cross_check=False)
                piped = pullback_adams_matrix(g, l)
                assert closed.entries == piped.entries, (family, rank, l)


def test_criterion_06_composition_law():
    with _Budget("criterion 06: M(m) . M(l) == M(m*l) and M(1) == I", 30):
        for family, rank in _all_groups():
            assert _mat(family, rank, 1).is_identity(), (family, rank)
            for l in range(1, 5):
                for m in range(1, 5):
                    left = _mat(family, rank, m).compose(_mat(family, rank, l))
                    assert left.entries == _mat(family, rank, m * l).entries, (
                        family,
                        rank,
                        l,
                        m,
                    )


def test_criterion_07_integrality():
    with _Budget("criterion 07: every matrix entry is a plain integer", 1):
        for family, rank in _all_groups():
            for l in range(1, 5):
                for row in _mat(family, rank, l).entries:
                    for e in row:
                        assert type(e) is int, (family, rank, l, e)


def test_criterion_08_spectra_match_exponents():
    with _Budget("criterion 08: char polynomial == product over exponents", 10):
        groups = (
            [("U", n) for n in range(1, 7)]
            + [("SU", n) for n in range(2, 7)]
            + [("Sp", n) for n in range(1, 7)]
            + [("SpinOdd", n) for n in range(1, 7)]
            + [("SpinEven", n) for n in (3, 4, 5, 6)]
            + [("G2", 2)]
        )
        for family, rank in groups:
            g = GroupSpec(family, rank)
            for l in (2, 3, 5):
                report = spectrum_check(g, l)
                assert report.ok, (family, rank, l, report)
        # spot values at l = 2
        assert spectrum_check(GroupSpec("U", 3), 2).eigenvalues == (2, 4, 8)
        assert spectrum_check(GroupSpec("Sp", 2), 2).eigenvalues == (4, 16)
        assert spectrum_check(GroupSpec("SpinOdd", 2), 2).eigenvalues == (4, 16)
        assert spectrum_check(GroupSpec("SpinEven", 3), 2).eigenvalues == (4, 8, 16)
        assert spectrum_check(GroupSpec("G2", 2), 2).eigenvalues == (4, 64)


def test_criterion_09_eigenvectors():
    with _Budget("criterion 09: eigen relation and independence", 10):
        for n in range(1, 9):
            for l in (2, 3, 5):
                assert all(ok for _, ok in verify_eigen_relation(n, l)), (n, l)
            assert eigenbasis_determinant(n) != 0, n


def test_criterion_10_coefficient_polynomials():
    with _Budget("criterion 10: recurrence polynomials == series expansion", 2):
        series = {y: t_over_sinh_pow(y, 22) for y in range(11)}
        for j in range(11):
            poly = sinh_pow_coeff_poly(j)
            assert poly.degree == j, j
            for y in range(11):
                assert poly(y) == series[y].coefficient(2 * j), (j, y)


def test_criterion_11_g2_closed_forms():
    with _Budget("criterion 11: G2 matrices == rational closed forms", 1):
        for l in range(1, 11):
            first = (
                Fraction(2 * l**6 + 13 * l**2, 15),
                Fraction(l**2 - l**6, 30),
            )
            second = (
                Fraction(52 * l**2 * (1 - l**4), 15),
                Fraction(l**2 * (13 * l**4 + 2), 15),
            )
            for col in (first, second):
                for c in col:
                    assert c.denominator == 1, (l, col)
            mat = adams_matrix(GroupSpec("G2"), l)
            assert mat.column(0) == first, l
            assert mat.column(1) == second, l


def test_criterion_12_symbolic_oracle():
    with _Budget("criterion 12: symbolic oracle identities", 30):
        for n in range(1, 6):
            for l in range(1, 5):
                for k in range(1, n + 1):
                    coeffs = adams_symbolic_coefficients(n, l, k)
                    for p in range(1, n + 1):
                        assert coeffs[p - 1].specialize_ones() == mu_closed(n, l, k, p), (
                            n,
                            l,
                            k,
                            p,
                        )
                ok, detail = verify_product_identity(n, l, 12)
                assert ok, detail


def test_criterion_13_spinor_classes():
    with _Budget("criterion 13: spinor difference and square relations", 5):
        for n in (3, 4, 5):
            g = GroupSpec("SpinEven", n)
            diff = (0,) * (n - 2) + (1, -1)
            for l in range(1, 6):
                image = adams_matrix(g, l).apply(diff)
                assert image == tuple(l**n * c for c in diff), (n, l)
            # squaring: psi^2 on each spinor class = 2^n * itself minus twice
            # the restriction of its wedge square
            mat = adams_matrix(g, 2)
            wedge_square = [0] * n
            j = n - 2
            while j >= 1:
                (row,) = _restrict(g, [[int(p == j) for p in range(2 * n + 1)]])
                wedge_square = [a + b for a, b in zip(wedge_square, row)]
                j -= 4
            for slot in (n - 2, n - 1):  # S+ then S-
                expected = [-2 * c for c in wedge_square]
                expected[slot] += 2**n
                assert list(mat.column(slot)) == expected, (n, slot)
