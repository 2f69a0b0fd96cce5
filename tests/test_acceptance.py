"""Acceptance gate: thirteen exact end-to-end properties, each a single test.

Every comparison is exact integer or rational equality -- there is no
tolerance anywhere -- and each test enforces its own wall-clock budget.
Run `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.

Criteria 01-10 and 12 run the `verify` suites of `adamsops.suites`, the one
implementation of each sweep that the command line ships: each asserts that
its rows pass, and pins the exact domain each row reports as swept.
Criteria 11 and 13 have no suite row and check their values here.  The
second, independent loop over each suite property is in the unit tests:
`test_counts`, `test_ktheory`, `test_eigen` and `test_symoracle`.
"""

import time
from fractions import Fraction

from adamsops.eigen import spectrum_check
from adamsops.ktheory import GroupSpec, _restrict, adams_matrix
from adamsops.suites import counts_suite, eigen_suite, matrices_suite, oracle_suite


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


def _assert_rows_pass(results, swept):
    """Each suite row numbered (from 1) in `swept` passed, reporting exactly
    the domain given for it."""
    for row, domain in swept.items():
        result = results[row - 1]
        assert (result.ok, result.detail) == (True, domain), result.name


def test_criterion_01_closed_count_equals_enumeration():
    with _Budget("criterion 01: closed count formula == enumeration", 10):
        _assert_rows_pass(counts_suite(8, 6), {1: "n<=8, l<=6, 0<=k<=n, 0<=p<=l*n"})


def test_criterion_02_count_duality():
    with _Budget("criterion 02: duality (k, p) -> (n-k, n-p)", 5):
        _assert_rows_pass(counts_suite(8, 6), {2: "n<=8, l<=6"})


def test_criterion_03_count_multiplicativity():
    with _Budget("criterion 03: convolution over p == count for l*m", 5):
        _assert_rows_pass(counts_suite(8, 6), {3: "n<=8, l,m<=6, 1<=k,q<=n"})


def test_criterion_04_square_operation_single_binomial():
    with _Budget("criterion 04: l=2 count == C(n, 2k-p)", 1):
        _assert_rows_pass(counts_suite(8, 6), {4: "n<=10, 0<=k<=n, 0<=p<=2n"})


def test_criterion_05_closed_forms_equal_pipeline():
    with _Budget("criterion 05: closed matrices == functoriality pipeline", 30):
        _assert_rows_pass(matrices_suite(5, 5), {1: "Sp/SpinOdd/SpinEven/G2, rank<=5, l<=5"})


def test_criterion_06_composition_law():
    with _Budget("criterion 06: M(m) . M(l) == M(m*l) and M(1) == I", 30):
        _assert_rows_pass(
            matrices_suite(5, 5),
            {2: "all families, rank<=5, l,m<=5", 3: "all families, rank<=5"},
        )


def test_criterion_07_integrality():
    with _Budget("criterion 07: every matrix entry is a plain integer", 1):
        _assert_rows_pass(matrices_suite(5, 5), {4: "all families, rank<=5, l<=5"})


def test_criterion_08_spectra_match_exponents():
    with _Budget("criterion 08: char polynomial == product over exponents", 10):
        _assert_rows_pass(eigen_suite(8), {3: "all families, rank<=6, l in (2, 3, 4, 5)"})
        # spot values at l = 2
        assert spectrum_check(GroupSpec("U", 3), 2).eigenvalues == (2, 4, 8)
        assert spectrum_check(GroupSpec("Sp", 2), 2).eigenvalues == (4, 16)
        assert spectrum_check(GroupSpec("SpinOdd", 2), 2).eigenvalues == (4, 16)
        assert spectrum_check(GroupSpec("SpinEven", 3), 2).eigenvalues == (4, 8, 16)
        assert spectrum_check(GroupSpec("G2", 2), 2).eigenvalues == (4, 64)


def test_criterion_09_eigenvectors():
    with _Budget("criterion 09: eigen relation and independence", 10):
        _assert_rows_pass(eigen_suite(8), {1: "n<=8, every l >= 1 (l = 1..n+1), all levels"})


def test_criterion_10_coefficient_polynomials():
    with _Budget("criterion 10: recurrence polynomials == series expansion", 2):
        _assert_rows_pass(eigen_suite(8), {2: "y<=10, j<=10, degrees exact"})


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
            assert tuple(row[0] for row in mat.entries) == first, l
            assert tuple(row[1] for row in mat.entries) == second, l


def test_criterion_12_symbolic_oracle():
    with _Budget("criterion 12: symbolic oracle identities", 30):
        _assert_rows_pass(
            oracle_suite(5, 4), {1: "n<=5, l<=4, 1<=k,p<=n", 2: "n<=5, l<=4, degree<=12"}
        )


def test_criterion_13_spinor_classes():
    with _Budget("criterion 13: spinor difference and square relations", 5):
        for n in (3, 4, 5):
            g = GroupSpec("SpinEven", n)
            diff = (0,) * (n - 2) + (1, -1)
            for l in range(1, 6):
                # the image of d(S+) - d(S-): column n-2 minus column n-1
                image = tuple(row[n - 2] - row[n - 1] for row in adams_matrix(g, l).entries)
                assert image == tuple(l**n * c for c in diff), (n, l)
            # squaring: psi^2 on each spinor class = 2^n * itself minus twice
            # the restriction of its wedge square
            mat = adams_matrix(g, 2)
            wedge_square = [0] * n
            j = n - 2
            while j >= 1:
                row = [x for (x,) in _restrict(g, [[int(p == j)] for p in range(2 * n + 1)])]
                wedge_square = [a + b for a, b in zip(wedge_square, row)]
                j -= 4
            for slot in (n - 2, n - 1):  # S+ then S-
                expected = [-2 * c for c in wedge_square]
                expected[slot] += 2**n
                assert [row[slot] for row in mat.entries] == expected, (n, slot)
