"""The `verify` suites catch what they check: every row fails, with a
counterexample in place of its swept domain, when the one function it
checks is made wrong.  The acceptance gate runs these rows, so a row that
could not fail would leave its criterion checking nothing."""

from fractions import Fraction

import pytest

import adamsops.eigen as eigen
import adamsops.ktheory as ktheory
import adamsops.suites as suites
import adamsops.symoracle as symoracle
from adamsops.eigen import Eigenbasis, SpectrumReport
from adamsops.ktheory import AdamsMatrix
from adamsops.symoracle import SymPoly

# small sweeps: each suite's arguments
SUITE_ARGS = {"counts": (3, 2), "matrices": (3, 2), "eigen": (2, 3), "oracle": (2, 2)}


def _leak_a_fraction(closed):
    """The closed route with its top-left entry an equal Fraction."""
    def leaky(group, l):
        (first, *rest), rational, den = closed(group, l)
        return ((Fraction(first[0]), *first[1:]), *rest), rational, den
    return leaky


def _off_by_one(f):
    return lambda *a: f(*a) + 1


def _changed_pipeline(f):
    """The pipeline with one more in each entry of its integer columns."""
    def pipeline(group, l):
        rows, rational, den = f(group, l)
        return [[e + 1 for e in row] for row in rows], rational, den
    return pipeline


def _at_twice_l(f):
    """The closed route at 2l: the identity's row sees psi^2 at l = 1."""
    return lambda group, l: f(group, 2 * l)


def _moved_entry(f):
    """The eigenbasis with its last column's first entry one larger, which
    at U(2) is no eigenvector."""
    def basis(group):
        vb = f(group)
        *rest, last = vb.columns
        return Eigenbasis(group, vb.eigenvalue_exponents, (*rest, (last[0] + 1, *last[1:])))
    return basis


def _zero_column(f):
    """The eigenbasis with its first column zero, which leaves the columns
    dependent."""
    def basis(group):
        vb = f(group)
        first, *rest = vb.columns
        return Eigenbasis(group, vb.eigenvalue_exponents, ((0,) * len(first), *rest))
    return basis


def _doubled(f):
    """Twice each coefficient: still symmetric, but not the counts at 1."""
    return lambda n, l, k: tuple(2 * poly for poly in f(n, l, k))


def _first_variable(f):
    """Coefficients x_1, ..., which no permutation of the variables fixes."""
    return lambda n, l, k: tuple(SymPoly.monomial(n, (1,) + (0,) * (n - 1)) for _ in range(n))


# (suite, row from 1, where the checked function lives, its name, the wrong
# stand-in made from it); a row may have more than one break, and each break's
# id numbers it within its suite
BREAKS = [
    ("counts", 1, suites, "mu_enumerate", _off_by_one),
    ("counts", 2, suites, "mu_closed", lambda f: lambda n, l, k, p: f(n, l, k, p) + k),
    ("counts", 3, suites, "mu_closed", _off_by_one),
    ("counts", 4, suites, "binomial", _off_by_one),
    ("counts", 5, suites, "beta", _off_by_one),
    ("matrices", 1, ktheory, "_symplectic_pipeline", _changed_pipeline),
    ("matrices", 2, AdamsMatrix, "compose", lambda f: lambda self, other: self),
    ("matrices", 3, ktheory, "_unitary_closed", _at_twice_l),
    ("matrices", 4, ktheory, "_unitary_closed", _leak_a_fraction),
    ("eigen", 1, eigen, "eigenbasis", _moved_entry),
    ("eigen", 1, eigen, "eigenbasis", _zero_column),
    ("eigen", 2, eigen, "_sinh_pow_coeff_polys", lambda f: lambda top: f(top + 1)[1:]),
    (
        "eigen", 3, eigen, "spectrum_check",
        lambda f: lambda group, l: SpectrumReport(group, l, False, (), (1, 0), (1, -1)),
    ),
    ("oracle", 1, symoracle, "adams_symbolic_coefficients", _doubled),
    ("oracle", 2, symoracle, "verify_product_identity", lambda f: lambda *a: (False, "forced")),
    ("oracle", 3, symoracle, "complete_by_recursion", lambda f: lambda n, c: f(n, c + 1)),
    ("oracle", 4, symoracle, "adams_symbolic_coefficients", _first_variable),
]


def _run(suite):
    return getattr(suites, f"{suite}_suite")(*SUITE_ARGS[suite])


def test_the_breaks_cover_every_row():
    rows = [(suite, row) for suite in SUITE_ARGS for row in range(1, len(_run(suite)) + 1)]
    assert list(dict.fromkeys((suite, row) for suite, row, *_ in BREAKS)) == rows
    assert (len(rows), len(BREAKS)) == (16, 17)


def _break_ids():
    seen = {}
    for suite, *_ in BREAKS:
        seen[suite] = seen.get(suite, 0) + 1
        yield f"{suite}-{seen[suite]}"


@pytest.mark.parametrize("suite, row, owner, name, wrong", BREAKS, ids=list(_break_ids()))
def test_every_suite_row_can_fail(
    monkeypatch, fresh_spectrum_reports, suite, row, owner, name, wrong
):
    passed = _run(suite)[row - 1]
    assert passed.ok
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    fresh_spectrum_reports()
    failed = _run(suite)[row - 1]
    assert failed.name == passed.name
    assert not failed.ok
    assert failed.detail != passed.detail


def test_the_integer_row_catches_an_entry_that_only_equals_an_integer(monkeypatch):
    # Fraction(2) == 2, so building the matrix raises nothing
    monkeypatch.setattr(ktheory, "_unitary_closed", _leak_a_fraction(ktheory._unitary_closed))
    row = suites.matrices_suite(3, 2)[3]
    assert (row.name, row.ok) == ("matrix: every entry is an integer", False)
    assert row.detail == "U(1), l=1"


def test_the_certificate_row_fails_on_dependent_columns(monkeypatch, fresh_spectrum_reports):
    # a zero column satisfies every eigen-relation, so only the independence
    # half of the row, the basis's well-formedness, can see it
    monkeypatch.setattr(eigen, "eigenbasis", _zero_column(eigen.eigenbasis))
    row = suites.eigen_suite(*SUITE_ARGS["eigen"])[0]
    assert (row.name, row.ok) == ("eigen: closed-form vectors are independent eigenvectors", False)
    assert row.detail == "n=1, l=1"


def _wrong_at(n, at_l, closed):
    """The closed route with one more in its top-left entry for U(n) at this
    l alone."""
    def route(group, l):
        rows, rational, den = closed(group, l)
        if (group, l) == (ktheory.GroupSpec("U", n), at_l):
            first, *rest = rows
            rows = [(first[0] + 1, *first[1:]), *rest]
        return rows, rational, den
    return route


@pytest.mark.parametrize("n, l", [(3, 4), (1, 1), (5, 6), (8, 9)])
def test_the_certificate_row_proves_every_l(monkeypatch, n, l):
    # a U(n) matrix wrong at any one l of 1..n+1 fails the row at that l,
    # whatever l the spectrum row sweeps (here only l = 2)
    monkeypatch.setattr(ktheory, "_unitary_closed", _wrong_at(n, l, ktheory._unitary_closed))
    row = suites.eigen_suite(8, 2)[0]
    assert (row.name, row.ok, row.detail) == (
        "eigen: closed-form vectors are independent eigenvectors", False, f"n={n}, l={l}"
    )


def test_the_series_row_names_a_wrong_value(monkeypatch):
    # one more than each coefficient polynomial: every degree stays right
    real = eigen._sinh_pow_coeff_polys
    monkeypatch.setattr(
        eigen, "_sinh_pow_coeff_polys", lambda top: [(q[0] + 1, *q[1:]) for q in real(top)]
    )
    row = suites.eigen_suite(*SUITE_ARGS["eigen"])[1]
    assert (row.name, row.ok) == ("eigen: recurrence matches the series expansion", False)
    assert row.detail == "j=0, y=0"


def test_the_symmetry_row_checks_the_cycle(monkeypatch):
    # lambda_1 lambda_2 is fixed by swapping the first two variables, but at
    # n = 3 not by the cycle
    real = symoracle.adams_symbolic_coefficients

    def pair(n, l, k):
        return (SymPoly.monomial(3, (1, 1, 0)),) * 3 if n == 3 else real(n, l, k)

    monkeypatch.setattr(symoracle, "adams_symbolic_coefficients", pair)
    row = suites.oracle_suite(3, 1)[3]
    assert row.name == "oracle: symbolic coefficients are symmetric in the variables"
    assert (row.ok, row.detail) == (False, "n=3, l=1, k=1 (cycle)")
