"""The invariant sweeps of `adamsops verify`, one suite per layer.

Each suite is a list of checks, one row per property: its name, a lazy
search for counterexamples, and the domain it sweeps; one loop
(`_run_checks`) runs the rows.  The groups of the matrix sweeps come from
the family table, `ktheory.FAMILY_TABLE`.  Every suite takes `(max_rank,
max_l)` with its own defaults, which `verify` uses for a flag left out.
These are the one implementation of each sweep: the acceptance gate,
`tests/test_acceptance.py`, runs them and pins each row's swept domain.
The command line imports this module only for `verify`, and the eigen and
oracle suites import `eigen` and `symoracle` only when they run.

A row that checks a polynomial identity in l of degree <= m at l = 1..m+1
proves it for every l >= 1.  Every entry of a psi^l matrix is such a
polynomial, m the defining dimension: a block entry of
`counts.signed_table` is l times a count of degree <= m-1 (the proof is in
its docstring), both routes combine block entries with coefficients free of
l, Spin(2n)'s term l^n 2^(n-1) comes from `ktheory._half_spin_split`, which
both share, and G2's closed form has degree 6.  So an identity such as
M(l).w = l^e.w, e <= m, whose every entry is a polynomial of degree <= m,
holds at every l once it holds at m+1 of them.  The unit test
`test_every_entry_is_a_polynomial_in_l_of_degree_at_most_m` checks the
bound itself.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .counts import beta, mu_closed, mu_enumerate
from .exactmath import binomial
from .ktheory import FAMILY_TABLE, ConsistencyError, GroupSpec, adams_matrix
from .record import Record

__all__ = ["CheckResult", "counts_suite", "matrices_suite", "eigen_suite", "oracle_suite"]


class CheckResult(Record):
    name: str
    ok: bool
    detail: str


def _run_checks(checks: Sequence[tuple[str, Iterator[str], str]]) -> list[CheckResult]:
    """One result per (name, counterexamples, swept domain) row, in order.
    The counterexamples are a lazy search: a check fails with the first one
    it finds, and passes, reporting the domain it swept, if there is none.
    A ConsistencyError raised by the search is its first counterexample."""
    results = []
    for name, counterexamples, swept in checks:
        try:
            first = next(counterexamples, None)
        except ConsistencyError as exc:
            first = str(exc)
        results.append(CheckResult(name, first is None, swept if first is None else first))
    return results


def counts_suite(max_rank: int = 8, max_l: int = 6) -> list[CheckResult]:
    ranks, ls = range(1, max_rank + 1), range(1, max_l + 1)
    top = max(10, max_rank)
    return _run_checks([
        (
            "count: closed form equals enumeration",
            (
                f"n={n}, l={l}, k={k}, p={p}"
                for n in ranks for l in ls for k in range(n + 1) for p in range(l * n + 1)
                if mu_closed(n, l, k, p) != mu_enumerate(n, l, k, p)
            ),
            f"n<={max_rank}, l<={max_l}, 0<=k<=n, 0<=p<=l*n",
        ),
        (
            "count: duality under (k, p) -> (n-k, n-p)",
            (
                f"n={n}, l={l}, k={k}, p={p}"
                for n in ranks for l in ls for k in range(n + 1) for p in range(l * n + 1)
                if mu_closed(n, l, k, p) != mu_closed(n, l, n - k, n - p)
            ),
            f"n<={max_rank}, l<={max_l}",
        ),
        (
            "count: composition convolution",
            (
                f"n={n}, l={l}, m={m}, k={k}, q={q}"
                for n in ranks for l in ls for m in ls
                for k in range(1, n + 1) for q in range(1, n + 1)
                if sum(mu_closed(n, l, k, p) * mu_closed(n, m, p, q) for p in range(1, n + 1))
                != mu_closed(n, m * l, k, q)
            ),
            f"n<={max_rank}, l,m<={max_l}, 1<=k,q<=n",
        ),
        (
            "count: l=2 collapses to a single binomial",
            (
                f"n={n}, k={k}, p={p}"
                for n in range(1, top + 1) for k in range(n + 1) for p in range(2 * n + 1)
                if mu_closed(n, 2, k, p) != binomial(n, 2 * k - p)
            ),
            f"n<={top}, 0<=k<=n, 0<=p<=2n",
        ),
        (
            "count: table difference equals closed-form difference",
            (
                f"n={n}, l={l}, k={k}, p={p}"
                for n in ranks for l in ls for k in range(n + 1) for p in range(n + 1)
                if beta(n, l, k, p) != mu_closed(n, l, k, p) - mu_closed(n, l, k, n - p)
            ),
            f"n<={max_rank}, l<={max_l}",
        ),
    ])


def _matrix_groups(max_rank: int, reducible_only: bool = False) -> list[GroupSpec]:
    """Every group of rank <= max_rank (a fixed-rank family regardless), family
    by family; with reducible_only, only the families with a pipeline route."""
    return [
        GroupSpec(family.name, n)
        for family in FAMILY_TABLE.values()
        if family.pipeline or not reducible_only
        for n in (
            [family.fixed_rank] if family.fixed_rank else range(family.min_rank, max_rank + 1)
        )
    ]


def _cross_check_all(groups: Iterable[GroupSpec], ls: range) -> Iterator[str]:
    """Build every matrix by both routes and yield nothing: `adams_matrix`
    raises ConsistencyError where they disagree, which `_run_checks` reports."""
    for group in groups:
        for l in ls:
            adams_matrix(group, l, cross_check=True)
    yield from ()


def matrices_suite(max_rank: int = 5, max_l: int = 4) -> list[CheckResult]:
    groups, ls = _matrix_groups(max_rank), range(1, max_l + 1)
    piped = "/".join(family.name for family in FAMILY_TABLE.values() if family.pipeline)
    return _run_checks([
        (
            "matrix: closed forms equal the functoriality pipeline",
            _cross_check_all(_matrix_groups(max_rank, reducible_only=True), ls),
            f"{piped}, rank<={max_rank}, l<={max_l}",
        ),
        (
            "matrix: composition M(m).M(l) = M(m*l)",
            (
                f"{group}, l={l}, m={m}"
                for group in groups for l in ls for m in ls
                if adams_matrix(group, m, cross_check=False)
                .compose(adams_matrix(group, l, cross_check=False))
                .entries
                != adams_matrix(group, m * l, cross_check=False).entries
            ),
            f"all families, rank<={max_rank}, l,m<={max_l}",
        ),
        (
            "matrix: l=1 gives the identity",
            (
                str(group)
                for group in groups
                if any(
                    row != (0,) * i + (1,) + (0,) * (len(row) - i - 1)
                    for i, row in enumerate(adams_matrix(group, 1, cross_check=False).entries)
                )
            ),
            f"all families, rank<={max_rank}",
        ),
        (
            # a plain int: an entry that only equals one, such as Fraction(2), fails
            "matrix: every entry is an integer",
            (
                f"{group}, l={l}"
                for group in groups for l in ls
                if any(
                    type(e) is not int
                    for row in adams_matrix(group, l, cross_check=False).entries for e in row
                )
            ),
            f"all families, rank<={max_rank}, l<={max_l}",
        ),
    ])


def eigen_suite(max_rank: int = 8, max_l: int = 5) -> list[CheckResult]:
    """The eigen checks.  The certificate of U(n) runs at l = 1..n+1, which
    proves it at every l >= 1 (see the module docstring): at l = 1 it
    demands M = I, and at l >= 2 it checks the l-free conditions of a well
    formed basis and M.w = l^e.w for each level w, e <= n.  At l = 2, always
    swept, the n distinct eigenvalues then make the n levels independent.
    `max_l` bounds only the spectrum row, which sweeps l = 2..max_l."""
    from .eigen import (
        _certifies,
        _sinh_pow_coeff_polys,
        eigenbasis,
        spectrum_check,
        t_over_sinh_pow,
    )

    levels = tuple(range(2, max_l + 1))
    small = min(max_rank, 6)

    def recurrence_vs_series() -> Iterator[str]:
        series = [t_over_sinh_pow(y, 20) for y in range(11)]
        for j, poly in enumerate(_sinh_pow_coeff_polys(10)):
            degree = max((d for d, c in enumerate(poly) if c), default=-1)
            if degree != j:
                yield f"degree of coefficient polynomial {j} is {degree}"
            for y in range(11):
                value = 0
                for c in reversed(poly):  # Horner
                    value = value * y + c
                if value != series[y][2 * j]:
                    yield f"j={j}, y={y}"

    return _run_checks([
        (
            # the certificate of U(n): every level w, scaled to primitive
            # integers, satisfies M.w = l^(n-k).w exactly
            "eigen: closed-form vectors are independent eigenvectors",
            (
                f"n={n}, l={l}"
                for n in range(1, max_rank + 1)
                for group in [GroupSpec("U", n)]
                for l in range(1, n + 2)
                if not _certifies(eigenbasis(group), adams_matrix(group, l).entries, l)
            ),
            f"n<={max_rank}, every l >= 1 (l = 1..n+1), all levels",
        ),
        (
            "eigen: recurrence matches the series expansion",
            recurrence_vs_series(),
            "y<=10, j<=10, degrees exact",
        ),
        (
            "eigen: characteristic polynomial matches the exponents",
            (
                f"{group}, l={l}: {report.char_coeffs} != {report.expected_coeffs}"
                for group in _matrix_groups(small) for l in levels
                if not (report := spectrum_check(group, l)).ok
            ),
            f"all families, rank<={small}, l in {levels}",
        ),
    ])


# The degree to which the oracle suite checks the product identities.
_ORACLE_DEGREE = 12


def oracle_suite(max_rank: int = 5, max_l: int = 4) -> list[CheckResult]:
    from .symoracle import (
        adams_symbolic_coefficients,
        complete_by_recursion,
        symmetric_basis,
        verify_product_identity,
    )

    ranks, ls = range(1, max_rank + 1), range(1, max_l + 1)

    def symmetry() -> Iterator[str]:
        for n in range(2, max_rank + 1):
            swap = (1, 0) + tuple(range(2, n))
            cycle = tuple(range(1, n)) + (0,)
            for l in ls:
                for k in range(1, n + 1):
                    for poly in adams_symbolic_coefficients(n, l, k):
                        if poly.permute_variables(swap) != poly:
                            yield f"n={n}, l={l}, k={k} (transposition)"
                        if poly.permute_variables(cycle) != poly:
                            yield f"n={n}, l={l}, k={k} (cycle)"

    return _run_checks([
        (
            "oracle: specializing the symbolic coefficients at 1 gives the counts",
            (
                f"n={n}, l={l}, k={k}, p={p}"
                for n in ranks for l in ls for k in range(1, n + 1)
                for p, poly in enumerate(adams_symbolic_coefficients(n, l, k), start=1)
                if poly.specialize_ones() != mu_closed(n, l, k, p)
            ),
            f"n<={max_rank}, l<={max_l}, 1<=k,p<=n",
        ),
        (
            "oracle: geometric product and coefficient identities",
            (
                detail
                for n in ranks for l in ls
                for ok, detail in [verify_product_identity(n, l, _ORACLE_DEGREE)]
                if not ok
            ),
            f"n<={max_rank}, l<={max_l}, degree<={_ORACLE_DEGREE}",
        ),
        (
            "oracle: recursive complete symmetric polynomials match the definition",
            (
                f"n={n}, degree={c}"
                for n in ranks for c in range(9)
                if complete_by_recursion(n, c) != symmetric_basis(n, c, "complete")
            ),
            f"n<={max_rank}, degree<=8",
        ),
        (
            "oracle: symbolic coefficients are symmetric in the variables",
            symmetry(),
            f"n<={max_rank}, l<={max_l}",
        ),
    ])
