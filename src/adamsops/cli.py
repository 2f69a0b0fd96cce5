"""Command-line surface: matrices, eigenvectors, raw counts, verification.

Each verification suite is a list of checks, one row per property: its
name, a lazy search for counterexamples, and the domain it sweeps; one loop
runs the rows.  The suite table `_SUITES` gives each suite its default,
least and largest `--max-rank`/`--max-l`.  Below the least values a check
would sweep nothing, and above the largest (work caps) a sweep grows
without practical bound, so `verify` rejects both before any check runs.
The groups of the matrix sweeps and of `--group` come from the family
table, `ktheory.FAMILY_TABLE`.

`compute`, `eigen` and `mu` refuse work above two caps, `MAX_DIMENSION`
and `MAX_ROW`, before they build any count or eigenvector.  Each command
pays for its imports at start-up, so `eigen` and `symoracle` are imported
only by the commands and suites that use them.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 a verification property failed, 2 invalid arguments, 3 an internal
consistency assertion failed (independent computation routes disagreed, or
an entry that must be an integer was not).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from math import lcm
from typing import Callable, Iterable, Iterator, Sequence

from .counts import beta, mu_closed, mu_enumerate
from .exactmath import binomial, t_over_sinh_pow
from .ktheory import (
    FAMILIES,
    FAMILY_TABLE,
    AdamsMatrix,
    ConsistencyError,
    GroupSpec,
    _require_l,
    adams_matrix,
    basis,
    defining_dimension,
)
from .record import Record

__all__ = [
    "MAX_DIMENSION",
    "MAX_ROW",
    "main",
    "CheckResult",
    "counts_suite",
    "matrices_suite",
    "eigen_suite",
    "oracle_suite",
]


# ---------------------------------------------------------------------------
# verification suites


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


def _build_all(groups: Iterable[GroupSpec], ls: range, cross_check: bool) -> Iterator[str]:
    """Build every matrix and yield nothing: `adams_matrix` raises
    ConsistencyError on a failure, which `_run_checks` reports."""
    for group in groups:
        for l in ls:
            adams_matrix(group, l, cross_check=cross_check)
    yield from ()


def matrices_suite(max_rank: int = 5, max_l: int = 4) -> list[CheckResult]:
    groups, ls = _matrix_groups(max_rank), range(1, max_l + 1)
    piped = "/".join(family.name for family in FAMILY_TABLE.values() if family.pipeline)
    return _run_checks([
        (
            "matrix: closed forms equal the functoriality pipeline",
            _build_all(_matrix_groups(max_rank, reducible_only=True), ls, cross_check=True),
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
                if not adams_matrix(group, 1, cross_check=False).is_identity()
            ),
            f"all families, rank<={max_rank}",
        ),
        (
            # re-assembly raises ConsistencyError on any fractional entry
            "matrix: every entry is an integer",
            _build_all(groups, ls, cross_check=False),
            f"all families, rank<={max_rank}, l<={max_l}",
        ),
    ])


def eigen_suite(max_rank: int = 8, levels: Iterable[int] = (2, 3, 5)) -> list[CheckResult]:
    from .eigen import (
        eigenbasis_determinant,
        sinh_pow_coeff_poly,
        spectrum_check,
        verify_eigen_relation,
    )

    levels = tuple(levels)
    ranks, small = range(1, max_rank + 1), min(max_rank, 6)

    def recurrence_vs_series() -> Iterator[str]:
        # (t/sinh t)^y for y = 0..10: one inverted series, multiplied up
        base, series = t_over_sinh_pow(1, 22), [t_over_sinh_pow(0, 22)]
        for _ in range(10):
            series.append(series[-1] * base)
        for j in range(11):
            poly = sinh_pow_coeff_poly(j)
            if poly.degree != j:
                yield f"degree of coefficient polynomial {j} is {poly.degree}"
            for y in range(11):
                if poly(y) != series[y].coefficient(2 * j):
                    yield f"j={j}, y={y}"

    return _run_checks([
        (
            "eigen: closed-form vectors are eigenvectors",
            (
                f"n={n}, l={l}, k={k}"
                for n in ranks for l in levels for k, ok in verify_eigen_relation(n, l)
                if not ok
            ),
            f"n<={max_rank}, l in {levels}, all levels",
        ),
        (
            "eigen: the n vectors are linearly independent",
            (f"n={n}" for n in ranks if eigenbasis_determinant(n) == 0),
            f"n<={max_rank}",
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


# ---------------------------------------------------------------------------
# commands

# Work caps of `compute`, `eigen` and `mu`.  `compute` and `mu --check` build
# one count row of m*(l-1) + 1 integers of up to m*log2(l) bits and an
# (m+1)^2 block of them, m the defining dimension (the n of `mu`, the rank of
# `eigen`): the row grows like m*l and the block like m^2.  Plain `mu` sums
# at most m + 1 binomials of the same size; `eigen` builds m vectors of m
# rationals, and with --l --format json the matrix of U(m).  At the corners,
# `compute --group U --format csv` takes 3.8 s and 110 MB peak RSS at rank
# 256, l = 1024, 1.8 s and 62 MB at rank 256, l = 64, and 0.8 s and 48 MB at
# rank 128, l = 2048; `eigen --rank 256` takes 2.4 s and 97 MB, as much with
# --l 1024 in csv or pretty, and about 3 s and 178 MB with --l 1024
# --format json, which is written to stdout as it is encoded (2-vCPU Xeon
# VM, Python 3.11.7).
# Under the caps an entry has at most about 800 digits.
MAX_DIMENSION = 256
MAX_ROW = 2**18


def _require_within_caps(what: str, name: str, m: int, l: int) -> None:
    """Reject work above the caps, before any count is built; `name` says
    what m is."""
    if m > MAX_DIMENSION:
        raise ValueError(
            f"{what}: {name} is {m}, above the work cap MAX_DIMENSION = {MAX_DIMENSION}"
        )
    if l > 0 and m * l > MAX_ROW:
        raise ValueError(
            f"{what}: {name} times l is {m * l}, above the work cap MAX_ROW = {MAX_ROW}"
        )


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _group_from_args(family: str, rank: int | None) -> GroupSpec:
    rank = FAMILY_TABLE[family].fixed_rank or rank  # a fixed-rank family ignores --rank
    if rank is None:
        raise ValueError(f"--rank is required for family {family}")
    return GroupSpec(family, rank)


def _matrix_document(mat: AdamsMatrix) -> dict:
    return {
        "group": mat.group.family,
        "rank": mat.group.n,
        "l": mat.l,
        "basis": [b.label for b in mat.basis],
        "matrix": [[str(e) for e in row] for row in mat.entries],
    }


def _pretty_matrix_lines(mat: AdamsMatrix) -> Iterator[str]:
    labels = [b.label for b in mat.basis]
    width = max(
        max((len(str(e)) for row in mat.entries for e in row), default=1),
        max(len(s) for s in labels),
    )
    yield f"psi^{mat.l} on {mat.group}  (columns are images of basis elements)"
    yield " " * (width + 2) + "  ".join(s.rjust(width) for s in labels)
    for label, row in zip(labels, mat.entries):
        cells = "  ".join(str(e).rjust(width) for e in row)
        yield f"{label.rjust(width)}  {cells}"


def _write(
    fmt: str, doc: dict, header: list[str], rows: Iterable[list], pretty_lines: Iterable[str]
) -> None:
    """Print one result as `fmt`: the json document, the csv header and rows,
    or the pretty lines."""
    if fmt == "json":
        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif fmt == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(header)
        writer.writerows(rows)
    else:
        for line in pretty_lines:
            print(line)


def cmd_compute(args: argparse.Namespace) -> int:
    group = _group_from_args(args.group, args.rank)
    m = defining_dimension(group)
    _require_within_caps(f"{group} at l={args.l}", "defining dimension", m, args.l)
    mat = adams_matrix(group, args.l)
    rows = ([str(e) for e in row] for row in mat.entries)
    labels = [b.label for b in mat.basis]
    _write(args.format, _matrix_document(mat), labels, rows, _pretty_matrix_lines(mat))
    return 0


def cmd_eigen(args: argparse.Namespace) -> int:
    if args.rank < 1:
        raise ValueError(f"rank must be positive, got {args.rank}")
    at_l = "" if args.l is None else f" at l={args.l}"
    _require_within_caps(f"eigen{at_l}", "rank", args.rank, args.l or 0)
    if args.l is not None:
        _require_l(args.l)
    from .eigen import eigenvector

    group = GroupSpec("U", args.rank)
    vectors = [eigenvector(args.rank, k) for k in range(args.rank)]
    # only json prints the matrix
    mat = adams_matrix(group, args.l) if args.l is not None and args.format == "json" else None
    labels = [b.label for b in basis(group)]
    # display variant: --integral scales each vector by the lcm of its
    # denominators (any nonzero multiple of an eigenvector is an eigenvector)
    scales = [lcm(*(c.denominator for c in v.coords)) if args.integral else 1 for v in vectors]
    coords = [[str(c * s) for c in v.coords] for v, s in zip(vectors, scales)]
    eigenvalues = [
        f"l^{v.eigenvalue_exponent}" if args.l is None else str(args.l**v.eigenvalue_exponent)
        for v in vectors
    ]
    doc = _matrix_document(mat) if mat else {"group": "U", "rank": args.rank, "basis": labels}
    doc["eigen"] = {"levels": [v.k for v in vectors], "eigenvalues": eigenvalues, "vectors": coords}
    rows = [[v.k, value, *row] for v, value, row in zip(vectors, eigenvalues, coords)]
    pretty = [f"eigenvectors of the Adams operations on U({args.rank})"] + [
        f"  level {k}  eigenvalue {value}  ({', '.join(row)})" for k, value, *row in rows
    ]
    _write(args.format, doc, ["level", "eigenvalue", *labels], rows, pretty)
    return 0


def cmd_mu(args: argparse.Namespace) -> int:
    command = "mu --check" if args.check else "mu"
    _require_within_caps(f"{command} at l={args.l}", "n", args.n, args.l)
    value = mu_closed(args.n, args.l, args.k, args.p)
    if args.check:
        brute = mu_enumerate(args.n, args.l, args.k, args.p)
        if brute != value:
            _fail(
                f"closed form {value} disagrees with enumeration {brute} "
                f"at n={args.n}, l={args.l}, k={args.k}, p={args.p}"
            )
            return 3
    print(value)
    return 0


# name: (suite called as f(max_rank, max_l), defaults of --max-rank and
# --max-l, least and largest --max-rank and --max-l).  Below the least values
# some check of the suite would sweep nothing and pass.  The largest values
# are work caps: with both flags at their caps, counts takes 2.8 s, matrices
# 5.1 s, eigen 2.4 s and oracle 2.8 s, and past them the cost climbs fast
# (counts 14/12 4.2 s and 20/16 32 s, matrices 30/6 9.0 s and 40/5 16 s,
# eigen 40/50 5.8 s, oracle 7/4 5.2 s and 6/8 26 s; in process, 2-vCPU Xeon
# VM, Python 3.11.7).  The lambdas look the suite functions up when called, so a
# wrapped or replaced suite is the one run.
_SUITES: dict[str, tuple[Callable[[int, int | None], list[CheckResult]], tuple, tuple, tuple]] = {
    "counts": (lambda r, l: counts_suite(r, l), (8, 6), (1, 1), (12, 12)),
    "matrices": (lambda r, l: matrices_suite(r, l), (5, 4), (1, 1), (30, 5)),
    # --max-l sweeps l = 2..max-l in place of the default levels 2, 3, 5
    "eigen": (
        lambda r, l: eigen_suite(r) if l is None else eigen_suite(r, range(2, l + 1)),
        (8, None),
        (1, 2),
        (30, 50),
    ),
    "oracle": (lambda r, l: oracle_suite(r, l), (5, 4), (2, 1), (6, 5)),
}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    given = (args.max_rank, args.max_l)
    for name in names:
        _, _, least, most = _SUITES[name]
        for flag, value, low, high in zip(("--max-rank", "--max-l"), given, least, most):
            if value is not None and value < low:
                raise ValueError(f"{flag} must be at least {low} for the {name} suite, got {value}")
            if value is not None and value > high:
                raise ValueError(
                    f"{flag} is {value}, above the work cap {high} of the {name} suite"
                )
    all_results: list[CheckResult] = []
    for name in names:
        suite, defaults, _, _ = _SUITES[name]
        all_results += suite(*(d if v is None else v for v, d in zip(given, defaults)))
    for r in all_results:
        status = "PASS" if r.ok else "FAIL"
        print(f"{status}  {r.name}  [{r.detail}]")
    failed = sum(1 for r in all_results if not r.ok)
    print(f"{len(all_results) - failed}/{len(all_results)} checks passed")
    return 1 if failed else 0


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adamsops",
        description=(
            "Exact Adams-operation matrices on the primitive K-theory "
            "generators of the compact classical Lie groups and G2."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="assemble the psi^l matrix for a group")
    p_compute.add_argument("--group", required=True, choices=FAMILIES)
    p_compute.add_argument("--rank", type=int, help="rank parameter n (ignored for G2)")
    p_compute.add_argument("--l", type=int, required=True, help="Adams operation index, l >= 1")
    p_compute.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p_compute.set_defaults(func=cmd_compute)

    p_eigen = sub.add_parser("eigen", help="closed-form eigenvectors for U(rank)")
    p_eigen.add_argument("--rank", type=int, required=True)
    p_eigen.add_argument(
        "--l", type=int, help="attach concrete eigenvalues (and the matrix) for this l"
    )
    p_eigen.add_argument(
        "--integral",
        action="store_true",
        help="scale each vector to integer coordinates (display only)",
    )
    p_eigen.add_argument("--format", choices=("json", "csv", "pretty"), default="pretty")
    p_eigen.set_defaults(func=cmd_eigen)

    p_mu = sub.add_parser("mu", help="a single bounded-composition count")
    p_mu.add_argument("n", type=int)
    p_mu.add_argument("l", type=int)
    p_mu.add_argument("k", type=int)
    p_mu.add_argument("p", type=int)
    p_mu.add_argument(
        "--check",
        action="store_true",
        help="cross-check against the generating-function count table",
    )
    p_mu.set_defaults(func=cmd_mu)

    p_verify = sub.add_parser("verify", help="run the invariant sweeps")
    p_verify.add_argument(
        "--suite", choices=("all", *_SUITES), default="all"
    )
    p_verify.add_argument("--max-rank", type=int, dest="max_rank")
    p_verify.add_argument(
        "--max-l",
        type=int,
        dest="max_l",
        help="bound for l (for the eigen suite: use l = 2..max-l instead of 2, 3, 5)",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and return its exit code.  The commands raise on bad
    input; a ValueError exits 2 and a ConsistencyError 3, each with a
    one-line message on stderr."""
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        _fail(str(exc))
        return 2
    except ConsistencyError as exc:
        _fail(f"internal consistency failure: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
