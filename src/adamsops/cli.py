"""Command-line surface: matrices, eigenvectors, raw counts, verification.

`compute`, `eigen` and `mu` refuse work above two caps, `MAX_DIMENSION`
and `MAX_ROW`, before they build any count or eigenvector.  `verify` runs
the suites of `adamsops.suites`, which own their defaults; the suite table
`_SUITES` here gives only each suite's least and largest
`--max-rank`/`--max-l`.  Below the least values a check would sweep
nothing, and above the largest (work caps) a sweep grows without practical
bound, so `verify` rejects both before any check runs, and passes a suite
only the flags given.  The groups of `--group` come from the family table,
`ktheory.FAMILY_TABLE`.

Each command pays for its imports at start-up, so importing this module
loads only what `compute` and `mu` run: the counts, the integer matrix
assembly and argparse.  The rest loads on first use: `suites` for
`verify`, `eigen` and `series` for `eigen` and the eigen suite,
`symoracle` for the oracle suite, `json` for json output, and `fractions`
with `eigen`, whose recurrence runs in them; the `eigen` command prints
from the records' integer numerators and denominators and builds no
`Fraction` itself.  csv and pretty output are plain lines; a csv line is
its fields joined by commas and ended by CR LF, the bytes of `csv.writer`,
as no field holds a comma, a quote or a line break.

Data goes to stdout, diagnostics to stderr.  Exit codes: 0 success,
1 a verification property failed, 2 invalid arguments, 3 an internal
consistency assertion failed (independent computation routes disagreed, or
an entry that must be an integer was not).
"""

from __future__ import annotations

import argparse
import sys
from itertools import chain
from math import gcd
from typing import Iterable, Iterator, Sequence

from .counts import mu_closed, mu_enumerate
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

__all__ = ["MAX_DIMENSION", "MAX_ROW", "main"]


# ---------------------------------------------------------------------------
# commands

# Work caps of `compute`, `eigen` and `mu`.  `compute` and `mu --check` build
# an (m+1)^2 block of counts of up to m*log2(l) bits, m the defining
# dimension (the n of `mu`, the rank of `eigen`).  Up to l = m+1 they read it
# off one count row of m*(l-1) + 1 integers, which grows like m*l; above that
# they run about m/2 windows of m+1 degrees each, about m^2/2 steps at any l.
# Plain `mu` sums at most m + 1 binomials of the same size; `eigen` builds m
# vectors of m integer numerators over one denominator each, and with --l
# --format json the matrix of U(m).  At the corners, `compute --group U` at
# rank 256, l = 1024 takes 1.0 s in csv and in pretty and 1.0-1.4 s in json,
# at 104-115 MB peak RSS, and in csv
# 0.36 s and 66 MB at rank 256, l = 64 and 0.21 s and 30 MB at rank 128,
# l = 2048; `mu 63 4032 30 31 --check` takes 0.08 s and 18 MB and
# `mu 256 1024 128 100 --check` 0.17 s and 27 MB; `eigen --rank 256` takes
# 1.4-1.5 s and 78 MB, as much with --l 1024 in csv or pretty, and about 2.4 s
# and 137 MB with --l 1024 --format json, which is written to stdout as it is
# encoded (child wall time and ru_maxrss, medians of 3-5 runs with stdout to
# a file; 2-vCPU Xeon VM, Python 3.11.7).
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


def _rendered(mat: AdamsMatrix) -> list[list[str]]:
    """The matrix entries as text, each converted once for every format."""
    return [list(map(str, row)) for row in mat.entries]


def _matrix_document(group: GroupSpec, l: int, labels: list[str], rows: list[list[str]]) -> dict:
    return {"group": group.family, "rank": group.n, "l": l, "basis": labels, "matrix": rows}


def _pretty_matrix_lines(
    group: GroupSpec, l: int, labels: list[str], rows: list[list[str]]
) -> Iterator[str]:
    width = max(max((len(e) for row in rows for e in row), default=1), max(map(len, labels)))
    yield f"psi^{l} on {group}  (columns are images of basis elements)"
    yield " " * (width + 2) + "  ".join(s.rjust(width) for s in labels)
    for label, row in zip(labels, rows):
        cells = "  ".join(e.rjust(width) for e in row)
        yield f"{label.rjust(width)}  {cells}"


def _write(fmt: str, doc: dict, table: Iterable[list], pretty_lines: Iterable[str]) -> None:
    """Print one result as `fmt`: the json document, the csv table (its
    header row first) or the pretty lines."""
    if fmt == "json":
        import json

        json.dump(doc, sys.stdout, indent=2)
        sys.stdout.write("\n")
    elif fmt == "csv":
        sys.stdout.writelines(",".join(map(str, row)) + "\r\n" for row in table)
    else:
        sys.stdout.writelines(line + "\n" for line in pretty_lines)


def cmd_compute(args: argparse.Namespace) -> int:
    group = _group_from_args(args.group, args.rank)
    m = defining_dimension(group)
    _require_within_caps(f"{group} at l={args.l}", "defining dimension", m, args.l)
    mat = adams_matrix(group, args.l)
    labels = [b.label for b in mat.basis]
    rows = _rendered(mat)
    doc = _matrix_document(group, args.l, labels, rows)
    _write(args.format, doc, [labels, *rows], _pretty_matrix_lines(group, args.l, labels, rows))
    return 0


def _fraction_text(num: int, den: int) -> str:
    """num/den, den > 0, as `str(Fraction(num, den))` writes it: reduced,
    and the numerator alone where the denominator reduces to 1."""
    g = gcd(num, den)
    return str(num // g) if g == den else f"{num // g}/{den // g}"


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
    # denominators (any nonzero multiple of an eigenvector is an eigenvector).
    # A record is in lowest terms, so that lcm is its den and the scaled
    # vector its nums.
    if args.integral:
        coords = [list(map(str, v.nums)) for v in vectors]
    else:
        coords = [[_fraction_text(x, v.den) for x in v.nums] for v in vectors]
    eigenvalues = [
        f"l^{v.eigenvalue_exponent}" if args.l is None else str(args.l**v.eigenvalue_exponent)
        for v in vectors
    ]
    if mat:
        doc = _matrix_document(group, args.l, labels, _rendered(mat))
    else:
        doc = {"group": "U", "rank": args.rank, "basis": labels}
    doc["eigen"] = {"levels": [v.k for v in vectors], "eigenvalues": eigenvalues, "vectors": coords}
    rows = [[v.k, value, *row] for v, value, row in zip(vectors, eigenvalues, coords)]
    pretty = chain(
        [f"eigenvectors of the Adams operations on U({args.rank})"],
        (f"  level {k}  eigenvalue {value}  ({', '.join(row)})" for k, value, *row in rows),
    )
    _write(args.format, doc, [["level", "eigenvalue", *labels], *rows], pretty)
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


# name: least and largest (--max-rank, --max-l).  Each suite's defaults are
# its own, in `suites`.  Below the least values some check of the suite would
# sweep nothing and pass.  The largest values are work caps: with both flags
# at their caps, counts takes 0.9 s, matrices 2.5 s, eigen 0.38 s and oracle
# 1.4 s, and past them the cost climbs fast (counts 14/12 1.6 s and 20/16
# 11 s, matrices 30/6 4.0 s and 40/5 7.4 s, eigen 40/50 1.3 s, oracle 7/4
# 2.3 s and 6/8 13 s; medians of 4-6 runs, each timed in process in a fresh
# interpreter, 2-vCPU Xeon VM, Python 3.11.7).
_SUITES: dict[str, tuple[tuple[int, int], tuple[int, int]]] = {
    "counts": ((1, 1), (12, 12)),
    "matrices": ((1, 1), (30, 5)),
    "eigen": ((1, 2), (30, 50)),
    "oracle": ((2, 1), (6, 5)),
}


def cmd_verify(args: argparse.Namespace) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    flags = {"--max-rank": args.max_rank, "--max-l": args.max_l}
    for name in names:
        for (flag, value), low, high in zip(flags.items(), *_SUITES[name]):
            if value is not None and value < low:
                raise ValueError(f"{flag} must be at least {low} for the {name} suite, got {value}")
            if value is not None and value > high:
                raise ValueError(
                    f"{flag} is {value}, above the work cap {high} of the {name} suite"
                )
    from . import suites

    # only the flags given: a suite sweeps its own default for the others.
    # The suite is looked up when called, so a wrapped suite is the one run.
    given = {"max_rank": args.max_rank, "max_l": args.max_l}
    given = {key: value for key, value in given.items() if value is not None}
    all_results = []
    for name in names:
        all_results += getattr(suites, f"{name}_suite")(**given)
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
        help="bound for l (the eigen suite's spectrum row sweeps l = 2..max-l)",
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
