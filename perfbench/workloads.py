"""The four seeded workloads: what each operation is, how it runs, how its
output is checked.

Every workload is a closed loop: one client in one process sends its next
operation only when the previous one has returned.  A workload yields its
operations in laps (`laps(seed)`); the same seed gives the same laps.  Each
lap has the same mix of operation sizes, spread evenly through the lap, so a
run that stops mid-lap still measures a representative mix.

Operations call the library through module attributes (``K.adams_matrix``,
not a name imported once), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterator

import adamsops.cli as CLI
import adamsops.counts as C
import adamsops.eigen as E
import adamsops.ktheory as K
import adamsops.symoracle as S

import reference as R

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def python_env() -> dict[str, str]:
    """The environment for a child interpreter that imports the library from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


Op = tuple  # (kind, *arguments)

FAMILIES = ("U", "SU", "Sp", "SpinOdd", "SpinEven", "G2")
MIN_RANK = {"U": 1, "SU": 2, "Sp": 1, "SpinOdd": 1, "SpinEven": 3}


def rank_of(family: str, m: int) -> int:
    """The rank n whose defining representation has dimension m."""
    return {"U": m, "SU": m, "Sp": m // 2, "SpinEven": m // 2, "SpinOdd": (m - 1) // 2}[family]


def spread(groups: list[list[Op]], rng: random.Random) -> list[Op]:
    """Shuffle each group and interleave the groups so each one is spread
    evenly through the result: op i of a group of size g sits near position
    (i + u) / g, u uniform in [0, 1)."""
    keyed = []
    for group in groups:
        g = len(group)
        for i, op in enumerate(rng.sample(group, g)):
            keyed.append(((i + rng.random()) / g, op))
    keyed.sort(key=lambda kv: kv[0])
    return [op for _, op in keyed]


def library_caches() -> list:
    """Every `lru_cache` in the package's modules, public or private, looked
    up through any tracing wrapper."""
    found = {}
    for key, module in list(sys.modules.items()):
        if module is None or not (key == "adamsops" or key.startswith("adamsops.")):
            continue
        for value in vars(module).values():
            while not hasattr(value, "cache_clear") and hasattr(value, "__wrapped__"):
                value = value.__wrapped__
            if hasattr(value, "cache_clear"):
                found[id(value)] = value
    return list(found.values())


# Hits and misses of every cache as of its last clear, so that statistics
# taken across a clear still add up.
_cleared: dict[int, tuple[int, int]] = {}


def clear_library_caches() -> None:
    for cache in library_caches():
        info = cache.cache_info()
        hits, misses = _cleared.get(id(cache), (0, 0))
        _cleared[id(cache)] = (hits + info.hits, misses + info.misses)
        cache.cache_clear()


def cache_stats(cache) -> tuple[int, int]:
    """Hits and misses of an `lru_cache` since the process started."""
    info = cache.cache_info()
    hits, misses = _cleared.get(id(cache), (0, 0))
    return hits + info.hits, misses + info.misses


class Workload:
    name = ""
    # The first this many operations of a run feed its output digest, so runs
    # of one seed can be compared even when they complete different counts.
    digest_ops = 0
    children_rss = False

    def laps(self, seed: int) -> Iterator[list[Op]]:
        raise NotImplementedError

    def prepare(self, seed: int) -> None:
        """Untimed set-up before the first operation of a run."""
        clear_library_caches()

    def start_lap(self) -> None:
        """Untimed work between laps."""

    def execute(self, op: Op) -> object:
        raise NotImplementedError

    def execute_in_process(self, op: Op) -> object:
        """The operation as the traced run performs it."""
        return self.execute(op)

    def check(self, op: Op, out: object) -> str | None:
        """Why `out` is a wrong result for `op`, or None."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# matrix-cold


class MatrixCold(Workload):
    """`adams_matrix` with cross-check, each operation on its own
    (defining dimension m, l) pair, so no count is ever served from a cache
    filled by an earlier operation."""

    name = "matrix-cold"
    digest_ops = 80
    FAMILIES = ("U", "SU", "Sp", "SpinOdd", "SpinEven")
    LS = (2, 3, 5, 7, 11, 50)
    M_LO, M_HI, BUCKET = 16, 80, 5

    def laps(self, seed: int) -> Iterator[list[Op]]:
        """m runs over 13 buckets of 5 consecutive values, and within bucket
        b each family owns one m of matching parity.  A lap holds one
        operation per (bucket b, l index j), of family FAMILIES[(b + j) % 5]
        with that family's m, so no (m, l) pair repeats in a lap.  Every lap
        of every seed has this same mix: a run's mix must not depend on its
        seed or on how many laps it completes, or runs are not comparable.
        The seed sets the order, round-robin over the buckets, so every
        prefix of a lap keeps the spread of m."""
        rng = random.Random(seed)
        buckets = list(range(self.M_LO, self.M_HI + 1, self.BUCKET))
        cells = []  # per bucket: the lap's operation for each l index
        for b, lo in enumerate(buckets):
            ms = range(lo, lo + self.BUCKET)
            evens = [m for m in ms if m % 2 == 0]
            odds = [m for m in ms if m % 2]
            rest = sorted(set(ms) - {evens[0], evens[1], odds[0]})
            owner = {"Sp": evens[0], "SpinEven": evens[1], "SpinOdd": odds[0], "U": rest[0], "SU": rest[1]}
            row = []
            for j, l in enumerate(self.LS):
                family = self.FAMILIES[(b + j) % 5]
                row.append(("matrix", family, rank_of(family, owner[family]), l))
            cells.append(row)
        while True:
            order = [rng.sample(row, len(row)) for row in cells]
            lap = []
            for r in range(len(self.LS)):
                rnd = [row[r] for row in order]
                rng.shuffle(rnd)
                lap += rnd
            yield lap

    def start_lap(self) -> None:
        # Laps repeat (m, l) pairs: start each from empty caches, which also
        # keeps peak memory at one lap's working set.
        clear_library_caches()

    def execute(self, op: Op) -> object:
        _, family, n, l = op
        return K.adams_matrix(K.GroupSpec(family, n), l, cross_check=True)

    def check(self, op: Op, out: object) -> str | None:
        _, family, n, l = op
        return R.matrix_problem(out.entries, family, n, l)


# ---------------------------------------------------------------------------
# sweep-warm


class SweepWarm(Workload):
    """The traffic of `verify` and of the acceptance sweeps: many small
    cases over all six families, repeated, with the caches already filled."""

    name = "sweep-warm"
    digest_ops = 2000
    MAX_RANK, MAX_L = 10, 12

    def pool(self, seed: int) -> list[Op]:
        """The distinct cases of one lap.  Which cases exist per family and
        rank is fixed; the seed draws the l values of each composition and
        the degree k of each count row."""
        rng = random.Random(seed)
        cases: list[Op] = []
        for family in FAMILIES:
            ranks = [2] if family == "G2" else range(MIN_RANK[family], self.MAX_RANK + 1)
            for n in ranks:
                cases.append(("identity", family, n))
                if family == "G2":
                    for _ in range(12):
                        a = rng.randint(2, 31)
                        cases.append(("compose", family, n, a, rng.randint(2, 1000 // a)))
                    continue
                for lo, hi in ((2, 4), (5, 8), (9, self.MAX_L)):
                    cases.append(("compose", family, n, rng.randint(lo, hi), rng.randint(2, self.MAX_L)))
        for n in range(1, self.MAX_RANK + 1):
            for l in range(1, self.MAX_L + 1):
                cases.append(("counts", n, l, rng.randint(0, n)))
        for n in range(1, 5):
            for l in range(1, 5):
                for k in range(1, n + 1):
                    cases.append(("symbolic", n, l, k))
        return cases

    def laps(self, seed: int) -> Iterator[list[Op]]:
        cases = self.pool(seed)
        rng = random.Random(seed + 1)
        while True:
            yield rng.sample(cases, len(cases))

    def prepare(self, seed: int) -> None:
        clear_library_caches()
        for op in self.pool(seed):
            self.execute(op)

    def execute(self, op: Op) -> object:
        kind = op[0]
        if kind == "compose":
            _, family, n, a, b = op
            g = K.GroupSpec(family, n)
            ma, mb = K.adams_matrix(g, a), K.adams_matrix(g, b)
            return ma.compose(mb).entries, K.adams_matrix(g, a * b).entries
        if kind == "identity":
            _, family, n = op
            return K.adams_matrix(K.GroupSpec(family, n), 1).entries
        if kind == "counts":
            _, n, l, k = op
            return tuple((C.mu_closed(n, l, k, p), C.mu_enumerate(n, l, k, p)) for p in range(n + 1))
        _, n, l, k = op  # symbolic
        coeffs = S.adams_symbolic_coefficients(n, l, k)
        return (
            tuple(poly.specialize_ones() for poly in coeffs),
            tuple(C.mu_closed(n, l, k, p) for p in range(1, n + 1)),
        )

    def check(self, op: Op, out: object) -> str | None:
        kind = op[0]
        if kind == "compose":
            _, family, n, a, b = op
            lhs, rhs = out
            if lhs != rhs:
                return f"M({a}) M({b}) != M({a * b}) for {family}({n})"
            return R.matrix_problem(rhs, family, n, a * b)
        if kind == "identity":
            _, family, n = op
            d = len(out)
            if out != tuple(tuple(int(i == j) for j in range(d)) for i in range(d)):
                return f"psi^1 on {family}({n}) is not the identity"
            return R.matrix_problem(out, family, n, 1)
        _, n, l, k = op
        row = R.count_row(n, l)
        if kind == "counts":
            for p, (closed, enumerated) in enumerate(out):
                want = R.mu(n, l, k, p, row)
                if not closed == enumerated == want:
                    return f"mu({n},{l},{k},{p}): closed {closed}, enumerated {enumerated}, want {want}"
            return None
        special, counts = out
        want = tuple(R.mu(n, l, k, p, row) for p in range(1, n + 1))
        if not special == counts == want:
            return f"symbolic({n},{l},{k}) at ones {special}, counts {counts}, want {want}"
        return None


# ---------------------------------------------------------------------------
# eigen-spectrum


class EigenSpectrum(Workload):
    """Eigenvectors of U(n) at every level, the eigenbasis determinant, and
    the characteristic-polynomial check of every family, ranks 10-34."""

    name = "eigen-spectrum"
    digest_ops = 60
    RANKS = (10, 16, 22, 28, 34)

    def __init__(self) -> None:
        self._unitary: dict[tuple[int, int], list[list[int]]] = {}  # reference U(n) matrices

    def laps(self, seed: int) -> Iterator[list[Op]]:
        """A lap has one round at each rank of RANKS: every level of U(n),
        the determinant, and the spectrum of every family at rank n, at
        l = 2 or 3 alternating over families and ranks.  Every lap of every
        seed has this same mix.  The seed picks G2's l up to 1000, the l that
        checks each eigenvector, and the order; each (rank, kind) group is
        spread evenly through the lap."""
        rng = random.Random(seed)
        while True:
            groups = []
            for i, n in enumerate(self.RANKS):
                groups.append([("eigenvector", n, k, rng.choice((2, 3))) for k in range(n)])
                groups.append(
                    [("spectrum", f, n, 2 + (i + x) % 2) for x, f in enumerate(FAMILIES[:-1])]
                    + [("determinant", n), ("spectrum", "G2", 2, rng.randint(2, 1000))]
                )
            yield spread(groups, rng)

    def start_lap(self) -> None:
        # The reference matrices live in the measured process: keep them
        # from piling up in its peak memory.
        self._unitary.clear()

    def execute(self, op: Op) -> object:
        kind = op[0]
        if kind == "eigenvector":
            _, n, k, _ = op
            return E.eigenvector(n, k)
        if kind == "determinant":
            return E.eigenbasis_determinant(op[1])
        _, family, n, l = op
        return E.spectrum_check(K.GroupSpec(family, n), l)

    def check(self, op: Op, out: object) -> str | None:
        kind = op[0]
        if kind == "eigenvector":
            _, n, k, l = op
            if (n, l) not in self._unitary:
                self._unitary[(n, l)] = R.unitary_matrix(n, l)
            problem = R.eigen_problem(self._unitary[(n, l)], out.coords, l ** (n - k))
            return problem and f"U({n}) level {k}, l={l}: {problem}"
        if kind == "determinant":
            return None if out != 0 else f"eigenbasis of U({op[1]}) is singular"
        _, family, n, l = op
        if not out.ok:
            return f"spectrum_check({family}({n}), {l}) is not ok"
        if tuple(out.char_coeffs) != R.expected_char_poly(family, n, l):
            return f"char_poly of {family}({n}), l={l} has the wrong coefficients"
        return None


# ---------------------------------------------------------------------------
# cli-cold


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str


class CliCold(Workload):
    """`python -m adamsops` as a fresh child process per command, one at a
    time: start-up, import and serialisation block every result."""

    name = "cli-cold"
    digest_ops = 40
    children_rss = True
    FORMATS = ("json", "csv", "pretty")
    VERIFY = (("counts", 3, 3), ("matrices", 3, 3), ("eigen", 4, 3), ("oracle", 3, 2))

    def laps(self, seed: int) -> Iterator[list[Op]]:
        """A lap is 12 `compute` (two per family, four per format), 3
        `eigen`, 3 `mu --check` and 2 `verify` commands, one of them the
        oracle suite.  The seed draws ranks, l values and the order."""
        rng = random.Random(seed)
        while True:
            groups = [[], [], [], []]
            for i in range(12):
                family = FAMILIES[i % len(FAMILIES)]
                top = 20 if family in ("U", "SU") else 12
                n = 2 if family == "G2" else rng.randint(max(3, MIN_RANK[family]), top)
                l = rng.randint(2, 200) if family == "G2" else rng.randint(2, 12)
                groups[0].append(("compute", family, n, l, self.FORMATS[(i + i // 6) % 3]))
            for _ in range(3):
                groups[1].append(("eigen", rng.randint(4, 12), rng.randint(2, 5), rng.choice(("json", "csv"))))
            for _ in range(3):
                n = rng.randint(2, 12)
                groups[2].append(("mu", n, rng.randint(2, 60), rng.randint(1, n), rng.randint(0, n)))
            groups[3] = [("verify", "oracle", 2, 2), ("verify",) + rng.choice(self.VERIFY)]
            yield spread(groups, rng)

    @staticmethod
    def argv(op: Op) -> list[str]:
        kind = op[0]
        if kind == "compute":
            _, family, n, l, fmt = op
            return ["compute", "--group", family, "--rank", str(n), "--l", str(l), "--format", fmt]
        if kind == "eigen":
            _, n, l, fmt = op
            return ["eigen", "--rank", str(n), "--l", str(l), "--format", fmt]
        if kind == "mu":
            return ["mu", *map(str, op[1:]), "--check"]
        _, suite, rank, l = op
        return ["verify", "--suite", suite, "--max-rank", str(rank), "--max-l", str(l)]

    def execute(self, op: Op) -> object:
        proc = subprocess.run(
            [sys.executable, "-m", "adamsops", *self.argv(op)],
            capture_output=True, text=True, env=python_env(), cwd=ROOT, timeout=120,
        )
        return CliResult(proc.returncode, proc.stdout, proc.stderr)

    def execute_in_process(self, op: Op) -> object:
        # A child process starts with empty caches; so does this call.
        clear_library_caches()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = CLI.main(self.argv(op))
        return CliResult(code, out.getvalue(), err.getvalue())

    def check(self, op: Op, out: object) -> str | None:
        if out.code != 0:
            return f"{' '.join(self.argv(op))}: exit code {out.code}: {out.stderr.strip()[:200]}"
        try:
            return self._check_output(op, out.stdout)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return f"{' '.join(self.argv(op))}: unparsable output ({exc!r})"

    def _check_output(self, op: Op, text: str) -> str | None:
        kind = op[0]
        if kind == "compute":
            _, family, n, l, fmt = op
            if family == "G2":
                n = 2
            return R.matrix_problem(parse_matrix(text, fmt), family, n, l)
        if kind == "eigen":
            _, n, l, fmt = op
            matrix = R.unitary_matrix(n, l)
            if fmt == "json":
                doc = json.loads(text)
                if [[int(e) for e in row] for row in doc["matrix"]] != matrix:
                    return f"eigen --rank {n} --l {l}: matrix differs from the reference"
                vectors = [[Fraction(c) for c in v] for v in doc["eigen"]["vectors"]]
                values = [int(v) for v in doc["eigen"]["eigenvalues"]]
            else:
                rows = list(csv.reader(io.StringIO(text)))[1:]
                vectors = [[Fraction(c) for c in row[2:]] for row in rows]
                values = [int(row[1]) for row in rows]
            if len(vectors) != n:
                return f"eigen --rank {n}: {len(vectors)} vectors"
            for k, (v, value) in enumerate(zip(vectors, values)):
                if value != l ** (n - k):
                    return f"eigen --rank {n} --l {l}: level {k} eigenvalue {value}"
                problem = R.eigen_problem(matrix, v, value)
                if problem:
                    return f"eigen --rank {n} --l {l}: level {k}: {problem}"
            return None
        if kind == "mu":
            _, n, l, k, p = op
            got, want = int(text), R.mu(n, l, k, p)
            return None if got == want else f"mu {n} {l} {k} {p}: printed {got}, want {want}"
        lines = text.strip().splitlines()
        passed, total = lines[-1].split()[0].split("/")
        if passed != total or int(total) != len(lines) - 1:
            return f"verify {op[1]}: {lines[-1]}"
        if not all(line.startswith("PASS ") for line in lines[:-1]):
            return f"verify {op[1]}: a check did not pass"
        return None


def parse_matrix(text: str, fmt: str) -> list[list[int]]:
    """The integer matrix from `adamsops compute` output in any format."""
    if fmt == "json":
        return [[int(e) for e in row] for row in json.loads(text)["matrix"]]
    if fmt == "csv":
        return [[int(e) for e in row] for row in list(csv.reader(io.StringIO(text)))[1:]]
    rows = text.splitlines()[2:]  # title line, then the column labels
    d = len(rows)
    return [[int(tok) for tok in line.split()[-d:]] for line in rows]


WORKLOADS = {w.name: w for w in (MatrixCold, SweepWarm, EigenSpectrum, CliCold)}
