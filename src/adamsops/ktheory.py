"""Adams-operation matrices on primitive K-theory generators.

For U(n), SU(n), Sp(n), Spin(2n+1), Spin(2n) and G2, the Adams operation
psi^l acts on the primitive classes d(...) attached to exterior powers of
the defining representation (plus the (half-)spin classes, or the two
fundamental classes for G2) by an integer matrix.  This module assembles
that matrix by two independent routes:

* closed forms: one explicit expression per family in the counts mu,
  alpha, beta; and
* a functoriality pipeline: the generic unitary formula applied to the
  exterior powers of the defining representation, with every out-of-basis
  class rewritten through representation-ring relations (a reduction
  table).

`adams_matrix` runs both routes and raises ConsistencyError when they
disagree, or when an entry that must be an integer is not.

Convention: entries[p][k] is the coefficient of basis element p in the
image of basis element k (columns are images), so composition is the plain
matrix product M(m) . M(l) = M(m*l).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress, repeat
from operator import add, mul, sub
from typing import Sequence

from .counts import _require_int, count_table

__all__ = [
    "FAMILIES",
    "ConsistencyError",
    "GroupSpec",
    "BasisElement",
    "AdamsMatrix",
    "ReductionTable",
    "basis",
    "defining_dimension",
    "unitary_adams_matrix",
    "special_unitary_adams_matrix",
    "symplectic_adams_matrix",
    "spin_odd_adams_matrix",
    "spin_even_adams_matrix",
    "g2_adams_matrix",
    "g2_closed_columns",
    "g2_wedge_square_closed_column",
    "reduction_table",
    "pullback_adams_matrix",
    "adams_matrix",
]

FAMILIES = ("U", "SU", "Sp", "SpinOdd", "SpinEven", "G2")

_MIN_RANK = {"U": 1, "SU": 2, "Sp": 1, "SpinOdd": 1, "SpinEven": 3, "G2": 2}


class ConsistencyError(Exception):
    """Two computation routes disagreed, or a necessarily-integer entry was not one.

    Raised by the matrix builders, it also carries the failure as fields: the
    `group` and `l` computed, the `routes` involved (both routes of a
    disagreement, or the one route that produced a non-integer entry), the
    first bad `cell` as (row, column) and its `values`, one per route.
    """

    def __init__(
        self,
        message: str,
        *,
        group: "GroupSpec | None" = None,
        l: int | None = None,
        routes: tuple[str, ...] = (),
        cell: tuple[int, int] | None = None,
        values: tuple[int | Fraction, ...] = (),
    ) -> None:
        super().__init__(message)
        self.group = group
        self.l = l
        self.routes = routes
        self.cell = cell
        self.values = values


@dataclass(frozen=True)
class GroupSpec:
    """A group family tag plus its rank parameter n.

    U(n): n >= 1; SU(n): n >= 2; Sp(n): n >= 1; SpinOdd is Spin(2n+1) with
    n >= 1; SpinEven is Spin(2n) with n >= 3 (Spin(4) is not simple and its
    generator list degenerates).  G2 has fixed rank; n is normalized to 2.
    """

    family: str
    n: int = 2

    def __post_init__(self) -> None:
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; expected one of {FAMILIES}")
        _require_int("rank", self.n)
        if self.family == "G2":
            object.__setattr__(self, "n", 2)
            return
        if self.n < _MIN_RANK[self.family]:
            raise ValueError(
                f"rank {self.n} too small for {self.family} (minimum {_MIN_RANK[self.family]})"
            )

    def __str__(self) -> str:
        if self.family == "G2":
            return "G2"
        if self.family == "SpinOdd":
            return f"Spin({2 * self.n + 1})"
        if self.family == "SpinEven":
            return f"Spin({2 * self.n})"
        return f"{self.family}({self.n})"


@dataclass(frozen=True)
class BasisElement:
    kind: str  # "wedge" | "spin" | "spin+" | "spin-" | "rho1" | "rho2"
    index: int  # wedge degree when kind == "wedge", else 0
    label: str


def defining_dimension(group: GroupSpec) -> int:
    """Dimension of the defining representation whose exterior powers feed
    the pipeline: n, n, 2n, 2n+1, 2n, 7 for U, SU, Sp, SpinOdd, SpinEven, G2."""
    f, n = group.family, group.n
    if f in ("U", "SU"):
        return n
    if f == "Sp" or f == "SpinEven":
        return 2 * n
    if f == "SpinOdd":
        return 2 * n + 1
    return 7


def _wedge(k: int, m: int) -> BasisElement:
    return BasisElement("wedge", k, f"d(L^{k} s_{m})")


@lru_cache(maxsize=None)
def basis(group: GroupSpec) -> tuple[BasisElement, ...]:
    """The fixed, ordered basis of primitive generators for the group."""
    f, n = group.family, group.n
    m = defining_dimension(group)
    if f == "U" or f == "Sp":
        return tuple(_wedge(k, m) for k in range(1, n + 1))
    if f == "SU":
        return tuple(_wedge(k, m) for k in range(1, n))
    if f == "SpinOdd":
        return tuple(_wedge(k, m) for k in range(1, n)) + (BasisElement("spin", 0, "d(S)"),)
    if f == "SpinEven":
        return tuple(_wedge(k, m) for k in range(1, n - 1)) + (
            BasisElement("spin+", 0, "d(S+)"),
            BasisElement("spin-", 0, "d(S-)"),
        )
    return (BasisElement("rho1", 0, "d(rho1)"), BasisElement("rho2", 0, "d(rho2)"))


@dataclass(frozen=True)
class AdamsMatrix:
    """The integer matrix of psi^l on the group's primitive basis."""

    group: GroupSpec
    l: int
    entries: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.entries)

    @property
    def basis(self) -> tuple[BasisElement, ...]:
        return basis(self.group)

    def column(self, k: int) -> tuple[int, ...]:
        return tuple(row[k] for row in self.entries)

    def apply(self, coords: Sequence[Fraction | int]) -> tuple[Fraction, ...]:
        if len(coords) != self.dim:
            raise ValueError(f"vector length {len(coords)} != matrix dimension {self.dim}")
        return tuple(
            sum((Fraction(row[j]) * coords[j] for j in range(self.dim)), Fraction(0))
            for row in self.entries
        )

    def compose(self, other: "AdamsMatrix") -> "AdamsMatrix":
        """Matrix product self . other, i.e. apply `other` first."""
        if self.group != other.group:
            raise ValueError(f"group mismatch: {self.group} != {other.group}")
        d = self.dim
        prod = tuple(
            tuple(
                sum(self.entries[i][r] * other.entries[r][j] for r in range(d))
                for j in range(d)
            )
            for i in range(d)
        )
        return AdamsMatrix(self.group, self.l * other.l, prod)

    def is_identity(self) -> bool:
        return all(
            self.entries[i][j] == (1 if i == j else 0)
            for i in range(self.dim)
            for j in range(self.dim)
        )


def _require_l(l: int) -> None:
    _require_int("Adams operation index l", l)
    if l < 1:
        raise ValueError(f"Adams operation index must be a positive integer, got l={l}")


def _finalize(
    group: GroupSpec,
    l: int,
    cols: Sequence[Sequence[int]],
    route: str,
    rational: Sequence[Sequence[int | Fraction]] = (),
) -> AdamsMatrix:
    """Turn the columns `route` computed into an AdamsMatrix: `cols`, whose
    entries are ints and pass as they are, followed by the `rational`
    columns, whose entries must all be integral."""
    checked = list(cols)
    for k, col in enumerate(rational, start=len(checked)):
        for p, v in enumerate(col):
            if v.denominator != 1:
                raise ConsistencyError(
                    f"non-integer entry {v} at row {p}, column {k} for {group}, l={l}",
                    group=group, l=l, routes=(route,), cell=(p, k), values=(v,),
                )
        checked.append([int(v) for v in col])
    return AdamsMatrix(group, l, tuple(zip(*checked)))


def _signs(f: int, k: int, size: int) -> list[int]:
    """A list, at least `size` long, whose entry p is (-1)^(k+p) * f: the
    sign pattern of the unitary formula, multiplied into a row of counts by
    map(mul, ...)."""
    s = -f if k % 2 else f
    return [s, -s] * ((size + 1) // 2)


# ---------------------------------------------------------------------------
# closed forms, one per family


def unitary_adams_matrix(n: int, l: int) -> AdamsMatrix:
    """U(n): the image of the degree-k wedge class has p-th coordinate
    (-1)^(k+p) * l * mu(n, l, k, p)."""
    group = GroupSpec("U", n)
    _require_l(l)
    table = count_table(n, l)
    cols = [list(map(mul, table[k], _signs(l, k, n + 1)))[1:] for k in range(1, n + 1)]
    return _finalize(group, l, cols, "closed form")


def special_unitary_adams_matrix(n: int, l: int) -> AdamsMatrix:
    """SU(n): the unitary matrix with the top-wedge row and column dropped
    (the class of the determinant representation vanishes)."""
    group = GroupSpec("SU", n)
    uni = unitary_adams_matrix(n, l)
    entries = tuple(row[: n - 1] for row in uni.entries[: n - 1])
    return AdamsMatrix(group, l, entries)


def symplectic_adams_matrix(n: int, l: int) -> AdamsMatrix:
    """Sp(n), over the wedges of the defining 2n-dimensional representation:
    coordinate p < n uses alpha(2n, l, k, p), coordinate n uses mu(2n, l, k, n)."""
    group = GroupSpec("Sp", n)
    _require_l(l)
    m = 2 * n
    table = count_table(m, l)
    cols = []
    for k in range(1, n + 1):
        mu = table[k]
        # alpha(m, l, k, p) = mu[p] + mu[m - p] at p = 0..n-1, then mu[n]
        sym = list(map(add, mu[:n], mu[m:n:-1])) + [mu[n]]
        cols.append(list(map(mul, sym, _signs(l, k, n + 1)))[1:])
    return _finalize(group, l, cols, "closed form")


def spin_odd_adams_matrix(n: int, l: int) -> AdamsMatrix:
    """Spin(2n+1), over (wedges 1..n-1 of the defining representation, spin
    class): wedge columns via beta, the spin column carrying the factor
    l / 2^(n+1); entries are nevertheless integers."""
    group = GroupSpec("SpinOdd", n)
    _require_l(l)
    m = 2 * n + 1
    table = count_table(m, l)[: n + 1]
    # betas[k][p] = beta(m, l, k, p) = mu[p] - mu[m - p], p = 0..n
    betas = [list(map(sub, mu[: n + 1], mu[m:n:-1])) for mu in table]
    beta_n = [b[n] for b in betas]
    sign_n = -1 if n % 2 else 1
    alternating = _signs(1, 0, n)  # (-1)^p
    # w[k][p-1] = (-1)^p beta(m, l, k, p) - (-1)^n beta(m, l, k, n), p < n
    w = [
        list(map(sub, map(mul, b[1:n], alternating[1:]), repeat(sign_n * b[n])))
        for b in betas
    ]
    sign_k = _signs(l, 0, n + 1)  # (-1)^k l
    cols = [
        [sign_k[k] * v for v in w[k]] + [sign_k[k] * sign_n * 2 ** (n + 1) * beta_n[k]]
        for k in range(1, n)
    ]
    spin_sum = [0] * (n - 1)  # sum over k = 1..n of (-1)^k w[k]
    for k in range(1, n + 1):
        spin_sum = list(map(sub if k % 2 else add, spin_sum, w[k]))
    spin_col: list[int | Fraction] = [Fraction(l * v, 2 ** (n + 1)) for v in spin_sum]
    spin_col.append(sign_n * sum(map(mul, beta_n[1:], sign_k[1:])))
    return _finalize(group, l, cols, "closed form", [spin_col])


def _half_spin_columns(
    sum_img: Sequence[int | Fraction], n: int, l: int
) -> tuple[list[Fraction], list[Fraction]]:
    """The images of d(S+) and d(S-) for Spin(2n), given the image of
    d(S+)+d(S-): half of it, plus or minus half of l^n (d(S+)-d(S-)), since
    d(S+)-d(S-) is an eigenvector with eigenvalue l^n.  S+ and S- are the
    last two basis positions."""
    half_diff = Fraction(l**n, 2)
    col_plus = [Fraction(v, 2) for v in sum_img]
    col_minus = list(col_plus)
    col_plus[n - 2] += half_diff
    col_plus[n - 1] -= half_diff
    col_minus[n - 2] -= half_diff
    col_minus[n - 1] += half_diff
    return col_plus, col_minus


def spin_even_adams_matrix(n: int, l: int) -> AdamsMatrix:
    """Spin(2n), n >= 3, over (wedges 1..n-2, S+, S-).

    Wedge columns follow the closed form in alpha and mu.  The two half-spin
    columns are assembled from the invariant split: the image of d(S+)+d(S-)
    (a closed form with prefactor (1/2)^(n-1)) plus or minus l^n times
    (d(S+)-d(S-)), each halved.
    """
    group = GroupSpec("SpinEven", n)
    _require_l(l)
    m = 2 * n
    table = count_table(m, l)
    # alpha(m, l, k, q) - alpha(m, l, k, n) for n - q even, and
    # alpha(m, l, k, n-1) - alpha(m, l, k, q) for n - q odd, at q = 1..n-2;
    # alpha(m, l, k, n) = 2 mu(m, l, k, n)
    parts, tops = [], []
    for mu in table[:n]:
        a = list(map(add, mu[: n + 1], mu[m : n - 1 : -1]))  # alpha(m, l, k, p), p = 0..n
        parts.append(
            [a[q] - a[n] if (n - q) % 2 == 0 else a[n - 1] - a[q] for q in range(1, n - 1)]
        )
        tops.append(a[n] - a[n - 1])

    sign_k = _signs(l, n, n)  # (-1)^(k+n) l
    cols = [
        [sign_k[k] * v for v in parts[k]] + [sign_k[k] * 2 ** (n - 1) * tops[k]] * 2
        for k in range(1, n - 1)
    ]

    # image of d(S+) + d(S-), summed over the wedges j = n-1, n-3, ...: wedge
    # coordinates carry the factor l / 2^(n-1)
    wedge_sum = [0] * (n - 2)
    spin_sum = 0
    for j in range(n - 1, 0, -2):
        wedge_sum = list(map(sub, wedge_sum, parts[j]))
        spin_sum -= tops[j]
    sum_img = [Fraction(l * v, 2 ** (n - 1)) for v in wedge_sum] + [l * spin_sum] * 2

    return _finalize(group, l, cols, "closed form", _half_spin_columns(sum_img, n, l))


def g2_closed_columns(l: int) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """The closed polynomial expressions for the images of d(rho1) and
    d(rho2) over (d(rho1), d(rho2)): degree-6 polynomials in l over 15ths
    and 30ths that always collapse to integers."""
    _require_l(l)
    col1 = (Fraction(2 * l**6 + 13 * l**2, 15), Fraction(l**2 - l**6, 30))
    col2 = (
        Fraction(52 * l**2 * (1 - l**4), 15),
        Fraction(l**2 * (13 * l**4 + 2), 15),
    )
    return col1, col2


def g2_wedge_square_closed_column(l: int) -> tuple[Fraction, Fraction]:
    """Closed expression for the image of d(L^2 rho1) over (d(rho1), d(rho2))."""
    _require_l(l)
    return (Fraction(13 * l**2 - 10 * l**6, 3), Fraction(5 * l**6 + l**2, 6))


# ---------------------------------------------------------------------------
# reduction tables and the functoriality pipeline


@dataclass(frozen=True)
class ReductionTable:
    """Rows 0..m rewrite d(wedge^p of the defining representation) as a
    vector over the group's primitive basis.  Row 0 and row m (the trivial
    class and the determinant class) are zero."""

    group: GroupSpec
    rows: tuple[tuple[int, ...], ...]

    def row(self, p: int) -> tuple[int, ...]:
        if not 0 <= p < len(self.rows):
            raise ValueError(f"wedge degree {p} outside 0..{len(self.rows) - 1}")
        return self.rows[p]


@lru_cache(maxsize=None)
def reduction_table(group: GroupSpec) -> ReductionTable:
    """Build the rewrite table for Sp, SpinOdd, SpinEven or G2.

    Sp(n): wedge p > n is isomorphic to wedge 2n-p.  Spin(2n+1): the tensor
    square of the spin class decomposes into wedges 0..n, giving row n =
    2^(n+1) unit(S) - sum of the lower wedges; wedge p > n reduces to wedge
    2n+1-p.  Spin(2n): the sum/product decompositions of the half-spin
    classes give rows n and n-1 over 2^n (S+ + S-) resp. 2^(n-1) (S+ + S-)
    minus lower wedges; wedge p > n reduces to wedge 2n-p.  G2: wedges 2..5
    of the 7-dimensional class rewrite into the two fundamental classes by
    the derivation rule d(rho * sigma) = dim(sigma) d(rho) + dim(rho) d(sigma);
    wedge 6 is the class itself by self-duality.
    """
    f, n = group.family, group.n
    if f in ("U", "SU"):
        raise ValueError(f"{group} needs no reduction table")
    d = len(basis(group))
    m = defining_dimension(group)

    def unit(i: int) -> list[int]:
        row = [0] * d
        row[i] = 1
        return row

    zero = [0] * d
    rows: list[list[int]] = [list(zero) for _ in range(m + 1)]

    if f == "Sp":
        for p in range(1, n + 1):
            rows[p] = unit(p - 1)
        for p in range(n + 1, m):
            rows[p] = list(rows[m - p])
    elif f == "SpinOdd":
        for p in range(1, n):
            rows[p] = unit(p - 1)
        row_n = [0] * d
        row_n[d - 1] = 2 ** (n + 1)
        for p in range(1, n):
            row_n[p - 1] -= 1
        rows[n] = row_n
        for p in range(n + 1, m):
            rows[p] = list(rows[m - p])
    elif f == "SpinEven":
        for p in range(1, n - 1):
            rows[p] = unit(p - 1)
        row_top = [0] * d  # wedge n-1
        row_top[n - 2] = row_top[n - 1] = 2 ** (n - 1)
        p = 1
        while n - 2 * p - 1 >= 1:
            row_top[(n - 2 * p - 1) - 1] -= 1
            p += 1
        rows[n - 1] = row_top
        row_mid = [0] * d  # wedge n
        row_mid[n - 2] = row_mid[n - 1] = 2**n
        p = 1
        while n - 2 * p >= 1:
            row_mid[(n - 2 * p) - 1] -= 2
            p += 1
        rows[n] = row_mid
        for p in range(n + 1, m):
            rows[p] = list(rows[m - p])
    else:  # G2
        rho1, rho2 = unit(0), unit(1)
        rows[1] = rho1
        rows[2] = [a + b for a, b in zip(rho1, rho2)]
        rows[3] = [14 * a - b for a, b in zip(rho1, rho2)]
        rows[4] = list(rows[3])
        rows[5] = list(rows[2])
        rows[6] = list(rho1)

    return ReductionTable(group, tuple(tuple(r) for r in rows))


def _wedge_images(group: GroupSpec, l: int, degrees: range) -> list[list[int]]:
    """The reduced images of d(wedge^k of the defining representation), one
    per k in `degrees`: the unitary formula over all degrees 1..m, each
    pushed through the reduction table."""
    m = defining_dimension(group)
    table = count_table(m, l)
    d = len(basis(group))
    # the nonzero entries (p, i, v) of the reduction table, v at row p, position i
    nonzero = [
        (p, i, row[i])
        for p, row in enumerate(reduction_table(group).rows)
        for i in compress(range(d), row)
    ]
    images = []
    for k in degrees:
        # coordinate p of the unitary image: (-1)^(k+p) l mu(m, l, k, p)
        uni = list(map(mul, table[k], _signs(l, k, m + 1)))
        acc = [0] * d
        for p, i, v in nonzero:
            acc[i] += uni[p] * v
        images.append(acc)
    return images


def pullback_adams_matrix(group: GroupSpec, l: int) -> AdamsMatrix:
    """Assemble the matrix for Sp, SpinOdd, SpinEven or G2 purely by
    functoriality: unitary formula on the defining representation, then
    reduction.  The spin column expands d(S) over the wedges 1..n with the
    factor 2^-(n+1); the half-spin columns are the halved image of
    d(S+)+d(S-) (wedges n-1, n-3, ... with factor 2^-(n-1)) plus or minus
    half of l^n (d(S+)-d(S-))."""
    f, n = group.family, group.n
    if f in ("U", "SU"):
        raise ValueError(f"pullback pipeline applies to Sp, SpinOdd, SpinEven, G2; got {group}")
    _require_l(l)

    rational: Sequence[Sequence[int | Fraction]] = ()
    if f == "Sp":
        cols = _wedge_images(group, l, range(1, n + 1))
    elif f == "SpinOdd":
        images = _wedge_images(group, l, range(1, n + 1))
        cols = images[: n - 1]
        rational = [[Fraction(sum(v), 2 ** (n + 1)) for v in zip(*images)]]
    elif f == "SpinEven":
        images = _wedge_images(group, l, range(1, n))
        cols = images[: n - 2]
        summed = images[n - 2 :: -2]  # wedges n-1, n-3, ...
        sum_img = [Fraction(sum(v), 2 ** (n - 1)) for v in zip(*summed)]
        rational = _half_spin_columns(sum_img, n, l)
    else:  # G2
        img1, img2 = _wedge_images(group, l, range(1, 3))
        cols = [img1, [a - b for a, b in zip(img2, img1)]]

    return _finalize(group, l, cols, "pipeline", rational)


def g2_adams_matrix(l: int) -> AdamsMatrix:
    """The 2x2 matrix for G2, computed by the pipeline and asserted equal to
    the closed polynomial expressions."""
    mat = pullback_adams_matrix(GroupSpec("G2"), l)
    expected = g2_closed_columns(l)
    for k in range(2):
        for p in range(2):
            if expected[k][p] != mat.entries[p][k]:
                raise ConsistencyError(
                    f"G2 pipeline disagrees with the closed expression at "
                    f"row {p}, column {k}, l={l}: {mat.entries[p][k]} != {expected[k][p]}",
                    group=mat.group, l=l, routes=("pipeline", "closed expression"),
                    cell=(p, k), values=(mat.entries[p][k], expected[k][p]),
                )
    return mat


# ---------------------------------------------------------------------------
# dispatcher


def adams_matrix(group: GroupSpec, l: int, cross_check: bool = True) -> AdamsMatrix:
    """The psi^l matrix for any supported group.

    With cross_check (the default), the families that have both a closed
    form and a pipeline route compute both and must agree exactly;
    ConsistencyError otherwise, naming the first differing entry.
    """
    f = group.family
    if f == "U":
        return unitary_adams_matrix(group.n, l)
    if f == "SU":
        return special_unitary_adams_matrix(group.n, l)
    if f == "G2":
        return g2_adams_matrix(l) if cross_check else pullback_adams_matrix(group, l)
    closed = {
        "Sp": symplectic_adams_matrix,
        "SpinOdd": spin_odd_adams_matrix,
        "SpinEven": spin_even_adams_matrix,
    }[f](group.n, l)
    if cross_check:
        piped = pullback_adams_matrix(group, l)
        if piped.entries != closed.entries:
            i, j = next(
                (i, j)
                for i, (row_c, row_p) in enumerate(zip(closed.entries, piped.entries))
                for j, (x, y) in enumerate(zip(row_c, row_p))
                if x != y
            )
            raise ConsistencyError(
                f"closed form and pipeline disagree for {group}, l={l}: first at "
                f"row {i}, column {j}: closed form {closed.entries[i][j]} != "
                f"pipeline {piped.entries[i][j]}",
                group=group, l=l, routes=("closed form", "pipeline"),
                cell=(i, j), values=(closed.entries[i][j], piped.entries[i][j]),
            )
    return closed
