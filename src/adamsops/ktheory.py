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
  class rewritten through representation-ring relations (the restriction
  from U(m), m the defining dimension).

Both read one block, `counts.signed_table(m, l)`: the counts with the sign
pattern and the factor l of the unitary formula already applied, that is,
the U(m) matrix with its trivial wedge 0 added.  Both read it by columns,
each one strided slice of the block's strips, which is one row of the U(m)
matrix: the U and SU closed forms take those rows as they are, the other
closed forms add and subtract them, and the pipeline restricts them.  So
every route emits the rows of its matrix, and no route scales a count by
its sign or by l.

Both routes have one shape and compute in integers only: each is a module
function, named in the family's record and called as f(group, l), that
returns the rows of its matrix's integer columns and its rational columns
as integer numerators over one denominator.  A column with a rational
prefactor (2^-(n+1) on the spin column of Spin(2n+1), 2^-(n-1) and 1/2 on
the half-spin columns of Spin(2n), 15ths and 30ths for G2) makes that
denominator a power of two or 30.  `adams_matrix` alone turns what a route
returns into a matrix, with `_finalize`, once per route it runs, and raises
ConsistencyError when the routes disagree, or when a numerator does not
divide exactly.  A `Fraction` is built only to report such an entry, so a
successful assembly builds none, and `fractions` is imported only in that
report, so no command that computes a matrix loads it.

What a family is lives in one place: the `Family` records of `FAMILY_TABLE`
at the end of the module give each family's ranks, defining dimension,
basis, display name, exponents, middle restriction rows and routes, and
every function here reads them.  Adding a family means one record plus its
closed-form route.

Convention: entries[p][k] is the coefficient of basis element p in the
image of basis element k (columns are images), so composition is the plain
matrix product M(m) . M(l) = M(m*l).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import repeat
from operator import add, itemgetter, mul, sub
from typing import TYPE_CHECKING, Callable, Sequence

from .counts import signed_table
from .exactmath import _require_int
from .record import Record

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "FAMILIES",
    "FAMILY_TABLE",
    "Family",
    "ConsistencyError",
    "GroupSpec",
    "BasisElement",
    "AdamsMatrix",
    "basis",
    "defining_dimension",
    "adams_matrix",
]

# A row over the images of the wedges 1..w without its last entry, the
# wedge that enters the spin columns only through their sums, and its
# entries at the wedges w, w-2, ...
_ALL_BUT_LAST = itemgetter(slice(-1))
_EVERY_OTHER_FROM_LAST = itemgetter(slice(None, None, -2))

# Groups kept by the `_restriction` cache.  A sweep over every family at
# ranks up to 40 touches about 200 groups.
_GROUP_CACHE_SIZE = 256


class ConsistencyError(Exception):
    """Two computation routes disagreed, or a necessarily-integer entry was not one.

    Raised by the matrix routes, it also carries the failure as fields: the
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


# The rank of a `GroupSpec` that leaves it out, which only a family of
# fixed rank may do.
_NO_RANK = object()


class GroupSpec(Record):
    """A group family tag plus its rank parameter n.

    U(n): n >= 1; SU(n): n >= 2; Sp(n): n >= 1; SpinOdd is Spin(2n+1) with
    n >= 1; SpinEven is Spin(2n) with n >= 3 (Spin(4) is not simple and its
    generator list degenerates).  G2 has fixed rank; n is normalized to 2,
    and only such a family may leave n out.
    """

    family: str
    n: int = _NO_RANK

    def __post_init__(self) -> None:
        try:
            family = FAMILY_TABLE[self.family]
        except (KeyError, TypeError):  # TypeError: a family no dict can hash
            raise ValueError(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            ) from None
        n = self.n
        if family.fixed_rank is not None:
            if n is not _NO_RANK:
                _require_int("rank", n)
            object.__setattr__(self, "n", family.fixed_rank)
            return
        if type(n) is not int:  # a plain int needs no further type check
            if n is _NO_RANK:
                raise ValueError(f"rank is required for family {self.family}")
            _require_int("rank", n)
        if n < family.min_rank:
            raise ValueError(f"rank {n} too small for {self.family} (minimum {family.min_rank})")

    def __str__(self) -> str:
        family = FAMILY_TABLE[self.family]
        return family.display.format(n=self.n, m=family.dimension(self.n))


class BasisElement(Record):
    kind: str  # "wedge" | "spin" | "spin+" | "spin-" | "rho1" | "rho2"
    index: int  # wedge degree when kind == "wedge", else 0
    label: str


# What every route returns: the rows of its integer columns, its rational
# columns as integer numerators, and their one positive denominator (1 when
# there are none), which `adams_matrix` hands to `_finalize`.
_Raw = tuple[Sequence[Sequence[int]], Sequence[Sequence[int]], int]
# The (wedge, coefficient) terms of a restriction, one tuple per basis element.
_Terms = tuple[tuple[tuple[int, int], ...], ...]


class Family(Record):
    """One family of groups, as every function of the package sees it; n is
    the rank parameter.

    * `display` is the group's name, a `str.format` template over n and the
      defining dimension m; `min_rank` is the least n, and a family of fixed
      rank has `fixed_rank`, to which `GroupSpec` normalizes n.
    * `dimension(n)` is m.  The basis is the wedge classes 1..`wedges(n)`
      of the defining representation, then the `extra` classes.
    * `exponents(n)` are the m_i; the psi^l eigenvalues are l^(m_i + 1).
    * `closed` names this module's closed-form route and `pipeline`, for a
      family that has one, its pipeline route, which reads the restricted
      wedge images.  Each is called as f(group, l) once `adams_matrix` has
      checked l, and returns the matrix raw (see `_Raw`).  Both are names,
      looked up when called, so that wrapping or replacing the module
      attribute reaches every call.
    * `middle_rows(n)` are the images of wedges w+1..m//2, w = wedges(n),
      over the basis: the rows of the restriction from U(m) that are
      neither a basis wedge nor a mirror image (see `_restriction`).  U and
      SU have none.
    * `extra_eigenvectors(n)` lists, as (e, column) pairs, the eigenvectors
      of every psi^l, with eigenvalue l^e, that restriction from U(m) misses
      (see `eigen.eigenbasis`): d(S+) - d(S-) for Spin(2n), none otherwise.
    """

    name: str
    display: str
    min_rank: int
    dimension: Callable[[int], int]
    wedges: Callable[[int], int]
    exponents: Callable[[int], tuple[int, ...]]
    closed: str
    extra: tuple[BasisElement, ...] = ()
    middle_rows: Callable[[int], list[list[int]]] = lambda n: []
    pipeline: str | None = None
    fixed_rank: int | None = None
    extra_eigenvectors: Callable[[int], list[tuple[int, tuple[int, ...]]]] = lambda n: []


def _family_of(group: GroupSpec, caller: str) -> Family:
    """The family record of a group given to a public function, `caller`:
    anything but a `GroupSpec` is refused here with a ValueError naming the
    caller, not met deep inside as an AttributeError."""
    if not isinstance(group, GroupSpec):
        raise ValueError(f"{caller} needs a GroupSpec, got {group!r}")
    return FAMILY_TABLE[group.family]


def defining_dimension(group: GroupSpec) -> int:
    """Dimension of the defining representation whose exterior powers feed
    the pipeline: n, n, 2n, 2n+1, 2n, 7 for U, SU, Sp, SpinOdd, SpinEven, G2."""
    return _family_of(group, "defining_dimension").dimension(group.n)


def basis(group: GroupSpec) -> tuple[BasisElement, ...]:
    """The fixed, ordered basis of primitive generators for the group."""
    family = _family_of(group, "basis")
    m = family.dimension(group.n)
    wedges = range(1, family.wedges(group.n) + 1)
    return tuple(BasisElement("wedge", k, f"d(L^{k} s_{m})") for k in wedges) + family.extra


def _times(rows: Sequence[Sequence[int]], v: Sequence[int]) -> list[int]:
    """The matrix with these rows times the column v, exactly."""
    return [sum(map(mul, row, v)) for row in rows]


class AdamsMatrix(Record):
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

    def compose(self, other: "AdamsMatrix") -> "AdamsMatrix":
        """Matrix product self . other, i.e. apply `other` first."""
        if self.group != other.group:
            raise ValueError(f"group mismatch: {self.group} != {other.group}")
        cols = (_times(self.entries, col) for col in zip(*other.entries))
        return AdamsMatrix(self.group, self.l * other.l, tuple(zip(*cols)))


def _require_l(l: int) -> None:
    _require_int("Adams operation index l", l)
    if l < 1:
        raise ValueError(f"Adams operation index must be a positive integer, got l={l}")


def _finalize(group: GroupSpec, l: int, route: str, raw: _Raw) -> AdamsMatrix:
    """Turn what `route` returned into an AdamsMatrix; only `adams_matrix`
    calls it, once per route it runs.  `raw` is (rows, rational, den): the
    `rows`, whose entries are ints, pass as they are, each followed by its
    entries of the `rational` columns, given as integer numerators over the
    one positive denominator `den`.  Every numerator must be divisible by
    `den` exactly; a `Fraction` is built only for an entry that is not, to
    report it, the first in column order."""
    rows, rational, den = raw
    entries = map(tuple, rows)
    for k, col in enumerate(rational, start=len(rows[0])):
        if any(map(den.__rmod__, col)):
            from fractions import Fraction

            p = next(p for p, v in enumerate(col) if v % den)
            value = Fraction(col[p], den)
            raise ConsistencyError(
                f"non-integer entry {value} at row {p}, column {k} for {group}, l={l}",
                group=group, l=l, routes=(route,), cell=(p, k), values=(value,),
            )
        # each row takes its quotient as a tuple of one
        entries = map(add, entries, zip(map(den.__rfloordiv__, col)))
    return AdamsMatrix(group, l, tuple(entries))


# ---------------------------------------------------------------------------
# closed forms, one per family
#
# Each reads the signed block A[k][p] = (-1)^(k+p) l mu(m, l, k, p) of
# `signed_table`, m the defining dimension, which already carries the sign
# pattern and the factor l of the unitary formula, by columns: column p over
# the wedges k of the basis is row p of the U(m) matrix.  Its symmetrized
# combinations take only additions: column p plus column m-p is
# (-1)^(k+p) l alpha(m, l, k, p) for even m and (-1)^(k+p) l beta(m, l, k, p)
# for odd m, since (-1)^(m-p) = (-1)^(m+p).


def _unitary_closed(group: GroupSpec, l: int) -> _Raw:
    """U(n) and SU(n): the image of the degree-k wedge class has p-th
    coordinate (-1)^(k+p) * l * mu(n, l, k, p), over the family's wedges
    1..w: w = n for U(n), and n-1 for SU(n), whose top-wedge row and column
    drop out (the class of the determinant representation vanishes).  Row
    p is column p of the block over those wedges."""
    n, w = group.n, FAMILY_TABLE[group.family].wedges(group.n)
    wedges = range(1, w + 1)
    return signed_table(n, l).columns(wedges, wedges), (), 1


def _symplectic_closed(group: GroupSpec, l: int) -> _Raw:
    """Sp(n), over the wedges of the defining 2n-dimensional representation:
    coordinate p < n uses alpha(2n, l, k, p), coordinate n uses mu(2n, l, k, n)."""
    n = group.n
    m = 2 * n
    a = signed_table(m, l).columns(range(m + 1), range(1, n + 1))
    rows = [list(map(add, a[p], a[m - p])) for p in range(1, n)]
    return rows + [a[n]], (), 1


def _spin_odd_closed(group: GroupSpec, l: int) -> _Raw:
    """Spin(2n+1), over (wedges 1..n-1 of the defining representation, spin
    class): wedge columns via beta, the spin column carrying the factor
    l / 2^(n+1); entries are nevertheless integers."""
    n = group.n
    m = 2 * n + 1
    den = 2 ** (n + 1)
    # b_p = (-1)^(k+p) l beta(m, l, k, p) over k = 1..n
    a = signed_table(m, l).columns(range(m + 1), range(1, n + 1))
    b_n = list(map(add, a[n], a[n + 1]))
    # row p = 1..n-1 is b_p - b_n over the wedges k = 1..n-1, then the spin
    # entry, the sum over k = 1..n, as a numerator over 2^(n+1); the spin
    # row is 2^(n+1) b_n, its spin entry 2^(n+1) times the sum over k = 1..n
    rows = [list(map(sub, map(add, a[p], a[m - p]), b_n)) for p in range(1, n)]
    rows.append(list(map(mul, b_n, repeat(den))))
    return *_spin_split(rows), den


def _spin_split(rows: list[list[int]]) -> tuple[list, list]:
    """Rows of the Spin(2n+1) matrix over the images of the wedges 1..n, as
    the rows of its wedge columns 1..n-1 and its spin column, as numerators
    over 2^(n+1): d(S) is the sum of the wedges 1..n over 2^(n+1), one sum
    per row."""
    return list(map(_ALL_BUT_LAST, rows)), [list(map(sum, rows))]


def _spin_difference(n: int) -> tuple[int, ...]:
    """d(S+) - d(S-) over the basis of Spin(2n), where S+ and S- are the
    last two positions: an eigenvector of every psi^l, with eigenvalue l^n."""
    return (0,) * (n - 2) + (1, -1)


def _half_spin_split(rows: Sequence[Sequence[int]], n: int, l: int) -> tuple[list, tuple]:
    """Rows of the Spin(2n) matrix over the images of the wedges 1..n-1, as
    the rows of its wedge columns 1..n-2 and its half-spin columns, the
    images of d(S+) and d(S-) as numerators over 2^n.  The image of
    d(S+)+d(S-), as numerators over 2^(n-1), is the sum of the images of
    the wedges n-1, n-3, ..., one sum per row.  Each half-spin image is
    half of it, plus or minus half of l^n (d(S+)-d(S-)), since
    d(S+)-d(S-) is an eigenvector with eigenvalue l^n."""
    col_plus = list(map(sum, map(_EVERY_OTHER_FROM_LAST, rows)))
    col_minus = col_plus[:]
    half_diff = l**n * 2 ** (n - 1)
    for i, x in enumerate(_spin_difference(n)):
        if x:
            col_plus[i] += x * half_diff
            col_minus[i] -= x * half_diff
    return list(map(_ALL_BUT_LAST, rows)), (col_plus, col_minus)


def _spin_even_closed(group: GroupSpec, l: int) -> _Raw:
    """Spin(2n), n >= 3, over (wedges 1..n-2, S+, S-).

    Wedge columns follow the closed form in alpha and mu.  The two half-spin
    columns are assembled from the invariant split: the image of d(S+)+d(S-)
    (a closed form with prefactor (1/2)^(n-1)) plus or minus l^n times
    (d(S+)-d(S-)), each halved.
    """
    n = group.n
    m = 2 * n
    half = 2 ** (n - 1)
    # alpha_p = (-1)^(k+p) l alpha(m, l, k, p) over k = 1..n-1, with
    # alpha(m, l, k, n) = 2 mu(m, l, k, n); each wedge row q = 1..n-2
    # subtracts the one of alpha_(n-1), alpha_n whose index has the parity
    # of q, and the half-spin rows carry 2^(n-1) (alpha_n + alpha_(n-1))
    a = signed_table(m, l).columns(range(m + 1), range(1, n))
    last, second = list(map(add, a[n], a[n])), list(map(add, a[n - 1], a[n + 1]))
    by_parity = (second, last) if n % 2 else (last, second)  # at even q, odd q
    rows = [list(map(sub, map(add, a[q], a[m - q]), by_parity[q % 2])) for q in range(1, n - 1)]
    spins = list(map(mul, map(add, last, second), repeat(half)))
    rows += [spins, spins]
    return *_half_spin_split(rows, n, l), 2**n


def _g2_numerators(l: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """The closed polynomial expressions for the images of d(rho1) and
    d(rho2) over (d(rho1), d(rho2)): degree-6 polynomials in l over 15ths
    and 30ths that always collapse to integers, given as their integer
    numerators over the one denominator 30, for an l already checked."""
    col1 = (4 * l**6 + 26 * l**2, l**2 - l**6)
    col2 = (104 * l**2 * (1 - l**4), 2 * l**2 * (13 * l**4 + 2))
    return col1, col2


def _g2_closed(group: GroupSpec, l: int) -> _Raw:
    """G2's closed form: the numerators of `_g2_numerators` over 30, each
    of which must divide exactly."""
    return [(), ()], _g2_numerators(l), 30


# ---------------------------------------------------------------------------
# the restriction from U(m) and the functoriality pipeline
#
# A family's pipeline builds its matrix purely by functoriality: the unitary
# formula on the defining representation, then restriction; the (half-)spin
# columns are split off as the closed forms split theirs.


@lru_cache(maxsize=_GROUP_CACHE_SIZE)
def _restriction(group: GroupSpec) -> tuple[int, _Terms]:
    """The restriction R from the primitives of U(m), m the defining
    dimension, to those of the group, as (top, terms): terms[i] lists the
    (p, v) such that R sends d(wedge^p) to v times basis element i plus
    other elements, over the wedges p <= top.  Every later wedge p < m is
    wedge m-p, since wedge p is isomorphic to wedge m-p, so `_restrict`
    folds its coordinate onto wedge m-p instead of listing it again.

    With w the number of wedge classes in the basis, wedges 1..w go to
    their own basis elements and the family's middle rows give wedges
    w+1..top.  Wedge 0 and, unless it is a basis class, wedge m (the
    trivial and the determinant class) go to zero.  So U is the identity
    on wedges 1..n and SU drops wedge n.  Sp(n) has no middle
    rows.  Spin(2n+1): the tensor square of the spin class decomposes into
    wedges 0..n, giving wedge n = 2^(n+1) d(S) - sum of the lower wedges.
    Spin(2n): the sum/product decompositions of the half-spin classes give
    wedges n and n-1 over 2^n (S+ + S-) resp. 2^(n-1) (S+ + S-) minus lower
    wedges.  G2: wedges 1..3 of the 7-dimensional class rewrite into the
    two fundamental classes by the derivation rule
    d(rho * sigma) = dim(sigma) d(rho) + dim(rho) d(sigma).
    """
    family = FAMILY_TABLE[group.family]
    w = family.wedges(group.n)
    middle = family.middle_rows(group.n)
    terms = [[(i + 1, 1)] for i in range(w)]
    terms += [[] for _ in family.extra]
    for p, row in enumerate(middle, start=w + 1):
        for i, v in enumerate(row):
            if v:
                terms[i].append((p, v))
    return w + len(middle), tuple(map(tuple, terms))


def _restrict(group: GroupSpec, rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """R times the matrix X whose columns are vectors over the wedge
    classes 0..m of U(m), given by its rows: rows[p] holds coordinate p of
    every vector.  The result is R.X by its rows, one per basis element of
    the group, each holding that element's coordinate of every vector's
    image.

    The map is applied to all vectors at once, one wedge row at a time:
    each wedge p beyond the terms of `_restriction` is added onto wedge
    m-p, and each basis element's row is a lazy chain of row operations
    over its terms."""
    rows = list(rows)
    top, terms = _restriction(group)
    m = len(rows) - 1
    for p in range(top + 1, m):
        rows[m - p] = list(map(add, rows[m - p], rows[p]))
    images = []
    for row in terms:
        image = None
        for p, v in row:
            wedge = rows[p]
            if image is None:
                image = wedge if v == 1 else map(mul, wedge, repeat(v))
            elif v == 1 or v == -1:
                image = map(add if v == 1 else sub, image, wedge)
            else:
                image = map(add, image, map(mul, wedge, repeat(v)))
        images.append(list(image))
    return images


def _wedge_images(group: GroupSpec, l: int, degrees: range) -> list[list[int]]:
    """The restricted images of d(wedge^k of the defining representation),
    for the k in `degrees`, by rows: the unitary formula over all degrees
    0..m, with coordinate p equal to (-1)^(k+p) l mu(m, l, k, p), then R.
    Coordinate p of every image is column p of `signed_table(m, l)` over
    those k, which goes to `_restrict` as it is."""
    m = defining_dimension(group)
    return _restrict(group, signed_table(m, l).columns(range(m + 1), degrees))


def _symplectic_pipeline(group: GroupSpec, l: int) -> _Raw:
    return _wedge_images(group, l, range(1, group.n + 1)), (), 1


def _spin_odd_pipeline(group: GroupSpec, l: int) -> _Raw:
    n = group.n
    return *_spin_split(_wedge_images(group, l, range(1, n + 1))), 2 ** (n + 1)


def _spin_even_pipeline(group: GroupSpec, l: int) -> _Raw:
    n = group.n
    return *_half_spin_split(_wedge_images(group, l, range(1, n)), n, l), 2**n


def _g2_pipeline(group: GroupSpec, l: int) -> _Raw:
    return [[x, y - x] for x, y in _wedge_images(group, l, range(1, 3))], (), 1


# ---------------------------------------------------------------------------
# dispatcher


def adams_matrix(group: GroupSpec, l: int, cross_check: bool = True) -> AdamsMatrix:
    """The psi^l matrix for any supported group.

    With cross_check (the default), the families that have both a closed
    form and a pipeline route compute both and must agree exactly;
    ConsistencyError otherwise, naming the first differing entry.  Without
    it, every family returns its closed form.  l is checked here, once,
    before any route runs; the routes called from here do not check it
    again.  Each route's raw rows are finalized here, the only place that
    does, so a route's non-integer entry raises under its own name.
    """
    family = _family_of(group, "adams_matrix")
    _require_l(l)
    closed = _finalize(group, l, "closed form", globals()[family.closed](group, l))
    if cross_check and family.pipeline is not None:
        piped = _finalize(group, l, "pipeline", globals()[family.pipeline](group, l))
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


# ---------------------------------------------------------------------------
# the family table


def _odd_exponents(n: int) -> tuple[int, ...]:
    return tuple(range(1, 2 * n, 2))


def _spin_even_rows(n: int) -> list[list[int]]:
    """The images of wedges n-1 and n for Spin(2n): 2^(n-1) (S+ + S-)
    minus the wedges n-3, n-5, ..., and 2^n (S+ + S-) minus twice the
    wedges n-2, n-4, ..."""
    top, mid = [0] * (n - 2) + [2 ** (n - 1)] * 2, [0] * (n - 2) + [2**n] * 2
    for q in range(n - 3, 0, -2):
        top[q - 1] = -1
    for q in range(n - 2, 0, -2):
        mid[q - 1] = -2
    return [top, mid]


FAMILY_TABLE: dict[str, Family] = {
    f.name: f
    for f in (
        Family(
            "U", "U({n})", 1, dimension=lambda n: n, wedges=lambda n: n,
            exponents=lambda n: tuple(range(n)), closed="_unitary_closed",
        ),
        Family(
            "SU", "SU({n})", 2, dimension=lambda n: n, wedges=lambda n: n - 1,
            exponents=lambda n: tuple(range(1, n)), closed="_unitary_closed",
        ),
        Family(
            "Sp", "Sp({n})", 1, dimension=lambda n: 2 * n, wedges=lambda n: n,
            exponents=_odd_exponents, closed="_symplectic_closed",
            pipeline="_symplectic_pipeline",
        ),
        Family(
            "SpinOdd", "Spin({m})", 1, dimension=lambda n: 2 * n + 1, wedges=lambda n: n - 1,
            exponents=_odd_exponents, closed="_spin_odd_closed",
            extra=(BasisElement("spin", 0, "d(S)"),),
            middle_rows=lambda n: [[-1] * (n - 1) + [2 ** (n + 1)]],
            pipeline="_spin_odd_pipeline",
        ),
        Family(
            "SpinEven", "Spin({m})", 3, dimension=lambda n: 2 * n, wedges=lambda n: n - 2,
            exponents=lambda n: tuple(sorted([*range(1, 2 * n - 2, 2), n - 1])),
            closed="_spin_even_closed",
            extra=(BasisElement("spin+", 0, "d(S+)"), BasisElement("spin-", 0, "d(S-)")),
            middle_rows=_spin_even_rows, pipeline="_spin_even_pipeline",
            extra_eigenvectors=lambda n: [(n, _spin_difference(n))],
        ),
        Family(
            "G2", "G2", 2, dimension=lambda n: 7, wedges=lambda n: 0,
            exponents=lambda n: (1, 5), closed="_g2_closed",
            extra=(BasisElement("rho1", 0, "d(rho1)"), BasisElement("rho2", 0, "d(rho2)")),
            middle_rows=lambda n: [[1, 0], [1, 1], [14, -1]],
            pipeline="_g2_pipeline", fixed_rank=2,
        ),
    )
}

FAMILIES = tuple(FAMILY_TABLE)
