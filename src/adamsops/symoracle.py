"""Symmetric-function oracle for the unitary Adams coefficients.

The Adams operation psi^l acts on a k-fold wedge of weight lines by raising
every weight monomial to the l-th power; rewriting the result in the wedge
basis leaves, in front of the degree-p generator, a sum of monomials
lambda_1^{k_1} ... lambda_n^{k_n} over bounded compositions (0 <= k_r <= l-1,
sum = l*k - p).  This module performs that rewriting symbolically in
Z[lambda_1, ..., lambda_n] -- via elementary/complete symmetric polynomials
and the triangular recursion between them, never by enumerating
compositions -- so that it is an oracle fully independent of the `counts`
module.  Specializing every variable to 1 must reproduce mu(n, l, k, p).

Every polynomial that rewriting builds is symmetric, so it is held as a
partition table: {lambda: coefficient}, one entry per partition lambda (a
non-increasing length-n exponent tuple) standing for its whole orbit of
monomials.  Each product has one sparse factor, e_j in the recursion for h
and e_q(lambda^l) in B_p, whose monomials put `step` (1, resp. l) on j
positions; the product's coefficient at lambda is the sum, over the
j-subsets S of the positions with lambda_i >= step, of the other factor's
coefficient at sort(lambda - step * 1_S).  Only the returned values are
expanded into monomials, as `SymPoly`s.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations, combinations_with_replacement, permutations, product
from operator import add
from typing import Dict, Tuple

from .exactmath import _require_int

__all__ = [
    "SymPoly",
    "symmetric_basis",
    "complete_by_recursion",
    "adams_symbolic_coefficients",
    "bounded_composition_poly",
    "verify_product_identity",
]

Exponents = Tuple[int, ...]
# a symmetric polynomial by its coefficients at non-increasing exponent tuples
Table = Dict[Exponents, int]

# Entries kept by each oracle cache.  `adamsops verify --suite oracle` at its
# defaults leaves 60 coefficient tables and 53 runs of complete-polynomial
# tables, 0.45 MB in all (tracemalloc, freed by clearing both caches); the
# largest run, h_0 .. h_19 in five variables, holds 933 partitions in 34 KB.
_TABLE_CACHE_SIZE = 256


class SymPoly:
    """A multivariate polynomial over Z in variables lambda_1 .. lambda_n.

    Terms map exponent tuples (length n, nonnegative entries) to nonzero
    integer coefficients.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Dict[Exponents, int] | None = None) -> None:
        if n < 1:
            raise ValueError(f"SymPoly: need at least one variable, got n={n}")
        self.n = n
        self.terms: Dict[Exponents, int] = {}
        if terms:
            for exps, coeff in terms.items():
                if coeff == 0:
                    continue
                if len(exps) != n or min(exps) < 0:
                    raise ValueError(f"SymPoly: bad exponent tuple {exps!r} for n={n}")
                self.terms[exps] = coeff

    @classmethod
    def zero(cls, n: int) -> "SymPoly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "SymPoly":
        return cls(n, {(0,) * n: 1})

    @classmethod
    def monomial(cls, n: int, exps: Exponents, coeff: int = 1) -> "SymPoly":
        return cls(n, {tuple(exps): coeff})

    def _check(self, other: "SymPoly") -> None:
        if self.n != other.n:
            raise ValueError(f"variable count mismatch: {self.n} != {other.n}")

    def __add__(self, other: "SymPoly") -> "SymPoly":
        self._check(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            c = out.get(exps, 0) + coeff
            if c:
                out[exps] = c
            else:
                out.pop(exps, None)
        return SymPoly(self.n, out)

    def __neg__(self) -> "SymPoly":
        return SymPoly(self.n, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "SymPoly") -> "SymPoly":
        return self + (-other)

    def __mul__(self, other: "SymPoly | int") -> "SymPoly":
        if isinstance(other, int):
            return SymPoly(self.n, {e: c * other for e, c in self.terms.items()})
        if not isinstance(other, SymPoly):
            return NotImplemented
        self._check(other)
        out: Dict[Exponents, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(map(add, e1, e2))
                c = out.get(key, 0) + c1 * c2
                if c:
                    out[key] = c
                else:
                    del out[key]
        return SymPoly(self.n, out)

    def __rmul__(self, other: int) -> "SymPoly":
        return self.__mul__(other)

    def truncate(self, max_degree: int) -> "SymPoly":
        """Drop every term of total degree above max_degree."""
        return SymPoly(self.n, {e: c for e, c in self.terms.items() if sum(e) <= max_degree})

    def substitute_power(self, l: int) -> "SymPoly":
        """Replace each variable lambda_i by lambda_i^l."""
        if l < 1:
            raise ValueError(f"substitute_power: exponent must be positive, got {l}")
        return SymPoly(self.n, {tuple(l * e for e in exps): c for exps, c in self.terms.items()})

    def permute_variables(self, perm: Tuple[int, ...]) -> "SymPoly":
        """Reindex variables: the new exponent of position i is the old one at perm[i]."""
        return SymPoly(
            self.n, {tuple(exps[p] for p in perm): c for exps, c in self.terms.items()}
        )

    def specialize_ones(self) -> int:
        """Evaluate at lambda_1 = ... = lambda_n = 1 (the sum of coefficients)."""
        return sum(self.terms.values())

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SymPoly) and self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"SymPoly(n={self.n}, terms={self.terms!r})"


def symmetric_basis(n: int, k: int, kind: str) -> SymPoly:
    """The k-th elementary (e_k) or complete homogeneous (h_k) symmetric
    polynomial in n variables, straight from the defining sum.

    e_k = 0 for k > n; e_0 = h_0 = 1.
    """
    _require_int("number of variables n", n)
    _require_int("degree k", k)
    if k < 0:
        raise ValueError(f"symmetric_basis: degree must be nonnegative, got {k}")
    if kind == "elementary":
        if k > n:
            return SymPoly.zero(n)
        picks = combinations(range(n), k)
    elif kind == "complete":
        picks = combinations_with_replacement(range(n), k)
    else:
        raise ValueError(f"symmetric_basis: kind must be 'elementary' or 'complete', got {kind!r}")
    terms: Dict[Exponents, int] = {}
    for pick in picks:
        exps = [0] * n
        for i in pick:
            exps[i] += 1
        terms[tuple(exps)] = 1
    return SymPoly(n, terms)


def _partitions(n: int, d: int) -> list[Exponents]:
    """Every partition of d into at most n parts, as a non-increasing
    length-n tuple padded with zeros."""
    out = []
    stack = [((), d)] if d >= 0 else []
    while stack:
        head, rest = stack.pop()
        if rest == 0:
            out.append(head + (0,) * (n - len(head)))
        elif len(head) < n:
            # the next part is at most the last one, and with the parts after
            # it (no larger) it must be able to make up the rest
            top = min(rest, head[-1]) if head else rest
            for part in range(-(-rest // (n - len(head))), top + 1):
                stack.append((head + (part,), rest - part))
    return out


def _times_elementary(n: int, degree: int, step: int, factors: list[Table]) -> Table:
    """The partition table of sum_j (-1)^j e_j(lambda^step) * factors[j] at
    the given degree."""
    table = {}
    for lam in _partitions(n, degree):
        movable = range(sum(1 for part in lam if part >= step))  # a prefix of lam
        coeff = 0
        for j, factor in enumerate(factors):
            for picks in combinations(movable, j):
                rest = list(lam)
                for i in picks:
                    rest[i] -= step
                coeff += (-1) ** j * factor.get(tuple(sorted(rest, reverse=True)), 0)
        if coeff:
            table[lam] = coeff
    return table


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _complete_tables(n: int, top: int) -> tuple[Table, ...]:
    """The partition tables of h_0 .. h_top, computed bottom-up by the
    triangular recursion h_c = -sum_{j=1}^{min(c, n)} (-1)^j e_j h_{c-j}
    (e_j vanishes for j > n)."""
    tables: list[Table] = [{(0,) * n: 1}]
    for c in range(1, top + 1):
        # slot j = 0 is left empty: h_c is what the terms j >= 1 sum to
        below = [{}] + [tables[c - j] for j in range(1, min(c, n) + 1)]
        tables.append({lam: -v for lam, v in _times_elementary(n, c, 1, below).items()})
    return tuple(tables)


def _expand(n: int, table: Table) -> SymPoly:
    """The polynomial whose monomials are the orbits of the table's partitions."""
    terms: Dict[Exponents, int] = {}
    for lam, coeff in table.items():
        terms.update(dict.fromkeys(permutations(lam), coeff))
    return SymPoly(n, terms)


def complete_by_recursion(n: int, k: int) -> SymPoly:
    """h_k computed from the elementary polynomials by the triangular
    recursion h_{i+1} = s_1 h_i - s_2 h_{i-1} + ... + (-1)^i s_{i+1},
    rather than from the defining sum over multisets.  The recursion runs
    bottom-up on partition tables, so no call recurses at all."""
    _require_int("number of variables n", n)
    _require_int("degree k", k)
    if k < 0:
        raise ValueError(f"complete_by_recursion: degree must be nonnegative, got {k}")
    return _expand(n, _complete_tables(n, k)[k])


def adams_symbolic_coefficients(n: int, l: int, k: int) -> tuple[SymPoly, ...]:
    """For p = 1..n, the bounded-composition polynomial sitting in front of
    the degree-p wedge generator in the Adams image of the degree-k one
    (the alternating sign (-1)^{k+p} is left to the caller).

    Computed by symmetric-function algebra, not enumeration:

        B_p = sum_{q=0}^{k-1} (-1)^q e_q(lambda^l) h_{l(k-q)-p},

    with h from the triangular recursion.  Entry p of the result is at
    index p-1.
    """
    _require_int("number of variables n", n)
    _require_int("Adams operation index l", l)
    _require_int("wedge degree k", k)
    if not 1 <= k <= n:
        raise ValueError(f"adams_symbolic_coefficients: need 1 <= k <= n, got k={k}, n={n}")
    if l < 1:
        raise ValueError(f"adams_symbolic_coefficients: need l >= 1, got {l}")
    return tuple(_expand(n, table) for table in _coefficient_tables(n, l, k))


@lru_cache(maxsize=_TABLE_CACHE_SIZE)
def _coefficient_tables(n: int, l: int, k: int) -> tuple[Table, ...]:
    # the partition tables of B_1 .. B_n; the q-th term of B_p has degree
    # d - l*q in h, d = l*k - p, so q runs up to d // l <= k - 1
    h = _complete_tables(n, l * k - 1)
    out = []
    for p in range(1, n + 1):
        d = l * k - p
        out.append(_times_elementary(n, d, l, [h[d - l * q] for q in range(d // l + 1)]))
    return tuple(out)


def bounded_composition_poly(n: int, l: int, k: int, p: int) -> SymPoly:
    """The same polynomial by brute force: sum the monomial lambda^kappa over
    every tuple kappa with 0 <= kappa_r <= l-1 and sum l*k - p."""
    _require_int("number of variables n", n)
    _require_int("Adams operation index l", l)
    _require_int("wedge degree k", k)
    _require_int("generator degree p", p)
    if l < 1 or n < 1:
        raise ValueError(f"bounded_composition_poly: need n, l >= 1, got n={n}, l={l}")
    target = l * k - p
    terms: Dict[Exponents, int] = {}
    if 0 <= target <= n * (l - 1):
        for kappa in product(range(l), repeat=n):
            if sum(kappa) == target:
                terms[kappa] = 1
    return SymPoly(n, terms)


def _geometric(n: int, i: int, top: int) -> SymPoly:
    # 1 + lambda_i + ... + lambda_i^top
    terms: Dict[Exponents, int] = {}
    for j in range(top + 1):
        exps = [0] * n
        exps[i] = j
        terms[tuple(exps)] = 1
    return SymPoly(n, terms)


def verify_product_identity(n: int, l: int, max_degree: int) -> tuple[bool, str]:
    """Check, through total degree max_degree, that

        prod_i (1 - lambda_i^l) / prod_i (1 - lambda_i)
            = prod_i (1 + lambda_i + ... + lambda_i^{l-1}),

    expanding 1/(1 - lambda_i) as a truncated geometric series, and that for
    every 1 <= k <= n, 1 <= p <= n with l*k - p <= max_degree the symbolic
    coefficient equals the bounded-composition sum coefficientwise.

    Returns (ok, detail); detail names the first failure, if any.
    """
    _require_int("number of variables n", n)
    _require_int("Adams operation index l", l)
    _require_int("max_degree", max_degree)
    if n < 1 or l < 1 or max_degree < 0:
        raise ValueError("verify_product_identity: need n, l >= 1 and max_degree >= 0")
    lhs = SymPoly.one(n)
    for i in range(n):
        exps = [0] * n
        exps[i] = l
        factor = SymPoly.one(n) - SymPoly.monomial(n, tuple(exps))
        lhs = (lhs * factor).truncate(max_degree)
    for i in range(n):
        lhs = (lhs * _geometric(n, i, max_degree)).truncate(max_degree)
    rhs = SymPoly.one(n)
    for i in range(n):
        rhs = (rhs * _geometric(n, i, l - 1)).truncate(max_degree)
    if lhs != rhs:
        return False, f"product identity fails for n={n}, l={l} through degree {max_degree}"
    for k in range(1, n + 1):
        symbolic = adams_symbolic_coefficients(n, l, k)
        for p in range(1, n + 1):
            if l * k - p > max_degree:
                continue
            if symbolic[p - 1] != bounded_composition_poly(n, l, k, p):
                return False, (
                    f"coefficient identity fails at n={n}, l={l}, k={k}, p={p}"
                )
    return True, f"n={n}, l={l}, degree<={max_degree}"
