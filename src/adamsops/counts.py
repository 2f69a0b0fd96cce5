"""Bounded-composition counts.

mu(n, l, k, p) is the number of integer tuples (k_1, ..., k_n) with
0 <= k_r <= l-1 and k_1 + ... + k_n = l*k - p, that is, the coefficient of
x^(l*k - p) in (1 + x + ... + x^(l-1))^n.  These counts are the raw
coefficients of the Adams operation psi^l on the primitive K-theory classes
of U(n); the symplectic and spin matrices use the symmetrized combinations
alpha and beta.

There are two independent routes to the counts:

* the production route, `count_table`: the block mu(n, l, k, p),
  0 <= k, p <= n, kept in a bounded cache.  Up to l = n(n+1) it is read
  off one coefficient row of (1 + x + ... + x^(l-1))^n; above that, where
  the row would be long and the block small, it is the Lagrange
  interpolation in l of the blocks at l = 1..n, since every entry is a
  polynomial in l of degree < n for all l >= 1 (the proof is at
  `count_table`).  `mu_enumerate`, `alpha` and `beta` read it.
* the oracle, `mu_closed`: an inclusion-exclusion sum over binomials,
  which the test suite and `adamsops mu --check` compare the table with.

The matrix assembly in `ktheory` reads neither: it reads `signed_table`,
the same block with the sign and the factor of the unitary formula,
(-1)^(k+p) * l * mu(n, l, k, p), which is the U(n) matrix itself.  It is
built from the same count row (or, above l = n(n+1), from `count_table`'s
block) and kept in its own bounded cache, so that each entry is scaled
once per block rather than once per use.

The row is P-recursive.  f = P^n with P = (1 - x^l)/(1 - x) has the
logarithmic derivative f'/f = n P'/P, which clears to

    (1 - x)(1 - x^l) f' = n [(1 - x^l) - l x^(l-1) (1 - x)] f.

Comparing the coefficients of x^s on both sides gives, for a_s = [x^s] f,

    (s+1) a[s+1] = (s+n) a[s] + (s-l+1-n*l) a[s-l+1] + (n(l-1)-s+l) a[s-l],

with a[0] = 1 and a[s] = 0 for s < 0: each coefficient from three earlier
ones, O(n*l) big-integer steps for the whole row.  The row is a palindrome,
a[s] = a[n(l-1) - s], so only its first half is computed.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain, cycle
from operator import mul, neg

from .exactmath import _require_int, binomial

__all__ = ["count_table", "signed_table", "mu_enumerate", "mu_closed", "alpha", "beta"]

# Distinct (n, l) blocks kept, by each of the two block caches.  Sweeps over
# every family at ranks up to 10 with l up to 144 touch about 350 blocks of
# 2-20 KiB each; one block at n = 80, l = 50 takes about 520 KiB.
_TABLE_CACHE_SIZE = 512

# Oracle counts kept.  `adamsops verify` at its defaults leaves 11,773
# entries; 2^15 gives that 2.8x headroom and takes about 5 MB when full.
_ORACLE_CACHE_SIZE = 2**15


def _validate(n: int, l: int, k: int = 0, p: int = 0) -> None:
    _require_int("number of parts n", n)
    _require_int("part bound parameter l", l)
    _require_int("wedge degree k", k)
    _require_int("offset p", p)
    if n < 1:
        raise ValueError(f"number of parts must be positive, got n={n}")
    if l < 1:
        raise ValueError(f"part bound parameter must be positive, got l={l}")
    if k < 0:
        raise ValueError(f"wedge degree must be nonnegative, got k={k}")


def _count_row(n: int, l: int) -> list[int]:
    """The coefficients of (1 + x + ... + x^(l-1))^n: entry s is the number
    of n-tuples with parts in 0..l-1 summing to s, for 0 <= s <= n*(l-1).

    The first half of the row comes from the three-term recurrence of the
    module docstring,

        (s+1) a[s+1] = (s+n) a[s] + (s-l+1-n*l) a[s-l+1] + (n(l-1)-s+l) a[s-l],

    which clears the differential equation of (1 + ... + x^(l-1))^n; the
    second half mirrors it.  Every step divides exactly by s+1, since each
    a[s+1] is a count; a remainder means the recurrence is wrong and raises.
    """
    size = n * (l - 1) + 1
    half = (size + 1) // 2
    nl = n * l
    a = [0] * l + [1]  # a[s] sits at index s + l; the l zeros are a[-l..-1]
    for s in range(half - 1):
        q, r = divmod(
            (s + n) * a[s + l] + (s - l + 1 - nl) * a[s + 1] + (nl - n - s + l) * a[s],
            s + 1,
        )
        if r:
            raise ArithmeticError(f"count row of n={n}, l={l}: step s={s} leaves remainder {r}")
        a.append(q)
    del a[:l]
    return a + a[: size - half][::-1]


@lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)
def count_table(n: int, l: int) -> tuple[tuple[int, ...], ...]:
    """The block T[k][p] = mu(n, l, k, p) for 0 <= k, p <= n.

    Up to the switch l = n(n+1), row k reads the count row backwards from
    degree l*k down to l*k - n; the row, of n*(l-1) + 1 entries, is dropped
    once the block is read.

    Every entry is a polynomial in l of degree <= n-1, for every l >= 1.
    With s = l*k - p, `mu_closed`'s sum gives, for 0 <= k, p <= n,

        mu = [p = 0] (-1)^k C(n, k) + sum_{q<k} (-1)^q C(n, q) P(n-1 + l(k-q) - p),

    where P(x) = x(x-1)...(x-n+2)/(n-1)!:

    * a term q < k that the sum leaves out, l(k-q) < p, has x in
      [0, n-2], where P is 0; a term it keeps has x >= n-1, where
      P(x) = C(x, n-1);
    * the term q = k is live only when p = 0, where it is (-1)^k C(n, k);
    * the guard s > n(l-1) adds nothing, because the whole sum is the
      coefficient of x^s in (1 - x^l)^n / (1 - x)^n, a polynomial of
      degree n(l-1).

    So the blocks at l = 1..n fix the block at every l.  Above the switch
    the block is their Lagrange sum in t = l-1 over the nodes t = 0..n-1,

        T(l) = sum_{j<n} w_j T(j+1),  w_j = (-1)^(n-1-j) C(t, j) C(t-j-1, n-1-j),

    integer weights once l >= n+1.  Reversing every part sends the tuples
    counted by T[k][p] to those of T[n-k][n-p], so the flattened block is a
    palindrome: only its first half is summed, and the rest mirrors it.

    The row costs about n*l steps; the sum about n^3 at any l, for the n
    short rows at l <= n and n*(n+1)^2/2 multiply-adds.  Timed cold, best
    of 5: at n = 63 the block takes 94-99 ms by the row at l = n(n+1) and
    69-80 ms by the sum at l = n(n+1) + 1..8n(n+1); at n = 128, 1.5 s and
    313 MB by the row and 1.5-1.7 s and 103 MB by the sum (2-vCPU Xeon VM,
    Python 3.11.7).
    """
    _validate(n, l)
    w = n + 1
    if l <= n * w:
        ext = [0] * w + _count_row(n, l) + [0] * n  # degree s sits at s + w
        return tuple(tuple(ext[l * k + w : l * k : -1]) for k in range(w))
    return _lagrange_block(n, l)


def _lagrange_block(n: int, l: int) -> tuple[tuple[int, ...], ...]:
    """`count_table`'s block above l = n(n+1), uncached: the Lagrange sum of
    the cached blocks at l = 1..n."""
    w = n + 1
    t, half = l - 1, (w * w + 1) // 2
    weights = [
        (-1) ** (n - 1 - j) * binomial(t, j) * binomial(t - j - 1, n - 1 - j) for j in range(n)
    ]
    blocks = [[*chain.from_iterable(count_table(n, j + 1))][:half] for j in range(n)]
    flat = [sum(map(mul, weights, column)) for column in zip(*blocks)]
    flat += flat[: w * w - half][::-1]
    return tuple(tuple(flat[k * w : k * w + w]) for k in range(w))


@lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)
def signed_table(n: int, l: int) -> tuple[tuple[int, ...], ...]:
    """The block A[k][p] = (-1)^(k+p) * l * mu(n, l, k, p) for 0 <= k, p <= n:
    entry (p, k) of the unitary formula for psi^l on U(n), for every p and
    k, so the U(n) matrix is this block without row and column 0.

    Row k reads the count row at degrees s = l*k - p, and (-1)^(k+p) is
    (-1)^s, times (-1)^k when l is even.  So where the windows of the rows
    overlap or abut, l <= n+1, the first half of the count row is scaled
    once by (-1)^s * l, about n(l-1)/2 products, and mirrored: the signed
    row is a palindrome up to the sign (-1)^(n(l-1)).  Every row of the
    block is a slice of it, negated for odd k when l is even.  Above that
    the windows are disjoint, and each is scaled on its own: read off the
    count row up to l = n(n+1), and off `count_table`'s Lagrange block above
    it, which is not kept in `count_table`'s cache as well.  Since
    A[k][p] = A[n-k][n-p], as for the counts, only the rows k <= n/2 are
    scaled, about (n+1)^2/2 products, and the rest mirror them.
    """
    _validate(n, l)
    w = n + 1
    if l <= w:
        row = _count_row(n, l)
        size = len(row)
        half = (size + 1) // 2
        # the first half of the signed row, and for even l its negation:
        # the second half of either is the first half of the one of sign
        # (-1)^(n(l-1)) reversed
        halves = [list(map(mul, row[:half], cycle((l, -l))))]
        if l % 2 == 0:
            halves.append(list(map(neg, halves[0])))
        flip = (size - 1) % 2
        rows = [
            [0] * w + h + halves[(i + flip) % len(halves)][: size - half][::-1] + [0] * n
            for i, h in enumerate(halves)
        ]
        return tuple(tuple(rows[k % len(rows)][l * k + w : l * k : -1]) for k in range(w))
    if l <= n * w:
        ext = [0] * w + _count_row(n, l) + [0] * n  # degree s sits at s + w
        windows = [ext[l * k + w : l * k : -1] for k in range((w + 1) // 2)]
    else:
        windows = _lagrange_block(n, l)
    signs = ([l, -l] * w, [-l, l] * w)
    top = [tuple(map(mul, windows[k], signs[k % 2])) for k in range((w + 1) // 2)]
    return tuple(top + [row[::-1] for row in reversed(top[: w // 2])])


def mu_enumerate(n: int, l: int, k: int, p: int) -> int:
    """The count as a coefficient of (1 + x + ... + x^(l-1))^n.

    Inside the block 0 <= k, p <= n it is read from `count_table`; outside
    it the coefficient row is rebuilt, uncached.
    """
    _validate(n, l, k, p)
    if k <= n and 0 <= p <= n:
        return count_table(n, l)[k][p]
    s = l * k - p
    if s < 0 or s > n * (l - 1):
        return 0
    return _count_row(n, l)[s]


@lru_cache(maxsize=_ORACLE_CACHE_SIZE, typed=True)
def mu_closed(n: int, l: int, k: int, p: int) -> int:
    """The same count by inclusion-exclusion over parts that overflow l-1:

        mu = sum_q (-1)^q C(n, q) C(n-1 + s - l*q, n-1),   s = l*k - p,

    with q running while s - l*q >= 0 (and q <= n).  Running the sum in
    terms of s rather than stopping at q = k-1 keeps the formula correct
    for p <= 0, where the q = k term is nonzero; for p >= 1 the two ranges
    agree.  The guard also settles k = 0: mu = 1 iff p = 0.
    """
    _validate(n, l, k, p)
    s = l * k - p
    if s < 0 or s > n * (l - 1):
        return 0
    total = 0
    for q in range(0, min(n, s // l) + 1):
        term = binomial(n, q) * binomial(n - 1 + s - l * q, n - 1)
        total += -term if q % 2 else term
    return total


def alpha(n: int, l: int, k: int, p: int) -> int:
    """mu(n, l, k, p) + mu(n, l, k, n-p)."""
    return mu_enumerate(n, l, k, p) + mu_enumerate(n, l, k, n - p)


def beta(n: int, l: int, k: int, p: int) -> int:
    """mu(n, l, k, p) - mu(n, l, k, n-p); antisymmetric under p -> n-p."""
    return mu_enumerate(n, l, k, p) - mu_enumerate(n, l, k, n - p)
