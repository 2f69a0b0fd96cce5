"""Bounded-composition counts.

mu(n, l, k, p) is the number of integer tuples (k_1, ..., k_n) with
0 <= k_r <= l-1 and k_1 + ... + k_n = l*k - p, that is, the coefficient of
x^(l*k - p) in (1 + x + ... + x^(l-1))^n.  These counts are the raw
coefficients of the Adams operation psi^l on the primitive K-theory classes
of U(n); the symplectic and spin matrices use the symmetrized combinations
alpha and beta.

There are two independent routes to the counts:

* the production route, `signed_table`: the block mu(n, l, k, p),
  0 <= k, p <= n, with the sign and the factor of the unitary formula,
  (-1)^(k+p) * l * mu(n, l, k, p), which is the U(n) matrix itself, kept
  in a bounded cache.  Row k of the block is the coefficients of
  (1 + x + ... + x^(l-1))^n at the window of degrees l*k - n .. l*k.
  Where the windows overlap or abut, l <= n+1, they are read off the
  first half of one coefficient row; above that each window is run on
  its own from one seed (`_windows`), so the cost stops growing with l.
  The block is kept as one or two flat strips (`SignedBlock`), laid out
  so that each of its columns over any range of k is one strided slice;
  no (n+1)^2 block of rows is built.  The matrix assembly in `ktheory`
  reads it by columns; `mu_enumerate`, `alpha` and `beta` read single
  counts unsigned, through one reader after one check of the arguments
  (`alpha` and `beta` check once for their two counts).  Up to l = n+1
  the strips hold the whole row, so `mu_enumerate` reads any degree from
  the cached block.  Above that, outside the block, it folds its degree
  into the first half of the row and runs the chain of windows, one every
  l degrees, that ends there, uncached.
* the oracle, `mu_closed`: an inclusion-exclusion sum over binomials,
  which the test suite and `adamsops mu --check` compare the block with.

The row is P-recursive.  f = P^n with P = (1 - x^l)/(1 - x) has the
logarithmic derivative f'/f = n P'/P, which clears to

    (1 - x)(1 - x^l) f' = n [(1 - x^l) - l x^(l-1) (1 - x)] f.

Comparing the coefficients of x^s on both sides gives, for a_s = [x^s] f,

    (s+1) a[s+1] = (s+n) a[s] + (s-l+1-n*l) a[s-l+1] + (n(l-1)-s+l) a[s-l],

with a[0] = 1 and a[s] = 0 for s < 0: each coefficient from three earlier
ones, n(l-1)/2 big-integer steps for the first half of the row, and n+1
steps for a window of n+1 degrees given the one before it.  A step costs
three products of a big coefficient by a small one and one `divmod` by
s+1, whose remainder must be zero.  The row is a palindrome,
a[s] = a[n(l-1) - s], so only its first half is computed and kept.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import cycle, islice
from math import comb
from operator import mul, neg
from typing import Iterable, Iterator

from .exactmath import _require_int
from .record import Record

__all__ = ["SignedBlock", "signed_table", "mu_enumerate", "mu_closed", "alpha", "beta"]

# Distinct (n, l) blocks kept by `signed_table`.  Sweeps over every family
# at ranks up to 10 with l up to 144 touch about 350 blocks of 0.5-14 KiB
# each; one block at n = 80 takes about 8 KiB at l = 2 or 3 and 360 KiB at
# l = 50 (tracemalloc).
_TABLE_CACHE_SIZE = 512

# Oracle counts kept.  `adamsops verify` at its defaults leaves 11,773
# entries; 2^15 gives that 2.8x headroom and takes about 5 MB when full.
_ORACLE_CACHE_SIZE = 2**15


def _validate(n: int, l: int, k: int = 0, p: int = 0) -> None:
    # exact ints pass at once; anything else gets each check, in order
    if not type(n) is type(l) is type(k) is type(p) is int:
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


def _recur(n: int, l: int, a: list[int], lag: list[int], s: int, stop: int) -> None:
    """Append the coefficients a[s+1..stop] of (1 + x + ... + x^(l-1))^n to
    `a`, whose last entry is a[s], by the three-term recurrence of the
    module docstring,

        (s+1) a[s+1] = (s+n) a[s] + (s-l+1-n*l) a[s-l+1] + (n(l-1)-s+l) a[s-l],

    where `lag` holds the lagged coefficients from lag[0] = a[s-l] on.  The
    divisor and the three coefficients are linear in s, so each runs as a
    `range` beside the lags, and a step is three products and a `divmod`.
    Every step divides exactly by s+1, since each a[s+1] is a count; a
    remainder means a coefficient or the recurrence is wrong and raises.
    """
    nl = n * l
    q = a[-1]
    for d, c, chi, clo, lo, hi in zip(
        range(s + 1, stop + 1),
        range(s + n, stop + n),
        range(s - l + 1 - nl, stop - l + 1 - nl),
        range(nl - n - s + l, nl - n - stop + l, -1),
        lag,
        islice(lag, 1, None),
    ):
        q, r = divmod(c * q + chi * hi + clo * lo, d)
        if r:
            raise ArithmeticError(f"counts of n={n}, l={l}: step s={d - 1} leaves remainder {r}")
        a.append(q)


def _count_row(n: int, l: int) -> list[int]:
    """The first half of the coefficients of (1 + x + ... + x^(l-1))^n:
    entry s is the number of n-tuples with parts in 0..l-1 summing to s,
    for 0 <= s <= n*(l-1)/2.

    The row is a palindrome, a[s] = a[n(l-1) - s], so its first half, from
    `_recur`, is the whole of it: the entry of degree s > n(l-1)/2 is the
    one of degree n(l-1) - s.
    """
    a = [0] * l + [1]  # a[s] sits at index s + l; the l zeros are a[-l..-1]
    _recur(n, l, a, a, 0, n * (l - 1) // 2)
    del a[:l]
    return a


def _windows(n: int, l: int, r: int, count: int) -> Iterator[list[int]]:
    """The windows of the count row of (1 + x + ... + x^(l-1))^n at the
    degrees e - n - 1 .. e for e = r, r + l, ..., r + (count-1)*l, in order,
    for l >= n+2 and 0 <= r < l: each a list of n+2 coefficients, the one of
    degree e last.

    The window ending at e, extended by one degree to e - n - 1 .. e,
    starts from the seed

        a[e - n - 1] = sum_q (-1)^q C(n, q) C(e - 2 - l*q, n-1)

    over the q <= n with e - n - 1 - l*q >= 0, the inclusion-exclusion sum
    of `mu_closed` at that degree, and runs `_recur` over its n+1 degrees.
    Its lagged terms a[s-l] and a[s-l+1] all fall in the window before it;
    those of the first window lie at degrees up to r - l < 0 and are zero.
    Where the first window reaches below degree 0, r <= n, it is zero
    there and runs from a[0] = 1 instead of a seed.  So every coefficient
    above a seed comes from the recurrence and its remainder check.  The
    binomials C(e - 2, n-1), one per window, are shared by all the seeds.
    """
    w = n + 1
    ends = range(r, r + count * l, l)
    binoms = [comb(e - 2, n - 1) if e > n else 0 for e in ends]
    terms = [(-1) ** q * comb(n, q) for q in range(min(count, w))]
    if r > n:
        window = [binoms[0]]
        _recur(n, l, window, [0] * (w + 1), r - w, r)
    else:
        window = [0] * (w - r) + [1]
        _recur(n, l, window, [0] * (r + 1), 0, r)
    yield window
    for i, e in enumerate(ends[1:], 1):
        lag, window = window, [sum(map(mul, terms, binoms[i::-1]))]
        _recur(n, l, window, lag, e - w, e)
        yield window


class SignedBlock(Record):
    """The block A[k][p] = (-1)^(k+p) * l * mu(n, l, k, p), 0 <= k, p <= n,
    as `signed_table` keeps it: one or two flat strips, a stride and an
    offset, with

        A[k][p] = S[stride*k + offset - p],  S = strips[ceil(p/l) mod len(strips)],

    the strip that `by_column[p]` names for each column p.  So column p over
    any range of k is one strided slice of one strip, and no row of the
    block is built.  Its methods read every layout alike."""

    strips: tuple[tuple[int, ...], ...]
    stride: int
    offset: int
    by_column: tuple[tuple[int, ...], ...]

    def columns(self, ps: Iterable[int], ks: range) -> list[tuple[int, ...]]:
        """Column p of the block over the k of `ks`, a range of step 1, for
        each p in `ps`: the U(n) matrix row p over those wedges."""
        by_column, step = self.by_column, self.stride
        lo, hi = step * ks.start + self.offset, step * ks.stop + self.offset
        return [by_column[p][lo - p : hi - p : step] for p in ps]

    def entry(self, k: int, p: int) -> int:
        """A[k][p]."""
        return self.by_column[p][self.stride * k + self.offset - p]

    def unsigned(self, k: int, p: int) -> int:
        """|A[k][p]| = l * mu(n, l, k, p), the same in either strip.  Where
        they hold the whole row, l <= n+1, it is |S[s + n]| at the degree
        s = l*k - p, so any k, p with s in 0..n(l-1) may be read."""
        return abs(self.strips[0][self.stride * k + self.offset - p])


@lru_cache(maxsize=_TABLE_CACHE_SIZE, typed=True)
def signed_table(n: int, l: int) -> SignedBlock:
    """The block A[k][p] = (-1)^(k+p) * l * mu(n, l, k, p) for 0 <= k, p <= n:
    entry (p, k) of the unitary formula for psi^l on U(n), for every p and
    k, so the U(n) matrix is this block without row and column 0.  It is
    kept as the strips of a `SignedBlock`, in one of three layouts; column
    p of the block is the matrix row p.

    Row k reads the count row at the window of degrees s = l*k - p.  Where
    the windows overlap or abut, l <= n+1, the strips hold the whole count
    row, scaled once, about n(l-1)/2 products for the first half of the
    row (`_count_row`), and mirrored, since the row is a palindrome.  Each
    is padded with n zeros on either side, so that entry s of the row
    sits at s + n: stride l and offset n.

    * Odd l: (-1)^(k+p) = (-1)^s, so one strip, the signed row
      (-1)^s * l * a[s], a palindrome.
    * Even l: (-1)^(k+p) = (-1)^s (-1)^k, and with s = l*k - p,
      floor(s/l) = k - ceil(p/l).  So A[k][p] = (-1)^ceil(p/l) G[s] with

          G[s] = (-1)^(floor(s/l) + s) * l * a[s],

      and the strips are G and -G.  The first half of G is the first half
      of the row scaled by a sign pattern of period 2l, and -G's is its
      negation.  Their second halves mirror their first by
      G[N - t] = e(t mod l) G[t], N = n(l-1) and e(r) = (-1)^ceil((n+r)/l),
      which switches sign once in each run of l degrees: each is cut by
      slicing from the two first halves, with no further product.

    Above that the windows are disjoint, and no row is built.  Window k,
    extended by one degree to l*k - n - 1 .. l*k, runs `_recur` from the
    seed

        a[l*k - n - 1] = sum_{q<k} (-1)^q C(n, q) C(l(k-q) - 2, n-1),

    as `_windows` gives it with r = 0: window 0 is zero but for a[0] = 1.
    The seed is no entry of the block, so every entry still comes from the
    recurrence and its check.  Since A[k][p] = A[n-k][n-p], as for the
    counts, only the windows k <= n/2 are run, and the one strip holds
    them signed, degree l*k - n first, row after row: stride n+1 and
    offset n.  The rows k > n/2 mirror them, and together they are the
    first rows reversed.  That is about n^2/2 steps and (n+1)^2/2
    products at any l.

    Every count mu(n, l, k, p) of the block is a polynomial in l of degree
    <= n-1, for every l >= 1, so every entry is one of degree <= n.  With
    s = l*k - p, `mu_closed`'s sum gives, for 0 <= k, p <= n,

        mu = [p = 0] (-1)^k C(n, k) + sum_{q<k} (-1)^q C(n, q) P(n-1 + l(k-q) - p),

    where P(x) = x(x-1)...(x-n+2)/(n-1)!:

    * a term q < k that the sum leaves out, l(k-q) < p, has x in
      [0, n-2], where P is 0; a term it keeps has x >= n-1, where
      P(x) = C(x, n-1);
    * the term q = k is live only when p = 0, where it is (-1)^k C(n, k);
    * the guard s > n(l-1) adds nothing, because the whole sum is the
      coefficient of x^s in (1 - x^l)^n / (1 - x)^n, a polynomial of
      degree n(l-1).

    The same sum at p = n+1 is the seed above for k >= 1: with l >= n+2
    every term q < k is kept, and x = l(k-q) - 2.
    """
    _validate(n, l)
    w = n + 1
    pad = (0,) * n
    if l > w:
        # window k holds degrees l*k - n - 1 .. l*k, that is p = n+1 .. 0,
        # whose sign (-1)^(k+p) alternates along the window and flips with k
        signs = [(-1) ** (n - j) * l for j in range(w)]
        signs = signs, [-x for x in signs]
        flat = []
        for k, window in enumerate(_windows(n, l, 0, (w + 1) // 2)):
            flat += map(mul, islice(window, 1, None), signs[k % 2])
        flat += flat[w * (w // 2) - 1 :: -1]  # the rows k > n/2
        strips = (tuple(flat),)
        return SignedBlock(strips, w, n, strips * w)
    row = _count_row(n, l)
    tail = n * (l - 1) + 1 - len(row)  # degrees above the first half
    if l % 2:
        half = list(map(mul, row, cycle((l, -l))))
        strips = ((*pad, *half, *half[:tail][::-1], *pad),)
        return SignedBlock(strips, l, n, strips * w)
    half = list(map(mul, row, cycle([l, -l] * (l // 2) + [-l, l] * (l // 2))))
    halves = half, list(map(neg, half))
    # the first half of each strip times e(t mod l), read backwards: e is
    # (-1)^ceil(n/l) below degree cut in each run of l, and its negation from cut on
    cut, flip = -n % l + 1, -(-n // l) % 2
    strips = []
    for i in range(2):
        mirror, other = list(halves[(i + flip) % 2]), halves[(i + flip + 1) % 2]
        for t in range(cut, tail, l):
            mirror[t : t + l - cut] = other[t : t + l - cut]
        strips.append((*pad, *halves[i], *mirror[tail - 1 :: -1], *pad))
    # column p lies in strip ceil(p/l) mod 2: G at p = 0, then runs of l
    by_column = strips[:1] + (strips[1:] * l + strips[:1] * l) * (n // (2 * l) + 1)
    return SignedBlock(tuple(strips), l, n, tuple(by_column[:w]))


def mu_enumerate(n: int, l: int, k: int, p: int) -> int:
    """The count as a coefficient of (1 + x + ... + x^(l-1))^n.

    It is read from the cached block of `signed_table` inside the block
    0 <= k, p <= n, and up to l = n+1 at any degree s = l*k - p, since the
    strips hold the whole row.  Above that a count outside the block is
    not cached: s is folded to n(l-1) - s where that is lower, since the
    row is a palindrome, and reached by the chain of windows of `_windows`
    that ends at it, one every l degrees: at most n/2 + 1 windows of n+1
    recurrence steps, at any l.
    """
    _validate(n, l, k, p)
    return _enumerated(n, l, k, p)


def _enumerated(n: int, l: int, k: int, p: int) -> int:
    """`mu_enumerate` for arguments it has already checked."""
    if k <= n and 0 <= p <= n or l <= n + 1 and 0 <= l * k - p <= n * (l - 1):
        return signed_table(n, l).unsigned(k, p) // l
    s = l * k - p
    if s < 0 or s > n * (l - 1):
        return 0
    s = min(s, n * (l - 1) - s)
    for window in _windows(n, l, s % l, s // l + 1):
        pass
    return window[-1]


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
    # both binomials are in range, 0 <= q <= n and s - l*q >= 0, so the
    # arguments checked above go to `comb` with no second check
    for q in range(0, min(n, s // l) + 1):
        term = comb(n, q) * comb(n - 1 + s - l * q, n - 1)
        total += -term if q % 2 else term
    return total


def alpha(n: int, l: int, k: int, p: int) -> int:
    """mu(n, l, k, p) + mu(n, l, k, n-p).  The arguments are checked once
    for both counts: n - p is an int wherever n and p are."""
    _validate(n, l, k, p)
    return _enumerated(n, l, k, p) + _enumerated(n, l, k, n - p)


def beta(n: int, l: int, k: int, p: int) -> int:
    """mu(n, l, k, p) - mu(n, l, k, n-p); antisymmetric under p -> n-p.  The
    arguments are checked once, as in `alpha`."""
    _validate(n, l, k, p)
    return _enumerated(n, l, k, p) - _enumerated(n, l, k, n - p)
