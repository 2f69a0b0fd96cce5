import random
import re
import sys
import time
from itertools import accumulate
from operator import sub
from pathlib import Path

import pytest

from adamsops import counts
from adamsops.counts import (
    _count_row,
    alpha,
    beta,
    mu_closed,
    mu_enumerate,
    signed_table,
)
from adamsops.exactmath import binomial


def _block(n, l):
    """The rows of the block `signed_table(n, l)`, entry by entry."""
    block = signed_table(n, l)
    return tuple(tuple(block.entry(k, p) for p in range(n + 1)) for k in range(n + 1))


def _unsigned(n, l):
    """The block mu(n, l, k, p), 0 <= k, p <= n: `signed_table` without its
    signs and its factor l."""
    return tuple(tuple(abs(e) // l for e in row) for row in _block(n, l))


def _count_row_reference(n, l):
    """The coefficients of (1 + x + ... + x^(l-1))^n by n prefix-sum
    convolutions: new entry s is the running sum of old[s] - old[s-l]."""
    row, pad = [1], [0] * l
    for _ in range(n):
        row = list(accumulate(map(sub, row + pad, pad + row)))[: len(row) + l - 1]
    return row


def test_known_values():
    assert mu_enumerate(3, 2, 1, 1) == 3
    assert mu_closed(3, 2, 1, 1) == 3
    assert mu_closed(4, 2, 1, 2) == 1
    assert mu_closed(4, 2, 2, 2) == 6
    assert mu_closed(5, 2, 2, 1) == 10
    assert mu_closed(2, 3, 1, 1) == 3  # (0,2), (1,1), (2,0)
    assert mu_closed(2, 3, 2, 2) == 1  # only (2,2) reaches sum 4


def test_p_zero_and_degenerate_edges():
    # p = 0 only counts the all-zero tuple, and only when k = 0
    assert mu_closed(3, 2, 1, 0) == 3
    assert mu_enumerate(3, 2, 1, 0) == 3
    for n in range(1, 6):
        for l in range(1, 5):
            assert mu_closed(n, l, 0, 0) == 1
            for p in range(1, l * n + 1):
                assert mu_closed(n, l, 0, p) == 0
            # the all-(l-1) tuple is the unique one of maximal sum
            assert mu_closed(n, l, n, n) == 1


def test_l_equals_one_is_kronecker_delta():
    for n in range(1, 7):
        for k in range(n + 1):
            for p in range(n + 1):
                assert mu_closed(n, 1, k, p) == (1 if p == k else 0)


def test_out_of_range_sum_is_zero():
    assert mu_closed(3, 2, 3, 1) == 0  # sum 5 > 3*(2-1)
    assert mu_closed(3, 2, 1, 3) == 0  # sum -1 < 0
    assert mu_enumerate(3, 2, 3, 1) == 0
    assert mu_enumerate(3, 2, 1, 3) == 0


def test_argument_validation():
    for bad in [(0, 2, 1, 1), (3, 0, 1, 1), (3, 2, -1, 1)]:
        with pytest.raises(ValueError):
            mu_closed(*bad)
        with pytest.raises(ValueError) as raised:
            mu_enumerate(*bad)
        # alpha and beta check once, with mu_enumerate's messages
        for f in (alpha, beta):
            with pytest.raises(ValueError, match=f"^{re.escape(str(raised.value))}$"):
                f(*bad)


@pytest.mark.parametrize("position", range(4))
@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5, "2", None])
def test_count_functions_reject_bool_and_non_int(position, bad):
    # True == 1 and hashes like 1, so a cache shared by both would hand back
    # the l = 1 counts for l = True; warm those entries first.
    for f in (mu_enumerate, mu_closed, alpha, beta):
        f(3, 1, 1, 1)
    signed_table(3, 1)
    args = [3, 2, 1, 1]
    args[position] = bad
    for f in (mu_enumerate, mu_closed, alpha, beta):
        with pytest.raises(ValueError, match="must be an int"):
            f(*args)
    if position < 2:
        with pytest.raises(ValueError, match="must be an int"):
            signed_table(*args[:2])


def test_closed_matches_enumeration_small():
    for n in range(1, 7):
        for l in range(1, 6):
            for k in range(n + 1):
                for p in range(l * n + 1):
                    assert mu_closed(n, l, k, p) == mu_enumerate(n, l, k, p)


def test_duality():
    for n in range(1, 7):
        for l in range(1, 5):
            for k in range(n + 1):
                for p in range(l * n + 1):
                    assert mu_closed(n, l, k, p) == mu_closed(n, l, n - k, n - p)


def test_square_is_single_binomial():
    for n in range(1, 11):
        for k in range(n + 1):
            for p in range(2 * n + 1):
                assert mu_closed(n, 2, k, p) == binomial(n, 2 * k - p)


def test_composition_convolution():
    # chaining an l-th and an m-th operation matches the (l*m)-th one
    for n in range(1, 6):
        for l in range(1, 4):
            for m in range(1, 4):
                for k in range(1, n + 1):
                    for q in range(1, n + 1):
                        lhs = sum(
                            mu_closed(n, l, k, p) * mu_closed(n, m, p, q)
                            for p in range(1, n + 1)
                        )
                        assert lhs == mu_closed(n, m * l, k, q)


def test_alpha_beta_values():
    assert alpha(4, 2, 1, 1) == 4
    assert alpha(4, 2, 2, 1) == 8
    assert alpha(6, 2, 1, 1) == 6
    assert alpha(2, 1, 1, 1) == 2  # p = n - p, both halves count the same tuple
    assert beta(3, 2, 1, 1) == 2
    assert beta(3, 5, 1, 1) == 5
    assert beta(4, 3, 1, 2) == 0  # p = n - p forces antisymmetric difference to 0
    assert beta(5, 2, 1, 1) == 5
    assert beta(5, 2, 1, 2) == 1
    assert beta(5, 2, 2, 1) == 9
    assert beta(5, 2, 2, 2) == 5


def test_alpha_symmetric_beta_antisymmetric():
    for n in range(1, 8):
        for l in range(1, 5):
            for k in range(n + 1):
                for p in range(n + 1):
                    assert alpha(n, l, k, p) == alpha(n, l, k, n - p)
                    assert beta(n, l, k, p) == -beta(n, l, k, n - p)


def test_row_sum_counts_every_tuple():
    # summing over every achievable p (sum = l*k - p spans 0 .. n*(l-1))
    # recovers l^n, the total number of tuples
    for n in range(1, 6):
        for l in range(1, 5):
            for k in range(n + 1):
                lo, hi = l * k - n * (l - 1), l * k
                total = sum(mu_closed(n, l, k, p) for p in range(lo - 1, hi + 2))
                assert total == l**n


def test_table_matches_closed_form_on_random_draws():
    # The production table against the inclusion-exclusion oracle, inside the
    # block (read unsigned) and outside it (k > n, p < 0, p > n).
    rng = random.Random(20261018)
    draws = [(rng.randint(1, 80), 50) for _ in range(6)] + [(80, 50)]
    draws += [(7, rng.randint(2, 1000)) for _ in range(6)] + [(7, 1000)]
    draws += [(rng.randint(1, 30), rng.randint(1, 12)) for _ in range(10)]
    for n, l in draws:
        table = _unsigned(n, l)
        assert len(table) == n + 1 and all(len(row) == n + 1 for row in table)
        for _ in range(12):
            k, p = rng.randint(0, n), rng.randint(0, n)
            assert table[k][p] == mu_closed(n, l, k, p), (n, l, k, p)
            assert mu_enumerate(n, l, k, p) == table[k][p]
            assert alpha(n, l, k, p) == table[k][p] + mu_closed(n, l, k, n - p)
            assert beta(n, l, k, p) == table[k][p] - mu_closed(n, l, k, n - p)
        for _ in range(4):
            k, p = rng.randint(0, n + 3), rng.randint(-n - 3, 2 * n + 3)
            assert mu_enumerate(n, l, k, p) == mu_closed(n, l, k, p), (n, l, k, p)


def test_table_whole_block_small():
    for n in range(1, 9):
        for l in range(1, 7):
            expected = tuple(
                tuple(mu_closed(n, l, k, p) for p in range(n + 1)) for k in range(n + 1)
            )
            assert _unsigned(n, l) == expected, (n, l)


def test_table_above_the_route_bound_matches_closed_form(monkeypatch):
    # Up to l = n+1 the block is read off one count row; above it the
    # windows of its rows are disjoint, each runs from its own seed, and no
    # count row is built at all.
    rows = []
    monkeypatch.setattr(counts, "_count_row", lambda n, l: rows.append(l) or _count_row(n, l))
    for n in (*range(1, 13), 16, 24, 32):
        edge = n * (n + 1)
        for l in sorted({n + 1, n + 2, n + 3, 2 * n, edge, edge + 1, 5 * edge}):
            expected = tuple(
                tuple(mu_closed(n, l, k, p) for p in range(n + 1)) for k in range(n + 1)
            )
            signed_table.cache_clear()
            rows.clear()
            assert _unsigned(n, l) == expected, (n, l)
            assert rows == ([l] if l <= n + 1 else []), (n, l)


def test_table_validation(monkeypatch):
    # signed_table checks its arguments before it builds any count
    monkeypatch.setattr(counts, "_count_row", lambda n, l: pytest.fail("a row was built"))
    monkeypatch.setattr(counts, "_windows", lambda *a: pytest.fail("a window was run"))
    for bad in [(0, 2), (3, 0), (-1, 4), (3, True), (3, 2.0)]:
        with pytest.raises(ValueError):
            signed_table(*bad)


def test_table_cache_is_bounded():
    # the signed block is the one block cache
    caches = [f for f in vars(counts).values() if hasattr(f, "cache_info")]
    assert sorted(f.__name__ for f in caches) == ["mu_closed", "signed_table"]
    for cache in caches:
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and maxsize > 0


def test_the_benchmark_clears_both_block_caches(monkeypatch):
    # matrix-cold starts every lap from empty caches: the signed block and
    # the oracle's counts
    signed_table(4, 3)
    mu_closed(4, 3, 1, 1)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import workloads

        found = workloads.library_caches()
        assert all(any(c is cache for c in found) for cache in (signed_table, mu_closed))
        workloads.clear_library_caches()
    finally:
        for name in ("workloads", "reference"):
            sys.modules.pop(name, None)
    assert signed_table.cache_info().currsize == mu_closed.cache_info().currsize == 0


def test_signed_table_at_the_edges_of_its_routes(monkeypatch):
    # Up to l = n+1 the windows of the block's rows overlap or abut and are
    # read off one count row; above it they are disjoint, and no count row
    # is built, whether the block is read whole or entry by entry.  Odd n with even l makes the count row of even length, whose
    # signed mirror is negated.
    rows = []
    monkeypatch.setattr(counts, "_count_row", lambda n, l: rows.append((n, l)) or _count_row(n, l))
    for n in (1, 2, 3, 4, 5, 7, 8, 11, 16):
        edge = n * (n + 1)
        for l in sorted({1, 2, 3, n, n + 1, n + 2, n + 3, 2 * n, edge, edge + 1, 5 * edge}):
            expected = tuple(
                tuple((-1) ** (k + p) * l * mu_closed(n, l, k, p) for p in range(n + 1))
                for k in range(n + 1)
            )
            for read in (signed_table, lambda n, l: mu_enumerate(n, l, n // 2, 1)):
                signed_table.cache_clear()
                rows.clear()
                read(n, l)
                assert rows == ([(n, l)] if l <= n + 1 else []), (read, n, l)
            assert _block(n, l) == expected, (n, l)
            assert all(type(e) is int for strip in signed_table(n, l).strips for e in strip)
    with pytest.raises(ValueError):
        signed_table(3, 0)


@pytest.mark.parametrize("n, l", [(3, 6), (5, 8), (8, 12), (16, 40)])
def test_a_wrong_window_seed_raises(monkeypatch, n, l):
    # Window 1 of the block starts from the seed C(l-2, n-1).  One more
    # than that adds l-1 to the numerator of the window's first step, at
    # s = l-n-1, which its divisor s+1 = l-n does not divide here.
    assert (n - 1) % (l - n)
    real = counts.comb
    monkeypatch.setattr(counts, "comb", lambda a, b: real(a, b) + ((a, b) == (l - 2, n - 1)))
    signed_table.cache_clear()
    with pytest.raises(ArithmeticError, match=rf"n={n}, l={l}: step s={l - n - 1} "):
        signed_table(n, l)


def test_large_l_enumeration_is_fast():
    # The earlier O(n*S*l) dynamic program took about 1.4 s here.
    signed_table.cache_clear()
    t0 = time.perf_counter()
    value = mu_enumerate(3, 3000, 1, 1)
    elapsed = time.perf_counter() - t0
    assert value == mu_closed(3, 3000, 1, 1)
    assert elapsed < 0.25, elapsed


def test_row_matches_the_convolution_reference():
    # the row is built only up to its middle degree n(l-1)/2
    for n in range(1, 31):
        for l in range(1, 41):
            want = _count_row_reference(n, l)
            assert _count_row(n, l) == want[: (len(want) + 1) // 2], (n, l)
    for l in (2, 3, 5, 7, 11, 50):
        want = _count_row_reference(80, l)
        assert _count_row(80, l) == want[: (len(want) + 1) // 2], (80, l)


def test_row_is_a_palindrome_of_the_right_length():
    # L = n(l-1) + 1 entries, of which the first half is built: odd L has
    # a middle entry, even L has none.  The oracle at the mirrored degree
    # L-1-s agrees with entry s, so the half is the whole row.
    for n, l in [(3, 2), (5, 3), (4, 4), (7, 6), (2, 1), (1, 5), (9, 8)]:
        row = _count_row(n, l)
        size = n * (l - 1) + 1
        assert len(row) == (size + 1) // 2, (n, l)
        for s, entry in enumerate(row):
            for d in (s, size - 1 - s):
                k = -(-d // l)  # degree d is mu(n, l, k, l*k - d) for this k
                assert mu_closed(n, l, k, l * k - d) == entry, (n, l, d)
        assert 2 * sum(row) - (row[-1] if size % 2 else 0) == l**n
    assert [n * (l - 1) % 2 for n, l in [(3, 2), (4, 4)]] == [1, 0]


@pytest.mark.parametrize("n, l, m", [(5, 3, 2), (12, 13, 20), (40, 7, 50)])
def test_a_wrong_row_coefficient_raises(n, l, m):
    # The row route's twin of the seed tests: one more than a[m] adds s+n
    # to the numerator of step s = m, whose divisor m+1 leaves the
    # remainder (n-1) mod (m+1), nonzero here.
    assert (n - 1) % (m + 1)
    stop = n * (l - 1) // 2
    a = [0] * l + [1]  # a[s] at index s + l, as in `_count_row`
    counts._recur(n, l, a, a, 0, m)
    tail = a[m:]  # a[m-l..m]: the lags of step m on, and a[m] last
    good = tail[:]
    counts._recur(n, l, good, good, m, stop)  # unchanged, the row runs on
    assert good[l:] == _count_row(n, l)[m:]
    tail[-1] += 1
    with pytest.raises(ArithmeticError, match=rf"n={n}, l={l}: step s={m} "):
        counts._recur(n, l, tail, tail, m, stop)


def test_enumeration_outside_the_block_matches_closed_form():
    # k > n, p < 0 and p > n reach their degree by the row up to l = n+1
    # and by a chain of windows above it, instead of reading the table
    for n in range(1, 9):
        for l in sorted({1, 2, 3, 7, 50, n + 1, n + 2}):
            for k in range(n + 4):
                for p in list(range(-n - 3, 0)) + list(range(n + 1, 2 * n + 4)):
                    assert mu_enumerate(n, l, k, p) == mu_closed(n, l, k, p), (n, l, k, p)


def test_enumeration_outside_the_block_reads_every_degree(monkeypatch):
    # k = 0, p = -s reaches every degree s of the row from outside the
    # block, and p in n+1..l-1 the gaps between the block's windows: up to
    # l = n+1 through the cached block's row, built once, above it through
    # windows alone
    rows = []
    monkeypatch.setattr(counts, "_count_row", lambda n, l: rows.append((n, l)) or _count_row(n, l))
    for n in (1, 2, 3, 5, 8):
        for l in sorted({2, n, n + 1, n + 2, n + 3, 2 * n + 5, 50} - {1}):
            want = _count_row_reference(n, l)
            signed_table.cache_clear()
            rows.clear()
            assert [mu_enumerate(n, l, 0, -s) for s in range(len(want))] == want, (n, l)
            for k in range(n + 3):
                for p in range(n + 1, l):
                    s = l * k - p
                    got = mu_enumerate(n, l, k, p)
                    assert got == (want[s] if 0 <= s < len(want) else 0), (n, l, k, p)
            assert rows == ([(n, l)] if l <= n + 1 else []), (n, l)
    # far above l = n+1, between and beyond the windows, against the oracle
    rng = random.Random(20261019)
    for n, l in [(40, 2000), (16, 40), (63, 4100), (80, 81 + rng.randint(1, 500))]:
        for k, p in [(0, -1), (n // 2, n + 5), (n + 1, 0), (n, -l), (3, l - 1)] + [
            (rng.randint(0, n + 2), rng.randint(-l, l)) for _ in range(6)
        ]:
            assert mu_enumerate(n, l, k, p) == mu_closed(n, l, k, p), (n, l, k, p)


def test_enumeration_up_to_l_n_plus_1_reads_only_the_cached_block(monkeypatch):
    # with the block warm, every count up to l = n+1, inside the block or
    # not, is read from its strips: no row is built and no window is run
    for n in (1, 2, 3, 4, 7, 8):
        for l in sorted({1, 2, 3, n, n + 1} & set(range(1, n + 2))):
            signed_table(n, l)
            with monkeypatch.context() as patch:
                patch.setattr(counts, "_count_row", lambda *a: pytest.fail("a row was built"))
                patch.setattr(counts, "_windows", lambda *a: pytest.fail("a window was run"))
                for k in range(n + 4):
                    for p in range(-n - 3, l * n + 4):
                        assert mu_enumerate(n, l, k, p) == mu_closed(n, l, k, p), (n, l, k, p)


@pytest.mark.parametrize(
    "n, l, k, p", [(3, 6, 1, -2), (5, 8, 2, 6), (8, 12, 3, 10), (16, 40, 5, 30)]
)
def test_a_wrong_seed_outside_the_block_raises(monkeypatch, n, l, k, p):
    # Degree s (or its mirror n(l-1) - s) ends the last window of the chain,
    # which starts from the seed whose q = 0 term is C(s-2, n-1).  One more
    # than that adds s-1 to the numerator of the window's first step, at
    # t = s-n-1, which its divisor t+1 = s-n does not divide here.
    s = l * k - p
    s = min(s, n * (l - 1) - s)
    assert s > n and (n - 1) % (s - n)
    real = counts.comb
    monkeypatch.setattr(counts, "comb", lambda a, b: real(a, b) + ((a, b) == (s - 2, n - 1)))
    with pytest.raises(ArithmeticError, match=rf"n={n}, l={l}: step s={s - n - 1} "):
        mu_enumerate(n, l, k, p)
