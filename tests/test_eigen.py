import inspect
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from math import factorial, gcd, lcm
from pathlib import Path

import pytest

import adamsops.eigen as eigen
from adamsops.eigen import (
    Eigenbasis,
    SpectrumReport,
    _bareiss_det,
    _certifies,
    _columns,
    _level_rows,
    _merged,
    _unitary_levels,
    _unitary_vectors,
    char_poly,
    eigenbasis,
    eigenbasis_determinant,
    eigenvector,
    expected_char_poly,
    family_exponents,
    sinh_pow_coeff_poly,
    spectrum_check,
    t_over_sinh_pow,
)
import adamsops.ktheory as ktheory
from adamsops.ktheory import (
    FAMILIES,
    FAMILY_TABLE,
    AdamsMatrix,
    ConsistencyError,
    GroupSpec,
    _times,
    adams_matrix,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _groups(max_rank):
    """Every group of every family up to the given rank."""
    for family in FAMILIES:
        record = FAMILY_TABLE[family]
        if record.fixed_rank is not None:
            yield GroupSpec(family)
        else:
            yield from (GroupSpec(family, n) for n in range(record.min_rank, max_rank + 1))


def _at(poly, y):
    """The polynomial with ascending coefficients `poly`, at y, by Horner."""
    value = Fraction(0)
    for c in reversed(poly):
        value = value * y + c
    return value


def test_coefficient_polynomials_small():
    assert sinh_pow_coeff_poly(0) == (1,)
    assert sinh_pow_coeff_poly(1) == (0, Fraction(-1, 6))
    assert sinh_pow_coeff_poly(2) == (0, Fraction(1, 180), Fraction(1, 72))
    assert all(type(c) is Fraction for j in range(3) for c in sinh_pow_coeff_poly(j))


def test_coefficient_polynomial_degree():
    for j in range(13):
        poly = sinh_pow_coeff_poly(j)
        assert len(poly) == j + 1 and poly[-1] != 0, j


def test_coefficient_polynomial_needs_no_deep_stack():
    # the recurrence over j must not recurse: a stack only 50 frames deeper
    # than the caller's is enough for any index
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        poly = sinh_pow_coeff_poly(60)
    finally:
        sys.setrecursionlimit(old)
    assert len(poly) == 61 and poly[-1] != 0


def test_coefficient_polynomials_match_series():
    # (t/sinh t)^y expanded directly is a fully independent route
    series = {y: t_over_sinh_pow(y, 24) for y in range(11)}
    for j in range(11):
        poly = sinh_pow_coeff_poly(j)
        for y in range(11):
            assert _at(poly, y) == series[y][2 * j], (j, y)


def _paper_level(n, k, q):
    """Level k of U(n) by the paper's formula, with q[j] = q_j(n): the
    weights q_j(n) / (k-2j)! over one common denominator, each numerator a
    Horner evaluation in (n-2i)^2, times (n-2i) when k is odd, and the level
    reduced by one gcd."""
    weights = [q[j] / factorial(k - 2 * j) for j in range(k // 2 + 1)]
    den = lcm(*(w.denominator for w in weights))
    ints = [w.numerator * (den // w.denominator) for w in weights]
    nums = []
    for i in range(1, n + 1):
        x = n - 2 * i
        s = 0
        for a in ints:
            s = s * x * x + a
        if k % 2:
            s *= x
        nums.append(s if i % 2 else -s)
    g = gcd(den, *nums)
    return tuple(x // g for x in nums), den // g


def test_levels_match_the_paper_formula():
    # every level of U(n), built from integers, against the sinh-power
    # polynomials evaluated at y = n
    polys = [sinh_pow_coeff_poly(j) for j in range(20)]
    for n in range(1, 41):
        q = [_at(poly, n) for poly in polys[: (n - 1) // 2 + 1]]
        want = [_paper_level(n, k, q) for k in range(n)]
        assert list(_unitary_levels(n, range(n))) == want, n
        assert [(v.nums, v.den) for v in _unitary_vectors(n)] == want, n


def test_the_levels_need_no_rational_series(monkeypatch, fresh_spectrum_reports):
    # the paper's polynomials, their Bernoulli numbers and the expansion of
    # (t/sinh t)^y only check the levels: with each made to raise, every
    # level, eigenbasis and spectrum is still built, from cold caches
    def unreachable(*args):
        raise AssertionError(f"a rational series was built from {args}")

    for name in ("bernoulli_even", "_bernoulli_evens", "sinh_pow_coeff_poly",
                 "_sinh_pow_coeff_polys", "t_over_sinh_pow"):
        monkeypatch.setattr(eigen, name, unreachable)
    _unitary_vectors.cache_clear()
    eigen._eigenbasis.cache_clear()
    for n in (1, 2, 9, 30):
        assert len(_unitary_vectors(n)) == n
    for group in _groups(7):
        assert eigenbasis(group).well_formed, group
        assert spectrum_check(group, 3).certified, group


def _start(n):
    """G_1 = prod_{j=0..n-2} (1 + j t), as `_unitary_levels` starts from it."""
    g = [1] + [0] * (n - 1)
    for j in range(1, n - 1):
        g = [a + j * b for a, b in zip(g, [0, *g[:-1]])]
    return g


@pytest.mark.parametrize("n", [3, 4, 9, 30])
def test_a_wrong_start_polynomial_raises(monkeypatch, n):
    # the divisions fix G_1 up to a constant factor: one coefficient more,
    # patched into the builder's start, or G_1 of the rank below leaves a
    # remainder at some step
    rows = _level_rows(n, _start(n))
    assert len(rows) == n and all(len(row) == n for row in rows)
    assert _level_rows(n, [-3 * x for x in _start(n)]) == [[-3 * x for x in row] for row in rows]
    starts, real = [], eigen._level_rows
    monkeypatch.setattr(eigen, "_level_rows", lambda n, g: starts.append(g[:]) or real(n, g))
    list(_unitary_levels(n, range(n)))
    assert starts == [_start(n)]  # the builder starts from the G_1 built here
    for i in range(n):
        def changed(n, g, i=i):
            return real(n, [x + (j == i) for j, x in enumerate(g)])

        monkeypatch.setattr(eigen, "_level_rows", changed)
        with pytest.raises(ArithmeticError, match=rf"levels of U\({n}\): G_\d+ leaves remainder"):
            list(_unitary_levels(n, range(n)))
    with pytest.raises(ArithmeticError, match=rf"levels of U\({n}\): G_2 leaves remainder"):
        real(n, _start(n - 1) + [0])


def test_the_records_and_the_determinant_share_one_level_build(monkeypatch):
    # every record of U(30) and its determinant read the levels of one
    # build, kept in the records
    calls, real = [], eigen._unitary_levels
    monkeypatch.setattr(
        eigen, "_unitary_levels", lambda n, levels: calls.append(n) or real(n, levels)
    )
    _unitary_vectors.cache_clear()
    eigenbasis_determinant.cache_clear()
    for k in range(30):
        eigenvector(30, k)
    assert eigenbasis_determinant(30) == 2 ** (30 * 29 // 2)
    assert calls == [30]


def test_eigenvector_frozen_values():
    assert eigenvector(1, 0).coords == (1,)
    assert eigenvector(2, 0).coords == (1, -1)
    assert eigenvector(2, 1).coords == (0, 2)
    assert eigenvector(3, 0).coords == (1, -1, 1)
    assert eigenvector(3, 1).coords == (1, 1, -3)
    assert eigenvector(4, 2).coords == (
        Fraction(4, 3),
        Fraction(2, 3),
        Fraction(4, 3),
        Fraction(-22, 3),
    )
    assert eigenvector(4, 3).coords == (0, 0, 0, 8)


def test_eigenvector_matches_polynomial_oracle():
    # the docstring formula evaluated through the coefficient polynomials
    polys = [sinh_pow_coeff_poly(j) for j in range(6)]
    for n in range(1, 13):
        for k in range(n):
            want = tuple(
                (-1) ** (i - 1)
                * sum(
                    _at(polys[j], n) / factorial(k - 2 * j) * (n - 2 * i) ** (k - 2 * j)
                    for j in range(k // 2 + 1)
                )
                for i in range(1, n + 1)
            )
            got = eigenvector(n, k).coords
            assert got == want, (n, k)
            assert all(type(c) is Fraction for c in got), (n, k)


def test_eigenvector_records_are_reduced_integer_levels():
    # n numerators over one positive denominator, in lowest terms, and the
    # coordinates are those quotients
    for n in range(1, 41):
        for k in range(n):
            v = eigenvector(n, k)
            assert len(v.nums) == n and v.den > 0 and gcd(v.den, *v.nums) == 1, (n, k)
            assert all(type(x) is int for x in (*v.nums, v.den)), (n, k)
            assert v.coords == tuple(Fraction(x, v.den) for x in v.nums), (n, k)


def test_eigenvector_validation():
    with pytest.raises(ValueError):
        eigenvector(0, 0)
    with pytest.raises(ValueError):
        eigenvector(3, 3)
    with pytest.raises(ValueError):
        eigenvector(3, -1)


@pytest.mark.parametrize("bad", [True, False, 2.0, Fraction(2), "2", None])
def test_eigen_rejects_non_int_arguments(bad):
    # a bool or a float is rejected at the boundary, not computed with as
    # an int or failed on deep inside
    with pytest.raises(ValueError, match="rank n must be an int"):
        eigenvector(bad, 0)
    with pytest.raises(ValueError, match="level k must be an int"):
        eigenvector(3, bad)
    with pytest.raises(ValueError, match="rank n must be an int"):
        eigenbasis_determinant(bad)
    with pytest.raises(ValueError, match="coefficient index j must be an int"):
        sinh_pow_coeff_poly(bad)
    with pytest.raises(ValueError, match="Adams operation index l must be an int"):
        expected_char_poly(GroupSpec("U", 3), bad)
    with pytest.raises(ValueError, match="Adams operation index l must be an int"):
        spectrum_check(GroupSpec("U", 3), bad)


@pytest.mark.parametrize("group", [("U", 3), ["U", 3], "U", None], ids=repr)
def test_spectrum_check_rejects_a_group_that_is_not_a_groupspec(group):
    # named in a ValueError before the memo is read, not failed on deep
    # inside the matrix or as a key no memo can hash
    info = eigen._spectrum_report.cache_info()
    with pytest.raises(ValueError, match=re.escape(f"needs a GroupSpec, got {group!r}")):
        spectrum_check(group, 2)
    assert eigen._spectrum_report.cache_info() == info


@pytest.mark.parametrize("group", [("U", 3), ["U", 3], "U", None], ids=repr)
@pytest.mark.parametrize("call", [
    ktheory.adams_matrix, ktheory.basis, ktheory.defining_dimension,
    family_exponents, expected_char_poly, eigenbasis,
], ids=lambda f: f.__name__)
def test_a_group_that_is_not_a_groupspec_is_named_in_a_value_error(call, group):
    # each used to fail deep inside, on an attribute a tuple lacks
    args = (group, 2) if call in (ktheory.adams_matrix, expected_char_poly) else (group,)
    message = f"{call.__name__} needs a GroupSpec, got {group!r}"
    with pytest.raises(ValueError, match=re.escape(message)):
        call(*args)


@pytest.mark.parametrize("l", [0, -2])
def test_a_nonpositive_l_is_rejected_like_the_matrix(l):
    # no product of (x - l^(m_i + 1)) is computed for an l no matrix has
    for call in (expected_char_poly, spectrum_check, adams_matrix):
        with pytest.raises(ValueError, match=f"must be a positive integer, got l={l}"):
            call(GroupSpec("U", 3), l)


def test_sinh_coefficient_rejects_a_negative_index():
    with pytest.raises(ValueError, match="coefficient index must be nonnegative, got -1"):
        sinh_pow_coeff_poly(-1)


@pytest.mark.parametrize("n", [0, -3])
def test_eigenbasis_determinant_rejects_a_nonpositive_rank(n):
    with pytest.raises(ValueError, match=f"rank must be positive, got n={n}"):
        eigenbasis_determinant(n)
    with pytest.raises(ValueError, match=f"rank must be positive, got n={n}"):
        eigenvector(n, 0)


def test_eigenvector_records_are_built_once_per_rank():
    _unitary_vectors.cache_clear()
    first = [eigenvector(7, k) for k in range(7)]
    assert all(eigenvector(7, k) is v for k, v in enumerate(first))
    info = _unitary_vectors.cache_info()
    assert (info.hits, info.misses, info.currsize) == (13, 1, 1)
    # a bool, a float or a level out of range is rejected before any read
    for n, k in ((True, 0), (2.0, 0), (7, True), (7, 2.0), (7, 7), (7, -1), (0, 0)):
        with pytest.raises(ValueError):
            eigenvector(n, k)
    assert _unitary_vectors.cache_info() == info


class _Int(int):
    """An int subclass: not an exact int, but accepted as one."""


_READ_ARGUMENTS = [True, False, 2.0, "3", None, [3], 0, -1, 3, 7, _Int(3)]


def _read_refusal(n, k):
    """The message `eigenvector(n, k)` refuses with, or None: the rank's type,
    then its sign, then the level's type, then its range."""
    if isinstance(n, bool) or not isinstance(n, int):
        return f"rank n must be an int, got {n!r}"
    if n < 1:
        return f"rank must be positive, got n={n}"
    if isinstance(k, bool) or not isinstance(k, int):
        return f"level k must be an int, got {k!r}"
    if not 0 <= k <= n - 1:
        return f"level must satisfy 0 <= k <= n-1, got k={k}, n={n}"
    return None


def test_every_read_is_refused_or_returned_as_the_checks_say():
    # exact ints skip only the type tests: each pair is refused by its first
    # failing check, in order, or gets the cached record of its level
    assert _read_refusal(True, "3") == "rank n must be an int, got True"
    assert _read_refusal(0, "3") == "rank must be positive, got n=0"
    assert _read_refusal(3, [3]) == "level k must be an int, got [3]"
    assert _read_refusal(3, 7) == "level must satisfy 0 <= k <= n-1, got k=7, n=3"
    records = {n: [eigenvector(n, k) for k in range(n)] for n in (3, 7)}
    builds = _unitary_vectors.cache_info().misses
    for n in _READ_ARGUMENTS:
        for k in _READ_ARGUMENTS:
            message = _read_refusal(n, k)
            if message is None:
                # a rank of an int subclass reads the records of the equal int
                assert eigenvector(n, k) is records[n][k], (n, k)
            else:
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    eigenvector(n, k)
    eigenbasis_determinant.cache_clear()
    assert eigenbasis_determinant(_Int(3)) == 8
    assert _unitary_vectors.cache_info().misses == builds


def test_a_repeated_exact_int_read_runs_no_type_test(monkeypatch):
    first = [eigenvector(34, k) for k in range(34)]

    def checked(*args):
        raise AssertionError(f"type test re-run on {args}")

    monkeypatch.setattr(eigen, "_require_rank", checked)
    monkeypatch.setattr(eigen, "_require_int", checked)
    assert all(eigenvector(34, k) is v for k, v in enumerate(first))
    assert eigenvector(10, 3) is eigenvector(10, 3)
    with pytest.raises(ValueError, match=r"^level must satisfy 0 <= k <= n-1, got k=34, n=34$"):
        eigenvector(34, 34)


def test_eigenvalue_exponent():
    v = eigenvector(5, 2)
    assert v.eigenvalue_exponent == 3


def _unitary_certified(n, l):
    """The eigen suite's first row at (n, l): the certificate of U(n), whose
    columns are its levels scaled to primitive integers."""
    group = GroupSpec("U", n)
    return _certifies(eigenbasis(group), adams_matrix(group, l).entries, l)


def test_relation_holds():
    for n in range(1, 7):
        for l in (2, 3, 5):
            assert _unitary_certified(n, l), (n, l)
    assert _unitary_certified(30, 2)
    # the columns of U(n) are its n levels, in order of exponent
    for n in (1, 5, 30):
        vb = eigenbasis(GroupSpec("U", n))
        assert vb.eigenvalue_exponents == tuple(range(1, n + 1))
        for e, col in zip(vb.eigenvalue_exponents, vb.columns):
            assert eigen._proportional(col, eigenvector(n, n - e).nums), (n, e)


def _fraction_image(mat, coords):
    """M.v with every product taken in Fraction: the rational reference."""
    return tuple(sum(Fraction(a) * c for a, c in zip(row, coords)) for row in mat.entries)


def test_relation_matches_the_rational_route():
    # the integer certificate against each record's numerators, and those
    # against the product in Fraction on the coordinates
    for n in range(1, 31):
        for l in (1, 2, 3, 5, 50):
            mat = adams_matrix(GroupSpec("U", n), l)
            for v in (eigenvector(n, k) for k in range(n)):
                value = l**v.eigenvalue_exponent
                assert _times(mat.entries, v.nums) == [value * x for x in v.nums], (n, l, v.k)
                if n <= 12:
                    want = tuple(value * c for c in v.coords)
                    assert _fraction_image(mat, v.coords) == want, (n, l, v.k)
            assert _unitary_certified(n, l), (n, l)


def test_relation_fails_on_a_changed_matrix():
    # one raised entry must break the relation for some level, never all
    group, l = GroupSpec("U", 5), 3
    rows = [list(row) for row in adams_matrix(group, l).entries]
    rows[1][2] += 1
    vb = eigenbasis(group)
    holds = [
        _times(rows, col) == [l**e * x for x in col]
        for e, col in zip(vb.eigenvalue_exponents, vb.columns)
    ]
    assert any(holds) and not all(holds)
    assert not _certifies(vb, rows, l)


def test_eigen_never_applies_a_matrix_in_fractions():
    for f in (eigen._certifies, eigen._columns, eigen._merged):
        assert "Fraction" not in inspect.getsource(f)


def test_relation_exactness_is_fractional():
    # the level-2 vector of U(4) has denominator 3; the relation must hold
    # over the rationals with no clearing of denominators
    mat = adams_matrix(GroupSpec("U", 4), 2)
    v = eigenvector(4, 2)
    assert (v.nums, v.den) == ((4, 2, 4, -22), 3)
    assert _times(mat.entries, v.nums) == [4 * x for x in v.nums]
    assert _fraction_image(mat, v.coords) == tuple(4 * c for c in v.coords)


def test_eigenbasis_independent():
    for n in range(1, 9):
        assert eigenbasis_determinant(n) != 0
    assert abs(eigenbasis_determinant(2)) == 2
    # the closed form of the docstring: a triangular transform of a
    # Vandermonde matrix in n - 2i
    for n in range(1, 41):
        assert eigenbasis_determinant(n) == 2 ** (n * (n - 1) // 2), n


def test_eigenbasis_determinant_is_cached():
    eigenbasis_determinant.cache_clear()
    for n in range(1, 41):
        assert eigenbasis_determinant(n) == 2 ** (n * (n - 1) // 2), n
    before = eigenbasis_determinant.cache_info()
    assert before.maxsize is not None and before.currsize == 40
    assert eigenbasis_determinant(34) == 2 ** (34 * 33 // 2)
    after = eigenbasis_determinant.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    # a cached rank lets no bool or float through
    for bad in (True, 2.0):
        with pytest.raises(ValueError, match="rank n must be an int"):
            eigenbasis_determinant(bad)


# ---------------------------------------------------------------------------
# characteristic polynomials


def _char_poly_reference(entries):
    """det(x*I - M) by fraction-free determinants at x = 0..d and exact
    Lagrange interpolation: the reference route for `char_poly`."""
    d = len(entries)
    xs = list(range(d + 1))
    ys = []
    for x in xs:
        shifted = [
            [(x if i == j else 0) - entries[i][j] for j in range(d)] for i in range(d)
        ]
        ys.append(_bareiss_det(shifted))
    coeffs = [Fraction(0)] * (d + 1)
    for i, xi in enumerate(xs):
        num, denom = [1], 1  # prod_{j != i} (x - x_j), ascending, and its value at x_i
        for j, xj in enumerate(xs):
            if j != i:
                num = [a - xj * b for a, b in zip([0, *num], [*num, 0])]
                denom *= xi - xj
        for p, c in enumerate(num):
            coeffs[p] += c * Fraction(ys[i], denom)
    assert all(c.denominator == 1 for c in coeffs), coeffs
    return tuple(int(c) for c in coeffs)


def test_char_poly_known_matrices():
    assert char_poly(((1, 0), (0, 1))) == (1, -2, 1)
    assert char_poly(((0, 1), (0, 0))) == (0, 0, 1)
    # companion-style: det(xI - M) for a matrix with spectrum {2, 4, 8}
    u3 = adams_matrix(GroupSpec("U", 3), 2)
    assert char_poly(u3.entries) == (-64, 56, -14, 1)
    g2 = adams_matrix(GroupSpec("G2"), 2)
    assert char_poly(g2.entries) == (256, -68, 1)


def test_char_poly_zero_pivot_path():
    # a zero leading entry would need a pivot in an elimination method
    entries = ((0, 2), (3, 0))
    assert char_poly(entries) == (-6, 0, 1)
    assert char_poly(()) == (1,)


@pytest.mark.parametrize(
    "entries",
    [((1, 2, 3), (4, 5, 6)), ((1, 2), (3, 4), (5, 6)), ((1, 2), (3,)), ((1,), (2, 3))],
)
def test_char_poly_rejects_non_square(entries):
    with pytest.raises(ValueError, match="square"):
        char_poly(entries)


@pytest.mark.parametrize(
    "entries, bad",
    [
        (((1.5, 2), (3, 4)), "1.5 at row 0, column 0"),
        (((1, 2), (3, 4.0)), "4.0 at row 1, column 1"),
        (((True, False), (False, True)), "True at row 0, column 0"),
        (((1, 2), (Fraction(3), 4)), "Fraction(3, 1) at row 1, column 0"),
    ],
)
def test_char_poly_rejects_entries_that_are_not_ints(entries, bad):
    # a float would round and a bool would pass as 0 or 1: the matrix is
    # refused before any product, naming the first such entry
    with pytest.raises(ValueError, match=f"char_poly needs integer entries, got {re.escape(bad)}"):
        char_poly(entries)


def test_char_poly_matches_reference_for_families():
    for family in FAMILIES:
        ranks = [2] if family == "G2" else range(1, 9)
        for n in ranks:
            try:
                group = GroupSpec(family, n)
            except ValueError:
                continue  # below the family's minimum rank
            for l in (2, 3, 5):
                entries = adams_matrix(group, l).entries
                assert char_poly(entries) == _char_poly_reference(entries), (str(group), l)


def test_char_poly_matches_reference_on_random_matrices():
    rng = random.Random(20240515)
    for d in range(13):
        for density in (1.0, 0.5, 0.2):
            entries = [
                [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(d)]
                for _ in range(d)
            ]
            if d and density < 1.0:
                entries[0] = [0] * d  # zero leading row: no nonzero pivot at the top
            assert char_poly(entries) == _char_poly_reference(entries), entries


def test_family_exponents():
    assert family_exponents(GroupSpec("U", 3)) == (0, 1, 2)
    assert family_exponents(GroupSpec("SU", 3)) == (1, 2)
    assert family_exponents(GroupSpec("Sp", 2)) == (1, 3)
    assert family_exponents(GroupSpec("SpinOdd", 2)) == (1, 3)
    assert family_exponents(GroupSpec("SpinEven", 3)) == (1, 2, 3)
    assert family_exponents(GroupSpec("SpinEven", 4)) == (1, 3, 3, 5)
    assert family_exponents(GroupSpec("G2")) == (1, 5)


def test_expected_char_poly():
    # (x - 4)(x - 16) for the rank-two symplectic group at l = 2
    assert expected_char_poly(GroupSpec("Sp", 2), 2) == (64, -20, 1)


@pytest.mark.parametrize(
    "family, rank, l, eigenvalues",
    [
        ("U", 3, 2, (2, 4, 8)),
        ("Sp", 2, 2, (4, 16)),
        ("SpinOdd", 2, 2, (4, 16)),
        ("SpinEven", 3, 2, (4, 8, 16)),
        ("SpinEven", 4, 2, (4, 16, 16, 64)),
        ("G2", 2, 2, (4, 64)),
        ("SU", 4, 3, (9, 27, 81)),
    ],
)
def test_spectra(family, rank, l, eigenvalues):
    report = spectrum_check(GroupSpec(family, rank), l)
    assert report.ok
    assert report.eigenvalues == eigenvalues


def test_spectrum_sweep():
    groups = (
        [GroupSpec("U", n) for n in range(1, 6)]
        + [GroupSpec("SU", n) for n in range(2, 6)]
        + [GroupSpec("Sp", n) for n in range(1, 5)]
        + [GroupSpec("SpinOdd", n) for n in range(1, 5)]
        + [GroupSpec("SpinEven", n) for n in (3, 4, 5)]
        + [GroupSpec("G2")]
    )
    for g in groups:
        for l in (2, 3):
            assert spectrum_check(g, l).ok, (str(g), l)


# ---------------------------------------------------------------------------
# eigenbases by restriction, and the spectrum certificate


def test_eigenbasis_certifies_every_family():
    # the report equals the one Berkowitz fills, field for field, and the
    # certificate alone proved it
    for group in _groups(12):
        vb = eigenbasis(group)
        assert _bareiss_det([list(col) for col in vb.columns]) != 0, str(group)
        assert all(gcd(*col) == 1 for col in vb.columns), str(group)
        for l in (1, 2, 3, 5):
            entries = adams_matrix(group, l).entries
            got, want = char_poly(entries), expected_char_poly(group, l)
            eigenvalues = tuple(sorted(l ** (m + 1) for m in family_exponents(group)))
            assert spectrum_check(group, l) == SpectrumReport(
                group, l, got == want, eigenvalues, got, want, certified=True
            ), (str(group), l)
            assert got == want and _certifies(vb, entries, l), (str(group), l)


def test_eigenbasis_restricts_the_unitary_levels():
    assert eigenbasis(GroupSpec("U", 3)).columns == ((0, 0, 1), (1, 1, -3), (1, -1, 1))
    # SU drops the top coordinate of the levels with eigenvalue l^2..l^n
    assert eigenbasis(GroupSpec("SU", 3)).columns == ((1, 1), (1, -1))
    spin8 = eigenbasis(GroupSpec("SpinEven", 4))
    assert spin8.eigenvalue_exponents == (2, 4, 4, 6)
    assert (0, 0, 1, -1) in spin8.columns  # d(S+) - d(S-), from the family record
    assert eigenbasis(GroupSpec("G2")).eigenvalue_exponents == (2, 6)


@pytest.mark.parametrize("group", list(_groups(4)), ids=str)
def test_spectrum_check_reports_a_changed_matrix(monkeypatch, fresh_spectrum_reports, group):
    def changed(group, l):
        entries = [list(row) for row in adams_matrix(group, l).entries]
        entries[0][0] += 1
        return AdamsMatrix(group, l, tuple(map(tuple, entries)))

    monkeypatch.setattr(eigen, "adams_matrix", changed)
    report = spectrum_check(group, 3)
    assert not report.ok
    assert report.char_coeffs == char_poly(changed(group, 3).entries)
    assert report.expected_coeffs == expected_char_poly(group, 3)


def test_the_report_says_whether_the_eigenbasis_proved_it(monkeypatch, fresh_spectrum_reports):
    group = GroupSpec("U", 5)
    assert spectrum_check(group, 3).certified
    # the last column of U(5)'s matrix is 3 e_5, so one more in its last
    # row, off the diagonal, keeps the characteristic polynomial but breaks
    # an eigen-relation: the report is ok, from char_poly, and not certified
    changed = _changed(adams_matrix(group, 3).entries, [(4, 0)], 1)
    monkeypatch.setattr(eigen, "adams_matrix", lambda g, l: AdamsMatrix(g, l, changed))
    fresh_spectrum_reports()
    report = spectrum_check(group, 3)
    assert report.ok and not report.certified
    assert not _certifies(eigenbasis(group), changed, 3)


def test_spectrum_check_falls_back_on_a_singular_basis(monkeypatch, fresh_spectrum_reports):
    # each basis below keeps the exponents, yet proves nothing: the
    # certificate must refuse it, and the report must be the one char_poly
    # fills
    group = GroupSpec("SpinEven", 4)
    vb = eigenbasis(group)
    first, second = (j for j, e in enumerate(vb.eigenvalue_exponents) if e == 4)

    def replaced(j, col):
        columns = list(vb.columns)
        columns[j] = col
        return Eigenbasis(group, vb.eigenvalue_exponents, tuple(columns))

    calls = []
    monkeypatch.setattr(eigen, "char_poly", lambda entries: calls.append(1) or char_poly(entries))

    def check(basis, l, entries, exponents=None):
        monkeypatch.setattr(eigen, "eigenbasis", lambda g: basis)
        monkeypatch.setattr(eigen, "adams_matrix", lambda g, l: AdamsMatrix(g, l, entries))
        if exponents is not None:
            monkeypatch.setattr(eigen, "family_exponents", lambda g: exponents)
        fresh_spectrum_reports()
        assert not _certifies(basis, entries, l)
        assert not _columnwise_certifies(basis, entries, l)
        before = len(calls)
        got, want = char_poly(entries), expected_char_poly(group, l)
        eigenvalues = tuple(sorted(l ** (m + 1) for m in eigen.family_exponents(group)))
        report = spectrum_check(group, l)
        assert report == SpectrumReport(group, l, got == want, eigenvalues, got, want)
        assert len(calls) == before + 1
        return report

    entries = adams_matrix(group, 2).entries
    # Spin(8) has l^4 twice: putting one l^4 column in place of the other
    # keeps every M.w = l^4 w, but not the rank
    assert check(replaced(second, vb.columns[first]), 2, entries).ok
    # a zero column satisfies every relation
    assert check(replaced(0, (0,) * 4), 2, entries).ok
    # a column one entry short, and one a zero entry long: a zero prefix of
    # d entries would pass every relation
    assert check(replaced(0, vb.columns[0][:-1]), 2, entries).ok
    assert check(replaced(0, (0, 0, 0, 0, 1)), 2, entries).ok
    # a wrong exponent
    assert check(Eigenbasis(group, (2, 4, 6, 6), vb.columns), 2, entries).ok
    # a non-identity matrix at l = 1 with the same characteristic polynomial
    unipotent = _changed(adams_matrix(group, 1).entries, [(0, 1)], 1)
    assert check(vb, 1, unipotent).ok
    # at l = 1 every eigenvalue is 1, so the relations prove nothing: these
    # columns, nonzero and no two of one exponent proportional, all lie in
    # the fixed hyperplane w_1 = 0 of diag(1, 2, 1, 1)
    flat = Eigenbasis(group, (2, 4, 4, 6), ((1, 0, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 0, 1, 0)))
    assert not check(flat, 1, ((1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))).ok
    # three columns of one exponent: the third, the sum of the other two,
    # satisfies M.w = l^4 w and is proportional to neither, but V is
    # singular.  With exponents claimed as (1, 3, 3, 3) the relations alone
    # would wrongly prove char(M) = (x - 4)(x - 16)^3
    third = tuple(a + b for a, b in zip(vb.columns[first], vb.columns[second]))
    triple = Eigenbasis(group, (2, 4, 4, 4), vb.columns[:3] + (third,))
    assert not check(triple, 2, entries, exponents=(1, 3, 3, 3)).ok


# ---------------------------------------------------------------------------
# the packed certificate


def _columnwise_certifies(vb, entries, l):
    """The certificate with one integer mat-vec per column: the reference
    for the packed check.  Two columns are proportional when every 2x2
    minor of the pair is zero."""
    d = len(entries)
    exponents = vb.eigenvalue_exponents
    if not (
        len(vb.columns) == d
        and all(len(col) == d for col in vb.columns)
        and sorted(exponents) == sorted(m + 1 for m in family_exponents(vb.group))
    ):
        return False
    if l == 1:
        return [list(row) for row in entries] == [[int(i == j) for j in range(d)] for i in range(d)]
    counts = Counter(exponents)
    pairs = [
        (u, v)
        for a, (e, u) in enumerate(zip(exponents, vb.columns))
        for f, v in zip(exponents[a + 1 :], vb.columns[a + 1 :])
        if e == f
    ]
    return (
        all(any(col) for col in vb.columns)
        and max(counts.values()) <= 2
        and all(
            any(u[i] * v[j] != u[j] * v[i] for i in range(d) for j in range(i)) for u, v in pairs
        )
        and all(
            _times(entries, col) == [l**e * x for x in col]
            for e, col in zip(exponents, vb.columns)
        )
    )


def _columnwise_spectrum(group, l):
    """`spectrum_check` with the column-by-column certificate."""
    entries = adams_matrix(group, l).entries
    want = expected_char_poly(group, l)
    certified = _columnwise_certifies(eigenbasis(group), entries, l)
    got = want if certified else char_poly(entries)
    eigenvalues = tuple(sorted(l ** (m + 1) for m in family_exponents(group)))
    return SpectrumReport(group, l, got == want, eigenvalues, got, want, certified)


def _changed(entries, cells, delta):
    rows = [list(row) for row in entries]
    for i, j in cells:
        rows[i][j] += delta
    return tuple(map(tuple, rows))


def _horner(columns):
    """The (K, w) columns packed by one Horner run, the first most
    significant: the integer the packed certificate's proof is about."""
    packed = [0] * len(columns[0][1])
    for width, col in columns:
        packed = [(a << width) + x for a, x in zip(packed, col)]
    return sum(width for width, _ in columns), packed


def test_packed_certificate_matches_the_columnwise_check(monkeypatch, fresh_spectrum_reports):
    def unreachable(entries):
        raise AssertionError("a valid matrix reached char_poly")

    products = []
    monkeypatch.setattr(eigen, "char_poly", unreachable)
    monkeypatch.setattr(eigen, "_times", lambda rows, v: products.append(v) or _times(rows, v))
    odd, mixed, unpacked = 0, 0, 0
    for group in _groups(20):
        vb = eigenbasis(group)
        for l in (2, 3, 50, 1000):
            entries = adams_matrix(group, l).entries
            d = len(entries)
            norm = max(sum(map(abs, row)) for row in entries)
            # one product of the packed column, or one per column where
            # ||M|| >= 2^256
            products.clear()
            assert _certifies(vb, entries, l) and _columnwise_certifies(vb, entries, l)
            assert len(products) == (1 if norm < 2**256 else d), (str(group), l)
            assert spectrum_check(group, l) == _columnwise_spectrum(group, l), (str(group), l)
            # one entry, and two adjacent ones in a row and in a column
            shapes = [[(d - 1, 0)]]
            if d > 1:
                shapes += [[(0, d - 2), (0, d - 1)], [(d - 2, d - 1), (d - 1, d - 1)]]
            for cells in shapes:
                for delta in (1, -(2**70)):
                    changed = _changed(entries, cells, delta)
                    assert not _certifies(vb, changed, l), (str(group), l, cells, delta)
                    assert not _columnwise_certifies(vb, changed, l)
            # the columns of V in order, each stacked on l^e times itself,
            # and every packed digit below half of its own base
            columns = _columns(vb, norm, l)
            assert [col for _, col in columns] == [
                [*w, *(l**e * x for x in w)] for e, w in zip(vb.eigenvalue_exponents, vb.columns)
            ]
            for e, (width, col) in zip(vb.eigenvalue_exponents, columns):
                assert (norm + l**e) * max(map(abs, col[:d])) < 2 ** (width - 1)
            mixed += len({width for width, _ in columns}) > 1
            if norm < 2**256:
                # merging pairwise builds the integers one Horner run would,
                # with a column left unpaired where d is odd
                assert _merged(columns) == _horner(columns), (str(group), l)
                odd += d % 2 and d > 1
            else:
                unpacked += 1
    # the grid checks packed columns of mixed widths, merges with an
    # unpaired column, and unpacked matrices
    assert mixed and odd and unpacked


@pytest.mark.parametrize(
    "group, l", [(GroupSpec("U", 6), 3), (GroupSpec("Sp", 5), 2), (GroupSpec("SpinEven", 8), 3)]
)
def test_a_mixed_width_run_refuses_a_change_at_either_end(group, l):
    # a change at the entry that meets the most significant column of the
    # packed column, whose widths differ, and at the one that meets its
    # least significant
    vb = eigenbasis(group)
    entries = adams_matrix(group, l).entries
    d = len(entries)
    norm = max(sum(map(abs, row)) for row in entries)
    columns = _columns(vb, norm, l)
    assert norm < 2**256 and len({width for width, _ in columns}) > 1
    assert _certifies(vb, entries, l)
    for _, col in (columns[0], columns[-1]):
        j = max(range(d), key=lambda i: abs(col[i]))
        for delta in (1, -(2**70)):
            for i in (0, j, d - 1):
                changed = _changed(entries, [(i, j)], delta)
                assert not _certifies(vb, changed, l), (i, j, delta)


@pytest.mark.parametrize(
    "group, l", [(GroupSpec("U", 80), 8), (GroupSpec("U", 80), 12), (GroupSpec("SpinOdd", 80), 3)]
)
def test_the_packed_and_the_columnwise_path_agree_near_the_crossover(monkeypatch, group, l):
    # ||M|| of 241, 287 and 332 bits, on either side of _PACK_NORM_BITS: each
    # path, forced, certifies the matrix with its own products and refuses
    # it with two entries of one row swapped
    vb = eigenbasis(group)
    entries = adams_matrix(group, l).entries
    d = len(entries)
    for bits, per_call in ((10**4, 1), (0, d)):
        monkeypatch.setattr(eigen, "_PACK_NORM_BITS", bits)
        products = []
        with monkeypatch.context() as m:
            m.setattr(eigen, "_times", lambda rows, v: products.append(v) or _times(rows, v))
            assert _certifies(vb, entries, l) and len(products) == per_call, bits
        assert not _certifies(vb, _swapped(entries), l), bits


def _swapped(entries):
    """The matrix with two unequal entries of one row swapped: every row's
    L1 norm, so ||M||, is kept."""
    rows = [list(row) for row in entries]
    for row in rows:
        j = next((j for j in range(1, len(row)) if row[j] != row[0]), None)
        if j is not None:
            row[0], row[j] = row[j], row[0]
            return tuple(map(tuple, rows))
    raise AssertionError("no row has two unequal entries")


def test_the_certificate_proves_each_matrix_afresh(monkeypatch, fresh_spectrum_reports):
    # every change of one entry of the first, middle or last row or column,
    # one that keeps ||M|| or not, two entries swapped, and the same entries
    # at another l are refused right after the matrix itself is certified.
    # U(50) at l = 50 takes one mat-vec per column; there only the nine
    # cells where those rows and columns cross are changed
    keeps_norm = 0
    cases = [
        (GroupSpec(family, n), l)
        for family, n in (("U", 12), ("Sp", 9), ("SpinOdd", 10), ("SpinEven", 8))
        for l in (2, 3, 50)
    ]
    for group, l in cases + [(GroupSpec("U", 50), 50)]:
        vb = eigenbasis(group)
        entries = adams_matrix(group, l).entries
        d = len(entries)
        norm = max(sum(map(abs, row)) for row in entries)
        assert (norm < 2**eigen._PACK_NORM_BITS) == (d < 50), (str(group), l)
        assert _certifies(vb, entries, l) and _certifies(vb, [list(r) for r in entries], l)
        lines = sorted({0, d // 2, d - 1})
        cells = [(i, j) for i in lines for j in lines]
        if d < 50:
            cells = {cell for i in lines for j in range(d) for cell in ((i, j), (j, i))}
        for i, j in cells:
            for delta in (1, -1):
                changed = _changed(entries, [(i, j)], delta)
                keeps_norm += max(sum(map(abs, row)) for row in changed) == norm
                assert not _certifies(vb, changed, l), (str(group), l, i, j, delta)
        assert not _certifies(vb, _swapped(entries), l), (str(group), l)
        assert not _certifies(vb, entries, l + 1) and not _certifies(vb, entries, 2 * l)
        # a matrix of another ||M|| packs its own columns, at its own widths
        packed = []
        with monkeypatch.context() as m:
            m.setattr(eigen, "_columns", lambda *args: packed.append(args) or _columns(*args))
            changed = _changed(entries, [(0, 0)], 3 * norm)
            assert not _certifies(vb, changed, l), (str(group), l)
        assert packed == [(vb, max(sum(map(abs, row)) for row in changed), l)]
        # rows certified as lists and changed later are refused
        rows = [list(row) for row in entries]
        assert _certifies(vb, rows, l)
        rows[d // 2][d // 2] += 1
        assert not _certifies(vb, rows, l)
        # a second basis of the same group, one entry moved, is refused
        # though the cached basis has just certified this very matrix
        columns = [list(col) for col in vb.columns]
        columns[-1][0] += 1
        moved = Eigenbasis(group, vb.eigenvalue_exponents, tuple(map(tuple, columns)))
        assert moved.well_formed and not _certifies(moved, entries, l), (str(group), l)
        with monkeypatch.context() as m:
            m.setattr(eigen, "eigenbasis", lambda g: moved)
            fresh_spectrum_reports()
            assert not spectrum_check(group, l).certified
            fresh_spectrum_reports()
    assert keeps_norm


def test_a_repeated_check_returns_the_report_a_fresh_one_makes(fresh_spectrum_reports):
    # the memo gives back the very report it kept, and that report equals
    # the one made after the memo is emptied
    for group in _groups(12):
        for l in (1, 2, 3, 50):
            kept = spectrum_check(group, l)
            assert spectrum_check(group, l) is kept, (str(group), l)
            fresh_spectrum_reports()
            assert spectrum_check(group, l) == kept, (str(group), l)


def test_a_consistency_error_is_raised_on_every_call(monkeypatch, fresh_spectrum_reports):
    # a disagreement of the two routes is raised, never kept as a report
    real = ktheory._symplectic_pipeline

    def changed(group, l):
        rows, rational, den = real(group, l)
        return [[e + 1 for e in row] for row in rows], rational, den

    monkeypatch.setattr(ktheory, "_symplectic_pipeline", changed)
    raised = []
    for _ in range(2):
        with pytest.raises(ConsistencyError) as info:
            spectrum_check(GroupSpec("Sp", 4), 3)
        raised.append((info.value.routes, info.value.cell, info.value.values))
    assert raised[0] == raised[1]
    assert eigen._spectrum_report.cache_info().currsize == 0


def test_eigen_caches_are_bounded_and_cleared_by_the_benchmark(monkeypatch):
    caches = (eigen._eigenbasis, eigenbasis_determinant, _unitary_vectors, eigen._spectrum_report)
    for cache in caches:
        maxsize = cache.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize <= 1024
    # the levels are built into the records, cached per rank, and not kept
    assert not any(hasattr(f, "cache_info") for f in (eigenbasis, _unitary_levels, _level_rows))
    # more distinct (group, l) than the memo holds leave it at its bound
    groups = [group for group in _groups(12) if group.family != "G2"]
    for group in groups:
        for l in (2, 3):
            spectrum_check(group, l)
    info = eigen._spectrum_report.cache_info()
    assert 2 * len(groups) > info.maxsize and info.currsize == info.maxsize
    eigenvector(5, 2)
    eigenbasis_determinant(5)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        import workloads

        found = workloads.library_caches()
        assert all(any(c is cache for c in found) for cache in caches)
        workloads.clear_library_caches()
    finally:
        for name in ("workloads", "reference"):
            sys.modules.pop(name, None)
    assert all(cache.cache_info().currsize == 0 for cache in caches)
