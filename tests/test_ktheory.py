"""Matrix assembly for every supported family.

The expected matrices below were produced by the independent routes --
bounded-composition enumeration for the unitary family, the wedge-power
functoriality pipeline for everything else -- and then frozen, so these
tests pin both routes at once.
"""

import fractions
import re
from fractions import Fraction
from math import comb

import pytest

from adamsops import ktheory
from adamsops.counts import SignedBlock, signed_table
from adamsops.ktheory import (
    FAMILIES,
    ConsistencyError,
    GroupSpec,
    adams_matrix,
    basis,
    defining_dimension,
)

# (family, rank, l) -> row-major entries, frozen from the oracle routes
FROZEN = {
    ("U", 2, 2): ((4, 0), (-2, 2)),
    ("U", 2, 3): ((9, 0), (-6, 3)),
    ("U", 3, 2): ((6, -2, 0), (-2, 6, 0), (0, -6, 2)),
    ("U", 4, 2): ((8, -8, 0, 0), (-2, 12, -2, 0), (0, -8, 8, 0), (0, 2, -12, 2)),
    ("SU", 3, 2): ((6, -2), (-2, 6)),
    ("SU", 4, 2): ((8, -8, 0), (-2, 12, -2), (0, -8, 8)),
    ("Sp", 1, 3): ((9,),),
    ("Sp", 2, 2): ((8, -16), (-2, 12)),
    ("Sp", 2, 3): ((33, -96), (-12, 57)),
    ("Sp", 3, 2): ((12, -40, 24), (-2, 32, -60), (0, -12, 40)),
    ("SpinOdd", 1, 2): ((4,),),
    ("SpinOdd", 2, 2): ((12, -2), (-16, 8)),
    ("SpinOdd", 2, 3): ((57, -12), (-96, 33)),
    ("SpinOdd", 3, 2): ((14, -58, -2), (-2, 54, -2), (0, -192, 16)),
    ("SpinEven", 3, 2): ((12, -2, -2), (-8, 8, 0), (-8, 0, 8)),
    ("SpinEven", 3, 3): ((57, -12, -12), (-48, 30, 3), (-48, 3, 30)),
    ("SpinEven", 4, 2): ((16, -96, 0, 0), (-2, 52, -2, -2), (0, -96, 16, 0), (0, -96, 0, 16)),
    ("G2", 2, 2): ((12, -208), (-2, 56)),
    ("G2", 2, 3): ((105, -2496), (-24, 633)),
}


@pytest.mark.parametrize("family, rank, l", sorted(FROZEN))
def test_frozen_matrices(family, rank, l):
    mat = adams_matrix(GroupSpec(family, rank), l)
    assert mat.entries == FROZEN[(family, rank, l)]


def test_columns_are_images():
    mat = adams_matrix(GroupSpec("U", 2), 2)
    # psi^2 sends the first generator to 4x(first) - 2x(second)
    assert tuple(row[0] for row in mat.entries) == (4, -2)
    assert tuple(row[1] for row in mat.entries) == (0, 2)


def test_rank_one_coincidences():
    # Sp(1), Spin(3) and SU(2) are the same group; all three give (l^2)
    for l in (2, 3, 5, 7):
        expected = ((l * l,),)
        assert adams_matrix(GroupSpec("Sp", 1), l).entries == expected
        assert adams_matrix(GroupSpec("SpinOdd", 1), l).entries == expected
        assert adams_matrix(GroupSpec("SU", 2), l).entries == expected


def test_special_unitary_is_the_unitary_block():
    for n in (2, 3, 4, 5):
        for l in (2, 3):
            u = adams_matrix(GroupSpec("U", n), l).entries
            su = adams_matrix(GroupSpec("SU", n), l).entries
            assert su == tuple(row[: n - 1] for row in u[: n - 1])


def test_basis_labels():
    assert [b.label for b in basis(GroupSpec("U", 2))] == ["d(L^1 s_2)", "d(L^2 s_2)"]
    assert [b.label for b in basis(GroupSpec("SU", 4))] == [
        "d(L^1 s_4)",
        "d(L^2 s_4)",
        "d(L^3 s_4)",
    ]
    assert [b.label for b in basis(GroupSpec("Sp", 2))] == ["d(L^1 s_4)", "d(L^2 s_4)"]
    assert [b.label for b in basis(GroupSpec("SpinOdd", 2))] == ["d(L^1 s_5)", "d(S)"]
    assert [b.label for b in basis(GroupSpec("SpinEven", 4))] == [
        "d(L^1 s_8)",
        "d(L^2 s_8)",
        "d(S+)",
        "d(S-)",
    ]
    assert [b.label for b in basis(GroupSpec("G2", 2))] == ["d(rho1)", "d(rho2)"]


def test_defining_dimensions():
    assert defining_dimension(GroupSpec("U", 3)) == 3
    assert defining_dimension(GroupSpec("SU", 3)) == 3
    assert defining_dimension(GroupSpec("Sp", 3)) == 6
    assert defining_dimension(GroupSpec("SpinOdd", 3)) == 7
    assert defining_dimension(GroupSpec("SpinEven", 4)) == 8
    assert defining_dimension(GroupSpec("G2")) == 7


def test_group_spec_validation():
    with pytest.raises(ValueError):
        GroupSpec("SO", 3)
    with pytest.raises(ValueError):
        GroupSpec("U", 0)
    with pytest.raises(ValueError):
        GroupSpec("SU", 1)
    with pytest.raises(ValueError):
        GroupSpec("SpinEven", 2)
    assert GroupSpec("G2", 7).n == 2  # rank is pinned for the exceptional group
    assert str(GroupSpec("SpinOdd", 3)) == "Spin(7)"
    assert str(GroupSpec("SpinEven", 4)) == "Spin(8)"


def test_l_validation():
    for fam, n in [("U", 2), ("Sp", 2), ("SpinEven", 3), ("G2", 2)]:
        with pytest.raises(ValueError):
            adams_matrix(GroupSpec(fam, n), 0)
        with pytest.raises(ValueError):
            adams_matrix(GroupSpec(fam, n), -3)


@pytest.mark.parametrize("family, rank", [
    ("U", 1), ("U", 4), ("SU", 2), ("SU", 5), ("Sp", 1), ("Sp", 3),
    ("SpinOdd", 1), ("SpinOdd", 4), ("SpinEven", 3), ("SpinEven", 5), ("G2", 2),
])
def test_identity_at_l_one(family, rank):
    mat = adams_matrix(GroupSpec(family, rank), 1)
    assert mat.entries == tuple(tuple(int(i == j) for j in range(mat.dim)) for i in range(mat.dim))


def test_composition_is_multiplicativity():
    for family, rank in [("U", 3), ("Sp", 2), ("SpinOdd", 2), ("SpinEven", 3), ("G2", 2)]:
        g = GroupSpec(family, rank)
        m2 = adams_matrix(g, 2)
        m3 = adams_matrix(g, 3)
        m6 = adams_matrix(g, 6)
        composed = m3.compose(m2)
        assert composed.l == 6
        assert composed.entries == m6.entries
        assert m2.compose(m3).entries == m6.entries  # the operations commute


def test_compose_rejects_mismatched_groups():
    a = adams_matrix(GroupSpec("Sp", 2), 2)
    b = adams_matrix(GroupSpec("SpinOdd", 2), 2)
    with pytest.raises(ValueError):
        a.compose(b)


# ---------------------------------------------------------------------------
# the restriction from U(m) and the pipeline route


def restriction_rows(group):
    """The restricted unit vector of each wedge 0..m of U(m), m the
    defining dimension."""
    m = defining_dimension(group)
    units = [[int(p == k) for p in range(m + 1)] for k in range(m + 1)]
    return tuple(zip(*ktheory._restrict(group, units)))


def test_reduction_table_symplectic():
    assert restriction_rows(GroupSpec("Sp", 2)) == ((0, 0), (1, 0), (0, 1), (1, 0), (0, 0))


def test_reduction_table_spin_odd():
    # the middle wedge power folds onto the spin class
    assert restriction_rows(GroupSpec("SpinOdd", 2)) == (
        (0, 0), (1, 0), (-1, 8), (-1, 8), (1, 0), (0, 0)
    )


def test_reduction_table_spin_even():
    assert restriction_rows(GroupSpec("SpinEven", 3)) == (
        (0, 0, 0),
        (1, 0, 0),
        (0, 4, 4),
        (-2, 8, 8),
        (0, 4, 4),
        (1, 0, 0),
        (0, 0, 0),
    )
    assert restriction_rows(GroupSpec("SpinEven", 4)) == (
        (0, 0, 0, 0),
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (-1, 0, 8, 8),
        (0, -2, 16, 16),
        (-1, 0, 8, 8),
        (0, 1, 0, 0),
        (1, 0, 0, 0),
        (0, 0, 0, 0),
    )


def test_reduction_table_g2():
    assert restriction_rows(GroupSpec("G2")) == (
        (0, 0),
        (1, 0),
        (1, 1),
        (14, -1),
        (14, -1),
        (1, 1),
        (1, 0),
        (0, 0),
    )


def test_unitary_families_restrict_by_the_identity():
    # U: wedges 1..n are the basis; SU: the same without wedge n, which goes to zero
    for n in (1, 2, 5):
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        assert restriction_rows(GroupSpec("U", n)) == ((0,) * n,) + identity
    for n in (2, 3, 5):
        identity = tuple(tuple(int(i == j) for j in range(n - 1)) for i in range(n - 1))
        assert restriction_rows(GroupSpec("SU", n)) == ((0,) * (n - 1),) + identity + (
            (0,) * (n - 1),
        )


def _intertwining_failures(group, l, cross_check=True):
    """The wedges k = 0..m of U(m) at which R.M_U(m)(l).e_k != M_G(l).R.e_k."""
    m = defining_dimension(group)
    entries = adams_matrix(group, l, cross_check=cross_check).entries
    images = [list(col) for col in zip(*ktheory._wedge_images(group, l, range(m + 1)))]
    return [
        k for k, (image, row) in enumerate(zip(images, restriction_rows(group)))
        if image != ktheory._times(entries, row)
    ]


def test_restriction_intertwines_on_every_wedge():
    groups = [
        GroupSpec(f.name, n)
        for f in ktheory.FAMILY_TABLE.values()
        for n in ([f.fixed_rank] if f.fixed_rank else range(f.min_rank, 9))
    ]
    for g in groups:
        for l in (1, 2, 3, 7):
            assert _intertwining_failures(g, l) == [], (str(g), l)


@pytest.fixture
def fresh_restriction():
    ktheory._restriction.cache_clear()
    yield
    ktheory._restriction.cache_clear()


def test_restriction_has_one_cache(fresh_restriction):
    # what `fresh_restriction` clears is all the module keeps of the map
    caches = {
        name for name, f in vars(ktheory).items()
        if hasattr(f, "cache_clear") and f.__module__ == ktheory.__name__
    }
    assert caches == {"_restriction"}
    assert ktheory._restriction.cache_info().currsize == 0


def test_intertwining_fails_on_a_changed_middle_row(monkeypatch, fresh_restriction):
    family = ktheory.FAMILY_TABLE["SpinOdd"]
    fields = {name: getattr(family, name) for name in family._fields}
    fields["middle_rows"] = lambda n: [[-1] * (n - 2) + [0, 2 ** (n + 1)]]
    monkeypatch.setitem(ktheory.FAMILY_TABLE, "SpinOdd", ktheory.Family(**fields))
    group = GroupSpec("SpinOdd", 3)
    # the closed form reads no middle row, so it is the true M_G(l)
    assert _intertwining_failures(group, 2, cross_check=False)
    with pytest.raises(ConsistencyError):
        adams_matrix(group, 2)


def _finalized(group, l, route):
    """One route's matrix alone, finalized as `adams_matrix` finalizes it:
    route is "closed form" or "pipeline", looked up by its name in the
    family's record, so a route replaced by name is the one that runs."""
    family = ktheory.FAMILY_TABLE[group.family]
    name = family.pipeline if route == "pipeline" else family.closed
    return ktheory._finalize(group, l, route, getattr(ktheory, name)(group, l))


def _ranks_up_to(family, dimension):
    """The ranks of the family whose defining dimension is at most the one given."""
    if family.fixed_rank:
        return [family.fixed_rank]
    return [n for n in range(family.min_rank, dimension + 1) if family.dimension(n) <= dimension]


def test_the_routes_agree_at_every_l():
    # Every entry of either route is a polynomial in l of degree <= m, the
    # defining dimension (the argument is in the `suites` module docstring),
    # so the routes' difference vanishes at every l >= 1 once it vanishes at
    # l = 1..m+1.
    built = 0
    for family in ktheory.FAMILY_TABLE.values():
        if family.pipeline is None:
            continue
        for n in _ranks_up_to(family, 30):
            group, m = GroupSpec(family.name, n), family.dimension(n)
            for l in range(1, m + 2):
                closed = adams_matrix(group, l, cross_check=False)
                assert closed.entries == _finalized(group, l, "pipeline").entries, (str(group), l)
                built += 1
    assert built == 748


@pytest.mark.parametrize("family", FAMILIES)
def test_every_entry_is_a_polynomial_in_l_of_degree_at_most_m(family):
    # the degree bound the test above and the eigen suite's certificate row
    # rest on: the (m+1)-th finite difference of every entry over
    # l = 1..m+2 is 0, for the two least ranks and the largest with m <= 12
    ranks = _ranks_up_to(ktheory.FAMILY_TABLE[family], 12)
    for n in sorted({*ranks[:2], ranks[-1]}):
        group = GroupSpec(family, n)
        m = defining_dimension(group)
        mats = [adams_matrix(group, l).entries for l in range(1, m + 3)]
        weights = [(-1) ** (m + 1 - i) * comb(m + 1, i) for i in range(m + 2)]
        for row in range(len(mats[0])):
            for col in range(len(mats[0])):
                values = [mat[row][col] for mat in mats]
                assert sum(w * v for w, v in zip(weights, values)) == 0, (str(group), row, col)


def test_g2_closed_route_is_its_polynomial_expressions(monkeypatch):
    g2 = GroupSpec("G2")
    for l in range(1, 301):
        expressions = (
            (Fraction(2 * l**6 + 13 * l**2, 15), Fraction(l**2 - l**6, 30)),
            (Fraction(52 * l**2 * (1 - l**4), 15), Fraction(l**2 * (13 * l**4 + 2), 15)),
        )
        columns = ktheory._g2_numerators(l)  # numerators over 30
        assert columns == tuple(tuple(30 * e for e in col) for col in expressions), l
        assert all(type(v) is int for col in columns for v in col), l
        closed = adams_matrix(g2, l, cross_check=False)
        assert closed.entries == tuple(zip(*expressions)), l
        assert closed.entries == _finalized(g2, l, "pipeline").entries, l
    # without the cross-check the pipeline does not run
    monkeypatch.setattr(ktheory, "_g2_pipeline", lambda g, m: pytest.fail("pipeline ran"))
    closed = adams_matrix(g2, 1000, cross_check=False)
    assert closed.entries[0][1] == 52 * 10**6 * (1 - 10**12) // 15
    # a non-integral expression is rejected like any other closed form's entry
    monkeypatch.setattr(ktheory, "_g2_numerators", lambda l: ((30, 15), (0, 30)))
    with pytest.raises(ConsistencyError) as info:
        adams_matrix(g2, 5, cross_check=False)
    assert (info.value.routes, info.value.cell) == (("closed form",), (1, 0))


def test_cross_check_flag_runs_both_routes():
    # must not raise anywhere in a quick sweep
    for fam, n in [("Sp", 3), ("SpinOdd", 3), ("SpinEven", 4)]:
        adams_matrix(GroupSpec(fam, n), 3, cross_check=True)
    assert adams_matrix(GroupSpec("G2"), 4) is not None


def test_spinor_difference_is_an_eigenvector():
    # psi^l on d(S+) - d(S-) scales by l^n
    for n in (3, 4, 5):
        g = GroupSpec("SpinEven", n)
        dim = n
        diff = tuple(0 for _ in range(dim - 2)) + (1, -1)
        for l in (2, 3, 4):
            # the image of d(S+) - d(S-): column n-2 minus column n-1
            image = tuple(row[n - 2] - row[n - 1] for row in adams_matrix(g, l).entries)
            assert image == tuple(l**n * c for c in diff), (n, l)


def test_families_constant():
    assert FAMILIES == ("U", "SU", "Sp", "SpinOdd", "SpinEven", "G2")


def test_group_spec_rejects_non_int_rank():
    for family in FAMILIES:
        for bad in (True, False, 2.5, 3.0, "3", None):
            with pytest.raises(ValueError):
                GroupSpec(family, bad)


@pytest.mark.parametrize("family", [f for f in FAMILIES if f != "G2"])
def test_only_a_fixed_rank_family_may_leave_out_its_rank(family):
    # U used to become U(2) silently
    with pytest.raises(ValueError, match=f"^rank is required for family {family}$"):
        GroupSpec(family)
    with pytest.raises(ValueError, match="^rank must be an int, got None$"):
        GroupSpec(family, None)
    assert GroupSpec("G2") == GroupSpec("G2", 2) == GroupSpec(family="G2")


@pytest.mark.parametrize("family", [["U"], {"U": 1}, ("U",), 3, None], ids=repr)
def test_a_family_that_is_no_name_is_unknown(family):
    # an unhashable one used to raise TypeError from the family table
    with pytest.raises(ValueError, match=re.escape(f"unknown family {family!r}; expected one of")):
        GroupSpec(family, 2)


def test_l_rejects_bool_and_non_int():
    # l=True used to pass as 1 and return the identity
    for fam, n in [("U", 3), ("SU", 3), ("Sp", 2), ("SpinOdd", 2), ("SpinEven", 3), ("G2", 2)]:
        for bad in (True, False, 2.0, 2.5, "2"):
            with pytest.raises(ValueError):
                adams_matrix(GroupSpec(fam, n), bad)


def test_entries_are_plain_ints():
    for fam, n in [("U", 5), ("SU", 4), ("Sp", 4), ("SpinOdd", 4), ("SpinEven", 5), ("G2", 2)]:
        for cross_check in (True, False):
            mat = adams_matrix(GroupSpec(fam, n), 7, cross_check=cross_check)
            assert all(type(e) is int for row in mat.entries for e in row), (fam, n)


def test_finalize_rejects_a_fractional_entry():
    group = GroupSpec("U", 2)
    # rational columns are integer numerators over one denominator
    with pytest.raises(ConsistencyError, match="row 1, column 0") as info:
        ktheory._finalize(group, 2, "closed form", ([[], []], [[8, 1], [0, 4]], 2))
    err = info.value
    assert str(err) == "non-integer entry 1/2 at row 1, column 0 for U(2), l=2"
    assert (err.group, err.l, err.routes) == (group, 2, ("closed form",))
    assert (err.cell, err.values) == ((1, 0), (Fraction(1, 2),))
    # rational columns follow each row's integer entries, and are numbered
    # after them
    with pytest.raises(ConsistencyError, match="row 0, column 1") as info:
        ktheory._finalize(group, 2, "pipeline", ([[4], [0]], [[3, 8]], 4))
    assert (info.value.routes, info.value.cell) == (("pipeline",), (0, 1))
    assert info.value.values == (Fraction(3, 4),)
    # a negative numerator is reported with its sign
    with pytest.raises(ConsistencyError) as info:
        ktheory._finalize(group, 2, "pipeline", ([[4], [0]], [[-6, 8]], 4))
    assert (info.value.cell, info.value.values) == ((0, 1), (Fraction(-3, 2),))
    mat = ktheory._finalize(group, 2, "pipeline", ([[4], [0]], [[6, 6]], 3))
    assert mat.entries == ((4, 2), (0, 2))
    mat = ktheory._finalize(group, 2, "pipeline", ([[4], [0]], [[-8, 16]], 8))
    assert mat.entries == ((4, -1), (0, 2))
    assert all(type(e) is int for row in mat.entries for e in row)


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("l", [3, 5])
def test_a_perturbed_count_breaks_the_spin_columns_on_both_routes(monkeypatch, n, l):
    """One count off by one makes a spin numerator indivisible: both routes
    raise, each naming itself and the first bad cell of the spin columns."""
    real = ktheory.signed_table

    def perturbed(size, k, p):
        """signed_table with mu(size, l, k, p) one too large, so its entry
        (-1)^(k+p) l mu(size, l, k, p) moves by (-1)^(k+p) l."""

        def table(m, at):
            block = real(m, at)
            if (m, at) != (size, l):
                return block
            rows = [[block.entry(i, j) for j in range(m + 1)] for i in range(m + 1)]
            rows[k][p] += (-1) ** (k + p) * l
            # one strip of the rows reversed, one after another
            strips = (tuple(x for row in rows for x in reversed(row)),)
            return SignedBlock(strips, m + 1, m, strips * (m + 1))

        return table

    cases = [
        # Spin(2n+1): mu(2n+1, l, 2, 1) enters the spin column, numerators
        # over 2^(n+1), at row 0; the spin column is column n-1
        (GroupSpec("SpinOdd", n), perturbed(2 * n + 1, 2, 1), (0, n - 1)),
        # Spin(2n): mu(2n, l, n-1, 1) enters the image of d(S+)+d(S-) at
        # row 0; the d(S+) column, numerators over 2^n, is column n-2
        (GroupSpec("SpinEven", n), perturbed(2 * n, n - 1, 1), (0, n - 2)),
    ]
    for group, table, cell in cases:
        monkeypatch.setattr(ktheory, "signed_table", table)
        for route, build in (
            ("closed form", lambda: adams_matrix(group, l, cross_check=False)),
            ("pipeline", lambda: _finalized(group, l, "pipeline")),
        ):
            with pytest.raises(ConsistencyError, match="non-integer entry") as info:
                build()
            err = info.value
            assert (err.group, err.l, err.routes, err.cell) == (group, l, (route,), cell)
            (value,) = err.values
            assert type(value) is Fraction and value.denominator > 1, (group, route)
        monkeypatch.setattr(ktheory, "signed_table", real)
        adams_matrix(group, l)


def test_a_successful_assembly_builds_no_fraction(monkeypatch):
    def no_fraction(*args):
        raise AssertionError(f"Fraction{args} built")

    # ktheory imports Fraction from `fractions` where it builds one
    monkeypatch.setattr(fractions, "Fraction", no_fraction)
    for family in ("U", "SU", "Sp", "SpinOdd", "SpinEven"):
        for n in range(ktheory.FAMILY_TABLE[family].min_rank, 9):
            for l in (2, 7, 50):
                mat = adams_matrix(GroupSpec(family, n), l)
                assert all(type(e) is int for row in mat.entries for e in row)
    for l in (2, 7, 50):
        mat = adams_matrix(GroupSpec("G2"), l)
        assert all(type(e) is int for row in mat.entries for e in row)


def _one_more_at(route, i, j):
    """The route with entry (i, j) of its matrix one larger: an integer
    column's entry, or a rational column's numerator plus the denominator."""
    def changed(group, l):
        rows, rational, den = route(group, l)
        rows, rational = [list(row) for row in rows], [list(col) for col in rational]
        if j < len(rows[0]):
            rows[i][j] += 1
        else:
            rational[j - len(rows[0])][i] += den
        return rows, rational, den
    return changed


@pytest.mark.parametrize(
    "family, name, cell",
    # a wedge column of Sp(20); the spin column of Spin(41), numerators over
    # 2^21; the d(S+) column of Spin(40), numerators over 2^20
    [("Sp", "Sp(20)", (3, 5)), ("SpinOdd", "Spin(41)", (3, 19)), ("SpinEven", "Spin(40)", (3, 18))],
    ids=["Sp", "SpinOdd", "SpinEven"],
)
def test_consistency_error_names_the_first_difference(monkeypatch, family, name, cell):
    group, l = GroupSpec(family, 20), 50
    good = _finalized(group, l, "pipeline")
    entries = [list(row) for row in good.entries]
    i, j = cell
    entries[i][j] += 1
    pipeline = ktheory.FAMILY_TABLE[family].pipeline
    monkeypatch.setattr(ktheory, pipeline, _one_more_at(getattr(ktheory, pipeline), i, j))
    with pytest.raises(ConsistencyError) as info:
        adams_matrix(group, l)
    message = str(info.value)
    assert name in message and "l=50" in message
    assert "closed form" in message and "pipeline" in message
    assert f"row {i}, column {j}" in message
    assert str(good.entries[i][j]) in message and str(entries[i][j]) in message
    assert len(message) < 400, len(message)
    err = info.value
    assert (err.group, err.l, err.routes) == (group, l, ("closed form", "pipeline"))
    assert err.cell == cell
    assert err.values == (good.entries[i][j], entries[i][j])
    assert message == (
        f"closed form and pipeline disagree for {name}, l=50: first at row {i}, column {j}: "
        f"closed form {good.entries[i][j]} != pipeline {entries[i][j]}"
    )


def test_g2_consistency_error_fields(monkeypatch):
    good = _finalized(GroupSpec("G2"), 3, "pipeline")
    entries = ((good.entries[0][0], good.entries[0][1]), (good.entries[1][0] - 1, good.entries[1][1]))
    monkeypatch.setattr(ktheory, "_g2_pipeline", lambda g, m: (entries, (), 1))
    with pytest.raises(ConsistencyError) as info:
        adams_matrix(GroupSpec("G2"), 3)
    err = info.value
    # the same message shape as every other family's
    assert str(err) == (
        f"closed form and pipeline disagree for G2, l=3: first at row 1, column 0: "
        f"closed form {good.entries[1][0]} != pipeline {entries[1][0]}"
    )
    assert (err.group, err.l, err.routes) == (GroupSpec("G2"), 3, ("closed form", "pipeline"))
    assert (err.cell, err.values) == ((1, 0), (good.entries[1][0], entries[1][0]))


def test_consistency_error_fields_default_to_empty():
    err = ConsistencyError("forced disagreement")
    assert str(err) == "forced disagreement"
    assert (err.group, err.l, err.routes, err.cell, err.values) == (None, None, (), None, ())


def test_group_caches_are_bounded():
    maxsize = ktheory._restriction.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_family_table_covers_every_family(monkeypatch):
    assert tuple(ktheory.FAMILY_TABLE) == FAMILIES
    for name, family in ktheory.FAMILY_TABLE.items():
        assert family.name == name
        n = family.fixed_rank or family.min_rank
        group = GroupSpec(name, n)
        assert len(basis(group)) == len(family.exponents(n))
        # the restriction mirrors every wedge above m/2 onto one below it, so
        # a family with a pipeline has a basis wedge or middle row up to m//2
        if family.pipeline is not None:
            assert family.wedges(n) + len(family.middle_rows(n)) == family.dimension(n) // 2
        # the routes are named, so that they are looked up when called
        assert callable(getattr(ktheory, family.closed))
        assert family.pipeline is None or callable(getattr(ktheory, family.pipeline))
    # a route replaced by name is the one `adams_matrix` runs, for either route
    group = GroupSpec("Sp", 3)

    def replaced(g, l):
        return [[g.n, l, 0]] * 3, (), 1

    monkeypatch.setattr(ktheory, "_symplectic_closed", replaced)
    assert adams_matrix(group, 2, cross_check=False) == ktheory.AdamsMatrix(
        group, 2, ((3, 2, 0),) * 3
    )
    with pytest.raises(ConsistencyError, match="row 0, column 0"):
        adams_matrix(group, 2, cross_check=True)
    monkeypatch.setattr(ktheory, "_symplectic_pipeline", replaced)
    assert adams_matrix(group, 2, cross_check=True).entries == ((3, 2, 0),) * 3


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("cross_check", [True, False])
def test_l_is_rejected_before_any_count_is_built(monkeypatch, family, cross_check):
    monkeypatch.setattr(ktheory, "signed_table", lambda n, l: pytest.fail("a count was built"))
    group = GroupSpec(family, 3)
    for bad in (0, -1, True, 2.0, "2"):
        with pytest.raises(ValueError):
            adams_matrix(group, bad, cross_check=cross_check)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("cross_check", [True, False])
def test_l_is_checked_once_per_matrix(monkeypatch, family, cross_check):
    # and each route it runs is finalized once, by `adams_matrix`
    calls, routes = [], []
    real, finalize = ktheory._require_l, ktheory._finalize
    monkeypatch.setattr(ktheory, "_require_l", lambda l: calls.append(l) or real(l))
    monkeypatch.setattr(
        ktheory, "_finalize", lambda *args: routes.append(args[2]) or finalize(*args)
    )
    group = GroupSpec(family, 3)
    cross_checked = cross_check and family not in ("U", "SU")
    for l in (1, 2, 7):
        calls.clear()
        routes.clear()
        adams_matrix(group, l, cross_check=cross_check)
        assert calls == [l], (group, l)
        assert routes == ["closed form", "pipeline"][: 1 + cross_checked], (group, l)


@pytest.mark.parametrize("family", FAMILIES)
def test_a_matrix_builds_no_second_group(monkeypatch, family):
    group = GroupSpec(family, 3)
    monkeypatch.setattr(GroupSpec, "__post_init__", lambda self: pytest.fail(f"built {self!r}"))
    assert adams_matrix(group, 3, cross_check=True).group is group


@pytest.mark.parametrize(
    "family, n, l", [("Sp", 10, 3), ("SpinEven", 10, 4), ("SpinOdd", 9, 2), ("SU", 20, 7)]
)
def test_a_cold_matrix_caches_fewer_counts_than_the_block_has(family, n, l):
    # both routes read the one cached strip record: at l < m its one or two
    # strips, and the strip of each column, hold fewer items than the
    # (m+1)^2 entries of the block
    group = GroupSpec(family, n)
    m = defining_dimension(group)
    assert l < m
    signed_table.cache_clear()
    adams_matrix(group, l)
    assert signed_table.cache_info().currsize == 1
    block = signed_table(m, l)
    assert sum(map(len, block.strips)) + len(block.by_column) < (m + 1) ** 2
