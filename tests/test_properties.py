"""Properties checked on randomly drawn inputs, wider than the fixed grids.

Each property runs MAX_EXAMPLES examples, each under DEADLINE_MS (the
symbolic oracle's and the command line's under SLOW_DEADLINE_MS, since one
uncached oracle call at n = 5, l = 6 takes about 0.2 s); on a 2-vCPU Xeon
VM the thirteen take about 4 seconds together, and the deadlines bound
them at 11 * 100 * 0.5 s plus 2 * 100 * 2 s.
The module is skipped where `hypothesis` is not installed.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from unittest.mock import patch

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import adamsops.cli as cli  # noqa: E402
import adamsops.eigen as eigen  # noqa: E402
from adamsops.counts import _count_row, mu_closed, signed_table  # noqa: E402
from adamsops.eigen import (  # noqa: E402
    _certifies,
    char_poly,
    eigenbasis,
    expected_char_poly,
    spectrum_check,
)
from adamsops.ktheory import (  # noqa: E402
    FAMILIES,
    FAMILY_TABLE,
    AdamsMatrix,
    GroupSpec,
    _restrict,
    _wedge_images,
    adams_matrix,
    basis,
    defining_dimension,
)
from adamsops.symoracle import (  # noqa: E402
    adams_symbolic_coefficients,
    bounded_composition_poly,
)

MAX_EXAMPLES = 100
DEADLINE_MS = 500

budget = settings(max_examples=MAX_EXAMPLES, deadline=DEADLINE_MS)

SLOW_DEADLINE_MS = 2000


@st.composite
def groups(draw, max_rank=12):
    family = draw(st.sampled_from(FAMILIES))
    if family == "G2":
        return GroupSpec("G2")
    return GroupSpec(family, draw(st.integers(FAMILY_TABLE[family].min_rank, max_rank)))


@budget
@given(n=st.integers(1, 80), l=st.integers(1, 200), data=st.data())
def test_row_and_table_match_closed_form(n, l, data):
    # the row holds degrees 0..n(l-1)/2; degree s above the middle is the
    # entry of its mirror n(l-1) - s
    row = _count_row(n, l)
    assert len(row) == n * (l - 1) // 2 + 1
    s = data.draw(st.integers(0, n * (l - 1)))
    k = -(-s // l)  # coefficient s is mu(n, l, k, l*k - s) for this k
    assert row[min(s, n * (l - 1) - s)] == mu_closed(n, l, k, l * k - s)
    k, p = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    assert signed_table(n, l).entry(k, p) == (-1) ** (k + p) * l * mu_closed(n, l, k, p)


@budget
@given(n=st.integers(1, 80), l=st.integers(1, 200), data=st.data())
def test_count_duality(n, l, data):
    # reversing every part, k_r -> l-1-k_r, sends the tuples counted by
    # mu(n, l, k, p) to those counted by mu(n, l, n-k, n-p), and the sign
    # (-1)^(k+p) of the block entry is that of (n-k) + (n-p)
    k = data.draw(st.integers(0, n))
    p = data.draw(st.integers(0, n))
    table = signed_table(n, l)
    assert table.entry(k, p) == table.entry(n - k, n - p)
    p = data.draw(st.integers(-2 * l * n - 2, 2 * l * n + 2))
    assert mu_closed(n, l, k, p) == mu_closed(n, l, n - k, n - p)


@budget
@given(n=st.integers(1, 24), data=st.data())
def test_table_above_the_switch_matches_closed_form(n, data):
    # above l = n+1 the windows of the table's rows are disjoint, each runs
    # from its own seed, and the second half mirrors the first,
    # A[k][p] = A[n-k][n-p]
    l = data.draw(st.integers(n + 2, 100 * n * (n + 1)))
    table = signed_table(n, l)
    for _ in range(3):
        k, p = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
        want = (-1) ** (k + p) * l * mu_closed(n, l, k, p)
        assert table.entry(k, p) == table.entry(n - k, n - p) == want


@budget
@given(n=st.integers(1, 40), data=st.data())
def test_signed_table_matches_closed_form(n, data):
    # each of the block's two routes: windows that overlap or abut
    # (l <= n+1) and disjoint windows, near that edge and far above it
    edge = n * (n + 1)
    l = data.draw(
        st.one_of(
            st.integers(1, n + 1),
            st.integers(n + 2, max(n + 2, edge)),
            st.integers(edge + 1, 50 * edge),
        )
    )
    table = signed_table(n, l)
    assert all(len(col) == n + 1 for col in table.columns(range(n + 1), range(n + 1)))
    for _ in range(4):
        k, p = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
        want = (-1) ** (k + p) * l * mu_closed(n, l, k, p)
        assert table.entry(k, p) == table.entry(n - k, n - p) == want


@budget
@given(n=st.integers(1, 40), data=st.data())
def test_every_column_slice_of_the_strips_matches_closed_form(n, data):
    # each layout of the strips: the signed row at odd l and G, -G at even
    # l (both up to the edge l = n+1, where the windows abut), and the
    # windows above it; every column over every range of k is one slice
    l = data.draw(
        st.one_of(
            st.integers(1, n + 1).filter(lambda l: l % 2),
            st.integers(1, n + 1).filter(lambda l: l % 2 == 0),
            st.just(n + 1),
            st.integers(n + 2, 5 * n * (n + 1)),
        )
    )
    block = signed_table(n, l)
    assert len(block.strips) == (2 if l <= n + 1 and l % 2 == 0 else 1)
    lo = data.draw(st.integers(0, n + 1))
    ks = range(lo, data.draw(st.integers(lo, n + 1)))
    ps = data.draw(st.lists(st.integers(0, n), min_size=1, max_size=4))
    for p, col in zip(ps, block.columns(ps, ks)):
        want = tuple((-1) ** (k + p) * l * mu_closed(n, l, k, p) for k in ks)
        assert col == want == tuple(block.entry(k, p) for k in ks), (l, p, ks)


@budget
@given(group=groups(), a=st.integers(1, 12), b=st.integers(1, 12))
def test_composition_law(group, a, b):
    # M(a) . M(b) = M(ab): psi^a psi^b = psi^(ab)
    assert adams_matrix(group, a).compose(adams_matrix(group, b)) == adams_matrix(group, a * b)


@budget
@given(group=groups(max_rank=40), l=st.integers(1, 1000))
def test_entries_are_integers_on_both_routes(group, l):
    # adams_matrix cross-checks the two routes; both must give plain ints
    for cross_check in (True, False):
        mat = adams_matrix(group, l, cross_check=cross_check)
        assert all(type(e) is int for row in mat.entries for e in row)


@budget
@given(group=groups(max_rank=20), l=st.integers(1, 1000))
def test_spectrum_is_the_powers_of_l(group, l):
    # the eigenvalues of psi^l are l^(m_i + 1), the m_i the family exponents
    assert spectrum_check(group, l).ok


@budget
@given(group=groups(max_rank=20), l=st.integers(1, 1000), data=st.data())
def test_certificate_rejects_a_changed_matrix(group, l, data):
    # one entry changed, or two adjacent ones in a row or in a column: the
    # packed certificate must reject the matrix, and the report must be the
    # one char_poly gives
    entries = [list(row) for row in adams_matrix(group, l).entries]
    d = len(entries)
    i, j = data.draw(st.integers(0, d - 1)), data.draw(st.integers(0, d - 1))
    second = data.draw(st.sampled_from([(i, j), (i, (j + 1) % d), ((i + 1) % d, j)]))
    nonzero = st.integers(-(2**80), 2**80).filter(bool)
    for a, b in {(i, j), second}:
        entries[a][b] += data.draw(nonzero)
    changed = tuple(map(tuple, entries))
    assert not _certifies(eigenbasis(group), changed, l)
    # the memo is emptied under the patch, so that the report is made from
    # the changed matrix and does not outlive it
    with patch.object(eigen, "adams_matrix", lambda g, l: AdamsMatrix(g, l, changed)):
        eigen._spectrum_report.cache_clear()
        report = spectrum_check(group, l)
        eigen._spectrum_report.cache_clear()
    got = char_poly(changed)
    assert report.char_coeffs == got
    assert report.ok == (got == expected_char_poly(group, l))


@settings(max_examples=MAX_EXAMPLES, deadline=SLOW_DEADLINE_MS)
@given(n=st.integers(1, 5), l=st.integers(1, 6), data=st.data())
def test_symbolic_coefficients_are_bounded_composition_sums(n, l, data):
    # the partition-table rewriting against the brute-force sum over the
    # l^n tuples with parts below l
    k = data.draw(st.integers(1, n))
    p = data.draw(st.integers(1, n))
    assert adams_symbolic_coefficients(n, l, k)[p - 1] == bounded_composition_poly(n, l, k, p)


def restrict_by_rows(group, vectors):
    """The restriction from U(m) one vector and one entry at a time, over
    its rows: wedges 1..w to their own basis elements, the family's middle
    rows, then wedge p as wedge m-p for every later p < m, written out."""
    family = FAMILY_TABLE[group.family]
    n, m, w = group.n, defining_dimension(group), family.wedges(group.n)
    d = w + len(family.extra)
    rows = [[int(i == j) for i in range(d)] for j in range(w)] + family.middle_rows(n)
    rows += [rows[m - p - 1] for p in range(len(rows) + 1, m)]
    images = []
    for u in vectors:
        image = [0] * d
        for p, row in enumerate(rows, start=1):
            for i, v in enumerate(row):
                image[i] += u[p] * v
        images.append(image)
    return images


@budget
@given(group=groups(), data=st.data())
def test_columnwise_restriction_matches_the_row_loop(group, data):
    size = defining_dimension(group) + 1
    coordinate = st.integers(-(2**200), 2**200)
    vectors = data.draw(st.lists(st.lists(coordinate, min_size=size, max_size=size), max_size=6))
    # `_restrict` takes the vectors as columns, by rows, and returns the
    # images the same way
    rows = [[u[p] for u in vectors] for p in range(size)]
    images = [list(image) for image in zip(*_restrict(group, rows))]
    assert images == restrict_by_rows(group, vectors)


@budget
@given(group=groups(), l=st.integers(1, 30), data=st.data())
def test_wedge_images_restrict_the_signed_unitary_formula(group, l, data):
    # coordinate p of wedge k is (-1)^(k+p) l mu(m, l, k, p), from the oracle
    m = defining_dimension(group)
    lo = data.draw(st.integers(0, m))
    degrees = range(lo, data.draw(st.integers(lo, m)) + 1)
    unitary = [[(-1) ** (k + p) * l * mu_closed(m, l, k, p) for p in range(m + 1)] for k in degrees]
    images = [list(image) for image in zip(*_wedge_images(group, l, degrees))]
    assert images == restrict_by_rows(group, unitary)


@pytest.mark.parametrize("family", FAMILIES)
def test_restriction_of_one_vector_and_of_none(family):
    group = GroupSpec(family, FAMILY_TABLE[family].fixed_rank or 4)
    size = defining_dimension(group) + 1
    assert _restrict(group, [()] * size) == [[]] * len(basis(group))
    u = [3**p - 7 * p for p in range(size)]
    (image,) = restrict_by_rows(group, [u])
    assert _restrict(group, [(x,) for x in u]) == [[x] for x in image]


# Command-line tokens: small and boundary integers, words that are not ints,
# and a work cap plus one, which is refused before any work.  No token makes
# a command sweep or build more than rank 3 at l = 3, so no example runs long.
# The integers come three times over, so most examples get past argparse.
_TOKENS = ("-2", "-1", "0", "1", "2", "3") * 3 + ("True", "false", "1.5", "2e1", "three", "")
_UNKNOWN_FAMILIES = ("Spin", "u", "E8")


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _argv(draw):
    token = st.sampled_from(_TOKENS)
    command = draw(st.sampled_from(["compute", "eigen", "mu", "verify"]))
    if command == "compute":
        family = draw(st.sampled_from(FAMILIES + _UNKNOWN_FAMILIES))
        return [
            "compute", "--group", family,
            *draw(_optional("--rank", token | st.just(str(cli.MAX_DIMENSION + 1)))),
            *draw(_optional("--l", token | st.just(str(cli.MAX_ROW + 1)))),
            *draw(_optional("--format", st.sampled_from(["json", "csv", "pretty", "xml"]))),
        ]
    if command == "eigen":
        return [
            "eigen",
            *draw(_optional("--rank", token | st.just(str(cli.MAX_DIMENSION + 1)))),
            *draw(_optional("--l", token | st.just(str(cli.MAX_ROW + 1)))),
            *draw(st.sampled_from([[], ["--integral"]])),
            *draw(_optional("--format", st.sampled_from(["json", "csv", "pretty"]))),
        ]
    if command == "mu":
        n = draw(token | st.just(str(cli.MAX_DIMENSION + 1)))
        l = draw(token | st.just(str(cli.MAX_ROW + 1)))
        k, p = draw(token), draw(token)
        return ["mu", n, l, k, p, *draw(st.sampled_from([[], ["--check"]]))]
    suite = draw(st.sampled_from(["all", *cli._SUITES, "nope"]))
    rows = cli._SUITES.values() if suite not in cli._SUITES else [cli._SUITES[suite]]
    rank_caps = [str(most[0] + 1) for _, most in rows]
    l_caps = [str(most[1] + 1) for _, most in rows]
    # both flags are always given, so no suite runs its default sweep
    return [
        "verify", "--suite", suite,
        "--max-rank", draw(st.sampled_from(_TOKENS + tuple(rank_caps))),
        "--max-l", draw(st.sampled_from(_TOKENS + tuple(l_caps))),
    ]


@settings(max_examples=MAX_EXAMPLES, deadline=SLOW_DEADLINE_MS)
@given(argv=_argv())
def test_every_command_line_exits_with_a_documented_code(argv):
    # in process, so no child is started; argparse's SystemExit(2) counts as 2
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
