"""Properties checked on randomly drawn inputs, wider than the fixed grids.

Each property runs MAX_EXAMPLES examples, each under DEADLINE_MS (the
symbolic oracle's under ORACLE_DEADLINE_MS, since one uncached call at
n = 5, l = 6 takes about 0.2 s); on a 2-vCPU Xeon VM the six take about
2.1 seconds together, and the deadlines bound them at 5 * 100 * 0.5 s plus
100 * 2 s.
The module is skipped where `hypothesis` is not installed.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from adamsops.counts import _count_row, count_table, mu_closed  # noqa: E402
from adamsops.eigen import spectrum_check  # noqa: E402
from adamsops.ktheory import FAMILIES, FAMILY_TABLE, GroupSpec, adams_matrix  # noqa: E402
from adamsops.symoracle import (  # noqa: E402
    adams_symbolic_coefficients,
    bounded_composition_poly,
)

MAX_EXAMPLES = 100
DEADLINE_MS = 500

budget = settings(max_examples=MAX_EXAMPLES, deadline=DEADLINE_MS)

ORACLE_DEADLINE_MS = 2000


@st.composite
def groups(draw, max_rank=12):
    family = draw(st.sampled_from(FAMILIES))
    if family == "G2":
        return GroupSpec("G2")
    return GroupSpec(family, draw(st.integers(FAMILY_TABLE[family].min_rank, max_rank)))


@budget
@given(n=st.integers(1, 80), l=st.integers(1, 200), data=st.data())
def test_row_and_table_match_closed_form(n, l, data):
    row = _count_row(n, l)
    assert len(row) == n * (l - 1) + 1
    s = data.draw(st.integers(0, len(row) - 1))
    k = -(-s // l)  # coefficient s is mu(n, l, k, l*k - s) for this k
    assert row[s] == mu_closed(n, l, k, l * k - s)
    k, p = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    assert count_table(n, l)[k][p] == mu_closed(n, l, k, p)


@budget
@given(n=st.integers(1, 80), l=st.integers(1, 200), data=st.data())
def test_count_duality(n, l, data):
    # reversing every part, k_r -> l-1-k_r, sends the tuples counted by
    # mu(n, l, k, p) to those counted by mu(n, l, n-k, n-p)
    k = data.draw(st.integers(0, n))
    p = data.draw(st.integers(0, n))
    table = count_table(n, l)
    assert table[k][p] == table[n - k][n - p]
    p = data.draw(st.integers(-2 * l * n - 2, 2 * l * n + 2))
    assert mu_closed(n, l, k, p) == mu_closed(n, l, n - k, n - p)


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


@settings(max_examples=MAX_EXAMPLES, deadline=ORACLE_DEADLINE_MS)
@given(n=st.integers(1, 5), l=st.integers(1, 6), data=st.data())
def test_symbolic_coefficients_are_bounded_composition_sums(n, l, data):
    # the partition-table rewriting against the brute-force sum over the
    # l^n tuples with parts below l
    k = data.draw(st.integers(1, n))
    p = data.draw(st.integers(1, n))
    assert adams_symbolic_coefficients(n, l, k)[p - 1] == bounded_composition_poly(n, l, k, p)
