"""Every matrix of a fixed grid against its committed digest.

`tests/matrix_digests.json` holds the digests that `tools/matrix_digests.py`
computes; that tool owns the grid and, given --write, rewrites the file.
On a mismatch the failure names the first cell where the matrix differs
from the same matrix assembled from the oracle's counts.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from adamsops import ktheory
from adamsops.counts import SignedBlock, mu_closed
from adamsops.ktheory import GroupSpec, adams_matrix

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("matrix_digests", ROOT / "tools" / "matrix_digests.py")
matrix_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(matrix_digests)


def block_from_rows(rows, l):
    """A `SignedBlock` whose entry [k][p] is rows[k][p]: one strip holding
    each row reversed, row after row, with stride m+1 and offset m."""
    m = len(rows) - 1
    strips = (tuple(x for row in rows for x in reversed(row)),)
    return SignedBlock(strips, m + 1, m, strips * (m + 1))


def _oracle_block(m, l):
    """`counts.signed_table(m, l)` from the oracle: the block
    (-1)^(k+p) * l * mu_closed(m, l, k, p) for 0 <= k, p <= m."""
    return block_from_rows(
        [[(-1) ** (k + p) * l * mu_closed(m, l, k, p) for p in range(m + 1)] for k in range(m + 1)],
        l,
    )


def first_difference(group, l):
    """Why the matrix of (group, l) moved: the first cell where it differs
    from the matrix assembled from `_oracle_block`, with both values.  If
    the two agree, the counts are right and the assembly moved."""
    got = adams_matrix(group, l).entries
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ktheory, "signed_table", _oracle_block)
        want = adams_matrix(group, l).entries
    for i, (row, oracle_row) in enumerate(zip(got, want)):
        for j, (value, oracle) in enumerate(zip(row, oracle_row)):
            if value != oracle:
                return (
                    f"first differing cell ({i}, {j}): {value}, from the oracle's counts {oracle}"
                )
    return "it equals the matrix from the oracle's counts, so the assembly moved, not the counts"


def test_every_matrix_of_the_grid_matches_its_digest():
    expected = json.loads(matrix_digests.DIGESTS.read_text())
    grid = matrix_digests.grid()
    assert [*expected] == [*dict.fromkeys(matrix_digests.key(g, l) for g, l in grid)]
    for group, l in grid:
        name = matrix_digests.key(group, l)
        if matrix_digests.digest(group, l) != expected[name]:
            pytest.fail(f"{name}: the matrix moved; {first_difference(group, l)}")


def test_a_mismatch_names_the_first_cell_that_moved(monkeypatch):
    # one entry of the block one too large: U(4) reads block entry [k][p]
    # at matrix cell (p-1, k-1), and Sp(3) folds it into a sum silently
    real = ktheory.signed_table

    def perturbed(m, l):
        block = real(m, l)
        rows = [[block.entry(k, p) for p in range(m + 1)] for k in range(m + 1)]
        rows[2][1] += 1
        return block_from_rows(rows, l)

    for group in (GroupSpec("U", 4), GroupSpec("Sp", 3)):
        assert first_difference(group, 2).startswith("it equals the matrix from the oracle's")
    monkeypatch.setattr(ktheory, "signed_table", perturbed)
    entry = real(4, 2).entry(2, 1)
    assert first_difference(GroupSpec("U", 4), 2) == (
        f"first differing cell (0, 1): {entry + 1}, from the oracle's counts {entry}"
    )
    assert first_difference(GroupSpec("Sp", 3), 2).startswith("first differing cell (")
