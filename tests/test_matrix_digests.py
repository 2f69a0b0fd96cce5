"""Every matrix of a fixed grid against its committed digest.

`tests/matrix_digests.json` holds the digests that `tools/matrix_digests.py`
computes; that tool owns the grid and, given --write, rewrites the file.
"""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("matrix_digests", ROOT / "tools" / "matrix_digests.py")
matrix_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(matrix_digests)


def test_every_matrix_of_the_grid_matches_its_digest():
    expected = json.loads(matrix_digests.DIGESTS.read_text())
    grid = matrix_digests.grid()
    assert [*expected] == [*dict.fromkeys(matrix_digests.key(g, l) for g, l in grid)]
    for group, l in grid:
        name = matrix_digests.key(group, l)
        assert matrix_digests.digest(group, l) == expected[name], f"{name}: the matrix moved"
