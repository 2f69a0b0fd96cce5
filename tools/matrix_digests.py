"""Digests of a fixed grid of Adams matrices, to pin every entry.

Each matrix is built cross-checked, by `adams_matrix(group, l)`; its digest
is the first 16 hex digits of the SHA-256 of `repr(entries)`, keyed by
`"<group> l=<l>"`.  The grid is

* every family at rank <= 25 with l in {1, 2, 3, 4, 5, 7, 10, 50, 97};
* every family but G2 at rank 26..40 with l in {2, 50};
* every group of defining dimension m <= 15 at l = m+1, m+2 and m+3,
  either side of the edge where the windows of the count row that the
  count block reads stop overlapping, and at l = m(m+1), m(m+1) + 1,
  2m(m+1) and 2m(m+1) + 1, far above it;
* G2 at l = 1000.

`tests/matrix_digests.json` holds the digests, and `tests/test_matrix_digests.py`
compares them with the library's.  A change that must not move any matrix
leaves that file as it is.  Development only, standard library only.  Run
from anywhere:

    python tools/matrix_digests.py           # print the digests as json
    python tools/matrix_digests.py --write   # rewrite tests/matrix_digests.json
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = ROOT / "tests" / "matrix_digests.json"

sys.path.insert(0, str(ROOT / "src"))

from adamsops.ktheory import FAMILIES, FAMILY_TABLE, GroupSpec, adams_matrix  # noqa: E402


def _groups(ranks: range) -> list[GroupSpec]:
    """Every group of every family with n in `ranks`; G2 once, if its rank
    is among them."""
    out = []
    for name in FAMILIES:
        family = FAMILY_TABLE[name]
        if family.fixed_rank is not None:
            out += [GroupSpec(name)] if family.fixed_rank in ranks else []
        else:
            out += [GroupSpec(name, n) for n in ranks if n >= family.min_rank]
    return out


def grid() -> list[tuple[GroupSpec, int]]:
    """The (group, l) pairs pinned, in order; a pair may repeat."""
    pairs = [(g, l) for g in _groups(range(1, 26)) for l in (1, 2, 3, 4, 5, 7, 10, 50, 97)]
    pairs += [(g, l) for g in _groups(range(26, 41)) for l in (2, 50)]
    for g in _groups(range(1, 16)):
        m = FAMILY_TABLE[g.family].dimension(g.n)
        if m <= 15:
            edge = m * (m + 1)
            pairs += [(g, l) for l in (m + 1, m + 2, m + 3, edge, edge + 1, 2 * edge, 2 * edge + 1)]
    return pairs + [(GroupSpec("G2"), 1000)]


def key(group: GroupSpec, l: int) -> str:
    return f"{group} l={l}"


def digest(group: GroupSpec, l: int) -> str:
    entries = adams_matrix(group, l).entries
    return hashlib.sha256(repr(entries).encode()).hexdigest()[:16]


def digests() -> dict[str, str]:
    return {key(g, l): digest(g, l) for g, l in grid()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {DIGESTS.relative_to(ROOT)}")
    args = parser.parse_args()
    text = json.dumps(digests(), indent=1) + "\n"
    if args.write:
        DIGESTS.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
