"""In-memory span tracing of the library's public functions, from outside.

A `Tracer` swaps each traced function for a wrapper in every module
namespace that holds it (``mu_closed`` lives in both ``adamsops.counts`` and
``adamsops.ktheory``), records one span per call -- name, start, end, parent
span and operation id -- in compact arrays, and puts the originals back on
`uninstall`.  Self time is a span's duration minus the durations of its
direct children.  Nothing in the library changes.
"""

from __future__ import annotations

import functools
import json
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator

# The public functions wrapped, as "module:attribute" or "module:Class.method".
TARGETS = (
    "counts:mu_closed",
    "counts:mu_enumerate",
    "counts:alpha",
    "counts:beta",
    "exactmath:binomial",
    "exactmath:bernoulli_even",
    "exactmath:t_over_sinh_pow",
    "ktheory:adams_matrix",
    "ktheory:g2_adams_matrix",
    "ktheory:unitary_adams_matrix",
    "ktheory:special_unitary_adams_matrix",
    "ktheory:symplectic_adams_matrix",
    "ktheory:spin_odd_adams_matrix",
    "ktheory:spin_even_adams_matrix",
    "ktheory:g2_closed_columns",
    "ktheory:g2_wedge_square_closed_column",
    "ktheory:pullback_adams_matrix",
    "ktheory:reduction_table",
    "ktheory:basis",
    "ktheory:defining_dimension",
    "ktheory:AdamsMatrix.compose",
    "eigen:sinh_pow_coeff_poly",
    "eigen:eigenvector",
    "eigen:verify_eigen_relation",
    "eigen:eigenbasis_determinant",
    "eigen:char_poly",
    "eigen:family_exponents",
    "eigen:expected_char_poly",
    "eigen:spectrum_check",
    "symoracle:adams_symbolic_coefficients",
    "symoracle:complete_by_recursion",
    "symoracle:subset_power_expansion",
    "symoracle:symmetric_basis",
    "symoracle:conversion_matrices",
    "symoracle:bounded_composition_poly",
    "symoracle:verify_product_identity",
    "cli:main",
    "cli:counts_suite",
    "cli:matrices_suite",
    "cli:eigen_suite",
    "cli:oracle_suite",
)

PACKAGE = "adamsops"


def span_name(target: str) -> str:
    """'ktheory:AdamsMatrix.compose' -> 'ktheory.compose'."""
    module, attr = target.split(":")
    return f"{module}.{attr.rsplit('.', 1)[-1]}"


def self_times(
    start: Iterable[float], end: Iterable[float], parent: Iterable[int]
) -> list[float]:
    """Each span's duration minus the durations of its direct children.

    `parent[i]` is the index of span i's parent, or -1 for a root span;
    children never start before their parent.
    """
    duration = [e - s for s, e in zip(start, end)]
    out = list(duration)
    for i, p in enumerate(parent):
        if p >= 0:
            out[p] -= duration[i]
    return out


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.op_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}
        self.skipped: list[str] = []

    def __len__(self) -> int:
        return len(self.start)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.op_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        nid = self._intern(name)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(idx)

        return traced

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record one span around a block, for the benchmark's own
        boundaries such as one whole operation."""
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def install(self, targets: Iterable[str] = TARGETS) -> None:
        """Wrap every target in every loaded module of the package that
        holds it; a target that no longer exists is skipped and listed."""
        modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for target in targets:
            module_name, attr = target.split(":")
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None) if owner is not None else None
            if not callable(original):
                self.skipped.append(target)
                continue
            name = span_name(target)
            self.originals[name] = original
            wrapper = self.wrap(name, original)
            if path:  # a method: patch the class attribute only
                self._patch(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner: object, key: str, wrapper: Callable) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, key, original = self._undo.pop()
            setattr(owner, key, original)

    def self_times(self) -> list[float]:
        return self_times(self.start, self.end, self.parent)

    def totals(self) -> dict[str, tuple[int, float]]:
        """Per span name: (calls, summed self time in seconds)."""
        calls = [0] * len(self.names)
        busy = [0.0] * len(self.names)
        for nid, t in zip(self.name_id, self.self_times()):
            calls[nid] += 1
            busy[nid] += t
        return {name: (calls[i], busy[i]) for i, name in enumerate(self.names)}

    def write(self, stem: Path) -> None:
        """Write the spans as `<stem>.json` (names and layout) plus
        `<stem>.bin` (the five columns, one after another, native order)."""
        stem.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name_id", "start", "end", "parent", "op")
        header = {
            "spans": len(self),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
        }
        stem.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")
        with open(stem.with_suffix(".bin"), "wb") as fh:
            for c in columns:
                getattr(self, c).tofile(fh)


def read_spans(stem: Path) -> dict[str, list]:
    """Load what `Tracer.write` wrote: the names plus one list per column."""
    header = json.loads(stem.with_suffix(".json").read_text())
    out: dict[str, list] = {"names": header["names"]}
    with open(stem.with_suffix(".bin"), "rb") as fh:
        for column, code in header["columns"]:
            col = array(code)
            col.fromfile(fh, header["spans"])
            if header["byteorder"] != sys.byteorder:
                col.byteswap()
            out[column] = col.tolist()
    return out
