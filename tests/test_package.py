"""What the package exports, and what a command-line call imports."""

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import adamsops
import adamsops.counts as counts
import adamsops.eigen as eigen
import adamsops.exactmath as exactmath
import adamsops.ktheory as ktheory
import adamsops.symoracle as symoracle

# the names the package serves from a module imported on first use
LAZY = {name: module for module in (eigen, symoracle) for name in module.__all__}


def test_every_exported_name_resolves_to_its_module_object():
    assert set(LAZY) <= set(adamsops.__all__)
    for name in adamsops.__all__:
        value = getattr(adamsops, name)
        if name in LAZY:
            assert value is getattr(LAZY[name], name)
            # served on each access, never stored in the package namespace
            assert name not in vars(adamsops)


def test_every_lazy_name_is_exported_once_in_module_order():
    assert len(adamsops.__all__) == len(set(adamsops.__all__))
    lazy = adamsops.__all__[-len(LAZY):]
    assert lazy == eigen.__all__ + symoracle.__all__
    assert not set(lazy) & set(vars(adamsops))


@pytest.mark.parametrize("name", ["conversion_matrices", "subset_power_expansion"])
def test_the_removed_oracle_helpers_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(adamsops, name)
    assert not hasattr(symoracle, name)
    assert name not in dir(adamsops)


@pytest.mark.parametrize(
    "name",
    [
        "unitary_adams_matrix",
        "special_unitary_adams_matrix",
        "symplectic_adams_matrix",
        "spin_odd_adams_matrix",
        "spin_even_adams_matrix",
        "g2_adams_matrix",
    ],
)
def test_the_per_family_matrix_entries_are_gone(name):
    with pytest.raises(AttributeError):
        getattr(adamsops, name)
    assert not hasattr(ktheory, name)
    assert name not in ktheory.__all__


@pytest.mark.parametrize(
    "module, name",
    [
        (counts, "count_table"),
        (ktheory, "pullback_adams_matrix"),
        (ktheory, "g2_closed_columns"),
        (eigen, "verify_eigen_relation"),
        (eigen, "_is_eigenvector"),
        (eigen, "UniPoly"),
        (eigen, "TruncSeries"),
    ],
)
def test_the_retired_public_names_are_gone(module, name):
    with pytest.raises(AttributeError):
        getattr(adamsops, name)
    assert name not in adamsops.__all__
    assert name not in dir(adamsops)
    assert not hasattr(module, name)
    assert name not in module.__all__


def test_the_rational_series_module_is_gone():
    # its Bernoulli numbers and (t/sinh t)^y are served by `eigen`
    assert importlib.util.find_spec("adamsops.series") is None
    assert adamsops._LAZY["bernoulli_even"] == adamsops._LAZY["t_over_sinh_pow"] == "eigen"


def test_the_identity_test_method_is_gone():
    assert not hasattr(ktheory.AdamsMatrix, "is_identity")


def test_the_package_exports_each_module_list_as_written():
    assert adamsops.__all__ == [
        "__version__", *counts.__all__, *exactmath.__all__, *ktheory.__all__, *adamsops._LAZY
    ]


def test_dir_and_star_import_list_every_exported_name():
    assert set(adamsops.__all__) <= set(dir(adamsops))
    assert dir(adamsops) == sorted(dir(adamsops))
    namespace: dict = {}
    exec("from adamsops import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(adamsops.__all__)
    assert namespace["spectrum_check"] is eigen.spectrum_check
    assert namespace["SymPoly"] is symoracle.SymPoly


def test_an_unknown_name_raises_the_usual_error():
    with pytest.raises(AttributeError, match="^module 'adamsops' has no attribute 'no_such_name'$"):
        adamsops.no_such_name
    assert not hasattr(adamsops, "spectrum_chek")
    with pytest.raises(ImportError):
        exec("from adamsops import no_such_name", {})


def test_a_replaced_module_attribute_is_seen_through_the_package(monkeypatch):
    original = eigen.spectrum_check

    def patched(group, l):
        return original(group, l)

    monkeypatch.setattr(eigen, "spectrum_check", patched)
    monkeypatch.setattr(symoracle, "SymPoly", object)
    assert adamsops.spectrum_check is patched
    assert adamsops.SymPoly is object
    monkeypatch.undo()
    assert adamsops.spectrum_check is original is eigen.spectrum_check


# Run in a fresh interpreter: the modules `import adamsops.cli` adds, then
# the modules loaded up to the end of each command.  Modules the interpreter
# had loaded before the import do not count.  The commands come one per
# argument, split at spaces, and the result is printed as a Python literal,
# so that the script itself does not import `json`.
_FOOTPRINT = """
import sys
before = set(sys.modules)
from adamsops.cli import main
loaded = [[None, sorted(set(sys.modules) - before)]]
import contextlib, io
for command in sys.argv[1:]:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    loaded.append([code, sorted(set(sys.modules) - before)])
print(repr(loaded))
"""

# what no command may load at start-up
_LAZY_MODULES = {
    "fractions", "decimal", "json", "csv", "dataclasses", "inspect",
    "adamsops.suites", "adamsops.eigen", "adamsops.symoracle",
}


def _footprint(*commands):
    """Run the commands one after another in one fresh interpreter, check
    that `import adamsops.cli` loaded none of `_LAZY_MODULES`, and return
    (exit code, modules loaded so far) after each command."""
    src = str(Path(adamsops.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _FOOTPRINT, *commands],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    (_, imported), *after = ((code, set(modules)) for code, modules in ast.literal_eval(proc.stdout))
    assert "adamsops.cli" in imported
    assert not _LAZY_MODULES & imported, _LAZY_MODULES & imported
    return after


def test_a_command_imports_only_what_it_uses():
    commands = [
        "compute --group SpinOdd --rank 3 --l 3 --format json",
        "mu 4 3 2 2 --check",
        "verify --suite matrices --max-rank 2 --max-l 2",
        "eigen --rank 600",  # refused by the work cap before the import
        "eigen --rank 3 --l 2 --format csv",
        "verify --suite oracle --max-rank 2 --max-l 1",
    ]
    after = _footprint(*commands)
    assert [code for code, _ in after] == [0, 0, 0, 2, 0, 0]
    compute, mu, matrices, refused, eigen_csv, oracle = (modules for _, modules in after)
    assert "json" in compute
    assert not {"csv", "fractions", "decimal"} & compute
    for argv, modules in zip(commands[:2], (compute, mu)):
        assert "adamsops.suites" not in modules, argv
    assert "adamsops.suites" in matrices
    assert not {"fractions", "decimal"} & matrices
    for argv, modules in zip(commands[:4], (compute, mu, matrices, refused)):
        assert not {"adamsops.eigen", "adamsops.symoracle"} & modules, argv
    assert "adamsops.eigen" in eigen_csv
    assert "csv" not in eigen_csv  # csv lines are written without the csv module
    assert "adamsops.symoracle" not in eigen_csv
    assert "adamsops.symoracle" in oracle
    assert not {"dataclasses", "inspect"} & oracle


@pytest.mark.parametrize("family, fmt, loads", [
    ("U", "pretty", set()),
    ("Sp", "csv", set()),
    ("SpinEven", "json", {"json"}),
    ("G2", "pretty", set()),
])
def test_compute_loads_only_its_output_format(family, fmt, loads):
    [(code, modules)] = _footprint(f"compute --group {family} --rank 4 --l 3 --format {fmt}")
    assert code == 0
    assert modules & {"json", "csv", "fractions"} == loads
    assert not {"adamsops.suites", "adamsops.eigen"} & modules
