"""Exact Adams-operation matrices on primitive K-theory generators.

For each compact group in the supported families -- U(n), SU(n), Sp(n),
Spin(2n+1), Spin(2n) and G2 -- the operation psi^l acts on the stated
integral generators of the primitive part of K^*(G) by an integer matrix.
This package assembles those matrices exactly (arbitrary-precision
integers and rationals throughout), provides the rational eigenvector
basis for the unitary case and, by restriction, an integer eigenbasis for
every family, and ships independent brute-force oracles
against which every closed form is cross-checked.
"""

from . import counts, exactmath, ktheory
from .counts import *
from .exactmath import *
from .ktheory import *

__version__ = "0.1.0"

# The names of `series`, `eigen` and `symoracle` are served on first use
# (PEP 562): each command-line call pays for every module it imports, and
# `compute` and `mu` use none of them (`series` also brings `fractions` and
# `decimal`).  They are looked up in their module on every access, never
# stored here, so a replaced module attribute is the one returned.
_LAZY = dict.fromkeys(
    ("bernoulli_even", "UniPoly", "TruncSeries", "t_over_sinh_pow"),
    "series",
) | dict.fromkeys(
    (
        "sinh_pow_coeff_poly",
        "Eigenvector",
        "eigenvector",
        "eigenbasis_determinant",
        "Eigenbasis",
        "eigenbasis",
        "char_poly",
        "family_exponents",
        "expected_char_poly",
        "SpectrumReport",
        "spectrum_check",
    ),
    "eigen",
) | dict.fromkeys(
    (
        "SymPoly",
        "symmetric_basis",
        "complete_by_recursion",
        "adams_symbolic_coefficients",
        "bounded_composition_poly",
        "verify_product_identity",
    ),
    "symoracle",
)

__all__ = ["__version__", *counts.__all__, *exactmath.__all__, *ktheory.__all__, *_LAZY]


def __getattr__(name: str) -> object:
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))
