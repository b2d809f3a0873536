"""Exact integral-closure filtration toolkit for monomial and semigroup-ring ideals.

Importing the package loads no submodule: each name below is imported from
its module on first access, so a process compiles only the code it uses.
"""

from importlib import import_module

__version__ = "1.0.0"

_HOMES = {
    "errors": ("HorizonError", "InputError", "NormfiltError", "NotMPrimary",
               "PreconditionError", "UnsupportedDimension"),
    "filtration": ("fit_coefficients", "series_coeff"),
    "inputs": ("EntryData", "PolynomialBackend", "SemigroupBackend"),
    "analysis": ("analyze",),
    "theorems": ("CHECKS", "run_checks"),
}
_MODULE_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_MODULE_OF) + ["__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value
