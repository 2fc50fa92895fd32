"""Symbolic-numeric toolkit for a coupled Painleve-type system with
affine Weyl group symmetry of type D3(2).

The package encodes a five-dimensional polynomial flow together with its
birational symmetries, holomorphy charts, first integrals, Hamiltonian
reduction to dimension four and particular solutions, and certifies every
stated identity exactly over the rationals.  A floating-point integrator
confirms the same structure along trajectories.  The exports of the
integrator (``numeric``) and of the checks (``verify``) load on first use,
and so do those of the halves of ``models``, ``ring`` and ``weyl`` that the
set-up (the registry and the Weyl convention) never runs; each is read from
its module on every lookup.
"""

import importlib

from .models import load_map, load_model
from .ring import Poly, RatExpr, SymbolTable, exact_polynomial_quotient
from .weyl import apply_word_to_point, calibrate_convention, parameter_action

__version__ = "0.1.0"

_LAZY = {
    "load_integral": "models", "load_particular_solution": "models",
    "Derivation": "ring", "differentiate": "ring", "evaluate": "ring",
    "is_identically_zero": "ring", "jacobian_determinant": "ring", "substitute": "ring",
    "parse_word": "weyl", "translation_shift": "weyl", "verify_group_relations": "weyl",
    "dynamics_residual": "numeric", "integrate": "numeric",
    "invariant_drift": "numeric", "pushforward": "numeric",
    "first_integral_search": "verify", "run_scope": "verify",
}


def __getattr__(name: str):
    # not cached in the globals, so each lookup reads the home module's binding
    if name in _LAZY:
        return getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "Derivation",
    "Poly",
    "RatExpr",
    "SymbolTable",
    "apply_word_to_point",
    "calibrate_convention",
    "differentiate",
    "dynamics_residual",
    "evaluate",
    "exact_polynomial_quotient",
    "first_integral_search",
    "integrate",
    "invariant_drift",
    "is_identically_zero",
    "jacobian_determinant",
    "load_integral",
    "load_map",
    "load_model",
    "load_particular_solution",
    "parameter_action",
    "parse_word",
    "pushforward",
    "run_scope",
    "substitute",
    "translation_shift",
    "verify_group_relations",
]
