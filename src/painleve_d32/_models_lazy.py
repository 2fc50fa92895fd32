"""The half of the registry that the set-up never runs.

The integral, divisor and solution loaders, the flow derivation of a
system, a map's pull-back bindings (the parameters' images among them),
and the canonical text dump of the whole registry (:func:`dump_models`)
live here; only the dump renders, so :mod:`.syntax` loads with this module.
:mod:`.models` serves whatever this module defines, binding each name in
its own namespace on its first lookup there, so ``models.dump_models`` and
``from .models import load_integral`` keep working, and
``VectorFieldSystem.flow`` and ``BirationalMap.pullback_bindings`` reach
their bodies here through it.
"""

from __future__ import annotations

from . import ring
from .models import (
    DISPUTED_MAP_IDS,
    INTEGRAL_IDS,
    MAP_IDS,
    SOLUTION_IDS,
    SYSTEM_IDS,
    BirationalMap,
    DarbouxPolynomial,
    FirstIntegral,
    ParticularSolution,
    UnknownModelError,
    VectorFieldSystem,
    _registry,
)
from .ring import RatExpr, SymbolTable, has_relation_symbols
from .syntax import render_ratexpr

# -- the bodies of the records' methods -----------------------------------------------


def _flow(system: VectorFieldSystem) -> ring.Derivation:
    rules: dict[str, object] = dict(system.rhs)
    rules[system.indep] = 1
    return ring.Derivation(system.table, rules)


def _pullback_bindings(
    bmap: BirationalMap, source_table: SymbolTable, target_table: SymbolTable
) -> dict[str, RatExpr]:
    bindings: dict[str, RatExpr] = dict(bmap.var_map)
    params = [RatExpr.sym(source_table, name) for name in bmap.param_names]
    bindings.update(zip(bmap.param_names, bmap.action.apply(params)))
    if "eta" in target_table:
        bindings["eta"] = bmap.action.eta_sign * RatExpr.sym(source_table, "eta")
    indep = target_table.indep_name
    if indep is not None and indep in source_table:
        bindings[indep] = bmap.action.indep_sign * RatExpr.sym(source_table, indep)
    return bindings


# -- loaders ------------------------------------------------------------------------------


def load_integral(integral_id: str) -> FirstIntegral:
    reg = _registry()
    if integral_id not in reg.integrals:
        raise UnknownModelError(f"unknown integral id {integral_id!r}")
    return reg.integrals[integral_id]


def load_divisor() -> DarbouxPolynomial:
    """The Darboux polynomial y of five_dim: D(y) = (x*w + z*q - 1)*y + alpha1*w*q."""
    return _registry().divisor


def load_particular_solution(solution_id: str) -> ParticularSolution:
    reg = _registry()
    if solution_id not in reg.solutions:
        raise UnknownModelError(f"unknown solution id {solution_id!r}")
    return reg.solutions[solution_id]


# -- serialization ----------------------------------------------------------------------


def _render_symbols(table: SymbolTable) -> str:
    return " ".join(f"{n}:{k}" for n, k in zip(table.symbols, table.kinds))


def _dump_system(sys_obj: VectorFieldSystem) -> list[str]:
    lines = [f"[system {sys_obj.id}]"]
    lines.append(f"symbols: {_render_symbols(sys_obj.table)}")
    normalized = has_relation_symbols(sys_obj.table)
    lines.append(f"relation: {'alpha0+alpha1+alpha2=1' if normalized else 'none'}")
    for name in sys_obj.state:
        lines.append(f"rhs {name}: {render_ratexpr(sys_obj.rhs[name])}")
    if sys_obj.hamiltonian is not None:
        lines.append(f"hamiltonian: {render_ratexpr(sys_obj.hamiltonian.expr)}")
        lines.append(
            "pairing: "
            + " ".join(f"{c}:{p}" for c, p in sys_obj.hamiltonian.pairing)
        )
    lines.append(f"singular_at_zero_indep: {str(sys_obj.singular_at_zero_indep).lower()}")
    lines.append("[end]")
    return lines


def _dump_map(m: BirationalMap) -> list[str]:
    lines = [f"[map {m.id} variant={m.variant}]"]
    lines.append(f"context: {m.context or 'none'}")
    lines.append(f"source: {m.source}")
    lines.append(f"target: {m.target}")
    lines.append(f"symbols: {_render_symbols(m.table)}")
    for name in sorted(m.var_map):
        lines.append(f"vars {name}: {render_ratexpr(m.var_map[name])}")
    lines.append(f"params: {' '.join(m.param_names)}")
    a = m.action
    lines.append(
        "matrix: " + " / ".join(" ".join(str(c) for c in row) for row in a.matrix)
    )
    lines.append("offset: " + " ".join(str(c) for c in a.offset))
    lines.append(f"eta_sign: {a.eta_sign}")
    lines.append(f"indep_sign: {a.indep_sign}")
    lines.append("[end]")
    return lines


def dump_models() -> str:
    """Serialize the whole registry to the canonical structured text form."""
    reg = _registry()
    lines: list[str] = []
    for sid in SYSTEM_IDS:
        lines.extend(_dump_system(reg.systems[sid]))
    for mid in MAP_IDS:
        variants = ["printed", "corrected"] if mid in DISPUTED_MAP_IDS else ["printed"]
        for variant in variants:
            m = reg.maps[(mid, variant)]
            lines.extend(_dump_map(m))
    for iid in INTEGRAL_IDS:
        integral = reg.integrals[iid]
        lines.append(f"[integral {integral.id}]")
        lines.append(f"system: {integral.system_id}")
        lines.append(f"symbols: {_render_symbols(reg.systems[integral.system_id].table)}")
        lines.append(f"lambda: {integral.lam}")
        lines.append(f"expr: {render_ratexpr(integral.expr)}")
        lines.append("[end]")
    for pid in SOLUTION_IDS:
        sol = reg.solutions[pid]
        lines.append(f"[solution {sol.id}]")
        lines.append(f"system: {sol.system_id}")
        lines.append(f"symbols: {_render_symbols(sol.table)}")
        for name in sorted(sol.bindings):
            lines.append(f"binding {name}: {render_ratexpr(sol.bindings[name])}")
        for name in sorted(sol.rules):
            lines.append(f"rule {name}: {render_ratexpr(sol.rules[name])}")
        for name in sorted(sol.param_bindings):
            lines.append(f"param {name}: {render_ratexpr(sol.param_bindings[name])}")
        lines.append("[end]")
    return "\n".join(lines) + "\n"
