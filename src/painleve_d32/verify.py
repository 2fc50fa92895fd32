"""Reduce every claimed identity to an exact polynomial statement and certify it.

Each check returns a :class:`VerificationReport`: a pass verdict is always
backed by identically-zero residuals, never by sampling.  Each residual
numerator is reduced once by the parameter normalization alpha0 + alpha1 +
alpha2 = 1, which applies wherever its table carries all three alphas.
A failing residual is reported as its reduced numerator, with a rational
witness point where it is nonzero or else the number of points tried.

The suite is the table :data:`SUITE`, one row (scope, check id, check, *args)
per check, and a new check is a new row.  Scopes, dispute resolutions, the
raw variant checks of :func:`run_scope` and its selection by map are all
derived from the rows.  The symmetries, the 5d -> 4d reduction and the two
second-order forms are registry maps and share one map residual
D(phi_i)/D(tau) - F_i(pullback), tau the map's image of time, along a flow
derived from the map's own data; the reduction's exponential generator s is
a symbol with the rule dS/dt = -s.
"""

from __future__ import annotations

import heapq
import math
import operator
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from itertools import chain
from typing import Any, Callable, Iterable, Optional, Sequence, Sized, Union

from . import models
from .models import (
    BirationalMap,
    FirstIntegral,
    VectorFieldSystem,
    load_integral,
    load_map,
    load_model,
    load_particular_solution,
)
from .ring import (
    Derivation,
    Poly,
    RatExpr,
    RingError,
    SingularSubstitutionError,
    SymbolTable,
    differentiate,
    exact_polynomial_quotient,
    has_relation_symbols,
    jacobian_determinant,
    reduce_relation,
    substitute,
    substitute_poly,
    syms,
)
from .syntax import render_poly, render_ratexpr

WITNESS_SEED = 0xD32
WITNESS_ATTEMPTS = 400

# the point mod p at which a search eliminates its integer cells
RANK_SEED = 0xD32
RANK_PRIME = 2**61 - 1


class CapacityError(Exception):
    """A search bound exceeded the configured monomial cap."""


@dataclass
class VerificationReport:
    """Structured outcome of one identity check."""

    check_id: str
    status: str  # "pass" | "fail"
    residuals: list[tuple[str, str]] = field(default_factory=list)
    witness_point: Optional[dict[str, Fraction]] = None
    duration_ms: float = 0.0
    detail: str = ""
    sampled: bool = False
    seed: Optional[int] = None

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def to_record(self) -> dict:
        witness = (
            {k: str(v) for k, v in self.witness_point.items()}
            if self.witness_point
            else None
        )
        return {
            "check_id": self.check_id,
            "status": self.status,
            "residuals": [list(r) for r in self.residuals],
            "witness": witness,
            "detail": self.detail,
            "sampled": self.sampled,
            "seed": self.seed,
            "millis": round(self.duration_ms, 3),
        }

    def format_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f"  [{self.detail}]" if self.detail else ""
        return f"{self.check_id:<42} {mark}  {self.duration_ms:8.1f} ms{extra}"


class _Timer:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.ms = (time.perf_counter() - self.t0) * 1000.0
        return False


def _find_witness(num: Poly, den: Poly) -> Optional[dict[str, Fraction]]:
    """Small rational point where ``num`` is nonzero, on the normalization."""
    names = set(num.occurring_names()) | set(den.occurring_names())
    normalized = has_relation_symbols(num.table)
    if normalized:
        names |= {"alpha0", "alpha2"}
        names.discard("alpha1")
    rng = random.Random(WITNESS_SEED)
    ordered = sorted(names)
    for _ in range(WITNESS_ATTEMPTS):
        point = {
            n: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for n in ordered
        }
        if normalized:
            point["alpha1"] = 1 - point["alpha0"] - point["alpha2"]
        try:
            if num.evaluate(point) != 0 and den.evaluate(point) != 0:
                return {n: point[n] for n in sorted(point)}
        except RingError:
            continue
    return None


def _finish(
    check_id: str,
    entries: list[tuple[str, RatExpr]],
    timer: _Timer,
    detail: str = "",
) -> VerificationReport:
    residuals: list[tuple[str, str]] = []
    witness = None
    failing = 0
    for label, resid in entries:
        num = reduce_relation(resid.num)
        if num.is_zero:
            residuals.append((label, "zero"))
            continue
        failing += 1
        residuals.append((label, render_poly(num)))
        if witness is None:
            witness = _find_witness(num, resid.den)
    if failing and witness is None:
        tried = f"no witness in {failing * WITNESS_ATTEMPTS} attempts"
        detail = f"{detail}; {tried}" if detail else tried
    return VerificationReport(
        check_id=check_id,
        status="fail" if failing else "pass",
        residuals=residuals,
        witness_point=witness,
        duration_ms=timer.ms,
        detail=detail,
    )


# -- degree / polynomiality -----------------------------------------------------


def check_vector_field_degree(
    system_id: str, expected: Optional[int] = None
) -> VerificationReport:
    """Total state-degree of the right-hand sides (they must be polynomial)."""
    sys_obj = load_model(system_id)
    with _Timer() as tm:
        degrees = {}
        for name in sys_obj.state:
            rhs = sys_obj.rhs[name]
            for sname in sys_obj.state:
                if rhs.den.involves(sname):
                    raise ValueError(
                        f"rhs of {name!r} in {system_id!r} is not polynomial in the state"
                    )
            degrees[name] = rhs.num.total_degree(sys_obj.state)
        max_deg = max(degrees.values())
        ok = expected is None or max_deg == expected
    return VerificationReport(
        check_id=f"degree:{system_id}",
        status="pass" if ok else "fail",
        residuals=[(n, f"degree {d}") for n, d in degrees.items()],
        duration_ms=tm.ms,
        detail=f"max state degree {max_deg}"
        + (f", expected {expected}" if expected is not None else ""),
    )


# -- symmetry --------------------------------------------------------------------


def _symmetry_residuals(
    flow: Derivation, target: VectorFieldSystem, bmap: BirationalMap
) -> list[tuple[str, RatExpr]]:
    """The map residuals D(phi_i)/D(tau) - F_i(pullback), one per target state.

    ``flow`` is the source flow over the map's table, and tau is the map's
    image of the target's time, read from the pullback bindings.
    """
    bindings = bmap.pullback_bindings(flow.table, target.table)
    rate = differentiate(bindings[target.indep], flow)
    entries = []
    for name in target.state:
        lhs = differentiate(bmap.var_map[name], flow) / rate
        rhs = substitute(target.rhs[name], bindings, table=flow.table)
        entries.append((name, lhs - rhs))
    return entries


def _map_residuals(bmap: BirationalMap) -> list[tuple[str, RatExpr]]:
    """The map residuals of ``bmap`` along the flow it is certified against.

    That flow comes from the map's own data: the source flow, restricted by
    the ``eliminated`` bindings onto the map's table and extended by the
    generator ``rules``.
    """
    source = load_model(bmap.source)
    rules = {
        n: substitute(source.rhs[n], bmap.eliminated, table=bmap.table)
        for n in source.state if n not in bmap.eliminated
    }
    flow = Derivation(bmap.table, {**rules, **bmap.rules, source.indep: 1})
    return _symmetry_residuals(flow, load_model(bmap.target), bmap)


def check_symmetry(
    system_id: str, map_id: str, variant: str = "printed"
) -> VerificationReport:
    """Does the map send solutions to solutions of the transformed system?

    For each target component the residual is
    ``d(phi_i)/d(sign*u) - F_i(phi(X), sign*u; transformed parameters)``
    which must vanish identically on the parameter normalization.
    """
    bmap = load_map(map_id, variant)
    if bmap.source != system_id:
        raise ValueError(f"map {map_id!r} does not act on system {system_id!r}")
    check_id = f"symmetry:{system_id}:{map_id}"
    if map_id in models.DISPUTED_MAP_IDS:
        check_id += f":{variant}"
    with _Timer() as tm:
        try:
            entries = _map_residuals(bmap)
        except SingularSubstitutionError as exc:
            return VerificationReport(
                check_id=check_id,
                status="fail",
                residuals=[("composition", "singular")],
                duration_ms=tm.ms,
                detail=f"singular composition: {exc}",
            )
    return _finish(check_id, entries, tm)


# -- first integrals ----------------------------------------------------------------


def check_integral_expr(
    system_id: str, expr: RatExpr, lam: Fraction, label: str = "custom"
) -> VerificationReport:
    """Residual D(expr) - lam*expr along the flow of the system."""
    sys_obj = load_model(system_id)
    with _Timer() as tm:
        resid = differentiate(expr, sys_obj.flow()) - lam * expr
    return _finish(
        f"integral:{system_id}:{label}", [("eigen", resid)], tm,
        detail=f"lambda={lam}",
    )


def check_first_integral(system_id: str, integral_id: str) -> VerificationReport:
    integral = load_integral(integral_id)
    if integral.system_id != system_id:
        raise ValueError(
            f"integral {integral_id!r} belongs to {integral.system_id!r}"
        )
    return check_integral_expr(system_id, integral.expr, integral.lam, integral_id)


# -- charts ----------------------------------------------------------------------------


def _chart_corrections(
    sys_obj: VectorFieldSystem, bmap: BirationalMap
) -> dict[str, RatExpr]:
    """Correction terms of a structurally triangular chart (new = old + corr)."""
    table = sys_obj.table
    corrections = {}
    changed = set()
    for name in sys_obj.state:
        corr = bmap.var_map[name] - RatExpr.sym(table, name)
        corrections[name] = corr
        if not corr.is_zero:
            changed.add(name)
    for name, corr in corrections.items():
        used = set(corr.num.occurring_names()) | set(corr.den.occurring_names())
        bad = used & (changed | {name})
        if bad:
            raise ValueError(
                f"chart {bmap.id!r} is not triangular: correction of {name!r} "
                f"involves changed symbols {sorted(bad)}"
            )
    return corrections


def check_chart(
    system_id: str, chart_id: str, variant: str = "printed"
) -> VerificationReport:
    """Holomorphy chart check: exact inverse, unit Jacobian, polynomial field.

    (a) negating the corrections inverts the chart exactly, (b) the Jacobian
    determinant is 1, and (c) the vector field written in chart coordinates
    has an exactly polynomial right-hand side on the parameter normalization.
    """
    bmap = load_map(chart_id, variant)
    if bmap.source != system_id:
        raise ValueError(f"chart {chart_id!r} does not act on {system_id!r}")
    sys_obj = load_model(system_id)
    table = sys_obj.table
    check_id = f"chart:{system_id}:{chart_id}"
    if chart_id in models.DISPUTED_MAP_IDS:
        check_id += f":{variant}"
    with _Timer() as tm:
        corrections = _chart_corrections(sys_obj, bmap)
        inverse = {
            name: RatExpr.sym(table, name) - corrections[name]
            for name in sys_obj.state
        }
        entries: list[tuple[str, RatExpr]] = []
        forward = {n: bmap.var_map[n] for n in sys_obj.state}
        for name in sys_obj.state:
            composed = substitute(inverse[name], forward)
            entries.append((f"inverse:{name}", composed - RatExpr.sym(table, name)))
        jac = jacobian_determinant(
            [bmap.var_map[n] for n in sys_obj.state], list(sys_obj.state)
        )
        entries.append(("jacobian", jac - 1))

        flow = sys_obj.flow()
        poly_labels: list[tuple[str, str]] = []
        poly_ok = True
        for name in sys_obj.state:
            transported = differentiate(bmap.var_map[name], flow)
            in_chart = substitute(transported, inverse)
            num = reduce_relation(in_chart.num)
            quotient = exact_polynomial_quotient(num, in_chart.den)
            if quotient is None:
                poly_ok = False
                poly_labels.append(
                    (f"polynomial:{name}", render_ratexpr(RatExpr(num, in_chart.den)))
                )
            else:
                poly_labels.append((f"polynomial:{name}", "zero"))
    report = _finish(check_id, entries, tm)
    report.residuals.extend(poly_labels)
    if not poly_ok:
        report.status = "fail"
        report.detail = (report.detail + " non-polynomial rhs in chart").strip()
    return report


# -- Hamiltonian structure ----------------------------------------------------------


def check_hamiltonian_consistency(system_id: str) -> VerificationReport:
    """rhs equals the signed partials of the stored Hamiltonian.

    For the coupled system the Hamiltonian must additionally decompose as
    K1 + K2 - p1*p2/s with the principal parts as stored for the subsystems.
    """
    sys_obj = load_model(system_id)
    if sys_obj.hamiltonian is None:
        raise ValueError(f"system {system_id!r} carries no Hamiltonian")
    table = sys_obj.table
    H = sys_obj.hamiltonian.expr
    with _Timer() as tm:
        entries = []
        for coord, mom in sys_obj.hamiltonian.pairing:
            dH_dmom = Derivation(table, {mom: 1}).of(H)
            dH_dcoord = Derivation(table, {coord: 1}).of(H)
            entries.append((f"d{coord}", sys_obj.rhs[coord] - dH_dmom))
            entries.append((f"d{mom}", sys_obj.rhs[mom] + dH_dcoord))
        if system_id == "ham_4d":
            k1 = load_model("K1_sys").hamiltonian.expr
            k2 = load_model("K2_sys").hamiltonian.expr
            a1, a2, p1, p2, s = syms(table, "alpha1 alpha2 p1 p2 s")
            ident = {n: RatExpr.sym(table, n) for n in ("q1", "p1", "q2", "p2",
                                                        "s", "eta")}
            k1_part = substitute(k1, {**ident, "alpha": a2}, table=table)
            k2_part = substitute(k2, {**ident, "alpha": a1 + a2}, table=table)
            composed = k1_part + k2_part - p1 * p2 / s
            entries.append(("composition", H - composed))
    return _finish(f"hamiltonian:{system_id}", entries, tm)


# -- dimension reduction ---------------------------------------------------------------


def check_reduction_5d_to_4d(map_id: str) -> VerificationReport:
    """Eliminating y on the integral and rescaling time yields the 4d system.

    The map binds y to w*q + s, and its generator s follows dS/dt = -s, the
    new time of the map residual.
    """
    with _Timer() as tm:
        entries = _map_residuals(load_map(map_id))
    return _finish("reduction:5d_to_4d", entries, tm)


# -- second order forms ------------------------------------------------------------------


def check_second_order_forms(*map_ids: str) -> VerificationReport:
    """The scalar second-order forms obtained by eliminating the conjugates.

    Each map sends a position to itself and its velocity to the source's
    right-hand side; the map residuals are labelled ``<map>:<state>``.
    """
    if not map_ids:
        raise ValueError("second-order forms need at least one map")
    with _Timer() as tm:
        entries = [
            (f"{map_id}:{name}", resid)
            for map_id in map_ids
            for name, resid in _map_residuals(load_map(map_id))
        ]
    return _finish("second_order_forms", entries, tm)


# -- particular solutions ---------------------------------------------------------------


def check_particular_solution(solution_id: str) -> VerificationReport:
    """D(binding) equals the rhs evaluated on the bindings, symbol by symbol."""
    sol = load_particular_solution(solution_id)
    target = load_model(sol.system_id)
    missing = [n for n in target.state if n not in sol.bindings]
    if missing:
        raise ValueError(f"solution {solution_id!r} misses bindings for {missing}")
    with _Timer() as tm:
        deriv = Derivation(sol.table, sol.rules)
        bindings = dict(sol.bindings)
        bindings.update(sol.param_bindings)
        entries = []
        for name in target.state:
            lhs = deriv.of(sol.bindings[name])
            rhs = substitute(target.rhs[name], bindings, table=sol.table)
            entries.append((name, lhs - rhs))
    return _finish(
        f"solution:{solution_id}", entries, tm,
        detail=f"system {sol.system_id}",
    )


# -- invariant divisor --------------------------------------------------------------------


def check_invariant_divisor() -> VerificationReport:
    """y = 0 is flow-invariant exactly when alpha1 = 0.

    Also certifies that the four-variable reduced system is the restriction
    of the full system to y = 0, alpha1 = 0, component by component.
    """
    five = load_model("five_dim")
    T5 = five.table
    reduced = load_model("reduced_alpha1_zero")
    with _Timer() as tm:
        f_y = five.rhs["y"]
        num_zero = substitute_poly(f_y.num, {"alpha1": 0}).as_poly()
        y_poly = Poly.var(T5, "y")
        quotient = exact_polynomial_quotient(num_zero, y_poly)
        x, z, w, q = syms(T5, "x z w q")
        expected_quotient = (x * w + z * q - 1).num
        entries: list[tuple[str, RatExpr]] = []
        if quotient is None:
            entries.append(("alpha1_zero_divisible", f_y))
        else:
            entries.append(
                ("alpha1_zero_divisible", RatExpr(quotient - expected_quotient))
            )
        free_quotient = exact_polynomial_quotient(f_y.num, y_poly)
        free_ok = free_quotient is None
        for name in reduced.state:
            restricted = substitute(five.rhs[name], {"y": 0, "alpha1": 0})
            expected = substitute(
                reduced.rhs[name],
                {n: RatExpr.sym(T5, n) for n in reduced.table.symbols},
                table=T5,
            )
            entries.append((f"restriction:{name}", restricted - expected))
    report = _finish("invariant_divisor", entries, tm)
    label = "alpha1_free_not_divisible"
    if free_ok:
        report.residuals.append((label, "zero"))
    else:
        report.residuals.append((label, "unexpectedly divisible"))
        report.status = "fail"
    if quotient is not None:
        report.detail = f"quotient {render_poly(quotient)}"
    return report


# -- dispute resolution ------------------------------------------------------------------


def resolve_disputed(map_id: str) -> VerificationReport:
    """Run both variants of a disputed object; exactly one must verify.

    The check and its arguments come from the map's row of :data:`SUITE`.
    """
    if map_id not in models.DISPUTED_MAP_IDS:
        raise ValueError(f"map {map_id!r} is not disputed")
    check, args = next((check, args) for _, _, check, *args in SUITE if map_id in args)
    with _Timer() as tm:
        printed = check(*args, "printed")
        corrected = check(*args, "corrected")
    winners = [v for v, r in (("printed", printed), ("corrected", corrected)) if r.passed]
    ok = len(winners) == 1
    detail = (
        f"resolved variant: {winners[0]}" if ok
        else f"ambiguous resolution: {winners or 'neither variant verifies'}"
    )
    return VerificationReport(
        check_id=f"resolve:{map_id}",
        status="pass" if ok else "fail",
        residuals=[
            ("printed", "pass" if printed.passed else "fail"),
            ("corrected", "pass" if corrected.passed else "fail"),
        ],
        witness_point=printed.witness_point if not printed.passed else None,
        duration_ms=tm.ms,
        detail=detail,
    )


# -- first integral search -----------------------------------------------------------------


def _state_indep_monomials(
    table: SymbolTable, state: Sequence[str], indep: str,
    state_bound: int, indep_bound: int,
) -> list[tuple[int, ...]]:
    """All monomials with state total degree and indep degree within bounds."""
    state_idx = [table.index(n) for n in state]
    indep_idx = table.index(indep)
    monos: list[tuple[int, ...]] = []

    def rec(pos: int, remaining: int, current: list[int]) -> None:
        if pos == len(state_idx):
            for j in range(indep_bound + 1):
                mono = [0] * len(table)
                for idx, e in zip(state_idx, current):
                    mono[idx] = e
                mono[indep_idx] = j
                monos.append(tuple(mono))
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, current + [e])

    rec(0, state_bound, [])
    monos.sort(key=lambda m: (sum(m), m))
    return monos


def _point_images(table: SymbolTable) -> Callable[[Poly], Optional[int]]:
    """The image of a polynomial at the seeded point of Z/p.

    Every symbol gets a random nonzero residue.  Where no coefficient
    denominator is divisible by p, taking the image is a ring homomorphism
    on polynomials, so a nonzero minor mod p is the image of a nonzero minor
    over Q(params).  The image is None when a coefficient denominator is
    divisible by p.
    """
    rng = random.Random(RANK_SEED)
    point = [rng.randrange(1, RANK_PRIME) for _ in range(len(table))]
    powers: dict = {}
    return lambda poly: poly.residue(point, RANK_PRIME, powers)


class _Lines:
    """Rows or columns bucketed by their number of live entries."""

    def __init__(self, lines: dict[int, Sized]):
        self.count: dict[int, int] = {}
        self.buckets: dict[int, set[int]] = {}
        for i, line in lines.items():
            self.update(i, len(line))

    def update(self, i: int, n: int) -> None:
        old = self.count.pop(i, 0)
        if old:
            self.buckets[old].discard(i)
        if n:
            self.count[i] = n
            self.buckets.setdefault(n, set()).add(i)


def _markowitz(
    live: dict[int, dict], cols: dict[int, set[int]],
    row_lines: _Lines, col_lines: _Lines, weight: Optional[Callable],
) -> tuple[int, int]:
    """The live entry of least fill bound (row count - 1)*(column count - 1).

    Columns and rows are scanned by increasing count k: an entry not yet seen
    lies in a row and a column of count at least k, so it costs at least
    (k - 1)^2, which ends the scan.  Ties go to the least ``weight``; without
    one, the first entry that meets the bound is taken.
    """
    best: Optional[tuple] = None
    rcount, ccount = row_lines.count, col_lines.count
    for k in sorted(col_lines.buckets.keys() | row_lines.buckets.keys()):
        floor = (k - 1) ** 2
        if best is not None and best[0] <= floor:
            break
        cells = chain(
            ((r, c, rcount[r]) for c in col_lines.buckets.get(k, ()) for r in cols[c]),
            ((r, c, ccount[c]) for r in row_lines.buckets.get(k, ()) for c in live[r]),
        )
        for r, c, other in cells:
            cost = (k - 1) * (other - 1)
            if weight is None and cost == floor:
                return r, c
            if best is None or cost <= best[0]:
                key = (cost, weight(live[r][c]) if weight else 0, r, c)
                best = key if best is None else min(best, key)
    return best[2], best[3]


def _eliminate(
    rows: list[dict],
    reduce: Callable,
    inverse: Callable,
    weight: Optional[Callable] = None,
    replay: Iterable[tuple[int, int]] = (),
) -> list[tuple[int, int, dict]]:
    """Sparse elimination in one field; the pivots in order.

    Each pivot (row, column) eliminates its column from every other live
    row; ``reduce`` maps a computed entry to its canonical form, or to None
    when it vanishes, and ``inverse`` inverts a pivot.  Pivots come from
    ``replay`` while it lasts, then from :func:`_markowitz`, until no live
    entry remains.  Each pivot is returned with its row as it stood when it
    was chosen: an upper triangular factor whose free columns span the
    kernel.
    """
    live = {r: dict(row) for r, row in enumerate(rows) if row}
    cols: dict[int, set[int]] = {}
    for r, row in live.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    row_lines, col_lines = _Lines(live), _Lines(cols)
    pivots = []
    replay = iter(replay)
    while cols:
        step = next(replay, None)
        r, c = step or _markowitz(live, cols, row_lines, col_lines, weight)
        prow = live.pop(r)
        if c not in prow:
            raise RingError(f"replayed pivot ({r}, {c}) vanished in exact arithmetic")
        row_lines.update(r, 0)
        for j in prow:
            cols[j].discard(r)
        inv = inverse(prow[c])
        others = [j for j in prow if j != c]
        for s in cols.pop(c):
            srow = live[s]
            _subtract(srow, reduce(srow.pop(c) * inv), prow, c, reduce)
            for j in others:
                if j in srow:
                    cols[j].add(s)
                else:
                    cols[j].discard(s)
            row_lines.update(s, len(srow))
        col_lines.update(c, 0)
        for j in others:
            col_lines.update(j, len(cols[j]))
            if not cols[j]:
                del cols[j]
        pivots.append((r, c, prow))
    return pivots


def _eliminate_mod_p(rows: list[dict[int, int]]) -> list[tuple[int, int, dict]]:
    """:func:`_eliminate` over Z/p: its pivots, as many as the rank mod p."""
    p = RANK_PRIME
    return _eliminate(rows, lambda v: v % p or None, lambda v: pow(v, -1, p))


def _subtract(row: dict, factor, prow: dict, skip: int, reduce: Callable) -> None:
    """row -= factor*prow in place, over the columns of prow but ``skip``."""
    for j, v in prow.items():
        if j != skip:
            old = row.get(j)
            new = reduce(-(factor * v) if old is None else old - factor * v)
            if new is None:
                row.pop(j, None)
            else:
                row[j] = new


# an exact entry of the elimination over Q(params): a Fraction when it is
# parameter-free, else a RatExpr; the two mix freely in the arithmetic
_Exact = Union[Fraction, RatExpr]


def _exact(e: _Exact) -> Optional[_Exact]:
    """The canonical form of an exact entry, or None when it vanishes."""
    if not isinstance(e, RatExpr):
        return e or None
    if e.is_zero:
        return None
    if e.num.is_const and e.den.is_const:
        return e.num.const_value() / e.den.const_value()
    return e


def _simplicity(e: _Exact) -> tuple[int, int]:
    # parameter-free entries first, then fewer terms
    if isinstance(e, RatExpr):
        return 1, len(e.num.terms) + len(e.den.terms)
    return 0, 1


def _total(terms: list[_Exact]) -> Optional[_Exact]:
    """The canonical form of the sum, or None when it vanishes."""
    return _exact(sum(terms[1:], terms[0])) if terms else None


def _nullspace(
    rows: list[dict[int, Poly]], ncols: int, one: RatExpr,
    replay: Iterable[tuple[int, int]],
) -> list[dict[int, RatExpr]]:
    """Exact nullspace of a sparse matrix over the parameter function field.

    The entries are polynomials in the parameters.  The pivots ``replay``
    names, (row index, column) pairs of an elimination of the same rows at a
    point mod p, are taken first over Q(params) (each is nonzero there,
    since its image mod p is); any row still live afterwards is eliminated
    exactly in the same loop.  Back-substitution gives one vector per free
    column; they are brought to the reduced form Gauss-Jordan returns.
    Every vector is then plugged back into the rows: C*v = 0 exactly bounds
    the kernel dimension from below, the elimination bounds it from above,
    and a failed plug-back raises :class:`RingError`.
    """
    exact = [
        {c: v.const_value() if v.is_const else RatExpr(v)
         for c, v in row.items() if not v.is_zero}
        for row in rows
    ]
    pivots = _eliminate(exact, _exact, lambda v: 1 / v, _simplicity, replay)
    basis = _reduced(_back_substitute(pivots, ncols))
    for vec in basis:
        for row in exact:
            if _total([v * vec[c] for c, v in row.items() if c in vec]) is not None:
                raise RingError("a kernel vector failed the plug-back certificate")
    return [
        {c: v if isinstance(v, RatExpr) else RatExpr.const(one.table, v)
         for c, v in vec.items()}
        for vec in basis
    ]


def _back_substitute(
    pivots: list[tuple[int, int, dict]], ncols: int
) -> list[dict[int, _Exact]]:
    """One kernel vector per free column: one there, zero on the others."""
    pivot_cols = {c for _, c, _ in pivots}
    basis = []
    for f in range(ncols):
        if f in pivot_cols:
            continue
        vec: dict[int, _Exact] = {f: Fraction(1)}
        for _, c, prow in reversed(pivots):
            total = _total([v * vec[j] for j, v in prow.items() if j != c and j in vec])
            if total is not None:
                vec[c] = _exact(-total / prow[c])
        basis.append(vec)
    return basis


def _reduced(basis: list[dict[int, _Exact]]) -> list[dict[int, _Exact]]:
    """The kernel basis in reduced echelon form, pivots from the right.

    This form is unique: one vector per column of the greedy rightmost set
    on which the basis is independent, equal to one there and zero on the
    others.  Gauss-Jordan on the rows, which pivots on the leftmost columns,
    returns the same vectors.
    """
    todo = [dict(v) for v in basis]
    done: dict[int, dict[int, _Exact]] = {}
    while todo:
        lead = max(c for vec in todo for c in vec)
        vec = todo.pop(next(i for i, v in enumerate(todo) if lead in v))
        if vec[lead] != 1:
            inv = 1 / vec[lead]
            vec = {c: _exact(v * inv) for c, v in vec.items()}
        for other in todo + list(done.values()):
            if lead in other:
                _subtract(other, other.pop(lead), vec, lead, _exact)
        if not all(todo):
            raise RingError("kernel vectors are linearly dependent")
        done[lead] = vec
    return [done[c] for c in sorted(done)]


# a cleared polynomial split by row key (state and indep exponents), each key
# holding its part in the parameters
_Split = dict[tuple[int, ...], Poly]
# cells of a search matrix: row key -> column -> the entry, a polynomial in
# the parameters or an int that is its image mod p
_Cells = dict[tuple[int, ...], dict[int, Union[Poly, int]]]


def _search_parts(
    sys_obj: VectorFieldSystem,
) -> tuple[list[tuple[int, _Split]], _Split, list[int]]:
    """The cleared rule numerators N_i and their common denominator L, split.

    The rule denominators are cleared once, into their product L.  Each
    N_i = rule_i*L and L itself are reduced by the normalization and split
    once per search into {row key: parameter part}; each N_i comes with the
    key position of its variable.  The positions of the non-parameter
    symbols, whose exponents make up a row key, are returned last.
    """
    table = sys_obj.table
    rules = {n: r for n, r in sys_obj.flow().rules.items() if not r.is_zero}
    common_den = Poly.const(table, 1)
    for den in dict.fromkeys(r.den for r in rules.values() if not r.den.is_const):
        common_den = common_den * den
    cleared = {
        n: reduce_relation(r.num * exact_polynomial_quotient(common_den, r.den))
        for n, r in rules.items()
    }
    free = [
        i for i, kind in enumerate(table.kinds) if kind not in ("parameter", "constant")
    ]

    def split(p: Poly) -> _Split:
        terms: dict[tuple[int, ...], dict] = {}
        for mono, c in p.terms:
            key = tuple(mono[i] for i in free)
            pmono = tuple(0 if i in free else e for i, e in enumerate(mono))
            terms.setdefault(key, {})[pmono] = c
        return {key: Poly(table, part) for key, part in terms.items()}

    parts = [(free.index(table.index(n)), split(p)) for n, p in cleared.items()]
    return parts, split(reduce_relation(common_den)), free


def _assemble(
    parts: list[tuple[int, dict]], base: dict, shifts: list[list[int]],
    add: Callable[[dict, int, int, Any], None],
) -> tuple[_Cells, _Cells]:
    """Cells of the cleared derivatives C and the cleared ansatz B.

    Column ``col`` is the ansatz monomial m = shifts[col] (its row key).  Its
    cleared derivative is a sum of shifts, L*D(m) = sum_i e_i*(m/x_i)*N_i,
    and m*L is a shift of L; ``add(row, col, scale, value)`` adds scale times
    a part's value to row[col].  The ansatz holds no parameter, so the
    normalization commutes with the shifts.
    """
    c_cells: _Cells = {}
    b_cells: _Cells = {}

    def place(cells: _Cells, part: dict, shift: list[int], scale: int, col: int) -> None:
        for key, value in part.items():
            add(cells.setdefault(tuple(map(operator.add, key, shift)), {}), col, scale, value)

    for col, m in enumerate(shifts):
        for j, part in parts:
            if m[j]:
                place(c_cells, part, m[:j] + [m[j] - 1] + m[j + 1:], m[j], col)
        place(b_cells, base, m, 1, col)
    return c_cells, b_cells


def _add_poly(row: dict, col: int, scale: int, part: Poly) -> None:
    part = part.scaled(scale)
    old = row.get(col)
    row[col] = part if old is None else old + part


def _add_int(row: dict, col: int, scale: int, value: int) -> None:
    row[col] = row.get(col, 0) + scale * value


def _rows(c_cells: _Cells, b_cells: _Cells, entry: Callable) -> dict[tuple, dict]:
    """Nonzero rows of C - lam*B by row key, in key order: ``entry(c, b)``
    is the value of a cell from its C and B cells (None where absent), or
    None when it vanishes."""
    rows = {}
    for key in sorted(c_cells.keys() | b_cells.keys()):
        crow, brow = c_cells.get(key, {}), b_cells.get(key, {})
        row = {}
        for col in sorted(crow.keys() | brow.keys()):
            value = entry(crow.get(col), brow.get(col))
            if value is not None:
                row[col] = value
        if row:
            rows[key] = row
    return rows


def _search_rows(
    c_cells: _Cells, b_cells: _Cells, lam: Fraction
) -> dict[tuple, dict[int, Poly]]:
    """Nonzero rows of C - lam*B by row key, each cell c - lam*b."""

    def entry(c: Optional[Poly], b: Optional[Poly]) -> Optional[Poly]:
        if lam and b is not None:
            c = b.scaled(-lam) if c is None else c - b.scaled(lam)
        return None if c is None or c.is_zero else c

    return _rows(c_cells, b_cells, entry)


def _residue(lam: Fraction) -> Optional[int]:
    """The image of ``lam`` mod p, or None when p divides its denominator."""
    p = RANK_PRIME
    if lam.denominator % p == 0:
        return None
    return lam.numerator * pow(lam.denominator, -1, p) % p


def _reducer(factor: list[tuple[int, int, dict]]) -> Callable[[dict], dict]:
    """Reduction mod p of a row against the pivots of an elimination.

    Each pivot row holds no column of an earlier pivot, so a row is reduced
    by the pivots of the columns it has, taken in pivot order from a heap:
    a pivot only brings in later pivot columns.  The reduced row lies on the
    free columns; it is what eliminating the factor's rows together with the
    row leaves of it.
    """
    p = RANK_PRIME
    order = {c: k for k, (_, c, _) in enumerate(factor)}
    steps = [(c, pow(prow[c], -1, p), prow) for _, c, prow in factor]

    def reduce(row: dict[int, int]) -> dict[int, int]:
        heap = [order[c] for c in row if c in order]
        if not heap:
            return row
        row = dict(row)
        heapq.heapify(heap)
        while heap:
            c, inv, prow = steps[heapq.heappop(heap)]
            v = row.pop(c, None)
            if v is None:  # cancelled, or queued twice
                continue
            f = v * inv % p
            for j, w in prow.items():
                old = row.get(j)
                if old is None:
                    if j != c:
                        row[j] = -f * w % p
                        if j in order:
                            heapq.heappush(heap, order[j])
                elif new := (old - f * w) % p:
                    row[j] = new
                else:
                    del row[j]
        return row

    return reduce


class _Pencil:
    """C_p - lam*B_p with its eigenvalue-free rows eliminated once.

    The rows with no B cell are the same for every lambda.  They are
    eliminated mod p once, into a factor, and the C and B parts of every
    other row are reduced against it onto its free columns.  Reduction is
    linear, so red(C_p - lam*B_p) = red(C_p) - lam*red(B_p), and one
    eigenvalue eliminates only that small pencil: the factor's pivots and
    then the pencil's are an elimination of the stacked rows C_p - lam*B_p.
    """

    def __init__(self, c_cells: _Cells, b_cells: _Cells):
        p = RANK_PRIME

        def row(cells: _Cells, key: tuple) -> dict[int, int]:
            return {c: r for c, v in cells.get(key, {}).items() if (r := v % p)}

        keys = sorted(c_cells.keys() | b_cells.keys())
        self.free_keys = [key for key in keys if key not in b_cells]
        self.pencil_keys = [key for key in keys if key in b_cells]
        free_rows = [row(c_cells, key) for key in self.free_keys]
        self.factor = _eliminate_mod_p(free_rows)
        pencil = [(row(c_cells, key), row(b_cells, key)) for key in self.pencil_keys]
        reduce = _reducer(self.factor)
        self.reduced = [(reduce(c), reduce(b)) for c, b in pencil]
        # a column is touched at every lambda but one residue at most, where
        # all its pencil cells (c, b) vanish, which needs them all
        # proportional with b != 0: ratio[col] holds its first cell
        self.always = {c for r in free_rows for c in r}
        self.ratio: dict[int, tuple[int, int]] = {}
        for crow, brow in pencil:
            self.always.update(crow.keys() - brow.keys())
            for col, b in brow.items():
                c = crow.get(col, 0)
                c0, b0 = self.ratio.setdefault(col, (c, b))
                if (c * b0 - c0 * b) % p:
                    self.always.add(col)
        for col in self.always.intersection(self.ratio):
            del self.ratio[col]

    def pivots(self, lam_p: int) -> tuple[list[tuple[tuple, int]], set[int]]:
        """The pivots (row key, column) of C_p - lam*B_p at lambda's residue
        ``lam_p``, the factor's then the pencil's, and its touched columns."""
        p = RANK_PRIME
        rows = [
            {j: v for j in c.keys() | b.keys() if (v := (c.get(j, 0) - lam_p * b.get(j, 0)) % p)}
            for c, b in self.reduced
        ]
        keyed = [(self.free_keys[r], c) for r, c, _ in self.factor]
        keyed += [(self.pencil_keys[r], c) for r, c, _ in _eliminate_mod_p(rows)]
        touched = self.always | {col for col, (c, b) in self.ratio.items() if (c - lam_p * b) % p}
        return keyed, touched


class _SearchMatrix:
    """The matrices C and B of one search, with integer images mod p.

    The cleared rules are split once into parameter parts, and their images
    at the seeded point of Z/p (:func:`_point_images`) are assembled into
    integer cells C_p and B_p once, whose eigenvalue-free rows are
    eliminated once (:class:`_Pencil`).  The exact cells, sums of the same
    parts, are assembled only when an eigenvalue needs them.
    """

    def __init__(self, sys_obj: VectorFieldSystem, monos: Sequence[tuple[int, ...]]):
        self.sys_obj = sys_obj
        self.monos = monos
        self.one = RatExpr.const(sys_obj.table, 1)
        self.parts, self.base, free = _search_parts(sys_obj)
        self.shifts = [[m[i] for i in free] for m in monos]
        image = _point_images(sys_obj.table)
        parts_p = [(j, {key: image(p) for key, p in part.items()}) for j, part in self.parts]
        base_p = {key: image(p) for key, p in self.base.items()}
        self.mod_p: Optional[tuple[_Cells, _Cells]] = None
        if None not in chain(base_p.values(), *(s.values() for _, s in parts_p)):
            self.mod_p = _assemble(parts_p, base_p, self.shifts, _add_int)

    @cached_property
    def exact(self) -> tuple[_Cells, _Cells]:
        return _assemble(self.parts, self.base, self.shifts, _add_poly)

    @cached_property
    def pencil(self) -> Optional[_Pencil]:
        return None if self.mod_p is None else _Pencil(*self.mod_p)

    def rows_mod_p(self, lam: Fraction) -> Optional[dict[tuple, dict[int, int]]]:
        """Nonzero rows of C_p - lam*B_p by row key; None when the images are
        unusable or p divides the denominator of ``lam``."""
        p, lam_p = RANK_PRIME, _residue(lam)
        if self.mod_p is None or lam_p is None:
            return None
        return _rows(*self.mod_p, lambda c, b: ((c or 0) - lam_p * (b or 0)) % p or None)

    def kernel(self, lam: Fraction) -> list[dict[int, RatExpr]]:
        """Certified kernel of C - lam*B over Q(params).

        The shared factor and this eigenvalue's reduced pencil give the rank
        mod p of C_p - lam*B_p, a lower bound on the exact rank; when it
        equals the number of columns that are nonzero over Q(params), the
        unit vectors of the others span the kernel.  A column with no
        nonzero image mod p counts as zero only after its exact cells
        vanish.  An eigenvalue this does not settle takes the exact rows
        through :func:`_nullspace`, which replays the factor's pivots and
        then the pencil's.  The mod p rows omit the rows that vanish mod p
        but not exactly, so a pivot is carried over by its row key.
        """
        keyed: list[tuple[tuple, int]] = []
        lam_p = _residue(lam)
        if self.pencil is not None and lam_p is not None:
            keyed, touched = self.pencil.pivots(lam_p)
            if len(keyed) == len(touched):
                untouched = [c for c in range(len(self.monos)) if c not in touched]
                if all(self._vanishes(c, lam) for c in untouched):
                    return [{c: self.one} for c in untouched]
        exact = _search_rows(*self.exact, lam)
        index = {key: r for r, key in enumerate(exact)}
        replay = [(index[key], c) for key, c in keyed]
        return _nullspace(list(exact.values()), len(self.monos), self.one, replay)

    def _vanishes(self, col: int, lam: Fraction) -> bool:
        """Whether column ``col`` of C - lam*B is zero over Q(params)."""
        return not _search_rows(
            *_assemble(self.parts, self.base, [self.shifts[col]], _add_poly), lam
        )


def first_integral_search(
    system_id: str,
    state_degree_bound: int,
    indep_degree_bound: int,
    lambda_candidates: Iterable[Fraction],
    monomial_cap: int = 4000,
) -> list[FirstIntegral]:
    """Exhaustive search for polynomial quasi-integrals D(P) = lambda*P.

    The ansatz runs over monomials in the state variables (total degree up to
    the bound) times powers of the independent variable, with coefficients in
    the field of rational functions of the parameters (the normalization
    already applied).  For each candidate eigenvalue the condition is an exact
    linear system; its solution space is returned as a basis, with the
    trivial constant solutions removed and each generator normalized so its
    leading coefficient is one.  Every cell is a sum of shifted parameter
    parts of the cleared rules, as a polynomial or as its image mod p.  The
    integer cells of the rows that hold no eigenvalue are eliminated once
    per search, and each eigenvalue eliminates only the rest of its rows,
    reduced against that factor.  The two ranks add up to a rank lower bound
    that settles an eigenvalue whose kernel is spanned by unit vectors of
    zero columns.  Only an eigenvalue it cannot settle, such as one with an
    integral, assembles the polynomial cells, whose rows replay both sets of
    pivots mod p and are then plugged back in.  A bound below its minimum,
    and an empty or repeated list of eigenvalues, raise ValueError; an
    ansatz larger than ``monomial_cap`` raises CapacityError before any
    monomial is built.
    """
    if state_degree_bound < 1:
        raise ValueError("state degree bound must be at least 1")
    if indep_degree_bound < 0:
        raise ValueError("independent-variable degree bound must be at least 0")
    lams = [Fraction(lam) for lam in lambda_candidates]
    if not lams:
        raise ValueError("no eigenvalue candidates given")
    if len(set(lams)) < len(lams):
        raise ValueError(f"repeated eigenvalue candidates in {', '.join(map(str, lams))}")
    sys_obj = load_model(system_id)
    table = sys_obj.table
    count = math.comb(len(sys_obj.state) + state_degree_bound, state_degree_bound) * (
        indep_degree_bound + 1
    )
    if count > monomial_cap:
        raise CapacityError(f"{count} ansatz monomials exceed the cap of {monomial_cap}")
    monos = _state_indep_monomials(
        table, sys_obj.state, sys_obj.indep, state_degree_bound, indep_degree_bound
    )
    matrix = _SearchMatrix(sys_obj, monos)
    const_col = next((i for i, m in enumerate(monos) if not any(m)), None)

    results: list[FirstIntegral] = []
    for lam in lams:
        basis = matrix.kernel(lam)
        for vec in basis:
            if lam == 0 and const_col is not None:
                vec.pop(const_col, None)
            support = [c for c in vec if not vec[c].is_zero]
            if not support:
                continue
            lead = max(support, key=lambda c: (sum(monos[c]), monos[c]))
            inv = vec[lead]
            expr = RatExpr(Poly.zero(table))
            for c in sorted(support):
                expr = expr + (vec[c] / inv) * RatExpr(
                    Poly(table, {monos[c]: Fraction(1)})
                )
            results.append(
                FirstIntegral(
                    id=f"search:{system_id}:deg{state_degree_bound}"
                    f":lam{lam}:{len(results)}",
                    system_id=system_id,
                    expr=expr,
                    lam=lam,
                )
            )
    return results


# -- the suite -------------------------------------------------------------------------------


def _search_report(
    system_id: str,
    state_bound: int,
    indep_bound: int,
    lams: tuple[Fraction, ...],
    expected_integral: Optional[str],
) -> VerificationReport:
    """Wrap a search as a pass/fail check against its expected outcome."""
    with _Timer() as tm:
        found = first_integral_search(system_id, state_bound, indep_bound, lams)
    if expected_integral is None:
        ok = not found
        detail = f"{len(found)} nontrivial integrals at bounds ({state_bound},{indep_bound})"
    else:
        target = load_integral(expected_integral)
        ok = len(found) == 1 and (
            found[0].expr.equals(target.expr) or found[0].expr.equals(-target.expr)
        )
        detail = (
            f"recovered {expected_integral}" if ok
            else f"expected span of {expected_integral}, found {len(found)}"
        )
    return VerificationReport(
        check_id=f"search:{system_id}",
        status="pass" if ok else "fail",
        residuals=[(f.id, render_ratexpr(f.expr)) for f in found],
        duration_ms=tm.ms,
        detail=detail,
    )


# The suite in report order, one row (scope, check id, check, *args) per check.
# A row whose arguments name a disputed map runs as resolve_disputed(map),
# reported under the row's id; under a raw variant policy it runs
# check(*args, variant) once per variant instead.
SUITE = (
    ("symmetry", "symmetry:five_dim:s0_5d", check_symmetry, "five_dim", "s0_5d"),
    ("symmetry", "symmetry:five_dim:s1_5d", check_symmetry, "five_dim", "s1_5d"),
    ("symmetry", "resolve:s2_5d", check_symmetry, "five_dim", "s2_5d"),
    ("symmetry", "symmetry:ham_4d:s0_4d", check_symmetry, "ham_4d", "s0_4d"),
    ("symmetry", "symmetry:ham_4d:s1_4d", check_symmetry, "ham_4d", "s1_4d"),
    ("symmetry", "resolve:s2_4d", check_symmetry, "ham_4d", "s2_4d"),
    ("symmetry", "symmetry:ham_4d:pi_4d", check_symmetry, "ham_4d", "pi_4d"),
    ("charts", "degree:five_dim", check_vector_field_degree, "five_dim", 3),
    ("charts", "chart:five_dim:chart0", check_chart, "five_dim", "chart0"),
    ("charts", "chart:five_dim:chart1", check_chart, "five_dim", "chart1"),
    ("charts", "resolve:chart2", check_chart, "five_dim", "chart2"),
    ("integrals", "integral:five_dim:ywq", check_first_integral, "five_dim", "ywq"),
    ("integrals", "integral:K1_sys:I1", check_first_integral, "K1_sys", "I1"),
    ("integrals", "integral:tildeK2_sys:I2", check_first_integral, "tildeK2_sys", "I2"),
    ("hamiltonian", "hamiltonian:ham_4d", check_hamiltonian_consistency, "ham_4d"),
    ("hamiltonian", "hamiltonian:K1_sys", check_hamiltonian_consistency, "K1_sys"),
    ("hamiltonian", "hamiltonian:K2_sys", check_hamiltonian_consistency, "K2_sys"),
    ("hamiltonian", "hamiltonian:tildeK2_sys", check_hamiltonian_consistency, "tildeK2_sys"),
    ("reduction", "reduction:5d_to_4d", check_reduction_5d_to_4d, "reduce_5d_4d"),
    ("reduction", "symmetry:K2_sys:scale_step", check_symmetry, "K2_sys", "scale_step"),
    ("reduction", "second_order_forms", check_second_order_forms,
     "order2_xzw", "order2_ham_4d"),
    ("solutions", "solution:linear_xz_sol", check_particular_solution, "linear_xz_sol"),
    ("solutions", "solution:second_order_sol_a", check_particular_solution,
     "second_order_sol_a"),
    ("solutions", "solution:second_order_sol_b", check_particular_solution,
     "second_order_sol_b"),
    ("solutions", "solution:rest_wq_zero", check_particular_solution, "rest_wq_zero"),
    ("solutions", "invariant_divisor", check_invariant_divisor),
    ("search", "search:five_dim", _search_report, "five_dim", 2, 0, (Fraction(-1),), "ywq"),
    ("search", "search:K1_sys", _search_report, "K1_sys", 4, 0, (Fraction(0),), "I1"),
    ("search", "search:ham_4d", _search_report, "ham_4d", 3, 2,
     (Fraction(0), Fraction(-1), Fraction(1)), None),
)

SCOPES = ("all", *dict.fromkeys(scope for scope, *_ in SUITE))

# the disputed-object policies of run_scope: the raw variants each one runs
# in place of a dispute resolution, none for "resolved"
VARIANTS = {"resolved": (), "printed": ("printed",), "corrected": ("corrected",),
            "both": ("printed", "corrected")}


def _disputed_map(args: Sequence) -> Optional[str]:
    return next((a for a in args if a in models.DISPUTED_MAP_IDS), None)


def _resolved(check: Callable[..., VerificationReport], *args) -> VerificationReport:
    """A row's report, with a disputed map resolved."""
    disputed = _disputed_map(args)
    return resolve_disputed(disputed) if disputed else check(*args)


def _suite() -> list[tuple[str, str, Callable[[], VerificationReport]]]:
    """(scope, check id, zero-argument check) for each row of :data:`SUITE`."""
    return [(scope, cid, partial(_resolved, check, *args)) for scope, cid, check, *args in SUITE]


def run_scope(
    scope: str = "all", variant: str = "resolved", map_id: Optional[str] = None
) -> list[VerificationReport]:
    """Run all checks in a scope, in deterministic registry order.

    ``variant`` is a disputed-object policy of :data:`VARIANTS`: "resolved"
    runs each dispute resolution, and "printed", "corrected" or "both"
    replace it by raw checks of those variants.  With ``map_id`` only the
    rows whose arguments name that map run.
    """
    if scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; expected one of {SCOPES}")
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}; expected one of {tuple(VARIANTS)}")
    raw = VARIANTS[variant]
    reports = []
    for check_scope, _, check, *args in SUITE:
        if scope not in ("all", check_scope) or (map_id and map_id not in args):
            continue
        if raw and _disputed_map(args):
            reports.extend(check(*args, v) for v in raw)
        else:
            reports.append(_resolved(check, *args))
    return reports
