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
derived from the rows.  Every map-shaped check reads one pushed field
D(phi_i)/D(tau), tau the binding of the target's time: the symmetries, the
5d -> 4d reduction, the second-order forms, the particular solutions and
the invariant subsystems' embeddings certify D(phi_i)/D(tau) -
F_i(bindings), and a chart's field, written in chart coordinates, must be
polynomial.
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
from itertools import chain, combinations_with_replacement
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
    Substitution,
    SymbolTable,
    differentiate,
    has_relation_symbols,
    jacobian_determinant,
    partial_derivative,
    reduce_relation,
    split_poly,
    substitute,
)
from .syntax import render_poly, render_ratexpr

WITNESS_SEED = 0xD32
WITNESS_ATTEMPTS = 400

# the point mod p at which a search eliminates its integer cells
RANK_SEED = 0xD32
RANK_PRIME = 2**61 - 1

# the largest ansatz a first-integral search builds
MONOMIAL_CAP = 4000


class CapacityError(Exception):
    """A search bound exceeded the configured monomial cap."""


@dataclass(frozen=True)
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
            if self.witness_point is not None
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
        if num.evaluate(point) != 0 and den.evaluate(point) != 0:
            return {n: point[n] for n in sorted(point)}
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


def check_vector_field_degree(system_id: str, expected: int) -> VerificationReport:
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
        ok = max_deg == expected
    return VerificationReport(
        check_id=f"degree:{system_id}",
        status="pass" if ok else "fail",
        residuals=[(n, f"degree {d}") for n, d in degrees.items()],
        duration_ms=tm.ms,
        detail=f"max state degree {max_deg}, expected {expected}",
    )


# -- the pushed field -------------------------------------------------------------


def _map_flow(bmap: BirationalMap) -> tuple[Derivation, VectorFieldSystem, dict[str, RatExpr]]:
    """The flow ``bmap`` is certified along, its target and its pullback bindings.

    The flow comes from the map's own data: the source flow, restricted by
    the ``eliminated`` bindings onto the map's table and extended by the
    generator ``rules``; the reduction's generator s has the rule dS/dt = -s.
    """
    source = load_model(bmap.source)
    eliminated = Substitution(bmap.eliminated, source.table, bmap.table)
    rules = {
        n: substitute(source.rhs[n], eliminated)
        for n in source.state if n not in bmap.eliminated
    }
    flow = Derivation(bmap.table, {**rules, **bmap.rules, source.indep: 1})
    target = load_model(bmap.target)
    return flow, target, bmap.pullback_bindings(flow.table, target.table)


def _pushed(flow: Derivation, target: VectorFieldSystem, bindings: dict) -> dict[str, RatExpr]:
    """{target state: D(phi_i)/D(tau)}, phi_i the state's binding.

    tau is the binding of the target's time, or that time where none is
    given.  A constant rate divides as a number: the same quotient, with no
    ``RatExpr`` built.
    """
    indep = target.indep
    rate = differentiate(bindings.get(indep, RatExpr.sym(flow.table, indep)), flow)
    if rate.is_polynomial and rate.num.is_const:
        rate = rate.num.const_value()
    return {n: differentiate(bindings[n], flow) / rate for n in target.state}


def _residuals(
    flow: Derivation, target: VectorFieldSystem, bindings: dict
) -> list[tuple[str, RatExpr]]:
    """(state, D(phi_i)/D(tau) - F_i(bindings)) for each target state.

    One :class:`Substitution` of the bindings serves every component.
    """
    pushed = _pushed(flow, target, bindings)
    plan = Substitution(bindings, target.table, flow.table)
    return [(n, pushed[n] - substitute(target.rhs[n], plan)) for n in target.state]


# -- symmetry --------------------------------------------------------------------


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
            entries = _residuals(*_map_flow(bmap))
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


def _darboux(system_id: str, expr: RatExpr, cofactor: Any, remainder: Any = 0) -> RatExpr:
    """D(expr) - cofactor*expr - remainder along the flow of the system."""
    return differentiate(expr, load_model(system_id).flow()) - cofactor * expr - remainder


def check_first_integral(system_id: str, integral_id: str) -> VerificationReport:
    """The Darboux residual of an integral: cofactor lambda, remainder 0."""
    integral = load_integral(integral_id)
    if integral.system_id != system_id:
        raise ValueError(
            f"integral {integral_id!r} belongs to {integral.system_id!r}"
        )
    with _Timer() as tm:
        resid = _darboux(system_id, integral.expr, integral.lam)
    return _finish(
        f"integral:{system_id}:{integral_id}", [("eigen", resid)], tm,
        detail=f"lambda={integral.lam}",
    )


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


def _principal_part(e: RatExpr) -> RatExpr:
    """The part of ``e`` that is no polynomial, on the parameter normalization.

    Over a monomial denominator m it is the numerator terms m does not
    divide, over m; over a denominator of several terms it is all of ``e``.
    Zero exactly when ``e`` is a polynomial.
    """
    if e.den.is_const:
        return RatExpr(Poly.zero(e.table))
    e = RatExpr(reduce_relation(e.num), e.den)
    (low, _), *rest = e.den.terms
    if rest:
        return e
    kept = {m: c for m, c in e.num.terms if any(a < b for a, b in zip(m, low))}
    return RatExpr(Poly(e.table, kept), e.den)


def check_chart(
    system_id: str, chart_id: str, variant: str = "printed"
) -> VerificationReport:
    """Holomorphy chart check: exact inverse, unit Jacobian, polynomial field.

    (a) negating the corrections inverts the chart exactly, (b) the Jacobian
    determinant is 1, and (c) the vector field written in chart coordinates
    has an exactly polynomial right-hand side on the parameter normalization:
    the residual ``polynomial:<state>`` is the component's principal part.
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
        inverse = {n: RatExpr.sym(table, n) - c for n, c in corrections.items()}
        entries: list[tuple[str, RatExpr]] = []
        forward = {n: bmap.var_map[n] for n in sys_obj.state}
        compose = Substitution(forward, table)
        for name in sys_obj.state:
            composed = substitute(inverse[name], compose)
            entries.append((f"inverse:{name}", composed - RatExpr.sym(table, name)))
        jac = jacobian_determinant(list(forward.values()), list(forward))
        entries.append(("jacobian", jac - 1))

        pushed = _pushed(*_map_flow(bmap))
        in_chart = Substitution(inverse, table)
        principal = [
            (f"polynomial:{name}", _principal_part(substitute(pushed[name], in_chart)))
            for name in sys_obj.state
        ]
    polynomial = all(part.is_zero for _, part in principal)
    return _finish(
        check_id, entries + principal, tm,
        detail="" if polynomial else "non-polynomial rhs in chart",
    )


# -- Hamiltonian structure ----------------------------------------------------------


def check_hamiltonian_consistency(system_id: str) -> VerificationReport:
    """rhs equals the signed partials of the stored Hamiltonian.

    A Hamiltonian with ``parts`` must also equal their sum plus its
    ``coupling`` (ham_4d: K1 at alpha = alpha2, K2 at alpha = alpha1 +
    alpha2, and -p1*p2/s), the residual ``composition``.
    """
    sys_obj = load_model(system_id)
    ham = sys_obj.hamiltonian
    if ham is None:
        raise ValueError(f"system {system_id!r} carries no Hamiltonian")
    table = sys_obj.table
    H = ham.expr
    with _Timer() as tm:
        entries = []
        for coord, mom in ham.pairing:
            entries.append((f"d{coord}", sys_obj.rhs[coord] - partial_derivative(H, mom)))
            entries.append((f"d{mom}", sys_obj.rhs[mom] + partial_derivative(H, coord)))
        if ham.parts:
            composed = ham.coupling
            for part_id, bindings in ham.parts:
                part = load_model(part_id).hamiltonian.expr
                composed = composed + substitute(part, bindings, table=table)
            entries.append(("composition", H - composed))
    return _finish(f"hamiltonian:{system_id}", entries, tm)


# -- dimension reduction ---------------------------------------------------------------


def check_reduction_5d_to_4d(map_id: str) -> VerificationReport:
    """Eliminating y on the integral and rescaling time yields the 4d system.

    The map binds y to w*q + s, and its generator s follows dS/dt = -s, the
    new time of the map residual.
    """
    with _Timer() as tm:
        entries = _residuals(*_map_flow(load_map(map_id)))
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
            for name, resid in _residuals(*_map_flow(load_map(map_id)))
        ]
    return _finish("second_order_forms", entries, tm)


# -- particular solutions ---------------------------------------------------------------


def check_particular_solution(solution_id: str) -> VerificationReport:
    """D(binding) equals the rhs evaluated on the bindings, symbol by symbol.

    D is the flow of the solution: its generator ``rules`` and dt/dt = 1.
    """
    sol = load_particular_solution(solution_id)
    target = load_model(sol.system_id)
    missing = [n for n in target.state if n not in sol.bindings]
    if missing:
        raise ValueError(f"solution {solution_id!r} misses bindings for {missing}")
    with _Timer() as tm:
        entries = _residuals(
            Derivation(sol.table, {**sol.rules, target.indep: 1}),
            target, {**sol.bindings, **sol.param_bindings},
        )
    return _finish(
        f"solution:{solution_id}", entries, tm,
        detail=f"system {sol.system_id}",
    )


# -- invariant divisor --------------------------------------------------------------------


def check_invariant_divisor() -> VerificationReport:
    """y = 0 is invariant on the wall alpha1 = 0, and so is each restriction.

    ``darboux`` is the divisor record's D(y) - K*y - R, K = x*w + z*q - 1 and
    R = alpha1*w*q; each row of ``models.RESTRICTIONS`` then certifies its
    embedding into the source, ``<restriction>:<state>``, by the residual of
    a particular solution: states bound to themselves, zeroed symbols to 0.
    """
    divisor = models.load_divisor()
    with _Timer() as tm:
        entries = [("darboux", _darboux(*divisor))]
        for sid, source_id, zeros in models.RESTRICTIONS:
            small = load_model(sid)
            bindings = {**{n: RatExpr.sym(small.table, n) for n in small.state},
                        **dict.fromkeys(zeros, RatExpr.const(small.table, 0))}
            resids = _residuals(small.flow(), load_model(source_id), bindings)
            entries += [(f"{sid}:{n}", resid) for n, resid in resids]
    return _finish("invariant_divisor", entries, tm, f"cofactor {render_ratexpr(divisor.cofactor)}")


# -- dispute resolution ------------------------------------------------------------------


def resolve_disputed(map_id: str) -> VerificationReport:
    """Run both variants of a disputed object; exactly one must verify, and
    it must be the variant that ``models.load_map(map_id, "resolved")``
    serves to every other caller of the alias.

    The check and its arguments come from the map's row of :data:`SUITE`.
    """
    if map_id not in models.DISPUTED_MAP_IDS:
        raise ValueError(f"map {map_id!r} is not disputed")
    check, args = next((check, args) for _, _, check, *args in SUITE if map_id in args)
    with _Timer() as tm:
        printed = check(*args, "printed")
        corrected = check(*args, "corrected")
    winners = [v for v, r in (("printed", printed), ("corrected", corrected)) if r.passed]
    served = models.load_map(map_id, "resolved").variant
    ok = winners == [served]
    if len(winners) != 1:
        detail = f"ambiguous resolution: {winners or 'neither variant verifies'}"
    elif not ok:
        detail = f"resolved variant: {winners[0]}, but the alias 'resolved' serves {served}"
    else:
        detail = f"resolved variant: {served}"
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


def _ansatz(
    state_offsets: Sequence[int], indep_offset: int, state_bound: int, indep_bound: int,
) -> list[int]:
    """The ansatz monomials as packed row keys, in (total degree, key) order.

    A monomial of state total degree at most ``state_bound`` and indep degree
    at most ``indep_bound`` is a sum of field units, one per state factor
    (``combinations_with_replacement``) and one per power of the independent
    variable.  Keys compare as the exponent tuples do, so the order is that
    of (total degree, exponent tuple).
    """
    units = [1 << offset for offset in state_offsets]
    by_degree: list[list[int]] = [[] for _ in range(state_bound + indep_bound + 1)]
    for s in range(state_bound + 1):
        for factors in combinations_with_replacement(units, s):
            key = sum(factors)
            for j in range(indep_bound + 1):
                by_degree[s + j].append(key + (j << indep_offset))
    return [key for keys in by_degree for key in sorted(keys)]


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
            bucket = self.buckets[old]
            bucket.discard(i)
            if not bucket:
                del self.buckets[old]
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
) -> list[tuple[int, int, dict]]:
    """Sparse elimination in one field; the pivots in order.

    Rows with one live entry are pivots first, and cost no arithmetic: the
    multiple of such a row that clears its column from another row cancels
    exactly that entry, so the entry is deleted.  Those rows are taken last
    in, first out, from a stack seeded in row order; a row this leaves with
    one entry joins the stack, and a row it leaves empty is dropped.  Then
    each pivot of :func:`_markowitz`, until no live entry remains,
    eliminates its column from every other live row: ``reduce`` maps a
    computed entry to its canonical form, or to None when it vanishes, and
    ``inverse`` inverts a pivot.  Each pivot is returned with its row as it
    stood when it was chosen: an upper triangular factor whose free columns
    span the kernel.
    """
    live = {r: dict(row) for r, row in enumerate(rows) if row}
    cols: dict[int, set[int]] = {}
    for r, row in live.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    pivots = []
    singletons = [r for r, row in live.items() if len(row) == 1]
    while singletons:
        r = singletons.pop()
        prow = live.pop(r, None)
        if prow is None:  # emptied by an earlier singleton of its column
            continue
        (c,) = prow
        for s in cols.pop(c):
            if s != r:
                srow = live[s]
                del srow[c]
                if len(srow) == 1:
                    singletons.append(s)
                elif not srow:
                    del live[s]
        pivots.append((r, c, prow))
    row_lines, col_lines = _Lines(live), _Lines(cols)
    while cols:
        r, c = _markowitz(live, cols, row_lines, col_lines, weight)
        prow = live.pop(r)
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


def _mod_p(v: int) -> Optional[int]:
    """The canonical residue of ``v`` mod p, or None when it vanishes."""
    return v % RANK_PRIME or None


def _inverse_mod_p(v: int) -> int:
    return pow(v, -1, RANK_PRIME)


def _eliminate_mod_p(rows: list[dict[int, int]]) -> list[tuple[int, int, dict]]:
    """:func:`_eliminate` over Z/p: its pivots, as many as the rank mod p."""
    return _eliminate(rows, _mod_p, _inverse_mod_p)


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


def _inverse(e: _Exact) -> _Exact:
    """The inverse of a nonzero exact entry; of an int, a Fraction."""
    return Fraction(1) / e


def _simplicity(e: _Exact) -> tuple[int, int]:
    # parameter-free entries first, then fewer terms
    if isinstance(e, RatExpr):
        return 1, e.num.term_count + e.den.term_count
    return 0, 1


def _total(terms: list[_Exact]) -> Optional[_Exact]:
    """The canonical form of the sum, or None when it vanishes."""
    return _exact(sum(terms[1:], terms[0])) if terms else None


def _nullspace(
    rows: list[dict[int, Poly]], ncols: int, one: RatExpr
) -> list[dict[int, RatExpr]]:
    """Exact nullspace of a sparse matrix over the parameter function field.

    The entries are polynomials in the parameters.  The rows are eliminated
    over Q(params) by :func:`_eliminate`, Markowitz pivots with ties going
    to the simplest entry.  Back-substitution gives one vector per free
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
    pivots = _eliminate(exact, _exact, _inverse, _simplicity)
    taken = {c for _, c, _ in pivots}
    free = [f for f in range(ncols) if f not in taken]
    basis = _reduced(
        _back_substitute([(c, prow) for _, c, prow in pivots], free, _exact, _inverse)
    )
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
    pivots: list[tuple[int, dict]], free: Iterable[int], reduce: Callable, inverse: Callable,
) -> list[dict[int, Any]]:
    """One kernel vector per free column, in one field.

    ``pivots`` are the (column, row) pairs of an elimination in pivot order,
    each row holding no column of an earlier pivot; ``reduce`` and
    ``inverse`` are the field's, as in :func:`_eliminate`.  The vector of a
    free column is one there and zero on the other free columns, and
    back-substitution sets each pivot column from its row, the last pivot
    first.  Only a pivot whose row holds a column already set can set a
    nonzero, so those pivots alone are visited, latest first, from a heap.
    """
    # column -> the negated indices of the pivots whose rows hold it, so the
    # heap pops the latest pivot first
    holders: dict[int, list[int]] = {}
    for k, (_, row) in enumerate(pivots):
        for j in row:
            holders.setdefault(j, []).append(-k)
    basis = []
    for f in free:
        vec = {f: 1}
        heap = list(holders.get(f, ()))
        queued = set(heap)
        heapq.heapify(heap)
        while heap:
            c, row = pivots[-heapq.heappop(heap)]
            # c is set by its own pivot alone, so it is not in vec yet
            terms = [v * vec[j] for j, v in row.items() if j in vec]
            if (total := reduce(sum(terms[1:], terms[0]))) is not None:
                vec[c] = reduce(-total * inverse(row[c]))
                for k in holders[c]:
                    if k not in queued:
                        queued.add(k)
                        heapq.heappush(heap, k)
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
            inv = _inverse(vec[lead])
            vec = {c: _exact(v * inv) for c, v in vec.items()}
        for other in todo + list(done.values()):
            if lead in other:
                _subtract(other, other.pop(lead), vec, lead, _exact)
        if not all(todo):
            raise RingError("kernel vectors are linearly dependent")
        done[lead] = vec
    return [done[c] for c in sorted(done)]


# a cleared polynomial split by row key (the state and indep exponents,
# packed), each key holding its part in the parameters
_Split = dict[int, Poly]
# cells of a search matrix: row key -> column -> the entry, a polynomial in
# the parameters or an int that is its image mod p
_Cells = dict[int, dict[int, Union[Poly, int]]]


def _search_parts(
    sys_obj: VectorFieldSystem, state_bound: int, indep_bound: int,
) -> tuple[list[tuple[int, _Split]], _Split, list[int], int, dict[int, int]]:
    """The cleared rule numerators N_i and their common denominator L, split,
    and the ansatz columns as row keys.

    The flow's plan clears the rule denominators into their product L
    (:attr:`Derivation.cleared`, which builds none of the plan's integer
    rows).  Each
    N_i = rule_i*L and L itself are reduced by the normalization and split
    once per search into {row key: parameter part} (:func:`split_poly`).  A
    row key packs the exponents of the non-parameter symbols into one int,
    big-endian in table order at a fixed field width, so keys compare as
    the exponent tuples do.  The width holds the total degree of any N_i or
    L times any ansatz monomial, so adding two keys adds their exponents
    field by field.  Each N_i comes with the bit offset of its variable's
    field.  The ansatz columns are built as keys at that width
    (:func:`_ansatz`); they, the width and {table index: bit offset} are
    returned last.
    """
    table = sys_obj.table
    common_den, numerators = sys_obj.flow().cleared
    cleared = {n: reduce_relation(p) for n, p in numerators.items()}
    base = reduce_relation(common_den)
    free = [
        i for i, kind in enumerate(table.kinds) if kind not in ("parameter", "constant")
    ]
    top = max(p.total_degree() for p in (base, *cleared.values()))
    width = (top + state_bound + indep_bound).bit_length()
    offset = {i: width * (len(free) - 1 - pos) for pos, i in enumerate(free)}
    parts = [
        (offset[table.index(n)], split_poly(p, free, width)) for n, p in cleared.items()
    ]
    columns = _ansatz(
        [offset[table.index(n)] for n in sys_obj.state], offset[table.index(sys_obj.indep)],
        state_bound, indep_bound,
    )
    return parts, split_poly(base, free, width), columns, width, offset


def _assemble(
    parts: list[tuple[int, dict]], base: dict, shifts: list[int], width: int,
    scale: Callable[[Any, int], Any],
) -> tuple[_Cells, _Cells]:
    """Cells of the cleared derivatives C and the cleared ansatz B.

    Column ``col`` is the ansatz monomial m, whose row key is shifts[col].
    Its cleared derivative is a sum of shifts, L*D(m) = sum_i e_i*(m/x_i)*N_i,
    and m*L is a shift of L.  A shift adds one key to another, and a part's
    value times e_i, ``scale(value, e_i)``, is computed once per part and
    exponent; each cell then costs one key addition and one sum.  The ansatz
    holds no parameter, so the normalization commutes with the shifts.
    """
    mask = (1 << width) - 1
    c_cells: _Cells = {}
    b_cells: _Cells = {}
    multiples: dict[tuple[int, int], list] = {}
    base_items = list(base.items())
    for col, m in enumerate(shifts):
        placed = [(b_cells, base_items, m)]
        for offset, part in parts:
            if e := (m >> offset) & mask:
                multiple = multiples.get((offset, e))
                if multiple is None:
                    multiple = multiples[offset, e] = [(k, scale(v, e)) for k, v in part.items()]
                placed.append((c_cells, multiple, m - (1 << offset)))
        for cells, items, shift in placed:
            for key, value in items:
                key += shift
                row = cells.get(key)
                if row is None:
                    cells[key] = {col: value}
                else:
                    old = row.get(col)
                    row[col] = value if old is None else old + value
    return c_cells, b_cells


def _search_rows(
    c_cells: _Cells, b_cells: _Cells, lam: Fraction
) -> dict[int, dict[int, Poly]]:
    """Nonzero rows of C - lam*B by row key, in key order, each cell c - lam*b."""
    rows = {}
    for key in sorted(c_cells.keys() | b_cells.keys()):
        crow, brow = c_cells.get(key, {}), b_cells.get(key, {})
        row = {}
        for col in sorted(crow.keys() | brow.keys()):
            c, b = crow.get(col), brow.get(col)
            if lam and b is not None:
                c = b.scaled(-lam) if c is None else c - b.scaled(lam)
            if c is not None and not c.is_zero:
                row[col] = c
        if row:
            rows[key] = row
    return rows


def _residue(lam: Fraction) -> Optional[int]:
    """The image of ``lam`` mod p, or None when p divides its denominator."""
    p = RANK_PRIME
    if lam.denominator % p == 0:
        return None
    return lam.numerator * pow(lam.denominator, -1, p) % p


class _Pencil:
    """C_p - lam*B_p with its eigenvalue-free rows eliminated once.

    The rows with no B cell are the same for every lambda.  They are
    eliminated mod p once.  Nearly all of the pivot rows are single entries,
    and a column is *settled* when its pivot row is one entry and no other
    pivot row holds it.  The other pivot rows, the *live* ones, are kept as
    they stood, and none of them holds a settled column.  The C and B parts
    of every other row are built once from their cells mod p with the
    settled columns left out.  So the stacked rows C_p - lam*B_p span the
    settled columns' unit vectors plus, apart from them, the live rows and
    the pencil rows: one eigenvalue eliminates only those, and the settled
    columns and its pivots number the rank mod p.  A settled column is zero
    in every kernel vector mod p, so it is left out of the pivots.
    """

    def __init__(self, c_cells: _Cells, b_cells: _Cells):
        p = RANK_PRIME
        factor = _eliminate_mod_p([
            {c: r for c, v in c_cells[key].items() if (r := v % p)}
            for key in sorted(c_cells.keys() - b_cells.keys())
        ])
        held = {j for _, _, prow in factor if len(prow) > 1 for j in prow}
        self.settled = settled = {
            c for _, c, prow in factor if len(prow) == 1 and c not in held
        }
        self.live = [prow for _, c, prow in factor if c not in settled]

        def row(cells: dict) -> dict[int, int]:
            return {c: r for c, v in cells.items() if c not in settled and (r := v % p)}

        self.rows = [(row(c_cells.get(key, {})), row(b_cells[key])) for key in sorted(b_cells)]

    def pivots(self, lam_p: int) -> list[tuple[int, dict[int, int]]]:
        """The pivots (column, row) of the live rows and C_p - lam*B_p at
        lambda's residue ``lam_p``, without the settled columns: one
        elimination mod p, each row as it stood when its pivot was chosen."""
        p = RANK_PRIME
        rows = [
            {j: v for j in c.keys() | b.keys() if (v := (c.get(j, 0) - lam_p * b.get(j, 0)) % p)}
            for c, b in self.rows
        ]
        return [(c, prow) for _, c, prow in _eliminate_mod_p(self.live + rows)]


class _SearchMatrix:
    """The matrices C and B of one search, with integer images mod p.

    The cleared rules are split once into parameter parts keyed by packed
    row keys, and the ansatz columns are built as keys of the same packing
    (:func:`_search_parts`).  The parts' images at the seeded point of Z/p
    (:func:`_point_images`) are assembled into integer cells C_p and B_p
    once, whose eigenvalue-free rows, nearly all of them singletons, are
    eliminated once (:class:`_Pencil`).  Exact cells, sums of the same
    parts, are assembled per eigenvalue for the columns it solves on
    (:meth:`_solve`).
    """

    def __init__(self, sys_obj: VectorFieldSystem, state_bound: int, indep_bound: int):
        self.sys_obj = sys_obj
        self.one = RatExpr.const(sys_obj.table, 1)
        self.parts, self.base, self.columns, self.width, self.offsets = _search_parts(
            sys_obj, state_bound, indep_bound
        )
        image = _point_images(sys_obj.table)
        parts_p = [
            (offset, {key: image(p) for key, p in part.items()}) for offset, part in self.parts
        ]
        base_p = {key: image(p) for key, p in self.base.items()}
        self.mod_p: Optional[tuple[_Cells, _Cells]] = None
        if None not in chain(base_p.values(), *(s.values() for _, s in parts_p)):
            self.mod_p = _assemble(parts_p, base_p, self.columns, self.width, operator.mul)

    @cached_property
    def pencil(self) -> Optional[_Pencil]:
        return None if self.mod_p is None else _Pencil(*self.mod_p)

    def monomial(self, col: int) -> tuple[int, ...]:
        """The exponent tuple of column ``col``'s ansatz monomial."""
        key, mask = self.columns[col], (1 << self.width) - 1
        mono = [0] * len(self.sys_obj.table)
        for i, offset in self.offsets.items():
            mono[i] = (key >> offset) & mask
        return tuple(mono)

    def kernel(self, lam: Fraction) -> list[dict[int, RatExpr]]:
        """Certified kernel of C - lam*B over Q(params).

        The settled columns and the pivots of this eigenvalue's stacked
        elimination (:meth:`_Pencil.pivots`) eliminate C_p - lam*B_p.  Its
        rank mod p is a lower bound on the exact rank, so the kernel has at
        most as many dimensions as the elimination has free columns: those
        neither settled nor taken by a pivot.  One vector mod p is
        back-substituted per free column through those pivots
        (:func:`_back_substitute`), and the columns they touch alone are
        solved exactly.  When that yields a vector per free column, those
        vectors, zero elsewhere, are the kernel: each is plugged back into
        every nonzero row, and the rank allows no more.
        Otherwise (a lambda whose residue drops the rank, or a cell that
        vanishes mod p but not exactly), and when there is no usable point
        or residue mod p, every column is solved.
        """
        lam_p = _residue(lam)
        if self.pencil is not None and lam_p is not None:
            pivots = self.pencil.pivots(lam_p)
            taken = self.pencil.settled.union(c for c, _ in pivots)
            free = [c for c in range(len(self.columns)) if c not in taken]
            if not free:
                return []
            vecs = _back_substitute(pivots, free, _mod_p, _inverse_mod_p)
            basis = self._solve(sorted(set().union(*vecs)), lam)
            if len(basis) == len(free):
                return basis
        return self._solve(range(len(self.columns)), lam)

    def _solve(self, cols: Sequence[int], lam: Fraction) -> list[dict[int, RatExpr]]:
        """Certified kernel of the exact C - lam*B on the columns ``cols``
        alone (:func:`_nullspace`; their unit vectors when every cell
        vanishes), numbered as the matrix's columns."""
        columns = [self.columns[c] for c in cols]
        rows = _search_rows(
            *_assemble(self.parts, self.base, columns, self.width, Poly.scaled), lam
        )
        basis = (
            _nullspace(list(rows.values()), len(cols), self.one) if rows
            else [{j: self.one} for j in range(len(cols))]
        )
        return [{cols[j]: v for j, v in vec.items()} for vec in basis]


def first_integral_search(
    system_id: str,
    state_degree_bound: int,
    indep_degree_bound: int,
    lambda_candidates: Iterable[Union[int, Fraction, str]],
) -> list[FirstIntegral]:
    """Exhaustive search for polynomial quasi-integrals D(P) = lambda*P.

    The ansatz runs over monomials in the state variables (total degree up to
    the bound) times powers of the independent variable, with coefficients in
    the field of rational functions of the parameters (the normalization
    already applied).  The monomials are built as packed row keys in the
    order of (total degree, exponent tuple), and only those of a returned
    integral's support are unpacked.  For each candidate eigenvalue the
    condition is an exact linear system; its solution space is returned as a
    basis in reduced form, whose every generator has leading coefficient,
    that of its last column, one, with the trivial constant solution
    removed.  Every cell is a sum of shifted parameter parts of the cleared
    rules, as a polynomial or as its image mod p.  The integer cells of the
    rows that hold no eigenvalue are eliminated once per search; the
    columns of their single-entry pivots are settled there, and each
    eigenvalue eliminates only the other pivot rows stacked on the rest of
    its rows, without the settled columns.  The columns neither settled nor
    taken by a pivot are as many as the kernel's dimension at most.  One
    kernel vector mod p per such column is back-substituted, and only the
    columns they touch get polynomial cells, whose rows are solved exactly
    and plugged back in: when that gives a vector per free column, those
    are the kernel.  Only an eigenvalue this cannot settle, such as one
    whose residue drops the rank, is solved the same way on every column.
    A bound below its minimum, an empty or repeated list of eigenvalues,
    and a float or bool eigenvalue raise ValueError; an ansatz larger than
    :data:`MONOMIAL_CAP` raises CapacityError before any column is built.
    """
    if state_degree_bound < 1:
        raise ValueError("state degree bound must be at least 1")
    if indep_degree_bound < 0:
        raise ValueError("independent-variable degree bound must be at least 0")
    lams = []
    for lam in lambda_candidates:
        if isinstance(lam, (float, bool)):
            raise ValueError(f"eigenvalue candidate {lam!r} is not exact; give an int, "
                             "a Fraction or a string such as '1/10'")
        lams.append(Fraction(lam))
    if not lams:
        raise ValueError("no eigenvalue candidates given")
    if len(set(lams)) < len(lams):
        raise ValueError(f"repeated eigenvalue candidates in {', '.join(map(str, lams))}")
    sys_obj = load_model(system_id)
    table = sys_obj.table
    count = math.comb(len(sys_obj.state) + state_degree_bound, state_degree_bound) * (
        indep_degree_bound + 1
    )
    if count > MONOMIAL_CAP:
        raise CapacityError(f"{count} ansatz monomials exceed the cap of {MONOMIAL_CAP}")
    matrix = _SearchMatrix(sys_obj, state_degree_bound, indep_degree_bound)

    results: list[FirstIntegral] = []
    for lam in lams:
        for vec in matrix.kernel(lam):
            if lam == 0:
                vec.pop(0, None)  # column 0 is the constant monomial
            if not vec:
                continue
            expr = RatExpr(Poly.zero(table))
            for c in sorted(vec):
                expr = expr + vec[c] * RatExpr(Poly(table, {matrix.monomial(c): Fraction(1)}))
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
