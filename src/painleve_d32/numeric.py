"""Floating-point integration and trajectory-level certificates.

An explicit embedded Runge-Kutta 5(4) pair (Dormand-Prince coefficients)
with standard safety-factor step control integrates any registered system.
Finite-difference residual checks need exactly uniform samples: fixed-step
mode takes equal steps, and grid mode samples one adaptive run by the pair's
4th-order dense output instead of restarting at each grid point.  Conserved
combinations are monitored along trajectories, and birational maps push
trajectories forward pointwise, transforming parameters, eta and the time axis.

Blow-up is expected behavior for these flows (movable singularities); a
truncated trajectory with its termination reason recorded is valid output,
not an error.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence

from .models import BirationalMap, VectorFieldSystem, load_integral, load_map, load_model
from .ring import Poly, RatExpr

BLOWUP_NORM = 1e8
MIN_STEP_FACTOR = 1e-14
SAFETY = 0.9
GROW_MIN, GROW_MAX = 0.2, 5.0
DENOMINATOR_FLOOR = 1e-12


class DomainError(ValueError):
    """The requested integration span or point is outside the system domain."""


class UsageError(ValueError):
    pass


@dataclass
class Trajectory:
    system_id: str
    params: dict[str, float]
    state_names: tuple[str, ...]
    times: list[float]
    states: list[list[float]]
    abs_tol: float
    rel_tol: float
    mode: str  # adaptive | fixed | grid
    termination: str  # completed | blow_up | step_underflow
    steps_accepted: int = 0
    steps_rejected: int = 0

    def __post_init__(self):
        if not _strictly_monotone(self.times):
            raise ValueError("trajectory times must be strictly monotone")

    def write_csv(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write("u," + ",".join(self.state_names) + "\n")
            for u, state in zip(self.times, self.states):
                fh.write(
                    ",".join(f"{v:.17g}" for v in [u, *state]) + "\n"
                )

    def write_metadata(self, path: str) -> None:
        meta = {
            "system_id": self.system_id,
            "params": self.params,
            "state_names": list(self.state_names),
            "abs_tol": self.abs_tol,
            "rel_tol": self.rel_tol,
            "mode": self.mode,
            "termination": self.termination,
            "steps_accepted": self.steps_accepted,
            "steps_rejected": self.steps_rejected,
            "samples": len(self.times),
        }
        with open(path, "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _strictly_monotone(times: Sequence[float]) -> bool:
    diffs = [b - a for a, b in zip(times, times[1:])]
    return all(d > 0 for d in diffs) or all(d < 0 for d in diffs)


# -- compilation of exact expressions to float callables ----------------------------


def _poly_source(p: Poly) -> str:
    if p.is_zero:
        return "0.0"
    chunks = []
    for mono, coeff in p.terms:
        factors = [repr(float(coeff))]
        for i, e in enumerate(mono):
            if not e:
                continue
            name = p.table.symbols[i]
            factors.append(name if e == 1 else f"{name}**{e}")
        chunks.append("*".join(factors))
    return " + ".join(chunks)


def compile_ratexpr(expr: RatExpr) -> Callable[..., float]:
    """Compile to a positional function of all table symbols (table order)."""
    args = ", ".join(expr.table.symbols)
    num_src = _poly_source(expr.num)
    if expr.den.is_const:
        body = num_src
    else:
        body = f"({num_src}) / ({_poly_source(expr.den)})"
    namespace: dict = {}
    exec(f"def _compiled({args}):\n    return {body}\n", namespace)
    return namespace["_compiled"]


class _CompiledSystem:
    """Vector field as a float callable f(u, state) -> list of derivatives."""

    def __init__(self, system: VectorFieldSystem, params: Mapping[str, float]):
        self.system = system
        table = system.table
        self.state_names = system.state
        self.indep = system.indep
        missing = [
            n for n in table.symbols
            if table.kind_of(n) in ("parameter", "constant") and n not in params
        ]
        if missing:
            raise UsageError(f"missing numeric parameters: {missing}")
        self._fixed = {n: float(params[n]) for n in params if n in table}
        self._fns = [compile_ratexpr(system.rhs[n]) for n in self.state_names]
        self._arg_names = table.symbols

    def __call__(self, u: float, state: Sequence[float]) -> list[float]:
        values = dict(self._fixed)
        values[self.indep] = u
        for name, v in zip(self.state_names, state):
            values[name] = v
        args = [values.get(n, 0.0) for n in self._arg_names]
        try:
            return [fn(*args) for fn in self._fns]
        except OverflowError:
            # treated as an infinite local error: the step gets rejected and
            # the blow-up guard decides once values are representable
            return [math.inf] * len(self._fns)


def _check_domain(system: VectorFieldSystem, u0: float, u1: float) -> None:
    if system.singular_at_zero_indep:
        if u0 == 0.0 or u1 == 0.0 or (u0 < 0.0) != (u1 < 0.0):
            raise DomainError(
                f"span ({u0}, {u1}) crosses the singular locus {system.indep} = 0"
            )


# Dormand-Prince 5(4) tableau; the fifth-order solution propagates (FSAL).
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0)
_DP_B4 = (
    5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
    -92097 / 339200, 187 / 2100, 1 / 40,
)


# 4th-order continuous extension (Hairer, Norsett & Wanner, Solving ODEs I, II.6)
_DP_D = (
    -12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
    -10690763975 / 1880347072, 701980252875 / 199316789632,
    -1453857185 / 822651844, 69997945 / 29380423,
)


def _rk_step(
    f: Callable, u: float, y: Sequence[float], h: float
) -> tuple[list[float], float, float, list[list[float]]]:
    """One embedded step: returns (y5, error_inf, max_state_norm, stages)."""
    k = []
    for stage in range(7):
        ys = list(y)
        for j, a in enumerate(_DP_A[stage]):
            if a:
                for i in range(len(ys)):
                    ys[i] += h * a * k[j][i]
        k.append(f(u + _DP_C[stage] * h, ys))
    y5 = [
        yi + h * sum(b * k[j][i] for j, b in enumerate(_DP_B5) if b)
        for i, yi in enumerate(y)
    ]
    err = 0.0
    for i in range(len(y)):
        e4 = sum((_DP_B5[j] - _DP_B4[j]) * k[j][i] for j in range(7))
        err = max(err, abs(h * e4))
    if not all(map(math.isfinite, y5)) or not math.isfinite(err):
        return y5, math.inf, math.inf, k
    return y5, err, max(abs(v) for v in y5), k


def _interpolant(u: float, h: float, y: list, y5: list, k: list) -> Callable:
    """Dense output of an accepted step: y5 at u + h, 4th order inside (u, u + h)."""
    rows = []
    for i, (a, b) in enumerate(zip(y, y5)):
        diff = b - a
        bspl = h * k[0][i] - diff
        tail = h * sum(d * k[j][i] for j, d in enumerate(_DP_D) if d)
        rows.append((a, diff, bspl, diff - h * k[6][i] - bspl, tail))

    def at(t: float) -> list[float]:
        if t == u + h:
            return y5
        s = (t - u) / h
        return [a + s * (c2 + (1 - s) * (c3 + s * (c4 + (1 - s) * c5)))
                for a, c2, c3, c4, c5 in rows]
    return at


def _adaptive_steps(f: Callable, u0: float, y0: list[float], u1: float,
                    tolerances: tuple[float, float], stats: dict):
    """Yield each accepted step (u, h, y, y5, stages) from u0 to exactly u1.

    Counts steps in ``stats``; an early stop sets stats["termination"].
    """
    abs_tol, rel_tol = tolerances
    direction = 1.0 if u1 > u0 else -1.0
    u, y = u0, y0
    h = direction * min(abs(u1 - u0), 1e-3)
    while (u1 - u) * direction > 0:
        if abs(h) < MIN_STEP_FACTOR * max(1.0, abs(u)):
            stats["termination"] = "step_underflow"
            return
        if (u + h - u1) * direction > 0:
            h = u1 - u
        y5, err, norm, k = _rk_step(f, u, y, h)
        scale = abs_tol + rel_tol * max(map(abs, y + y5))
        ratio = err / scale if scale > 0 else math.inf
        if ratio <= 1.0:
            stats["accepted"] += 1
            yield u, h, y, y5, k
            u += h
            y = y5
            if norm > BLOWUP_NORM:
                stats["termination"] = "blow_up"
                return
        else:
            stats["rejected"] += 1
        factor = SAFETY * (ratio ** -0.2) if ratio > 0 else GROW_MAX
        h *= min(GROW_MAX, max(GROW_MIN, factor))


def integrate_system(
    system: VectorFieldSystem,
    params: Mapping[str, float],
    init_state: Sequence[float],
    span: tuple[float, float],
    tolerances: tuple[float, float] = (1e-10, 1e-10),
    mode: str = "adaptive",
    step: Optional[float] = None,
    grid: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Integrate a (possibly ad-hoc) system object; see :func:`integrate`."""
    abs_tol, rel_tol = tolerances
    if abs_tol <= 0 or rel_tol <= 0:
        raise UsageError("tolerances must be positive")
    if len(init_state) != len(system.state):
        raise UsageError(
            f"init state has {len(init_state)} entries, expected {len(system.state)}"
        )
    u0, u1 = float(span[0]), float(span[1])
    if u0 == u1:
        raise UsageError("empty integration span")
    _check_domain(system, u0, u1)
    f = _CompiledSystem(system, params)

    y = list(map(float, init_state))
    times, states = [u0], [y]
    stats = {"accepted": 0, "rejected": 0, "termination": "completed"}

    if mode == "adaptive":
        for u, h, _, y5, _ in _adaptive_steps(f, u0, y, u1, tolerances, stats):
            times.append(u + h)
            states.append(y5)
    elif mode == "fixed":
        if step is None or step <= 0:
            raise UsageError("fixed mode needs a positive step")
        n = max(1, round(abs(u1 - u0) / step))
        h = (u1 - u0) / n
        u = u0
        for i in range(n):
            y, _, norm, _ = _rk_step(f, u, y, h)
            u = u0 + (i + 1) * h
            stats["accepted"] += 1
            if not math.isfinite(norm):
                stats["termination"] = "blow_up"
                break
            times.append(u)
            states.append(y)
            if norm > BLOWUP_NORM:
                stats["termination"] = "blow_up"
                break
    elif mode == "grid":
        if grid is None or len(grid) < 2:
            raise UsageError("grid mode needs at least two sample times")
        pts = [float(g) for g in grid]
        if not all(map(math.isfinite, pts)) or not _strictly_monotone(pts):
            raise UsageError("grid times must be finite and strictly monotone")
        lo, hi = min(u0, u1), max(u0, u1)
        if pts[0] != u0 or not all(lo <= g <= hi for g in pts):
            raise UsageError(
                "grid must start at the span's start and stay inside the span"
            )
        times = [pts[0]]
        i = 1
        for accepted in _adaptive_steps(f, pts[0], y, pts[-1], tolerances, stats):
            u, h = accepted[:2]
            at = _interpolant(*accepted)
            while i < len(pts) and (u + h - pts[i]) * h >= 0:
                times.append(pts[i])
                states.append(at(pts[i]))
                i += 1
    else:
        raise UsageError(f"unknown output mode {mode!r}")

    return Trajectory(
        system_id=system.id,
        params={k: float(v) for k, v in params.items()},
        state_names=system.state,
        times=times,
        states=states,
        abs_tol=abs_tol,
        rel_tol=rel_tol,
        mode=mode,
        termination=stats["termination"],
        steps_accepted=stats["accepted"],
        steps_rejected=stats["rejected"],
    )


def integrate(
    system_id: str,
    params: Mapping[str, float],
    init_state: Sequence[float],
    span: tuple[float, float],
    tolerances: tuple[float, float] = (1e-10, 1e-10),
    mode: str = "adaptive",
    step: Optional[float] = None,
    grid: Optional[Sequence[float]] = None,
) -> Trajectory:
    """Integrate a registered system over a span.

    ``mode`` selects the output: "adaptive" records every accepted step,
    "fixed" takes equal fifth-order steps of size ``step`` (for
    finite-difference residuals), "grid" samples one adaptive run at the
    finite, strictly monotone times ``grid`` by its 4th-order dense output,
    with no restart at each grid point.
    """
    return integrate_system(
        load_model(system_id), params, init_state, span, tolerances, mode, step, grid
    )


# -- conserved-quantity monitoring ----------------------------------------------------


def invariant_drift(traj: Trajectory, integral_id: str) -> float:
    """Max relative drift of the conserved combination along the trajectory.

    For an eigenvalue lambda the monitored combination is
    expr * exp(-lambda * u), constant along exact solutions.
    """
    integral = load_integral(integral_id)
    if integral.system_id != traj.system_id:
        raise UsageError(
            f"integral {integral_id!r} is for system {integral.system_id!r}"
        )
    system = load_model(integral.system_id)
    fn = compile_ratexpr(integral.expr)
    arg_names = integral.expr.table.symbols
    lam = float(integral.lam)
    values = []
    for u, state in zip(traj.times, traj.states):
        bind = dict(traj.params)
        bind[system.indep] = u
        bind.update(zip(traj.state_names, state))
        raw = fn(*[bind.get(n, 0.0) for n in arg_names])
        values.append(raw * math.exp(-lam * u))
    v0 = values[0]
    return max(abs(v - v0) for v in values) / max(abs(v0), 1e-12)


# -- pushforward along birational maps --------------------------------------------------


def _transform_params(bmap: BirationalMap, params: Mapping[str, float]) -> dict:
    out = dict(params)
    names = bmap.param_names
    vec = [float(params[n]) for n in names]
    for i, name in enumerate(names):
        out[name] = (
            sum(bmap.param_matrix[i][j] * vec[j] for j in range(len(names)))
            + bmap.param_offset[i]
        )
    if "eta" in params:
        out["eta"] = bmap.eta_sign * float(params["eta"])
    return out


def pushforward(
    traj: Trajectory, map_id: str, variant: str = "resolved"
) -> Trajectory:
    """Apply a birational map pointwise to a trajectory.

    Parameters, eta and the time axis transform along; a time-axis sign flip
    reverses the sample order so the result stays monotone.  A denominator
    smaller than 1e-12 in magnitude at some sample is an error naming the
    sample index.
    """
    bmap = load_map(map_id, variant)
    if map_id == "reduce_5d_4d":
        return _pushforward_reduction(traj, bmap)
    if bmap.source != traj.system_id:
        raise UsageError(f"map {map_id!r} acts on {bmap.source!r}, not this trajectory")
    source = load_model(bmap.source)
    target = load_model(bmap.target)
    compiled = {
        name: (compile_ratexpr(RatExpr(expr.num)), compile_ratexpr(RatExpr(expr.den)))
        for name, expr in bmap.var_map.items()
    }
    arg_names = source.table.symbols
    new_states = []
    for idx, (u, state) in enumerate(zip(traj.times, traj.states)):
        bind = dict(traj.params)
        bind[source.indep] = u
        bind.update(zip(traj.state_names, state))
        args = [bind.get(n, 0.0) for n in arg_names]
        row = []
        for name in target.state:
            fn_num, fn_den = compiled[name]
            den = fn_den(*args)
            if abs(den) < DENOMINATOR_FLOOR:
                raise DomainError(
                    f"map {map_id!r} nearly singular at sample {idx} "
                    f"(|denominator| = {abs(den):.3e})"
                )
            row.append(fn_num(*args) / den)
        new_states.append(row)
    new_times = [bmap.indep_sign * u for u in traj.times]
    if bmap.indep_sign < 0:
        new_times.reverse()
        new_states.reverse()
    return replace(
        traj, system_id=target.id, params=_transform_params(bmap, traj.params),
        state_names=target.state, times=new_times, states=new_states,
    )


def _pushforward_reduction(traj: Trajectory, bmap: BirationalMap) -> Trajectory:
    """Five-dimensional trajectory to the coupled Hamiltonian chart.

    The new time is s = exp(-t); the map assumes the conserved combination
    was matched at the initial point (y - w*q = exp(-t)).
    """
    if traj.system_id != "five_dim":
        raise UsageError("reduction pushforward expects a five_dim trajectory")
    target = load_model("ham_4d")
    idx = {n: i for i, n in enumerate(traj.state_names)}
    new_times = []
    new_states = []
    for u, state in zip(traj.times, traj.states):
        s = math.exp(-u)
        x, z, w, q = state[idx["x"]], state[idx["z"]], state[idx["w"]], state[idx["q"]]
        new_times.append(s)
        new_states.append([w, x, q / s, z * s])
    return replace(
        traj, system_id=target.id, params=dict(traj.params),
        state_names=target.state, times=new_times, states=new_states,
    )


# -- finite-difference residual certificate ----------------------------------------------


def dynamics_residual(
    traj: Trajectory, system_id: str, params: Mapping[str, float]
) -> float:
    """Max discrepancy between central differences and the vector field.

    Requires uniformly spaced samples (fixed-step or uniform-grid output);
    second-order accurate, so thresholds should scale like h^2.
    """
    if len(traj.times) < 5:
        raise UsageError("need at least 5 samples for a residual certificate")
    h = traj.times[1] - traj.times[0]
    for a, b in zip(traj.times, traj.times[1:]):
        if abs((b - a) - h) > 1e-9 * abs(h):
            raise UsageError("dynamics_residual needs uniform sample spacing")
    f = _CompiledSystem(load_model(system_id), params)
    worst = 0.0
    for i in range(1, len(traj.times) - 1):
        derivs = f(traj.times[i], traj.states[i])
        for c in range(len(derivs)):
            fd = (traj.states[i + 1][c] - traj.states[i - 1][c]) / (2 * h)
            worst = max(worst, abs(fd - derivs[c]))
    return worst
