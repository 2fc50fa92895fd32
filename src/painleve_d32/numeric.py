"""Floating-point integration and trajectory-level certificates.

An explicit embedded Runge-Kutta 5(4) pair (Dormand-Prince coefficients)
with standard safety-factor step control integrates any registered system.
Finite-difference residual checks need exactly uniform samples: fixed-step
mode takes equal steps, and grid mode samples one adaptive run by the pair's
4th-order dense output instead of restarting at each grid point.  Conserved
combinations are monitored along trajectories, and birational maps push
trajectories forward pointwise, transforming parameters, eta and the time axis
by the map's own ``action``.

Every kernel is Python source generated from the exact expressions and
compiled once per distinct text; parameters are default arguments bound per
call.  Each vector field gets one loop per mode that runs a whole
integration, step control and dense output included, with its right-hand
side inlined in every stage, and one finite-difference residual loop.  Each
integral gets one kernel f(indep, state) from :func:`compile_ratexpr`.
Every map, the 5d -> 4d reduction included, takes one pushforward path: a
kernel loops over all samples and evaluates generators as exponentials.
Steps are written out in the summation order of a loop over the tableau
(see :func:`_dp_lines`), and a negative coefficient is rendered as a
subtraction, which IEEE arithmetic gives bit for bit; so trajectories are
bit-identical to that loop's.

Blow-up is expected behavior for these flows (movable singularities); a
truncated trajectory with its termination reason recorded is valid output,
not an error.  A right-hand side that overflows or divides by zero (a pole,
where IEEE arithmetic would give inf) reads as inf in every component.
Non-finite input, a fixed step whose step count exceeds ``MAX_FIXED_STEPS``
or rounds to 0, alphas whose sum is not 1, and a step, grid or parameter
that does not apply to the mode or system, are refused with
:class:`UsageError` before any step.
"""

from __future__ import annotations

import builtins
import math
from dataclasses import dataclass, replace
from functools import cache, cached_property
from types import FunctionType
from typing import Callable, Collection, Mapping, Optional, Sequence, Union

from .models import BirationalMap, VectorFieldSystem, load_integral, load_map, load_model
from .ring import Poly, RatExpr, SymbolTable, _code, has_relation_symbols

BLOWUP_NORM = 1e8
MIN_STEP_FACTOR = 1e-14
SAFETY = 0.9
GROW_MIN, GROW_MAX = 0.2, 5.0
DENOMINATOR_FLOOR = 1e-12
# fixed mode keeps every sample: a million samples of a 5d state take about
# 280 MB
MAX_FIXED_STEPS = 1_000_000


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
    # cost of the run that produced the samples; a pushforward keeps its source's
    rhs_evals: int = 0
    h_min: Optional[float] = None  # smallest and largest |h| of an accepted step
    h_max: Optional[float] = None

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
        import json  # only a written trajectory needs it

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
            "rhs_evals": self.rhs_evals,
            "h_min": self.h_min,
            "h_max": self.h_max,
            "u_end": self.times[-1],
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
    # (-c)*m is -(c*m) and a + -b is a - b exactly, so a negative coefficient
    # is a subtraction, or a leading minus, and 1.0*x is x
    text = ""
    for mono, coeff in p.terms:
        factors = [] if abs(coeff) == 1 and any(mono) else [repr(float(abs(coeff)))]
        for i, e in enumerate(mono):
            if not e:
                continue
            name = p.table.symbols[i]
            factors.append(name if e == 1 else f"{name}**{e}")
        sign = ("-" if coeff < 0 else "") if not text else (" - " if coeff < 0 else " + ")
        text += sign + "*".join(factors)
    return text


def _source(expr: Union[RatExpr, Poly]) -> str:
    if isinstance(expr, Poly):
        return _poly_source(expr)
    num_src = _poly_source(expr.num)
    if expr.den.is_const:
        return num_src
    return f"({num_src}) / ({_poly_source(expr.den)})"


def _define(table: SymbolTable, head: Sequence[str], bound: Collection[str], body: str,
            namespace: dict) -> Callable[[Mapping[str, float]], Callable]:
    """Define ``_kernel(*head, *fixed)`` with globals ``namespace`` from the indented ``body``.

    ``fixed`` are the table symbols outside ``bound``.  Returns bind(values):
    the kernel with each fixed symbol a default argument bound to
    float(values[name]), or 0.0 when absent.  The text is compiled once.
    """
    fixed = [n for n in table.symbols if n not in bound]
    code = _code(f"def _kernel({', '.join([*head, *fixed])}):\n{body}")
    return lambda values: FunctionType(
        code, namespace, "_kernel", tuple(float(values.get(n, 0.0)) for n in fixed)
    )


def compile_ratexpr(
    exprs: Sequence[Union[RatExpr, Poly]],
    state_names: Sequence[str],
    values: Mapping[str, float],
) -> Callable[[float, Sequence[float]], list[float]]:
    """Compile expressions over one table to one float kernel f(indep, state).

    The kernel returns the list of expression values.  ``state`` is unpacked
    positionally in ``state_names`` order; every other table symbol is a
    default argument bound to float(values[name]), or 0.0 when absent.
    """
    table = exprs[0].table
    indep = table.indep_name or "_indep"
    return _define(
        table, [indep, "_state"], {indep, *state_names},
        f"    {''.join(n + ', ' for n in state_names)}= _state\n"
        f"    return [{', '.join(map(_source, exprs))}]\n", _KERNEL_GLOBALS,
    )(values)


def _refuse_unknown_params(
    system: VectorFieldSystem, params: Mapping[str, float]
) -> None:
    unknown = sorted(
        set(params) - set(system.params) - set(system.table.names_of_kind("constant"))
    )
    if unknown:
        raise UsageError(f"{system.id} has no parameters {unknown}")


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

# as the exact point kernels' globals, these bind the builtins, which an
# import triggered inside a kernel reads
_KERNEL_GLOBALS = {"__builtins__": builtins, "_inf": math.inf}


def _stage_lines(k: str, sources: Sequence[str]) -> list[str]:
    """Evaluate the right-hand side into ``{k}0, {k}1, ...``, once the state is bound.

    An OverflowError or a ZeroDivisionError (a pole, where IEEE arithmetic
    would give inf) in any component makes every component inf: read as an
    infinite local error, the step gets rejected and the blow-up guard
    decides once values are representable.
    """
    ks = [f"{k}{i}" for i in range(len(sources))]
    return ["try:", *(f"    {ki} = {src}" for ki, src in zip(ks, sources)),
            "except (OverflowError, ZeroDivisionError):", f"    {' = '.join(ks)} = _inf"]


def _dp_lines(indep: str, state_names: tuple[str, ...],
              sources: tuple[str, ...]) -> tuple[list[str], list[str], str]:
    """Lines of one embedded step from ``_u``, ``_h`` and the state ``_y0, _y1, ...``.

    Returns (setup, step, finite): ``setup`` binds the products h*a_ij once
    per h, ``step`` computes the seven stages ``_k{s}_{i}``, the solution
    ``_y5_{i}`` and the error estimate ``_err``, and ``finite`` is the test
    that the error and every solution component are finite.

    The right-hand side is inlined in each of the seven stages.  Stage values
    add (h*a_ij)*k_j left to right, skipping zero weights; the solution is
    y + h*(0.0 + sum b_j*k_j), the order of ``sum`` on floats; the error
    estimate keeps all seven (b5_j - b4_j)*k_j terms and takes their maximum
    as ``max`` does, so a NaN term is passed over.
    """
    n = range(len(state_names))
    setup = [f"_h{s}{j} = _h * {a!r}"
             for s, row in enumerate(_DP_A, 1) for j, a in enumerate(row, 1) if a]
    step = []
    for s, (c, row) in enumerate(zip(_DP_C, _DP_A), 1):
        step.append(f"{indep} = _u + {c!r} * _h")
        step += [f"{name} = _y{i}" + "".join(
            f" + _h{s}{j} * _k{j}_{i}" for j, a in enumerate(row, 1) if a)
            for i, name in zip(n, state_names)]
        step += _stage_lines(f"_k{s}_", sources)
    step += [f"_y5_{i} = _y{i} + _h * (0.0" + "".join(
        f" + {b!r} * _k{j}_{i}" for j, b in enumerate(_DP_B5, 1) if b) + ")" for i in n]
    step.append("_err = 0.0")
    for i in n:
        step.append("_e = abs(_h * (0.0" + "".join(
            f" + {b5 - b4!r} * _k{j}_{i}"
            for j, (b5, b4) in enumerate(zip(_DP_B5, _DP_B4), 1)) + "))")
        step.append("if _e > _err: _err = _e")
    # -inf < v < inf is math.isfinite(v) for a float
    return setup, step, "_err < _inf" + "".join(f" and -_inf < _y5_{i} < _inf" for i in n)


@cache
def _step_body(indep: str, state_names: tuple[str, ...], sources: tuple[str, ...]) -> str:
    """Body of one embedded step ``(_u, _y, _h)`` -> (y5, error_inf, max_state_norm, stages).

    See :func:`_dp_lines`.  A solution or error that is not finite reads as
    an infinite error and norm.
    """
    n = range(len(state_names))
    setup, step, finite = _dp_lines(indep, state_names, sources)
    k = "[" + ", ".join(f"[{', '.join(f'_k{s}_{i}' for i in n)}]" for s in range(1, 8)) + "]"
    lines = [f"{''.join(f'_y{i}, ' for i in n)}= _y", *setup, *step,
             f"_y5 = [{', '.join(f'_y5_{i}' for i in n)}]",
             f"if {finite}:",
             f"    return _y5, _err, max(map(abs, _y5)), {k}",
             f"return _y5, _inf, _inf, {k}"]
    return "".join(f"    {line}\n" for line in lines)


@cache
def _fixed_body(indep: str, state_names: tuple[str, ...], sources: tuple[str, ...]) -> str:
    """Body of a fixed-step run ``(_u0, _y, _h, _n, _times, _states)`` -> (steps, termination).

    Up to ``_n`` steps of :func:`_dp_lines` in one loop, under the rules of
    :func:`integrate_system`'s fixed mode: step i (from 1) ends at
    u0 + i*h and is counted first; a solution or error that is not finite
    stops the run as "blow_up" without its sample; otherwise the sample is
    appended to ``_times`` and ``_states``, and a component above
    ``BLOWUP_NORM`` in magnitude stops the run as "blow_up".
    """
    n = range(len(state_names))
    setup, step, finite = _dp_lines(indep, state_names, sources)
    ys = ", ".join(f"_y{i}" for i in n)
    y5s = ", ".join(f"_y5_{i}" for i in n)
    lines = [f"{ys}, = _y", "_u = _u0", *setup, "for _i in range(1, _n + 1):",
             *(f"    {line}" for line in step),
             "    _u = _u0 + _i * _h",
             f"    if not ({finite}):",
             "        return _i, 'blow_up'",
             "    _times.append(_u)",
             f"    _states.append([{y5s}])",
             f"    if {' or '.join(f'abs(_y5_{i}) > {BLOWUP_NORM!r}' for i in n)}:",
             "        return _i, 'blow_up'",
             f"    {ys} = {y5s}",
             "return _n, 'completed'"]
    return "".join(f"    {line}\n" for line in lines)


@cache
def _adaptive_body(indep: str, state_names: tuple[str, ...], sources: tuple[str, ...],
                   grid: bool) -> str:
    """Body of an adaptive run ``(_u0, _y, _u1, _atol, _rtol, _times, _states[, _pts])``
    -> (accepted, rejected, termination, h_min, h_max).

    Steps of :func:`_dp_lines` from u0 to u1: the first is 1e-3, or the
    span if shorter; one below ``MIN_STEP_FACTOR`` * max(1, |u|) ends the
    run as "step_underflow", and one past u1 is cut to end there.  A trial
    that is not finite has error ratio inf, one of ratio at most 1 is
    accepted and sampled, and a sample above ``BLOWUP_NORM`` ends the run as
    "blow_up".  Each trial scales h by SAFETY * ratio**-0.2 within
    [GROW_MIN, GROW_MAX]; every max and min is written as the scan of
    ``max`` and ``min``.  A sample is the step's end and solution or, with
    ``grid``, each time of ``_pts`` the step reaches, valued by the pair's
    dense output (Hairer, Norsett & Wanner, Solving ODEs I, II.6), which is
    built only for such a step.
    """
    n = range(len(state_names))
    setup, step, finite = _dp_lines(indep, state_names, sources)
    ys = ", ".join(f"_y{i}" for i in n)
    y5s = ", ".join(f"_y5_{i}" for i in n)
    done = "return _acc, _rej, '{}', _hmin, _hmax"
    scan = [f"_y{i}" for i in n][1:] + y5s.split(", ")
    if grid:
        # the interpolant's coefficients; the tail's sum is written out left
        # to right, the order of ``sum`` on floats before Python 3.12
        rows = [line for i in n for line in (
            f"_c{i} = _y5_{i} - _y{i}", f"_b{i} = _h * _k1_{i} - _c{i}",
            f"_d{i} = _c{i} - _h * _k7_{i} - _b{i}",
            f"_t{i} = _h * (0.0" + "".join(
                f" + {d!r} * _k{j}_{i}" for j, d in enumerate(_DP_D, 1) if d) + ")")]
        dense = ", ".join(f"_y{i} + _x * (_c{i} + (1 - _x) * (_b{i} + _x * (_d{i}"
                          f" + (1 - _x) * _t{i})))" for i in n)
        reached = "_i < _n and (_end - _pts[_i]) * _h >= 0"
        sample = ["_end = _u + _h", f"if {reached}:", *(f"    {line}" for line in rows),
                  f"    while {reached}:",
                  "        _g = _pts[_i]",
                  "        _times.append(_g)",
                  "        if _g == _end:",
                  f"            _states.append([{y5s}])",
                  "        else:",
                  "            _x = (_g - _u) / _h",
                  f"            _states.append([{dense}])",
                  "        _i += 1",
                  "_u += _h"]
    else:
        sample = ["_u += _h", "_times.append(_u)", f"_states.append([{y5s}])"]
    lines = [f"{ys}, = _y", "_u = _u0", "_dir = 1.0 if _u1 > _u0 else -1.0",
             "_h = abs(_u1 - _u0)", "_h = _dir * (1e-3 if 1e-3 < _h else _h)",
             "_acc = _rej = 0", "_hmin, _hmax = _inf, 0.0",
             *(["_i, _n = 1, len(_pts)"] if grid else []),
             "while (_u1 - _u) * _dir > 0:",
             "    _m = abs(_u)",
             f"    if abs(_h) < {MIN_STEP_FACTOR!r} * (_m if _m > 1.0 else 1.0):",
             f"        {done.format('step_underflow')}",
             "    if (_u + _h - _u1) * _dir > 0:",
             "        _h = _u1 - _u",
             *(f"    {line}" for line in [*setup, *step]),
             "    _s = abs(_y0)",
             *(f"    if abs({v}) > _s: _s = abs({v})" for v in scan),
             "    _scale = _atol + _rtol * _s",
             f"    _ratio = _err / _scale if _scale > 0 and {finite} else _inf",
             "    if _ratio <= 1.0:",
             "        _acc += 1",
             "        _m = abs(_h)",
             "        if _m < _hmin: _hmin = _m",
             "        if _m > _hmax: _hmax = _m",
             *(f"        {line}" for line in sample),
             f"        {ys} = {y5s}",
             f"        if {' or '.join(f'abs(_y{i}) > {BLOWUP_NORM!r}' for i in n)}:",
             f"            {done.format('blow_up')}",
             "    else:",
             "        _rej += 1",
             f"    _f = {SAFETY!r} * (_ratio ** -0.2) if _ratio > 0 else {GROW_MAX!r}",
             f"    _f = _f if _f > {GROW_MIN!r} else {GROW_MIN!r}",
             f"    _h *= _f if _f < {GROW_MAX!r} else {GROW_MAX!r}",
             done.format("completed")]
    return "".join(f"    {line}\n" for line in lines)


@cache
def _residual_body(indep: str, state_names: tuple[str, ...], sources: tuple[str, ...]) -> str:
    """Body of ``(_times, _states, _h)`` -> max |central difference - field| over samples."""
    n = range(len(state_names))
    lines = [
        f"for {indep}, _before, _state, _after in zip(",
        "        _times[1:-1], _states, _states[1:], _states[2:]):",
        f"    {''.join(name + ', ' for name in state_names)}= _state",
        f"    {''.join(f'_b{i}, ' for i in n)}= _before",
        f"    {''.join(f'_a{i}, ' for i in n)}= _after",
        *(f"    {line}" for line in _stage_lines("_d", sources)),
    ]
    for i in n:
        lines.append(f"    _e = abs((_a{i} - _b{i}) / (2 * _h) - _d{i})")
        lines.append("    if _e > _worst: _worst = _e")
    return "".join(f"    {line}\n" for line in ["_worst = 0.0", *lines, "return _worst"])


@cache
def _rhs_sources(rhs: tuple[RatExpr, ...]) -> tuple[str, ...]:
    """The sources of a right-hand side, rendered once per process.

    Keyed by the expressions themselves, which are equal only over the same
    table, so an ad-hoc system that carries a registry id gets its own text.
    """
    return tuple(map(_source, rhs))


class _CompiledSystem:
    """Vector field compiled from the sources of its right-hand side.

    Each mode is one generated loop with the right-hand side inlined:
    ``f.adaptive`` and ``f.grid`` (:func:`_adaptive_body`), ``f.fixed``
    (:func:`_fixed_body`) and ``f.residual`` (:func:`_residual_body`).
    ``evals`` counts the right-hand side evaluations of all calls.

    No integrator path calls ``__call__``, ``f.step`` (:func:`_step_body`)
    or :func:`_rk_step`: they stay as seams the benchmark's layer trace
    (``bench/layertrace.py``) wraps by name, and the tests evaluate single
    steps through them; only a change to the benchmark can remove them.
    """

    def __init__(self, system: VectorFieldSystem, params: Mapping[str, float]):
        table = system.table
        missing = [
            n for n in table.symbols
            if table.kind_of(n) in ("parameter", "constant") and n not in params
        ]
        if missing:
            raise UsageError(f"missing numeric parameters: {missing}")
        bad = [n for n in params if n in table and not math.isfinite(float(params[n]))]
        if bad:
            raise UsageError(f"non-finite parameter values: {bad}")
        self._system, self._params = system, params
        self._sources = _rhs_sources(tuple(system.rhs[n] for n in system.state))
        self.evals = 0

    def _bind(self, head: Sequence[str], make_body: Callable, *extra) -> Callable:
        system = self._system
        body = make_body(system.indep, system.state, self._sources, *extra)
        return _define(system.table, head, {system.indep, *system.state}, body,
                       _KERNEL_GLOBALS)(self._params)

    @cached_property
    def step(self) -> Callable:
        return self._bind(["_u", "_y", "_h"], _step_body)

    @cached_property
    def adaptive(self) -> Callable:
        return self._bind(["_u0", "_y", "_u1", "_atol", "_rtol", "_times", "_states"],
                          _adaptive_body, False)

    @cached_property
    def grid(self) -> Callable:
        return self._bind(["_u0", "_y", "_u1", "_atol", "_rtol", "_times", "_states", "_pts"],
                          _adaptive_body, True)

    @cached_property
    def fixed(self) -> Callable:
        return self._bind(["_u0", "_y", "_h", "_n", "_times", "_states"], _fixed_body)

    @cached_property
    def residual(self) -> Callable:
        return self._bind(["_times", "_states", "_h"], _residual_body)

    @cached_property
    def _kernel(self) -> Callable:
        system = self._system
        return compile_ratexpr([system.rhs[n] for n in system.state], system.state,
                               self._params)

    def __call__(self, u: float, state: Sequence[float]) -> list[float]:
        self.evals += 1
        try:
            return self._kernel(u, state)
        except (OverflowError, ZeroDivisionError):
            # the same rule as a stage of the generated step
            return [math.inf] * len(state)


def _rk_step(
    f: _CompiledSystem, u: float, y: Sequence[float], h: float
) -> tuple[list[float], float, float, list[list[float]]]:
    """One embedded step: returns (y5, error_inf, max_state_norm, stages).

    A seam no integrator path calls; see :class:`_CompiledSystem`."""
    f.evals += 7
    return f.step(u, y, h)


def _fixed_steps(f: _CompiledSystem, u0: float, y: Sequence[float], h: float, n: int,
                 times: list[float], states: list[list[float]]) -> tuple[int, str]:
    """Up to ``n`` equal steps from (u0, y), appending samples: returns (steps, termination)."""
    steps, termination = f.fixed(u0, y, h, n, times, states)
    f.evals += 7 * steps
    return steps, termination


def _adaptive_run(f: _CompiledSystem, u0: float, y: Sequence[float], u1: float,
                  tolerances: tuple[float, float], times: list[float],
                  states: list[list[float]], *grid: list[float]
                  ) -> tuple[int, int, str, float, float]:
    """An adaptive run from (u0, y) to u1, sampled at each step's end or on
    the one ``grid``: (accepted, rejected, termination, h_min, h_max)."""
    run = (f.grid if grid else f.adaptive)(u0, y, u1, *tolerances, times, states, *grid)
    f.evals += 7 * (run[0] + run[1])
    return run


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
    if step is not None and mode != "fixed":
        raise UsageError(f"a step applies only to fixed mode, not {mode!r}")
    if grid is not None and mode != "grid":
        raise UsageError(f"a grid applies only to grid mode, not {mode!r}")
    _refuse_unknown_params(system, params)
    abs_tol, rel_tol = tolerances
    if not (0 < abs_tol < math.inf and 0 < rel_tol < math.inf):
        raise UsageError("tolerances must be positive and finite")
    if len(init_state) != len(system.state):
        raise UsageError(
            f"init state has {len(init_state)} entries, expected {len(system.state)}"
        )
    y = list(map(float, init_state))
    u0, u1 = float(span[0]), float(span[1])
    if not all(map(math.isfinite, [*y, u0, u1])):
        raise UsageError("init state and span must be finite")
    if u0 == u1:
        raise UsageError("empty integration span")
    _check_domain(system, u0, u1)
    f = _CompiledSystem(system, params)
    if has_relation_symbols(system.table):
        total = sum(float(params[n]) for n in ("alpha0", "alpha1", "alpha2"))
        if abs(total - 1) > 1e-9:
            raise UsageError(f"{system.id} needs alpha0 + alpha1 + alpha2 = 1, got {total!r}")

    times, states = [u0], [y]
    if mode == "adaptive":
        accepted, rejected, termination, h_min, h_max = _adaptive_run(
            f, u0, y, u1, tolerances, times, states)
    elif mode == "fixed":
        if step is None or not 0 < step < math.inf:
            raise UsageError(f"fixed mode needs a positive step, not {step}")
        count = abs(u1 - u0) / step
        if count == math.inf or not round(count):
            raise UsageError(f"fixed step {step!r} gives no finite step count of at least 1")
        if count > MAX_FIXED_STEPS:
            raise UsageError(
                f"fixed step {step!r} needs {count:.3g} steps, "
                f"more than the {MAX_FIXED_STEPS} allowed"
            )
        n = round(count)
        h = (u1 - u0) / n
        rejected, h_min, h_max = 0, abs(h), abs(h)
        accepted, termination = _fixed_steps(f, u0, y, h, n, times, states)
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
        accepted, rejected, termination, h_min, h_max = _adaptive_run(
            f, pts[0], y, pts[-1], tolerances, times, states, pts)
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
        termination=termination,
        steps_accepted=accepted,
        steps_rejected=rejected,
        rhs_evals=f.evals,
        h_min=h_min if accepted else None,
        h_max=h_max if accepted else None,
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
    kernel = compile_ratexpr([integral.expr], traj.state_names, traj.params)
    lam = float(integral.lam)
    values = [
        kernel(u, state)[0] * math.exp(-lam * u)
        for u, state in zip(traj.times, traj.states)
    ]
    v0 = values[0]
    return max(abs(v - v0) for v in values) / max(abs(v0), 1e-12)


# -- pushforward along birational maps --------------------------------------------------


def _transform_params(bmap: BirationalMap, params: Mapping[str, float]) -> dict:
    """The parameter values on the map's image, for the target's symbols only."""
    out = {n: v for n, v in params.items() if n in load_model(bmap.target).table}
    names = bmap.param_names
    out.update(zip(names, bmap.action.apply([float(params[n]) for n in names])))
    if "eta" in out:
        out["eta"] = bmap.action.eta_sign * float(params["eta"])
    return out


@cache
def _compile_map(map_id: str, variant: str, state_names: tuple[str, ...]) -> Callable:
    """Compile a map once into a kernel over a whole sample list; see :func:`_define`.

    kernel(times, states) returns the new times, the map's image of the
    target's time at each sample, and the new states.  A generator with the
    rule c*E is evaluated as exp(c*u).  Each denominator is checked against
    the floor.
    """
    bmap = load_map(map_id, variant)
    target = load_model(bmap.target)
    table, indep = bmap.table, bmap.table.indep_name
    tau = bmap.pullback_bindings(table, target.table)[target.indep]
    exprs = [bmap.var_map[n] for n in target.state]
    lines = [f"{''.join(n + ', ' for n in state_names)}= _state"]
    lines += [f"{n} = _exp(({_source(rule / RatExpr.sym(table, n))}) * {indep})"
              for n, rule in bmap.rules.items()]
    lines.append(", ".join(f"_n{i}, _d{i}" for i in range(len(exprs))) + " = "
                 + ", ".join(_poly_source(p) for e in exprs for p in (e.num, e.den)))
    # a constant denominator is 1: it needs neither the floor nor the division
    lines += [f"if abs(_d{i}) < _FLOOR: raise _DomainError(_MSG.format(_i, {n!r}, abs(_d{i})))"
              for i, (n, e) in enumerate(zip(target.state, exprs)) if not e.den.is_const]
    row = [f"_n{i}" if e.den.is_const else f"_n{i} / _d{i}" for i, e in enumerate(exprs)]
    lines += [f"_times_out.append({_source(tau)})", f"_states_out.append([{', '.join(row)}])"]
    return _define(
        table, ["_times", "_states"], {indep, *state_names, *bmap.rules},
        "    _times_out, _states_out = [], []\n"
        f"    for _i, ({indep}, _state) in enumerate(zip(_times, _states)):\n"
        + "".join(f"        {line}\n" for line in lines)
        + "    return _times_out, _states_out\n",
        {**_KERNEL_GLOBALS, "_exp": math.exp, "_FLOOR": DENOMINATOR_FLOOR,
         "_DomainError": DomainError,
         "_MSG": f"map {map_id!r} nearly singular at sample {{}} in component {{}} "
                 "(|denominator| = {:.3e})"},
    )


def pushforward(
    traj: Trajectory, map_id: str, variant: str = "resolved"
) -> Trajectory:
    """Apply a birational map pointwise to a trajectory, by its compiled kernel.

    Parameters, eta and the time axis transform along: the new time is the
    map's image of the target's time, +-u for a symmetry and s = exp(-u) for
    the 5d -> 4d reduction.  A time-axis sign flip reverses the sample order.
    A denominator smaller than 1e-12 in magnitude at some sample is an error
    naming the sample index and the component.
    """
    bmap = load_map(map_id, variant)
    if bmap.source != traj.system_id:
        raise UsageError(f"map {map_id!r} acts on {bmap.source!r}, not this trajectory")
    target = load_model(bmap.target)
    kernel = _compile_map(map_id, variant, tuple(traj.state_names))(traj.params)
    new_times, new_states = kernel(traj.times, traj.states)
    if bmap.action.indep_sign < 0:
        new_times.reverse()
        new_states.reverse()
    return replace(
        traj, system_id=target.id, params=_transform_params(bmap, traj.params),
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
    system = load_model(system_id)
    _refuse_unknown_params(system, params)
    if tuple(traj.state_names) != system.state:
        raise UsageError(
            f"trajectory state {tuple(traj.state_names)} is not {system_id}'s {system.state}"
        )
    if len(traj.times) < 5:
        raise UsageError("need at least 5 samples for a residual certificate")
    h = traj.times[1] - traj.times[0]
    for a, b in zip(traj.times, traj.times[1:]):
        if abs((b - a) - h) > 1e-9 * abs(h):
            raise UsageError("dynamics_residual needs uniform sample spacing")
    return _CompiledSystem(system, params).residual(traj.times, traj.states, h)
