"""Integrator targets, drift monitoring, pushforwards, residual certificates."""

from __future__ import annotations

import json
import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from painleve_d32 import numeric, ring
from painleve_d32.models import (
    INTEGRAL_IDS,
    MAP_IDS,
    SYSTEM_IDS,
    VectorFieldSystem,
    load_integral,
    load_map,
    load_model,
)
from painleve_d32.ring import RatExpr, SingularPointError, evaluate
from painleve_d32.numeric import (
    DomainError,
    Trajectory,
    UsageError,
    dynamics_residual,
    integrate,
    integrate_system,
    invariant_drift,
    pushforward,
)

PARAMS_5D = {"alpha0": 0.3, "alpha1": 0.25, "alpha2": 0.45, "eta": 0.7}
INIT_5D = [0.4, 0.8, -0.3, 0.5, -0.2]
BLOW_5D = [200.0, 5.0, -200.0, 300.0, -300.0]


def test_closed_form_exponential_target():
    # dx/dt = x/2 + 1/2 from x(0) = 0: x(1) = exp(1/2) - 1
    traj = integrate(
        "linear_xz", {"alpha0": 0.5, "alpha2": 0.5, "eta": 1.0},
        [0.0, 1.0], (0.0, 1.0), tolerances=(1e-10, 1e-10),
    )
    assert traj.termination == "completed"
    assert abs(traj.states[-1][0] - (math.exp(0.5) - 1)) < 1e-8


def test_equilibrium_is_constant():
    a0, a2, eta = 0.4, 0.35, 0.8
    params = {"alpha0": a0, "alpha1": 1 - a0 - a2, "alpha2": a2, "eta": eta}
    fixed = [-1 / (2 * a2), 0.0, eta / (2 * a0), 0.0, 0.0]
    traj = integrate("five_dim", params, fixed, (0.0, 2.0))
    for state in traj.states:
        assert max(abs(v - f) for v, f in zip(state, fixed)) < 1e-12


def test_ywq_drift_small():
    traj = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0),
                     tolerances=(1e-10, 1e-10))
    assert traj.termination == "completed"
    assert invariant_drift(traj, "ywq") < 1e-6


def test_i1_drift_small():
    traj = integrate("K1_sys", {"alpha": 0.4}, [0.3, 0.5], (1.0, 2.0),
                     tolerances=(1e-10, 1e-10))
    assert invariant_drift(traj, "I1") < 1e-6


def test_perturbed_rhs_breaks_conservation():
    from fractions import Fraction

    five = load_model("five_dim")
    rhs = dict(five.rhs)
    rhs["y"] = rhs["y"] + Fraction(1, 100)
    broken = VectorFieldSystem("five_dim", five.table, rhs)
    traj = integrate_system(broken, PARAMS_5D, INIT_5D, (0.0, 1.0),
                            tolerances=(1e-10, 1e-10))
    assert invariant_drift(traj, "ywq") > 1e-3


def test_second_order_convergence_over_a_decade():
    residuals = []
    for h in (8e-3, 4e-3, 2e-3, 1e-3, 5e-4):
        traj = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.5),
                         mode="fixed", step=h)
        residuals.append(dynamics_residual(traj, "five_dim", PARAMS_5D))
    for coarse, fine in zip(residuals, residuals[1:]):
        assert 3.0 < coarse / fine < 5.0


def test_tightening_tolerances_reduces_drift():
    loose = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0),
                      tolerances=(1e-5, 1e-5))
    tight = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0),
                      tolerances=(1e-7, 1e-7))
    assert invariant_drift(loose, "ywq") / invariant_drift(tight, "ywq") >= 10.0


def test_integration_is_deterministic():
    a = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0))
    b = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0))
    assert a.times == b.times and a.states == b.states


def test_s1_pushforward_satisfies_transformed_dynamics():
    traj = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.5),
                     mode="fixed", step=1e-3)
    pushed = pushforward(traj, "s1_5d")
    assert pushed.params["alpha0"] == pytest.approx(0.55)
    assert pushed.params["alpha1"] == pytest.approx(-0.25)
    assert pushed.params["alpha2"] == pytest.approx(0.7)
    assert dynamics_residual(pushed, "five_dim", pushed.params) < 1e-4
    wrong = dict(pushed.params)
    wrong["alpha0"] += 1.0
    assert dynamics_residual(pushed, "five_dim", wrong) > 1e-2


def test_s1_pushforward_identity_when_alpha1_zero():
    params = {"alpha0": 0.4, "alpha1": 0.0, "alpha2": 0.6, "eta": 0.7}
    traj = integrate("five_dim", params, INIT_5D, (0.0, 0.3),
                     mode="fixed", step=1e-2)
    pushed = pushforward(traj, "s1_5d")
    assert pushed.times == traj.times
    for row_a, row_b in zip(pushed.states, traj.states):
        assert row_a == pytest.approx(row_b, rel=1e-14, abs=1e-15)


def test_s0_pushforward_transforms_eta_and_params():
    traj = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.5),
                     mode="fixed", step=1e-3)
    pushed = pushforward(traj, "s0_5d")
    assert pushed.params["alpha0"] == pytest.approx(-0.3)
    assert pushed.params["alpha1"] == pytest.approx(0.85)
    assert pushed.params["eta"] == pytest.approx(-0.7)
    assert dynamics_residual(pushed, "five_dim", pushed.params) < 1e-3


def test_s2_pushforward_separates_variants():
    traj = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.5),
                     mode="fixed", step=1e-3)
    good = pushforward(traj, "s2_5d", "corrected")
    bad = pushforward(traj, "s2_5d", "printed")
    assert dynamics_residual(good, "five_dim", good.params) < 1e-4
    assert dynamics_residual(bad, "five_dim", bad.params) > 1e-2


def test_reduction_pushforward_consistency():
    # uniform s-grid; the conserved combination is matched at the start
    # (y - w*q = 1 at t = 0) so the reduced samples solve the coupled system
    n = 400
    s_lo = math.exp(-0.9)
    s_grid = [1.0 - i * (1.0 - s_lo) / n for i in range(n + 1)]
    t_grid = [-math.log(s) for s in s_grid]
    init = [0.4, 0.5 * (-0.2) + 1.0, -0.3, 0.5, -0.2]
    traj = integrate("five_dim", PARAMS_5D, init, (t_grid[0], t_grid[-1]),
                     tolerances=(1e-12, 1e-12), mode="grid", grid=t_grid)
    reduced = pushforward(traj, "reduce_5d_4d")
    assert reduced.system_id == "ham_4d"
    assert reduced.times[0] > reduced.times[-1]  # s decreases as t grows
    assert dynamics_residual(reduced, "ham_4d", reduced.params) < 1e-4


@pytest.mark.parametrize("map_id, params, init, span", [
    ("order2_ham_4d", PARAMS_5D, [0.1, 0.2, 0.3, 0.4], (0.5, 2.0)),
    ("order2_xzw", {"alpha0": 0.3, "alpha2": 0.45, "eta": 0.7}, [0.4, -0.3, 0.5],
     (0.0, 1.0)),
])
def test_second_order_pushforward_satisfies_the_second_order_form(
    map_id, params, init, span
):
    bmap = load_map(map_id)
    traj = integrate(bmap.source, params, init, span, mode="fixed", step=1e-3)
    pushed = pushforward(traj, map_id)
    assert pushed.system_id == bmap.target
    assert pushed.times == traj.times
    # the pushed run can be continued in the target system
    assert integrate(bmap.target, pushed.params, pushed.states[-1],
                     (span[1], span[1] + 0.1)).termination == "completed"
    assert dynamics_residual(pushed, bmap.target, pushed.params) < 1e-4
    wrong = {**pushed.params, "alpha2": pushed.params["alpha2"] + 0.5}
    assert dynamics_residual(pushed, bmap.target, wrong) > 1e-2


def test_grid_rejects_bad_grid_before_integrating(monkeypatch):
    calls = []
    monkeypatch.setattr(numeric, "_rk_step", lambda *args: calls.append(args))
    for grid in ([0.0, 0.5, 0.2, 1.0], [0.0, 0.5, 0.5, 1.0], [0.0, math.nan, 1.0],
                 [0.0, 0.5, math.inf], [0.0]):
        with pytest.raises(UsageError):
            integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0),
                      mode="grid", grid=grid)
    assert calls == []


def test_grid_must_start_at_span_start_and_stay_inside(monkeypatch):
    calls = []
    monkeypatch.setattr(numeric, "_rk_step", lambda *args: calls.append(args))
    for span, grid in (((0.0, 5.0), [2.0, 2.5, 3.0]),   # init state is at u = 0
                       ((0.0, 1.0), [0.0, 0.5, 1.5]),
                       ((1.0, 0.0), [1.0, 0.5, -0.5]),
                       ((1.0, 0.0), [1.0, 1.5])):
        with pytest.raises(UsageError):
            integrate("five_dim", PARAMS_5D, INIT_5D, span, mode="grid", grid=grid)
    assert calls == []


@pytest.mark.parametrize("system_id, params, init, span, integral", [
    ("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0), "ywq"),
    ("five_dim", PARAMS_5D, INIT_5D, (1.0, 0.0), "ywq"),  # decreasing grid
    ("ham_4d", PARAMS_5D, [0.1, 0.2, 0.3, 0.4], (0.5, 2.0), None),
    ("K1_sys", {"alpha": 0.4}, [0.3, 0.5], (1.0, 2.0), "I1"),
])
def test_dense_output_matches_adaptive_runs(system_id, params, init, span, integral):
    # five samples inside the span, each against a run that ends exactly there
    u0, u1 = span
    grid = [u0] + [u0 + f * (u1 - u0) for f in (0.137, 0.291, 0.503, 0.778, 0.961)]
    traj = integrate(system_id, params, init, span, tolerances=(1e-10, 1e-10),
                     mode="grid", grid=grid)
    assert traj.termination == "completed" and traj.times == grid
    whole = integrate(system_id, params, init, (u0, grid[-1]), tolerances=(1e-10, 1e-10))
    assert not set(grid[1:-1]) & set(whole.times)  # interior samples interpolate
    for t, state in zip(grid[1:], traj.states[1:]):
        ref = integrate(system_id, params, init, (u0, t), tolerances=(1e-10, 1e-10))
        assert ref.times[-1] == t
        assert max(abs(a - b) for a, b in zip(state, ref.states[-1])) < 1e-8
    if integral:
        assert invariant_drift(traj, integral) < 1e-6


def test_dense_output_matches_linear_closed_form():
    a0, a2, eta = 0.55, 0.45, 1.1
    x0, z0 = 0.2, 0.9
    grid = [i / 100 for i in range(101)]
    traj = integrate("linear_xz", {"alpha0": a0, "alpha2": a2, "eta": eta}, [x0, z0],
                     (0.0, 1.0), tolerances=(1e-10, 1e-10), mode="grid", grid=grid)
    assert traj.times == grid
    for t, (x, z) in zip(traj.times, traj.states):
        x_exact = (x0 + 1 / (2 * a2)) * math.exp(a2 * t) - 1 / (2 * a2)
        z_exact = (z0 - eta / (2 * a0)) * math.exp(a0 * t) + eta / (2 * a0)
        assert abs(x - x_exact) < 1e-8 and abs(z - z_exact) < 1e-8


def test_grid_on_adaptive_step_ends_reproduces_the_run():
    adaptive = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0))
    grid = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0),
                     mode="grid", grid=adaptive.times)
    assert grid.times == adaptive.times
    assert grid.states == adaptive.states
    assert grid.steps_accepted == adaptive.steps_accepted
    assert grid.steps_rejected == adaptive.steps_rejected


def test_every_step_goes_through_rk_step(monkeypatch):
    # the benchmark's layer trace wraps _rk_step to count adaptive and grid
    # steps; the stages evaluate the right-hand side inline, so rhs_evals is
    # the record of them
    steps = []
    rk_step = numeric._rk_step
    monkeypatch.setattr(numeric, "_rk_step", lambda *a: steps.append(a[3]) or rk_step(*a))
    rejected = 0
    for init, span, kwargs in (
        (INIT_5D, (0.0, 1.0), {"tolerances": (1e-5, 1e-5)}),
        (INIT_5D, (0.0, 1.0), {"mode": "grid", "grid": [i / 50 for i in range(51)]}),
        (BLOW_5D, (0.0, 10.0), {"tolerances": (1e-8, 1e-8)}),
        (BLOW_5D, (0.0, 10.0), {"mode": "grid", "grid": [i / 10 for i in range(101)]}),
    ):
        del steps[:]
        traj = integrate("five_dim", PARAMS_5D, init, span, **kwargs)
        assert len(steps) == traj.steps_accepted + traj.steps_rejected > 0
        assert traj.rhs_evals == 7 * len(steps)
        rejected += traj.steps_rejected
    assert rejected > 0


def test_only_grid_steps_build_their_stages(monkeypatch):
    # the seven stage vectors feed grid mode's dense output alone: an
    # adaptive step returns None in their place
    stages = []
    rk_step = numeric._rk_step

    def spy(*args):
        result = rk_step(*args)
        stages.append(result[3])
        return result

    monkeypatch.setattr(numeric, "_rk_step", spy)
    integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.5))
    assert stages and all(k is None for k in stages)
    del stages[:]
    integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.5), mode="grid", grid=[0.0, 0.25, 0.5])
    assert stages and all(len(k) == 7 and {len(s) for s in k} == {5} for k in stages)


def test_every_fixed_step_goes_through_fixed_steps(monkeypatch):
    # fixed mode runs the whole integration in one generated loop per system
    runs = []
    fixed_steps = numeric._fixed_steps
    monkeypatch.setattr(numeric, "_rk_step", _no_step)
    monkeypatch.setattr(numeric, "_fixed_steps",
                        lambda *a: runs.append(fixed_steps(*a)) or runs[-1])
    for init, span, step, termination in (
        (INIT_5D, (0.0, 1.0), 1e-2, "completed"),
        (BLOW_5D, (0.0, 1.0), 1e-4, "blow_up"),   # past BLOWUP_NORM
        (OVERFLOW_5D, (0.0, 1.0), 1e-2, "blow_up"),  # a non-finite solution
    ):
        del runs[:]
        traj = integrate("five_dim", PARAMS_5D, init, span, mode="fixed", step=step)
        assert runs == [(traj.steps_accepted, traj.termination)]
        assert traj.termination == termination
        assert traj.rhs_evals == 7 * traj.steps_accepted > 0


def test_ham_4d_domain_guard():
    params = dict(PARAMS_5D)
    with pytest.raises(DomainError):
        integrate("ham_4d", params, [0.1, 0.2, 0.3, 0.4], (-1.0, 1.0))
    with pytest.raises(DomainError):
        integrate("ham_4d", params, [0.1, 0.2, 0.3, 0.4], (0.0, 1.0))
    # entirely negative spans avoid the singular locus
    traj = integrate("ham_4d", params, [0.1, 0.2, 0.3, 0.4], (-1.0, -0.5))
    assert traj.termination == "completed"


def test_blow_up_guard_returns_partial_trajectory():
    params = {"alpha0": 0.3, "alpha1": 0.25, "alpha2": 0.45, "eta": 0.7}
    traj = integrate("five_dim", params, [200.0, 5.0, -200.0, 300.0, -300.0],
                     (0.0, 10.0), tolerances=(1e-8, 1e-8))
    assert traj.termination == "blow_up"
    assert traj.times[-1] < 10.0
    assert len(traj.times) >= 2


def test_pushforward_singularity_reports_sample():
    # the middle reflection divides by y; drive y through zero
    traj = Trajectory(
        system_id="five_dim", params=dict(PARAMS_5D),
        state_names=("x", "y", "z", "w", "q"),
        times=[0.0, 0.1], states=[[1, 1, 1, 1, 1], [1, 0, 1, 1, 1]],
        abs_tol=1e-10, rel_tol=1e-10, mode="fixed", termination="completed",
    )
    with pytest.raises(DomainError) as err:
        pushforward(traj, "s1_5d")
    assert "sample 1 in component x" in str(err.value)


def test_reduction_pushforward_floors_the_exponential():
    # s = exp(-u) < 1e-12 once u > 27.6: the q2 = q/s component is refused
    traj = Trajectory(
        system_id="five_dim", params=dict(PARAMS_5D),
        state_names=("x", "y", "z", "w", "q"),
        times=[29.0, 30.0], states=[[1, 1, 1, 1, 1]] * 2,
        abs_tol=1e-10, rel_tol=1e-10, mode="fixed", termination="completed",
    )
    with pytest.raises(DomainError) as err:
        pushforward(traj, "reduce_5d_4d")
    assert "sample 0 in component q2" in str(err.value)


def test_reduction_pushforward_refuses_a_four_dimensional_trajectory():
    traj = integrate("ham_4d", PARAMS_5D, [0.1, 0.2, 0.3, 0.4], (0.5, 0.6))
    with pytest.raises(UsageError):
        pushforward(traj, "reduce_5d_4d")


def test_trajectory_monotonicity_enforced():
    with pytest.raises(ValueError):
        Trajectory(
            system_id="linear_xz", params={}, state_names=("x", "z"),
            times=[0.0, 1.0, 0.5], states=[[0, 0]] * 3,
            abs_tol=1, rel_tol=1, mode="adaptive", termination="completed",
        )


def test_dynamics_residual_usage_guards():
    traj = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0))
    with pytest.raises(UsageError):
        dynamics_residual(traj, "five_dim", PARAMS_5D)  # non-uniform samples
    short = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.003),
                      mode="fixed", step=1e-3)
    with pytest.raises(UsageError):
        dynamics_residual(short, "five_dim", PARAMS_5D)  # fewer than 5 samples


def test_dynamics_residual_refuses_unknown_parameter():
    traj = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.01),
                     mode="fixed", step=1e-3)
    with pytest.raises(UsageError, match="alpah0"):
        dynamics_residual(traj, "five_dim", {**traj.params, "alpah0": 1})


def test_dynamics_residual_refuses_another_state():
    k1 = integrate("K1_sys", {"alpha": 0.4}, [0.3, 0.5], (1.0, 1.1), mode="fixed", step=1e-2)
    with pytest.raises(UsageError, match="not linear_xz's"):
        dynamics_residual(k1, "linear_xz", {"alpha0": 0.5, "alpha2": 0.5, "eta": 1.0})
    five = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.1), mode="fixed", step=1e-2)
    swapped = replace(five, state_names=("y", "x", "z", "w", "q"))
    with pytest.raises(UsageError, match="not five_dim's"):
        dynamics_residual(swapped, "five_dim", PARAMS_5D)


def test_csv_and_json_export(tmp_path):
    traj = integrate("linear_xz", {"alpha0": 0.5, "alpha2": 0.5, "eta": 1.0},
                     [0.0, 1.0], (0.0, 1.0))
    csv_path = tmp_path / "traj.csv"
    traj.write_csv(str(csv_path))
    traj.write_metadata(str(csv_path) + ".json")
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "u,x,z"
    assert len(lines) == len(traj.times) + 1
    # full double precision round-trips
    u_back = [float(line.split(",")[0]) for line in lines[1:]]
    assert u_back == traj.times
    meta = json.loads((tmp_path / "traj.csv.json").read_text())
    assert meta["system_id"] == "linear_xz"
    assert meta["termination"] == "completed"
    assert meta["samples"] == len(traj.times)
    assert meta["rhs_evals"] == 7 * (traj.steps_accepted + traj.steps_rejected)
    assert 0 < meta["h_min"] <= meta["h_max"] <= 1.0
    assert meta["u_end"] == 1.0


def test_missing_parameters_is_usage_error():
    with pytest.raises(UsageError):
        integrate("five_dim", {"alpha0": 0.5}, INIT_5D, (0.0, 1.0))
    with pytest.raises(UsageError):
        integrate("five_dim", PARAMS_5D, [1.0, 2.0], (0.0, 1.0))
    with pytest.raises(UsageError):
        integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0),
                  tolerances=(0.0, 1e-9))


def test_parameters_off_the_normalization_are_refused_before_any_step(monkeypatch):
    calls = []
    monkeypatch.setattr(numeric, "_rk_step", lambda *args: calls.append(args))
    off = {**PARAMS_5D, "alpha1": 0.9}
    for system_id, init in (("five_dim", INIT_5D), ("ham_4d", [0.1, 0.2, 0.3, 0.4])):
        with pytest.raises(UsageError, match="alpha0 \\+ alpha1 \\+ alpha2 = 1"):
            integrate(system_id, off, init, (0.5, 1.0))
    assert calls == []


def test_fixed_mode_reports_its_step():
    traj = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.5), mode="fixed", step=1e-2)
    assert traj.h_min == traj.h_max == 0.5 / 50
    assert traj.rhs_evals == 7 * traj.steps_accepted == 7 * 50


# -- overflowing steps and non-finite input ----------------------------------------------

OVERFLOW_5D = [1e3, 1.0, -1e3, 1e3, -1e3]


def _no_step(*args):
    raise AssertionError("a step was taken")


@pytest.fixture
def steps_taken(monkeypatch):
    """Calls of either stepping seam, ``_rk_step`` or ``_fixed_steps``; neither steps."""
    calls = []
    for seam in ("_rk_step", "_fixed_steps"):
        monkeypatch.setattr(numeric, seam, lambda *args: calls.append(args))
    return calls


def _budgeted(rk_step, calls):
    """``rk_step`` that fails, instead of hanging, after 10 000 steps."""
    def counted(*args):
        calls.append(args[3])
        assert len(calls) <= 10_000, "the stepper is not converging"
        return rk_step(*args)
    return counted


@pytest.fixture
def step_budget(monkeypatch):
    calls = []
    monkeypatch.setattr(numeric, "_rk_step", _budgeted(numeric._rk_step, calls))
    return calls


def test_overflowing_trial_steps_shrink_h(step_budget):
    # a non-finite trial step once read as ratio nan and grew h forever
    traj = integrate("five_dim", PARAMS_5D, OVERFLOW_5D, (0.0, 1.0),
                     tolerances=(1e-8, 1e-8))
    assert traj.termination == "blow_up"
    assert 0.0 < traj.times[-1] < 0.01
    assert traj.steps_rejected > 0
    assert len(step_budget) == traj.steps_accepted + traj.steps_rejected


def test_a_start_on_a_pole_terminates(step_budget):
    # x = 0 is a pole of second_order_x: a division by zero once escaped the
    # generated step and the right-hand side
    params, start = {"alpha2": 0.4}, [0.0, 1.0]
    f = numeric._CompiledSystem(load_model("second_order_x"), params)
    assert f(0.0, start) == [math.inf, math.inf]
    y5, err, norm, k = numeric._rk_step(f, 0.0, start, 1e-3)
    assert err == norm == math.inf and k[0] == [math.inf, math.inf]
    adaptive = integrate("second_order_x", params, start, (0.0, 1.0))
    fixed = integrate("second_order_x", params, start, (0.0, 1.0), mode="fixed", step=0.01)
    assert (adaptive.termination, fixed.termination) == ("step_underflow", "blow_up")
    assert adaptive.states == fixed.states == [start]
    on_pole = replace(fixed, times=[0.01 * i for i in range(5)], states=[start] * 5)
    assert dynamics_residual(on_pole, "second_order_x", params) == math.inf


@pytest.mark.parametrize("init, span, tolerances, params, kwargs", [
    ([math.nan, 0.8, -0.3, 0.5, -0.2], (0.0, 1.0), (1e-8, 1e-8), {}, {}),
    ([0.4, math.inf, -0.3, 0.5, -0.2], (0.0, 1.0), (1e-8, 1e-8), {}, {}),
    (INIT_5D, (0.0, math.nan), (1e-8, 1e-8), {}, {}),
    (INIT_5D, (-math.inf, 1.0), (1e-8, 1e-8), {}, {}),
    (INIT_5D, (0.0, 1.0), (math.nan, 1e-8), {}, {}),
    (INIT_5D, (0.0, 1.0), (1e-8, math.inf), {}, {}),
    (INIT_5D, (0.0, 1.0), (1e-8, 1e-8), {"alpha1": math.nan}, {}),
    (INIT_5D, (0.0, 1.0), (1e-8, 1e-8), {"eta": -math.inf}, {}),
    (INIT_5D, (0.0, 1.0), (1e-8, 1e-8), {}, {"mode": "fixed", "step": math.nan}),
    (INIT_5D, (0.0, 1.0), (1e-8, 1e-8), {}, {"mode": "fixed", "step": math.inf}),
    (INIT_5D, (0.0, 1.0), (1e-8, 1e-8), {}, {"mode": "fixed", "step": 5e-324}),
])
def test_non_finite_input_is_refused_before_any_step(
    steps_taken, init, span, tolerances, params, kwargs
):
    with pytest.raises(UsageError):
        integrate("five_dim", {**PARAMS_5D, **params}, init, span,
                  tolerances=tolerances, **kwargs)
    assert steps_taken == []


@pytest.mark.parametrize("step", [1e-300, 1 / (numeric.MAX_FIXED_STEPS + 1)])
def test_fixed_step_count_above_the_cap_is_refused_before_any_step(monkeypatch, step):
    monkeypatch.setattr(numeric, "_rk_step", _no_step)
    monkeypatch.setattr(numeric, "_fixed_steps", _no_step)
    with pytest.raises(UsageError, match="more than the"):
        integrate("linear_xz", {"alpha0": 0.5, "alpha2": 0.5, "eta": 1.0}, [0.0, 1.0],
                  (0.0, 1.0), mode="fixed", step=step)


@pytest.mark.parametrize("step", [1e300, 1.0, 1.5])
def test_fixed_step_that_rounds_to_no_step_is_refused(steps_taken, step):
    # over a span of 0.5 these steps give a count of at most 0.5, which rounds to 0
    with pytest.raises(UsageError, match="no finite step count of at least 1"):
        integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.5), mode="fixed", step=step)
    assert steps_taken == []


@pytest.mark.parametrize("step, n", [(0.6, 1), (0.5, 1), (1 / 3, 2)])
def test_fixed_step_that_rounds_to_a_step_takes_it(step, n):
    traj = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.5), mode="fixed", step=step)
    assert traj.steps_accepted == n and traj.h_min == 0.5 / n


@pytest.mark.parametrize("system_id, params, init, kwargs", [
    ("five_dim", PARAMS_5D, INIT_5D, {"step": math.nan}),
    ("five_dim", PARAMS_5D, INIT_5D, {"mode": "fixed", "step": 1e-2, "grid": [5, 3, 9]}),
    ("linear_xz", {"alpha0": 0.5, "alpha2": 0.5, "eta": 1.0, "alpha1": math.nan},
     [0.0, 1.0], {}),
])
def test_inapplicable_arguments_are_refused_before_any_step(
    steps_taken, system_id, params, init, kwargs
):
    # a step outside fixed mode, a grid outside grid mode, a parameter the
    # system does not have
    with pytest.raises(UsageError):
        integrate(system_id, params, init, (0.0, 1.0), **kwargs)
    assert steps_taken == []


# -- differential tests: the parent's per-symbol path as the reference -----------------


def _parent_poly_source(p):
    """The parent's rendering: every term added, a negative coefficient as -c*."""
    if p.is_zero:
        return "0.0"
    chunks = []
    for mono, coeff in p.terms:
        factors = [] if coeff == 1 and any(mono) else [repr(float(coeff))]
        for i, e in enumerate(mono):
            if not e:
                continue
            name = p.table.symbols[i]
            factors.append(name if e == 1 else f"{name}**{e}")
        chunks.append("*".join(factors))
    return " + ".join(chunks)


def _parent_compile(expr):
    """One positional function of all table symbols per expression."""
    num_src = _parent_poly_source(expr.num)
    if not expr.den.is_const:
        num_src = f"({num_src}) / ({_parent_poly_source(expr.den)})"
    namespace = {}
    exec(f"def _compiled({', '.join(expr.table.symbols)}):\n    return {num_src}\n",
         namespace)
    return namespace["_compiled"]


class _ParentSystem:
    """The right-hand side bound through one dict per call."""

    def __init__(self, system, params):
        self.evals = 0
        self.indep, self.state_names = system.indep, system.state
        self.fixed = {n: float(params[n]) for n in params if n in system.table}
        self.fns = [_parent_compile(system.rhs[n]) for n in system.state]
        self.arg_names = system.table.symbols

    def __call__(self, u, state):
        self.evals += 1
        values = dict(self.fixed)
        values[self.indep] = u
        for name, v in zip(self.state_names, state):
            values[name] = v
        args = [values.get(n, 0.0) for n in self.arg_names]
        try:
            return [fn(*args) for fn in self.fns]
        except (OverflowError, ZeroDivisionError):  # a pole reads as inf too
            return [math.inf] * len(self.fns)


def _parent_rk_step(f, u, y, h):
    k = []
    for stage in range(7):
        ys = list(y)
        for j, a in enumerate(numeric._DP_A[stage]):
            if a:
                for i in range(len(ys)):
                    ys[i] += h * a * k[j][i]
        k.append(f(u + numeric._DP_C[stage] * h, ys))
    y5 = [
        yi + h * sum(b * k[j][i] for j, b in enumerate(numeric._DP_B5) if b)
        for i, yi in enumerate(y)
    ]
    err = 0.0
    for i in range(len(y)):
        e4 = sum((numeric._DP_B5[j] - numeric._DP_B4[j]) * k[j][i] for j in range(7))
        err = max(err, abs(h * e4))
    if not all(map(math.isfinite, y5)) or not math.isfinite(err):
        return y5, math.inf, math.inf, k
    return y5, err, max(abs(v) for v in y5), k


def _parent_fixed_steps(f, u0, y, h, n, times, states):
    """The parent's fixed-mode loop: one ``numeric._rk_step`` call per step."""
    u = u0
    for i in range(n):
        y, _, norm, _ = numeric._rk_step(f, u, y, h)
        u = u0 + (i + 1) * h
        if not math.isfinite(norm):
            return i + 1, "blow_up"
        times.append(u)
        states.append(y)
        if norm > numeric.BLOWUP_NORM:
            return i + 1, "blow_up"
    return n, "completed"


def _parent_drift(traj, integral_id):
    integral = load_integral(integral_id)
    indep = load_model(integral.system_id).indep
    fn = _parent_compile(integral.expr)
    values = []
    for u, state in zip(traj.times, traj.states):
        bind = dict(traj.params)
        bind[indep] = u
        bind.update(zip(traj.state_names, state))
        raw = fn(*[bind.get(n, 0.0) for n in integral.expr.table.symbols])
        values.append(raw * math.exp(-float(integral.lam) * u))
    return max(abs(v - values[0]) for v in values) / max(abs(values[0]), 1e-12)


def _parent_reduction(traj):
    """The reduction's former special path: s = exp(-t), [w, x, q/s, z*s]."""
    idx = {n: i for i, n in enumerate(traj.state_names)}
    new_times, new_states = [], []
    for u, state in zip(traj.times, traj.states):
        s = math.exp(-u)
        x, z, w, q = state[idx["x"]], state[idx["z"]], state[idx["w"]], state[idx["q"]]
        new_times.append(s)
        new_states.append([w, x, q / s, z * s])
    return replace(traj, system_id="ham_4d", params=dict(traj.params),
                   state_names=load_model("ham_4d").state,
                   times=new_times, states=new_states)


def _parent_pushforward(traj, map_id):
    bmap = load_map(map_id, "resolved")
    if map_id == "reduce_5d_4d":
        return _parent_reduction(traj)
    source, target = load_model(bmap.source), load_model(bmap.target)
    compiled = {
        name: (_parent_compile(RatExpr(e.num)), _parent_compile(RatExpr(e.den)))
        for name, e in bmap.var_map.items()
    }
    new_states = []
    for u, state in zip(traj.times, traj.states):
        bind = dict(traj.params)
        bind[source.indep] = u
        bind.update(zip(traj.state_names, state))
        args = [bind.get(n, 0.0) for n in source.table.symbols]
        new_states.append(
            [compiled[n][0](*args) / compiled[n][1](*args) for n in target.state]
        )
    new_times = [bmap.action.indep_sign * u for u in traj.times]
    if bmap.action.indep_sign < 0:
        new_times.reverse()
        new_states.reverse()
    return replace(traj, system_id=target.id, state_names=target.state,
                   params=numeric._transform_params(bmap, traj.params),
                   times=new_times, states=new_states)


def _parent_residual(traj, system_id, params):
    h = traj.times[1] - traj.times[0]
    f = _ParentSystem(load_model(system_id), params)
    worst = 0.0
    for i in range(1, len(traj.times) - 1):
        derivs = f(traj.times[i], traj.states[i])
        for c in range(len(derivs)):
            fd = (traj.states[i + 1][c] - traj.states[i - 1][c]) / (2 * h)
            worst = max(worst, abs(fd - derivs[c]))
    return worst


def _both_paths(monkeypatch, *args, **kwargs):
    with monkeypatch.context() as m:
        m.setattr(numeric, "_rk_step", _budgeted(numeric._rk_step, []))
        fast = integrate(*args, **kwargs)
    with monkeypatch.context() as m:
        m.setattr(numeric, "_rk_step", _budgeted(_parent_rk_step, []))
        m.setattr(numeric, "_fixed_steps", _parent_fixed_steps)
        m.setattr(numeric, "_CompiledSystem", _ParentSystem)
        slow = integrate(*args, **kwargs)
    return fast, slow


PARAMS_LIN = {"alpha0": 0.5, "alpha2": 0.45, "eta": 1.0}
RUNS = [
    ("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0)),
    ("five_dim", PARAMS_5D, INIT_5D, (1.0, 0.0)),
    ("ham_4d", PARAMS_5D, [0.1, 0.2, 0.3, 0.4], (0.5, 2.0)),
    ("K1_sys", {"alpha": 0.4}, [0.3, 0.5], (1.0, 2.0)),
    ("linear_xz", PARAMS_LIN, [0.2, 0.9], (0.0, 1.0)),
]
MODES = [
    {"tolerances": (1e-10, 1e-10)},
    {"mode": "fixed", "step": 2e-3},
    {"mode": "grid", "tolerances": (1e-9, 1e-9)},
]


@pytest.mark.parametrize("kwargs", MODES, ids=["adaptive", "fixed", "grid"])
@pytest.mark.parametrize("system_id, params, init, span", RUNS,
                         ids=["five_dim", "five_dim_back", "ham_4d", "K1_sys", "linear_xz"])
def test_trajectories_bit_identical_to_per_symbol_path(
    monkeypatch, system_id, params, init, span, kwargs
):
    if kwargs.get("mode") == "grid":
        u0, u1 = span
        kwargs = {**kwargs, "grid": [u0 + i * (u1 - u0) / 200 for i in range(201)]}
    fast, slow = _both_paths(monkeypatch, system_id, params, init, span, **kwargs)
    assert repr(fast) == repr(slow)  # bit-equal: repr tells -0.0 from 0.0
    assert fast.steps_accepted > 0 and fast.rhs_evals > 0


@pytest.mark.parametrize("init, span, tol", [
    ([200.0, 5.0, -200.0, 300.0, -300.0], (0.0, 10.0), (1e-8, 1e-8)),
    (OVERFLOW_5D, (0.0, 1.0), (1e-8, 1e-8)),
])
def test_blow_up_runs_bit_identical_to_per_symbol_path(monkeypatch, init, span, tol):
    fast, slow = _both_paths(monkeypatch, "five_dim", PARAMS_5D, init, span, tolerances=tol)
    assert fast.termination == "blow_up"
    assert repr(fast) == repr(slow)


def test_certificates_equal_to_per_symbol_path():
    grid = [i / 200 for i in range(201)]
    five = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 1.0), mode="grid", grid=grid)
    four = integrate("ham_4d", PARAMS_5D, [0.1, 0.2, 0.3, 0.4], (0.5, 2.0),
                     mode="fixed", step=1e-2)
    k1 = integrate("K1_sys", {"alpha": 0.4}, [0.3, 0.5], (1.0, 2.0))
    n, s_lo = 200, math.exp(-0.9)
    t_grid = [-math.log(1.0 - i * (1.0 - s_lo) / n) for i in range(n + 1)]
    init = [0.4, 0.5 * (-0.2) + 1.0, -0.3, 0.5, -0.2]
    matched = integrate("five_dim", PARAMS_5D, init, (t_grid[0], t_grid[-1]),
                        mode="grid", grid=t_grid)
    assert invariant_drift(five, "ywq") == _parent_drift(five, "ywq")
    assert invariant_drift(k1, "I1") == _parent_drift(k1, "I1")
    for traj, system_id in ((five, "five_dim"), (four, "ham_4d")):
        assert (dynamics_residual(traj, system_id, traj.params)
                == _parent_residual(traj, system_id, traj.params))
    for traj, map_id in ((five, "s1_5d"), (four, "s1_4d"), (matched, "reduce_5d_4d")):
        pushed = pushforward(traj, map_id)
        assert repr(pushed) == repr(_parent_pushforward(traj, map_id))
        system_id = pushed.system_id
        assert (dynamics_residual(pushed, system_id, pushed.params)
                == _parent_residual(pushed, system_id, pushed.params))


def _numeric_params(system, rng):
    table = system.table
    return {n: rng.uniform(-1.0, 1.0) for n in table.symbols
            if table.kind_of(n) in ("parameter", "constant")}


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_generated_residual_equals_per_symbol_path(system_id):
    # uniform samples that solve nothing exercise every component's arithmetic
    system = load_model(system_id)
    rng = random.Random(system_id)
    params = _numeric_params(system, rng)
    times = [0.5 + i / 64 for i in range(40)]
    states = [[rng.uniform(-2.0, 2.0) for _ in system.state] for _ in times]
    traj = Trajectory(system_id=system_id, params=params, state_names=system.state,
                      times=times, states=states, abs_tol=1e-10, rel_tol=1e-10,
                      mode="fixed", termination="completed")
    assert (repr(dynamics_residual(traj, system_id, params))
            == repr(_parent_residual(traj, system_id, params)))


def test_generated_residual_on_an_overflowing_sample_equals_per_symbol_path():
    traj = integrate("five_dim", PARAMS_5D, INIT_5D, (0.0, 0.1), mode="fixed", step=1e-2)
    traj.states[5] = [1e200] * 5  # x**2 overflows: every component reads inf
    residual = dynamics_residual(traj, "five_dim", PARAMS_5D)
    assert residual == math.inf
    assert repr(residual) == repr(_parent_residual(traj, "five_dim", PARAMS_5D))


def _outcome(rk_step, f, u, y, h):
    return repr(rk_step(f, u, y, h))  # repr tells -0.0 from 0.0 and shows nan


STATE_FLOATS = st.one_of(st.floats(-4.0, 4.0), st.sampled_from([1e155, -3e160, 1e300]))


@st.composite
def step_cases(draw):
    system_id = draw(st.sampled_from(SYSTEM_IDS))
    system = load_model(system_id)
    params = _numeric_params(system, random.Random(draw(st.integers(0, 2**32 - 1))))
    y = [draw(STATE_FLOATS) for _ in system.state]
    # u + c*h stays >= 0.1: off the s = 0 locus of the 4d systems
    return system_id, params, draw(st.floats(0.5, 2.0)), y, draw(st.floats(-0.4, 0.4))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(step_cases())
@example(("five_dim", PARAMS_5D, 0.0, [1e200, 1.0, -1.0, 1.0, 1.0], 1e-3))
@example(("five_dim", PARAMS_5D, 0.0, OVERFLOW_5D, 1e-2))
def test_generated_step_equals_per_symbol_step(case):
    system_id, params, u, y, h = case
    system = load_model(system_id)
    f = numeric._CompiledSystem(system, params)
    got = _outcome(numeric._rk_step, f, u, y, h)
    assert got == _outcome(_parent_rk_step, _ParentSystem(system, params), u, y, h)
    assert f.evals == 7


def test_generated_step_overflows_like_the_per_symbol_step():
    # the examples above reach the overflow rule in the first and sixth stages
    for y, h, stage in (([1e200, 1.0, -1.0, 1.0, 1.0], 1e-3, 0), (OVERFLOW_5D, 1e-2, 5)):
        f = numeric._CompiledSystem(load_model("five_dim"), PARAMS_5D)
        y5, err, norm, k = numeric._rk_step(f, 0.0, y, h)
        assert err == norm == math.inf and k[stage] == [math.inf] * 5


@st.composite
def fixed_cases(draw):
    system_id = draw(st.sampled_from(SYSTEM_IDS))
    system = load_model(system_id)
    params = _numeric_params(system, random.Random(draw(st.integers(0, 2**32 - 1))))
    y = [draw(STATE_FLOATS) for _ in system.state]
    # u + n*h stays >= 0.1: off the s = 0 locus of the 4d systems
    return (system_id, params, draw(st.floats(0.5, 2.0)), y,
            draw(st.floats(-0.008, 0.008)), draw(st.integers(1, 50)))


def _fixed_outcome(fixed_steps, f, u0, y, h, n):
    times, states = [u0], [y]
    result = fixed_steps(f, u0, y, h, n, times, states)
    return repr((result, times, states)), f.evals  # repr tells -0.0 from 0.0


@settings(max_examples=200, derandomize=True, deadline=None)
@given(fixed_cases())
@example(("five_dim", PARAMS_5D, 0.0, OVERFLOW_5D, 1e-2, 50))
@example(("five_dim", PARAMS_5D, 0.0, BLOW_5D, 1e-3, 50))
@example(("five_dim", PARAMS_5D, 0.0, BLOW_5D, 1e-4, 50))
def test_fixed_steps_equal_successive_rk_steps(case):
    system_id, params, u0, y, h, n = case
    system = load_model(system_id)
    got = _fixed_outcome(numeric._fixed_steps, numeric._CompiledSystem(system, params),
                         u0, y, h, n)
    assert got == _fixed_outcome(_parent_fixed_steps,
                                 numeric._CompiledSystem(system, params), u0, y, h, n)


def test_fixed_steps_reach_every_blow_up_rule():
    # the examples above end the first step on an infinite solution, on an
    # infinite error estimate of a finite solution (neither sampled), and on a
    # finite solution past BLOWUP_NORM (sampled)
    for y, h, finite_y5, finite_err in ((OVERFLOW_5D, 1e-2, False, False),
                                        (BLOW_5D, 1e-3, True, False),
                                        (BLOW_5D, 1e-4, True, True)):
        f = numeric._CompiledSystem(load_model("five_dim"), PARAMS_5D)
        y5, err, norm, _ = numeric._rk_step(f, 0.0, y, h)
        assert all(map(math.isfinite, y5)) == finite_y5 and (err < math.inf) == finite_err
        times, states = [0.0], [y]
        assert numeric._fixed_steps(f, 0.0, y, h, 50, times, states) == (1, "blow_up")
        assert states == ([y, y5] if finite_err else [y]) and f.evals == 14
    assert norm > numeric.BLOWUP_NORM


def test_kernels_are_compiled_once_per_text(monkeypatch):
    other = {"alpha0": 0.2, "alpha1": 0.35, "alpha2": 0.45, "eta": -0.4}
    runs = [(PARAMS_5D, INIT_5D), (other, [0.1, 0.9, 0.3, -0.5, 0.2])]

    def run(params, init):
        traj = integrate("five_dim", params, init, (0.0, 0.2), mode="fixed", step=1e-2)
        return (repr(traj), invariant_drift(traj, "ywq").hex(),
                dynamics_residual(traj, "five_dim", params).hex(),
                repr(pushforward(traj, "s1_5d")))

    def cleared():
        ring._code.cache_clear()
        numeric._compile_map.cache_clear()

    fresh = [cleared() or run(*args) for args in runs]
    cleared()
    texts = []
    monkeypatch.setattr(ring, "exec", lambda text, namespace: texts.append(text)
                        or exec(text, namespace), raising=False)
    assert [run(*runs[i % 2]) for i in range(4)] == fresh * 2
    # the fixed-step loop, the drift integral, the residual loop and the map
    assert len(texts) == len(set(texts)) == 4


def test_sources_are_rendered_once_and_keyed_by_the_expressions(monkeypatch):
    five = load_model("five_dim")
    rhs = dict(five.rhs)
    rhs["y"] = rhs["y"] + Fraction(1, 100)
    adhoc = VectorFieldSystem("five_dim", five.table, rhs)

    def run(system):
        traj = integrate_system(system, PARAMS_5D, INIT_5D, (0.0, 0.2), mode="fixed",
                                step=1e-2)
        return repr(traj), dynamics_residual(traj, "five_dim", PARAMS_5D).hex()

    numeric._rhs_sources.cache_clear()
    alone = run(adhoc)
    numeric._rhs_sources.cache_clear()
    registry = run(five)
    rendered = []
    source = numeric._source
    monkeypatch.setattr(numeric, "_source", lambda e: rendered.append(e) or source(e))
    # the ad-hoc system carries the registry id but gets its own text
    assert run(adhoc) == alone != registry
    assert len(rendered) == 5
    assert [run(five), run(adhoc)] == [registry, alone]
    assert len(rendered) == 5


def test_kernel_binds_state_by_position_and_absent_symbols_to_zero():
    table = load_model("five_dim").table
    x, y, t, a0, eta = (RatExpr.sym(table, n) for n in ("x", "y", "t", "alpha0", "eta"))
    kernel = numeric.compile_ratexpr([x - 2 * y, t * a0, eta + 1], ("y", "x"), {"alpha0": 3})
    assert kernel(0.5, [1.0, 4.0]) == [2.0, 1.5, 1.0]


# -- oracle: every compiled kernel against exact evaluation -------------------------------

ORACLE_POINTS = 20


def _oracle_points(table, seed):
    """Seeded rational points (float-exact dyadic values) for every table symbol."""
    rng = random.Random(seed)
    return [
        {n: Fraction(rng.choice([-1, 1]) * rng.randint(1, 96), 32) for n in table.symbols}
        for _ in range(ORACLE_POINTS)
    ]


def _assert_kernel_matches(kernel, exprs, state_names, point):
    try:
        exact = [evaluate(e if isinstance(e, RatExpr) else RatExpr(e), point) for e in exprs]
    except SingularPointError:
        return 0
    indep = exprs[0].table.indep_name
    got = kernel(float(point[indep]), [float(point[n]) for n in state_names])
    for g, e in zip(got, exact):
        assert g == pytest.approx(float(e), rel=1e-12, abs=0.0)
    return 1


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_compiled_rhs_matches_exact_evaluation(system_id):
    system = load_model(system_id)
    exprs = [system.rhs[n] for n in system.state]
    checked = 0
    for point in _oracle_points(system.table, 1):
        f = numeric._CompiledSystem(system, {n: float(v) for n, v in point.items()})
        checked += _assert_kernel_matches(lambda u, y: f(u, y), exprs, system.state, point)
    assert checked >= ORACLE_POINTS // 2


@pytest.mark.parametrize("integral_id", INTEGRAL_IDS)
def test_compiled_integral_matches_exact_evaluation(integral_id):
    expr = load_integral(integral_id).expr
    state = expr.table.state_names
    for point in _oracle_points(expr.table, 2):
        values = {n: float(v) for n, v in point.items()}
        kernel = numeric.compile_ratexpr([expr], state, values)
        assert _assert_kernel_matches(kernel, [expr], state, point)


@pytest.mark.parametrize("map_id", MAP_IDS)
def test_compiled_map_matches_exact_evaluation(map_id):
    for variant in ("printed", "resolved"):
        bmap = load_map(map_id, variant)
        names = list(bmap.var_map)
        parts = [p for n in names for p in (bmap.var_map[n].num, bmap.var_map[n].den)]
        table = parts[0].table
        for point in _oracle_points(table, 3):
            values = {n: float(v) for n, v in point.items()}
            kernel = numeric.compile_ratexpr(parts, table.state_names, values)
            assert _assert_kernel_matches(kernel, parts, table.state_names, point)
