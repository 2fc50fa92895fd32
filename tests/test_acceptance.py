"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines as they happen.  Every tolerance is pinned here, none deferred.
"""

from __future__ import annotations

import math
import random
import time
from fractions import Fraction

from painleve_d32 import numeric, verify, weyl
from painleve_d32.models import load_integral, load_map, load_model
from painleve_d32.ring import (
    Derivation,
    Poly,
    RatExpr,
    SingularPointError,
    SymbolTable,
    evaluate,
    exact_polynomial_quotient,
    is_identically_zero,
    syms,
)

from conftest import random_nonzero_poly, random_poly, random_ratexpr


def _report(name: str, ok: bool, extra: str = "") -> None:
    tail = f"  ({extra})" if extra else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{tail}")
    assert ok, f"acceptance criterion failed: {name}"


SUITE_CHECK_IDS = [
    "symmetry:five_dim:s0_5d",
    "symmetry:five_dim:s1_5d",
    "symmetry:ham_4d:s0_4d",
    "symmetry:ham_4d:s1_4d",
    "resolve:s2_4d",
    "symmetry:ham_4d:pi_4d",
    "integral:five_dim:ywq",
    "integral:K1_sys:I1",
    "integral:tildeK2_sys:I2",
    "chart:five_dim:chart0",
    "chart:five_dim:chart1",
    "hamiltonian:ham_4d",
    "hamiltonian:K1_sys",
    "hamiltonian:K2_sys",
    "hamiltonian:tildeK2_sys",
    "reduction:5d_to_4d",
    "second_order_forms",
    "invariant_divisor",
    "degree:five_dim",
    "solution:linear_xz_sol",
    "solution:second_order_sol_a",
    "solution:second_order_sol_b",
    "solution:rest_wq_zero",
]


def test_criterion_1_symbolic_theorem_suite():
    t0 = time.perf_counter()
    reports = {r.check_id: r for r in verify.run_scope("all")}
    elapsed = time.perf_counter() - t0
    missing = [cid for cid in SUITE_CHECK_IDS if cid not in reports]
    failing = [cid for cid in SUITE_CHECK_IDS
               if cid in reports and not reports[cid].passed]
    ok = not missing and not failing and elapsed < 60.0
    _report(
        "1 symbolic-theorem-suite", ok,
        f"{len(SUITE_CHECK_IDS)} checks, {elapsed:.2f}s"
        + (f", missing {missing}" if missing else "")
        + (f", failing {failing}" if failing else ""),
    )


def test_criterion_2_typo_resolution():
    winners = {}
    for mid in ("s2_5d", "chart2"):
        report = verify.resolve_disputed(mid)
        assert report.passed, report.detail
        (winners[mid],) = [v for v, status in report.residuals if status == "pass"]
    same = len(set(winners.values())) == 1

    # independent hand-expansion oracle, frozen before trusting the kernel:
    # with the printed coefficient the x-component residual is
    # 2*(alpha0 - alpha2)*x, so only the corrected variant can verify
    five = load_model("five_dim")
    x, a0, a2 = syms(five.table, "x alpha0 alpha2")
    printed = dict(verify._residuals(*verify._map_flow(load_map("s2_5d", "printed"))))
    hand_ok = printed["x"].equals(2 * (a0 - a2) * x)
    ok = same and winners["s2_5d"] == "corrected" and hand_ok
    _report(
        "2 typo-resolution", ok,
        f"winners {winners}, hand oracle residual 2*(alpha0-alpha2)*x "
        f"{'confirmed' if hand_ok else 'NOT confirmed'}",
    )


def test_criterion_3_group_theory():
    t1 = weyl.translation_shift(weyl.parse_word("s1 s2 s1 s0", "th1"))
    t2 = weyl.translation_shift(weyl.parse_word("s1 s1 s2 s1 s0 s1", "th1"))
    shifts_ok = (
        t1 is not None and t1.vector == (-2, 2, 0)
        and t2 is not None and t2.vector == (0, -2, 2)
    )
    relation_reports = weyl.verify_group_relations(sample_count=20, seed=20321)
    relations_ok = all(r.passed for r in relation_reports)
    normalization_ok = True
    for context in ("th1", "th2"):
        for letter in ("s0", "s1", "s2") + (("pi",) if context == "th2" else ()):
            action = weyl.parameter_action(weyl.parse_word(letter, context))
            normalization_ok &= action.preserves_normalization()
    ok = shifts_ok and relations_ok and normalization_ok
    _report(
        "3 group-theory", ok,
        f"shifts {t1.vector if t1 else None}/{t2.vector if t2 else None}, "
        f"{len(relation_reports)} relations at 20 samples seed 20321",
    )


def test_criterion_4_first_integral_search():
    found_ywq = verify.first_integral_search("five_dim", 2, 0, (Fraction(-1),))
    ywq = load_integral("ywq").expr
    ok_ywq = len(found_ywq) == 1 and (
        (found_ywq[0].expr - ywq).is_zero or (found_ywq[0].expr + ywq).is_zero
    )
    found_i1 = verify.first_integral_search("K1_sys", 4, 0, (Fraction(0),))
    i1 = load_integral("I1").expr
    ok_i1 = len(found_i1) == 1 and (
        found_i1[0].expr.equals(i1) or found_i1[0].expr.equals(-i1)
    )
    found_4d = verify.first_integral_search(
        "ham_4d", 3, 2, (Fraction(0), Fraction(-1), Fraction(1))
    )
    ok = ok_ywq and ok_i1 and not found_4d
    _report(
        "4 first-integral-search", ok,
        f"five_dim span dim {len(found_ywq)}, K1 span dim {len(found_i1)}, "
        f"coupled-system hits {len(found_4d)}",
    )


def test_criterion_5_numeric_targets():
    traj = numeric.integrate(
        "linear_xz", {"alpha0": 0.5, "alpha2": 0.5, "eta": 1.0},
        [0.0, 1.0], (0.0, 1.0), tolerances=(1e-10, 1e-10),
    )
    closed_err = abs(traj.states[-1][0] - (math.exp(0.5) - 1))
    ok_closed = closed_err < 1e-8

    params = {"alpha0": 0.3, "alpha1": 0.25, "alpha2": 0.45, "eta": 0.7}
    init = [0.4, 0.8, -0.3, 0.5, -0.2]
    bench = numeric.integrate("five_dim", params, init, (0.0, 1.0),
                              tolerances=(1e-10, 1e-10))
    drift = numeric.invariant_drift(bench, "ywq")
    ok_drift = drift < 1e-6

    residuals = []
    for h in (8e-3, 4e-3, 2e-3, 1e-3, 5e-4):
        fixed = numeric.integrate("five_dim", params, init, (0.0, 0.5),
                                  mode="fixed", step=h)
        residuals.append(numeric.dynamics_residual(fixed, "five_dim", params))
    ok_conv = all(3.0 < a / b < 5.0 for a, b in zip(residuals, residuals[1:]))

    fixed = numeric.integrate("five_dim", params, init, (0.0, 0.5),
                              mode="fixed", step=1e-3)
    pushed = numeric.pushforward(fixed, "s1_5d")
    push_res = numeric.dynamics_residual(pushed, "five_dim", pushed.params)
    ok_push = push_res < 1e-4

    ok = ok_closed and ok_drift and ok_conv and ok_push
    _report(
        "5 numeric-targets", ok,
        f"closed-form err {closed_err:.2e}, drift {drift:.2e}, "
        f"convergence ratios {[round(a / b, 2) for a, b in zip(residuals, residuals[1:])]}, "
        f"pushforward residual {push_res:.2e}",
    )


def test_criterion_6_kernel_property_tests():
    table = SymbolTable([("x", "state"), ("y", "state"), ("z", "state")])
    rng = random.Random(60321)
    n_instances = 120
    failures = 0

    for _ in range(n_instances):
        a = random_poly(rng, table)
        b = random_poly(rng, table)
        c = random_poly(rng, table)
        if (a + b) + c != a + (b + c) or a * (b + c) != a * b + a * c:
            failures += 1

    for _ in range(n_instances):
        ra = RatExpr(random_poly(rng, table, max_terms=3),
                     random_nonzero_poly(rng, table, max_terms=2, max_exp=1))
        rb = RatExpr(random_poly(rng, table, max_terms=3),
                     random_nonzero_poly(rng, table, max_terms=2, max_exp=1))
        D = Derivation(table, {n: random_ratexpr(rng, table) for n in "xyz"})
        resid = D.of(ra * rb) - (D.of(ra) * rb + ra * D.of(rb))
        if not (resid.is_zero or is_identically_zero(resid)):
            failures += 1

    for _ in range(n_instances):
        a = random_poly(rng, table)
        d = random_nonzero_poly(rng, table)
        q = exact_polynomial_quotient(a * d, d)
        if q is None or q * d - a * d != Poly.zero(table) or q != a:
            failures += 1

    homomorphism_checked = 0
    while homomorphism_checked < n_instances:
        ra = RatExpr(random_poly(rng, table, max_terms=3),
                     random_nonzero_poly(rng, table, max_terms=2, max_exp=1))
        rb = RatExpr(random_poly(rng, table, max_terms=3),
                     random_nonzero_poly(rng, table, max_terms=2, max_exp=1))
        point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in "xyz"}
        try:
            va, vb = evaluate(ra, point), evaluate(rb, point)
            if evaluate(ra * rb, point) != va * vb:
                failures += 1
            if evaluate(ra + rb, point) != va + vb:
                failures += 1
        except SingularPointError:
            continue
        homomorphism_checked += 1

    _report(
        "6 kernel-property-tests", failures == 0,
        f"4 x {n_instances} randomized instances, seed 60321, "
        f"{failures} failures",
    )
