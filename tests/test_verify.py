"""Identity checks: positive suite, designed failures, dispute resolution.

The dispute verdicts are cross-checked against two independent routes: a
hand-expanded residual frozen here, and a from-scratch sympy expansion that
shares no code with the exact kernel.
"""

from __future__ import annotations

import dataclasses
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from conftest import random_ratexpr
from painleve_d32 import verify, weyl
from painleve_d32.models import (
    SYSTEM_IDS,
    Hamiltonian,
    VectorFieldSystem,
    load_integral,
    load_map,
    load_model,
)
from painleve_d32.ring import (
    Derivation,
    Poly,
    RatExpr,
    RingError,
    SymbolTable,
    exact_polynomial_quotient,
    has_relation_symbols,
    is_identically_zero,
    reduce_relation,
    syms,
)
from painleve_d32.syntax import render_ratexpr
from painleve_d32.verify import (
    CapacityError,
    check_chart,
    check_first_integral,
    check_hamiltonian_consistency,
    check_integral_expr,
    check_invariant_divisor,
    check_particular_solution,
    check_reduction_5d_to_4d,
    check_second_order_forms,
    check_symmetry,
    check_vector_field_degree,
    first_integral_search,
    resolve_disputed,
    run_scope,
)


# -- the whole suite -------------------------------------------------------------------


SUITE_PAIRS = [
    ("symmetry", "symmetry:five_dim:s0_5d"),
    ("symmetry", "symmetry:five_dim:s1_5d"),
    ("symmetry", "resolve:s2_5d"),
    ("symmetry", "symmetry:ham_4d:s0_4d"),
    ("symmetry", "symmetry:ham_4d:s1_4d"),
    ("symmetry", "resolve:s2_4d"),
    ("symmetry", "symmetry:ham_4d:pi_4d"),
    ("charts", "degree:five_dim"),
    ("charts", "chart:five_dim:chart0"),
    ("charts", "chart:five_dim:chart1"),
    ("charts", "resolve:chart2"),
    ("integrals", "integral:five_dim:ywq"),
    ("integrals", "integral:K1_sys:I1"),
    ("integrals", "integral:tildeK2_sys:I2"),
    ("hamiltonian", "hamiltonian:ham_4d"),
    ("hamiltonian", "hamiltonian:K1_sys"),
    ("hamiltonian", "hamiltonian:K2_sys"),
    ("hamiltonian", "hamiltonian:tildeK2_sys"),
    ("reduction", "reduction:5d_to_4d"),
    ("reduction", "symmetry:K2_sys:scale_step"),
    ("reduction", "second_order_forms"),
    ("solutions", "solution:linear_xz_sol"),
    ("solutions", "solution:second_order_sol_a"),
    ("solutions", "solution:second_order_sol_b"),
    ("solutions", "solution:rest_wq_zero"),
    ("solutions", "invariant_divisor"),
    ("search", "search:five_dim"),
    ("search", "search:K1_sys"),
    ("search", "search:ham_4d"),
]


def test_full_suite_passes():
    reports = run_scope("all")
    failing = [r.check_id for r in reports if not r.passed]
    assert not failing, f"failing checks: {failing}"
    assert len(reports) >= 14
    # the id written in each row is the id its check computes
    suite = verify._suite()
    assert [(scope, cid) for scope, cid, _ in suite] == SUITE_PAIRS
    assert [r.check_id for r in reports] == [cid for _, cid in SUITE_PAIRS]
    assert [fn().check_id for _, _, fn in suite] == [cid for _, cid in SUITE_PAIRS]


def test_scope_filtering():
    reports = run_scope("integrals")
    assert [r.check_id for r in reports] == [
        "integral:five_dim:ywq", "integral:K1_sys:I1", "integral:tildeK2_sys:I2",
    ]
    with pytest.raises(ValueError):
        run_scope("everything")
    with pytest.raises(ValueError):
        run_scope("all", variant="bogus")


GOLDEN_RECORDS = Path(__file__).parent / "golden_records.jsonl"


def _golden_lines() -> list[str]:
    """Untimed records of `run_scope("all")` under the resolved and both
    policies, of the group relations and of the translations; then the
    parameter action of every generator in both contexts."""
    records = [
        {"variant": variant, **report.to_record()}
        for variant in ("resolved", "both")
        for report in run_scope("all", variant)
    ]
    records += [r.to_record() for r in weyl.verify_group_relations(20, 20321)]
    records.append(weyl.translation_report().to_record())
    for record in records:
        record.pop("millis")
    lines = [json.dumps(record) for record in records]
    for context, letters in weyl._GENERATOR_MAPS.items():
        for letter in letters:
            action = weyl.parameter_action(weyl.parse_word(letter, context))
            lines.append(json.dumps(
                {"context": context, "letter": letter, **dataclasses.asdict(action)}
            ))
    return lines


def test_records_match_golden():
    assert _golden_lines() == GOLDEN_RECORDS.read_text().splitlines()


def test_reports_are_idempotent():
    def strip(r):
        rec = r.to_record()
        rec.pop("millis")
        return rec

    a = [strip(r) for r in run_scope("symmetry")]
    b = [strip(r) for r in run_scope("symmetry")]
    assert a == b


# -- degree -------------------------------------------------------------------------------


def test_degrees():
    assert check_vector_field_degree("five_dim", expected=3).passed
    assert check_vector_field_degree("linear_xz", expected=1).passed
    # by inspection the subsystem right-hand sides contain q1*p1^2
    assert check_vector_field_degree("K1_sys", expected=3).passed
    assert not check_vector_field_degree("linear_xz", expected=3).passed


# -- symmetry and the disputed coefficient --------------------------------------------------


def test_symmetry_positive():
    for map_id in ("s0_5d", "s1_5d"):
        assert check_symmetry("five_dim", map_id).passed
    for map_id in ("s0_4d", "s1_4d", "pi_4d"):
        assert check_symmetry("ham_4d", map_id).passed
    assert check_symmetry("ham_4d", "s2_4d", "corrected").passed
    assert check_symmetry("K2_sys", "scale_step").passed


def test_disputed_resolutions_agree():
    winners = {}
    for mid in ("s2_5d", "chart2", "s2_4d"):
        report = resolve_disputed(mid)
        assert report.passed, report.detail
        (winners[mid],) = [v for v, status in report.residuals if status == "pass"]
    assert winners == {
        "s2_5d": "corrected", "chart2": "corrected", "s2_4d": "corrected"
    }


def test_printed_s2_5d_fails_with_witness():
    report = check_symmetry("five_dim", "s2_5d", "printed")
    assert not report.passed
    assert report.witness_point is not None
    assert any(text != "zero" for _, text in report.residuals)


def test_failed_witness_search_reports_its_attempts(monkeypatch):
    monkeypatch.setattr(verify, "WITNESS_ATTEMPTS", 0)
    report = check_symmetry("five_dim", "s2_5d", "printed")
    assert not report.passed
    assert report.witness_point is None
    assert report.detail == "no witness in 0 attempts"
    # the search runs only where a residual is nonzero
    assert "witness" not in check_symmetry("five_dim", "s2_5d", "corrected").detail


def test_s2_5d_residual_matches_hand_expansion():
    # frozen by hand: with the printed coefficient c = alpha0 in the
    # w-component, the x-residual is 2*(alpha0 - alpha2)*x and the q-residual
    # 2*(alpha0 - alpha2)*q; the corrected coefficient alpha2 zeroes both
    five = load_model("five_dim")
    x, q, a0, a2 = syms(five.table, "x q alpha0 alpha2")
    printed = dict(verify._symmetry_residuals(
        five.flow(), five, load_map("s2_5d", "printed")
    ))
    assert printed["x"].equals(2 * (a0 - a2) * x)
    assert printed["q"].equals(2 * (a0 - a2) * q)
    corrected = dict(verify._symmetry_residuals(
        five.flow(), five, load_map("s2_5d", "corrected")
    ))
    for name, resid in corrected.items():
        assert is_identically_zero(resid), name


def _sympy_five_dim(X, Y, Z, W, Q, A0, A1, A2, ETA):
    return {
        "x": -(X * W - A2) * X + sp.Rational(1, 2),
        "y": (X * W + Z * Q - 1) * Y + A1 * W * Q,
        "z": -(Z * Q - A0) * Z - ETA / 2,
        "w": (X * W - Z * Q - A2) * W + Y * Z,
        "q": (Z * Q - X * W - A0) * Q + X * Y,
    }


def test_s2_5d_residual_matches_sympy_expansion():
    # fully independent route: expand the x-component residual in sympy
    x, y, z, w, q, a0, a1, a2, eta = sp.symbols("x y z w q a0 a1 a2 eta")
    F = _sympy_five_dim(x, y, z, w, q, a0, a1, a2, eta)
    for coeff, expected in ((a0, 2 * (a0 - a2) * x), (a2, sp.Integer(0))):
        phi = {
            "x": -x,
            "y": y - 2 * a2 * q / x - q / x**2,
            "z": -z,
            "w": -w + 2 * coeff / x + 1 / x**2,
            "q": -q,
        }
        lhs = sum(
            sp.diff(phi["x"], v) * F[k]
            for k, v in zip("xyzwq", (x, y, z, w, q))
        )
        F_img = _sympy_five_dim(
            phi["x"], phi["y"], phi["z"], phi["w"], phi["q"],
            a0, a1 + 2 * a2, -a2, -eta,
        )
        residual = sp.simplify(lhs - F_img["x"])
        assert sp.simplify(residual - expected) == 0


def test_s2_4d_eta_sign_matches_sympy_expansion():
    # the printed 4d reflection flips eta together with s; the p2-residual
    # then equals eta exactly, and vanishes when eta is kept fixed
    q1, p1, q2, p2, s, a0, a1, a2, eta = sp.symbols("q1 p1 q2 p2 s a0 a1 a2 eta")

    def f_p2(Q2, P2, S, A1, A2, ETA):
        return (Q2 * P2**2) / S + (A1 + A2) * P2 / S + ETA / 2

    lhs = -(-f_p2(q2, p2, s, a1, a2, eta))
    for eta_sign, expected in ((-1, eta), (+1, sp.Integer(0))):
        rhs = f_p2(-q2, -p2, -s, a1 + 2 * a2, -a2, eta_sign * eta)
        assert sp.simplify(lhs - rhs - expected) == 0


def test_charts():
    assert check_chart("five_dim", "chart0").passed
    assert check_chart("five_dim", "chart1").passed
    assert check_chart("five_dim", "chart2", "corrected").passed
    report = check_chart("five_dim", "chart2", "printed")
    assert not report.passed
    assert "non-polynomial" in report.detail


def test_chart_fields_equal_transformed_family():
    # the field written in chart coordinates is not merely polynomial: it is
    # the same family at the parameters of the matching reflection (for the
    # outer chart, up to the sign flip that separates chart from reflection)
    from painleve_d32.ring import differentiate, substitute

    five = load_model("five_dim")
    T = five.table
    flow = five.flow()
    cases = [
        ("chart0", "s0_5d", {}),
        ("chart1", "s1_5d", {}),
        ("chart2", "s2_5d", {"x": -1, "y": +1, "z": -1, "w": -1, "q": -1}),
    ]
    for chart_id, smap_id, signs in cases:
        chart = load_map(chart_id, "resolved")
        smap = load_map(smap_id, "resolved")
        corrections = verify._chart_corrections(five, chart)
        inverse = {
            n: syms(T, n)[0] - corrections[n] for n in five.state
        }
        param_bind = smap.param_images(T)
        param_bind["eta"] = smap.action.eta_sign * syms(T, "eta")[0]
        if signs:
            param_bind.update(
                {n: signs[n] * syms(T, n)[0] for n in five.state}
            )
        for name in five.state:
            in_chart = substitute(differentiate(chart.var_map[name], flow), inverse)
            expected = substitute(five.rhs[name], param_bind)
            if signs:
                expected = signs[name] * expected
            assert in_chart.equals(expected), (chart_id, name)


# -- integrals -------------------------------------------------------------------------------


def test_first_integrals():
    assert check_first_integral("five_dim", "ywq").passed
    assert check_first_integral("K1_sys", "I1").passed
    assert check_first_integral("tildeK2_sys", "I2").passed
    with pytest.raises(ValueError):
        check_first_integral("ham_4d", "I1")


def test_perturbed_integral_fails():
    five = load_model("five_dim")
    y, w, q = syms(five.table, "y w q")
    report = check_integral_expr("five_dim", y - 2 * w * q, Fraction(-1), "perturbed")
    assert not report.passed
    assert report.witness_point is not None


# -- Hamiltonian, reduction, second-order forms ------------------------------------------------


def test_hamiltonian_consistency():
    for sid in ("ham_4d", "K1_sys", "K2_sys", "tildeK2_sys"):
        assert check_hamiltonian_consistency(sid).passed
    with pytest.raises(ValueError):
        check_hamiltonian_consistency("five_dim")


def test_reduction(monkeypatch):
    assert check_reduction_5d_to_4d("reduce_5d_4d").passed
    # the registry map with the exponential dropped from the eliminated
    # variable, y = w*q instead of y = w*q + s, must fail
    red = load_map("reduce_5d_4d")
    w, q = syms(red.table, "w q")
    mutant = dataclasses.replace(red, eliminated={"y": w * q})
    monkeypatch.setattr(verify, "load_map", lambda map_id, variant="printed": mutant)
    report = check_reduction_5d_to_4d("reduce_5d_4d")
    assert not report.passed
    assert report.witness_point is not None


def test_second_order_forms():
    report = check_second_order_forms("order2_xzw", "order2_ham_4d")
    assert report.passed
    assert [label for label, _ in report.residuals] == [
        "order2_xzw:x", "order2_xzw:xdot", "order2_ham_4d:y",
        "order2_ham_4d:ydot", "order2_ham_4d:w", "order2_ham_4d:wdot",
    ]
    # no map is not a vacuous pass
    with pytest.raises(ValueError):
        check_second_order_forms()


@pytest.mark.parametrize("source_id, target_id, positions", [
    ("xzw", "second_order_x", {"x": ("x", "w", "xdot")}),
    ("ham_4d", "coupled_second_order",
     {"p1": ("y", "q1", "ydot"), "p2": ("w", "q2", "wdot")}),
])
def test_second_order_forms_match_a_sympy_elimination(source_id, target_id, positions):
    # independent route: solve rhs[position] = velocity for the conjugate,
    # substitute it into the second derivative of the position and compare
    # with the stored second-order right-hand side; positions maps each source
    # position to its target name, its conjugate and its velocity
    source, target = load_model(source_id), load_model(target_id)
    sym = sp.Symbol
    rhs = {
        sym(n): _sympy_of(r, [sym(m) for m in source.table.symbols])
        for n, r in source.rhs.items()
    }
    rhs[sym(source.indep)] = sp.Integer(1)
    solved = sp.solve(
        [rhs[sym(pos)] - sym(vel) for pos, (_, _, vel) in positions.items()],
        [sym(conj) for _, conj, _ in positions.values()], dict=True,
    )
    assert len(solved) == 1
    rename = {sym(name): sym(pos) for pos, (name, _, _) in positions.items()}
    relation = {}
    if source_id in NORMALIZED_SYSTEMS:
        relation = {sym("alpha1"): 1 - sym("alpha0") - sym("alpha2")}
    for pos, (_, _, vel) in positions.items():
        second = sum(sp.diff(rhs[sym(pos)], v) * f for v, f in rhs.items())
        stored = _sympy_of(
            target.rhs[vel], [sym(m) for m in target.table.symbols]
        ).subs(rename, simultaneous=True)
        residual = (second.subs(solved[0]) - stored).subs(relation)
        assert sp.expand(sp.numer(sp.together(residual))) == 0, vel


def test_second_order_fails_without_coupling():
    ham = load_model("ham_4d")
    T = ham.table
    H_uncoupled = ham.hamiltonian.expr + syms(T, "p1")[0] * syms(T, "p2")[0] / syms(T, "s")[0]
    rhs = {}
    for coord, mom in ham.hamiltonian.pairing:
        rhs[coord] = Derivation(T, {mom: 1}).of(H_uncoupled)
        rhs[mom] = -Derivation(T, {coord: 1}).of(H_uncoupled)
    perturbed = VectorFieldSystem(
        "ham_4d", T, rhs,
        hamiltonian=Hamiltonian(H_uncoupled, ham.hamiltonian.pairing),
        singular_at_zero_indep=True,
    )
    entries = dict(verify._symmetry_residuals(
        perturbed.flow(), load_model("coupled_second_order"), load_map("order2_ham_4d")
    ))
    assert not is_identically_zero(entries["ydot"])
    assert not is_identically_zero(entries["wdot"])


# -- solutions and the invariant divisor ---------------------------------------------------------


def test_particular_solutions():
    for pid in ("linear_xz_sol", "second_order_sol_a", "second_order_sol_b",
                "rest_wq_zero"):
        assert check_particular_solution(pid).passed, pid


def test_rest_wq_zero_solves_five_dim_for_every_alpha1(monkeypatch):
    # with y = w = q = 0 both y' = (x*w + z*q - 1)*y + alpha1*w*q and w'
    # vanish whatever alpha1 is, so the binding alpha1 = 0 is not needed
    sol = verify.load_particular_solution("rest_wq_zero")
    assert set(sol.param_bindings) == {"alpha1"}
    free = dataclasses.replace(sol, param_bindings={})
    monkeypatch.setattr(verify, "load_particular_solution", lambda solution_id: free)
    assert check_particular_solution("rest_wq_zero").passed


def test_invariant_divisor():
    report = check_invariant_divisor()
    assert report.passed
    assert "x*w + z*q - 1" in report.detail


# -- the search oracle ----------------------------------------------------------------------------


def test_search_recovers_ywq():
    found = first_integral_search("five_dim", 2, 0, (Fraction(-1),))
    assert len(found) == 1
    ywq = load_integral("ywq").expr
    assert (found[0].expr - ywq).is_zero or (found[0].expr + ywq).is_zero


def test_search_recovers_I1():
    found = first_integral_search("K1_sys", 4, 0, (Fraction(0),))
    assert len(found) == 1
    i1 = load_integral("I1").expr
    assert found[0].expr.equals(i1) or found[0].expr.equals(-i1)


def test_search_ham_4d_empty():
    found = first_integral_search(
        "ham_4d", 3, 2, (Fraction(0), Fraction(-1), Fraction(1))
    )
    assert found == []


def test_search_cross_check_against_integral_checker():
    for integral in first_integral_search("five_dim", 2, 0, (Fraction(-1),)):
        assert check_integral_expr(
            "five_dim", integral.expr, integral.lam, "search-hit"
        ).passed


def test_search_guards():
    with pytest.raises(ValueError):
        first_integral_search("five_dim", 0, 0, (Fraction(0),))
    with pytest.raises(CapacityError):
        first_integral_search(
            "ham_4d", 6, 4, (Fraction(0),), monomial_cap=50
        )
    # each of these would otherwise read as a certified empty search or
    # return the same integral twice
    with pytest.raises(ValueError):
        first_integral_search("five_dim", 2, -1, (Fraction(-1),))
    with pytest.raises(ValueError):
        first_integral_search("five_dim", 2, 0, ())
    with pytest.raises(ValueError):
        first_integral_search("five_dim", 2, 0, (Fraction(-1), Fraction(-1)))


def test_search_cap_counts_the_ansatz_before_building_it(monkeypatch):
    # five_dim at (2, 1): 21 state monomials times 2 powers of the time
    sys_obj = load_model("five_dim")
    monos = verify._state_indep_monomials(sys_obj.table, sys_obj.state, sys_obj.indep, 2, 1)
    assert len(monos) == 42
    assert first_integral_search("five_dim", 2, 1, (Fraction(-1),), monomial_cap=42)
    with pytest.raises(CapacityError, match="^42 ansatz monomials exceed the cap of 41"):
        first_integral_search("five_dim", 2, 1, (Fraction(-1),), monomial_cap=41)

    def refuse(*args):
        raise AssertionError("ansatz built before the cap was checked")

    # (40, 10) would be C(45, 5)*11 = 13 439 349 monomials
    monkeypatch.setattr(verify, "_state_indep_monomials", refuse)
    with pytest.raises(CapacityError, match="^13439349 ansatz monomials"):
        first_integral_search("five_dim", 40, 10, (Fraction(0),))


@pytest.mark.parametrize("state_bound,indep_bound", [(3, 1), (4, 0)])
def test_search_five_dim_former_cliffs_find_only_ywq(state_bound, indep_bound):
    # regression guard: dense Gauss-Jordan over RatExpr needs seconds at
    # (3, 1) and does not finish in 200 s at (4, 0)
    found = first_integral_search("five_dim", state_bound, indep_bound, (Fraction(-1),))
    assert [render_ratexpr(f.expr) for f in found] == ["w*q - y"]
    assert (found[0].expr + load_integral("ywq").expr).is_zero


def test_search_five_dim_degree_4_finds_the_square_of_ywq():
    # positive control: lambda = -2 is the eigenvalue of (y - w*q)^2
    found = first_integral_search("five_dim", 4, 0, (Fraction(-2),))
    ywq = load_integral("ywq").expr
    assert len(found) == 1
    assert (found[0].expr - ywq * ywq).is_zero


SEARCH_LAMBDAS = (Fraction(0), Fraction(-1), Fraction(1))


def _gauss_jordan_nullspace(rows, ncols, one):
    """Reference kernel: Gauss-Jordan over the parameter function field, each
    new row reduced by the pivot rows and pivoting on its leftmost entry."""
    pivots: dict[int, dict[int, RatExpr]] = {}
    for row in rows:
        row = {c: RatExpr(v) for c, v in row.items()}
        while True:
            cols = sorted(c for c in row if not row[c].is_zero)
            row = {c: row[c] for c in cols}
            if not row:
                break
            hit = next((c for c in cols if c in pivots), None)
            if hit is None:
                break
            factor = row[hit]
            for c, v in pivots[hit].items():
                acc = row.get(c, None)
                newv = (acc - factor * v) if acc is not None else (-factor * v)
                if newv.is_zero:
                    row.pop(c, None)
                else:
                    row[c] = newv
        if not row:
            continue
        lead = min(row)
        inv = row[lead]
        norm = {c: v / inv for c, v in row.items()}
        for prow in pivots.values():
            if lead in prow:
                f = prow[lead]
                for c, v in norm.items():
                    acc = prow.get(c, None)
                    newv = (acc - f * v) if acc is not None else (-f * v)
                    if newv.is_zero:
                        prow.pop(c, None)
                    else:
                        prow[c] = newv
        pivots[lead] = norm
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec: dict[int, RatExpr] = {f: one}
        for lead, prow in pivots.items():
            if f in prow:
                vec[lead] = -prow[f]
        basis.append(vec)
    return basis


def _differential_nullspace(monkeypatch, seen):
    """Route _nullspace through Gauss-Jordan as well and require the same
    basis, with entries equal as rational functions (RatExpr arithmetic
    leaves no canonical form)."""
    certified = verify._nullspace

    def both(rows, ncols, one, replay):
        basis = certified(rows, ncols, one, replay)
        reference = _gauss_jordan_nullspace(rows, ncols, one)
        assert [vec.keys() for vec in basis] == [ref.keys() for ref in reference]
        for vec, ref in zip(basis, reference):
            assert all(vec[c].equals(ref[c]) for c in ref)
        seen.append((ncols, len(basis)))
        return basis

    monkeypatch.setattr(verify, "_nullspace", both)


def _differential_kernel(monkeypatch, seen):
    """Route each eigenvalue's kernel step, certified mod p or not, through
    Gauss-Jordan on the exact rows as well and require a structurally
    identical basis."""
    certified = verify._SearchMatrix.kernel

    def both(matrix, lam):
        basis = certified(matrix, lam)
        sys_obj, monos = matrix.sys_obj, matrix.monos
        rows = verify._search_rows(*verify._SearchMatrix(sys_obj, monos).exact, lam)
        one = RatExpr.const(sys_obj.table, 1)
        assert basis == _gauss_jordan_nullspace(rows.values(), len(monos), one)
        seen.append((len(monos), len(basis)))
        return basis

    monkeypatch.setattr(verify._SearchMatrix, "kernel", both)


@pytest.mark.parametrize(
    "system_id,state_bound,indep_bound,lams",
    [(s, 2, 1, SEARCH_LAMBDAS) for s in SYSTEM_IDS]
    + [("five_dim", 3, 0, SEARCH_LAMBDAS), ("K1_sys", 8, 3, (Fraction(0),))],
)
def test_certified_nullspace_matches_exact_elimination(
    monkeypatch, system_id, state_bound, indep_bound, lams
):
    seen: list = []
    _differential_kernel(monkeypatch, seen)
    first_integral_search(system_id, state_bound, indep_bound, lams)
    assert len(seen) == len(lams)


def _cleared(row: dict) -> dict:
    """The row times the product of its entry denominators: polynomial
    entries and the same kernel."""
    den = Poly.const(next(iter(row.values())).table, 1)
    for v in row.values():
        den = den * v.den
    return {c: v.num * exact_polynomial_quotient(den, v.den) for c, v in row.items()}


def test_certified_nullspace_matches_exact_on_random_matrices(monkeypatch):
    table = SymbolTable([("a", "parameter"), ("b", "parameter")])
    one = RatExpr.const(table, 1)
    rng = random.Random(7)
    seen: list = []
    _differential_nullspace(monkeypatch, seen)
    for _ in range(20):
        ncols = rng.randint(2, 4)
        zero_col = rng.randrange(ncols)
        rows = [
            _cleared({
                c: random_ratexpr(rng, table) for c in range(ncols) if c != zero_col
            })
            for _ in range(rng.randint(1, ncols + 1))
        ]
        # the replay comes from the same rows at the seeded point mod p
        image = verify._point_images(table)
        special = [{c: image(v) for c, v in row.items()} for row in rows]
        pivots = verify._eliminate_mod_p(
            [{c: v for c, v in row.items() if v} for row in special]
        )
        verify._nullspace(rows, ncols, one, [(r, c) for r, c, _ in pivots])
    # both outcomes occur: kernels of the zero column alone and larger ones
    assert {dim == 1 for _, dim in seen} == {True, False}


def test_nullspace_falls_back_when_every_point_drops_rank(monkeypatch):
    # alpha0^(p-1) - 1 is nonzero over Q but vanishes at every nonzero residue
    table = load_model("five_dim").table
    entry = Poly.var(table, "alpha0", verify.RANK_PRIME - 1) - Poly.const(table, 1)
    one = RatExpr.const(table, 1)
    rows = [{0: entry}]
    assert verify._point_images(table)(entry) == 0
    runs = []
    eliminate = verify._eliminate
    monkeypatch.setattr(
        verify, "_eliminate", lambda *args: runs.append(eliminate(*args)) or runs[-1]
    )
    # no pivot mod p to replay; the exact pass finds the pivot itself
    assert verify._nullspace(rows, 2, one, []) == [{1: one}]
    assert [[(r, c) for r, c, _ in pivots] for pivots in runs] == [[(0, 0)]]


@pytest.mark.parametrize(
    "system_id,state_bound,indep_bound",
    [("five_dim", 2, 1), ("K1_sys", 4, 0), ("ham_4d", 2, 1)],
)
def test_exact_markowitz_alone_matches_gauss_jordan(
    monkeypatch, system_id, state_bound, indep_bound
):
    # an unusable point mod p leaves every eigenvalue and every pivot to the
    # exact pass
    monkeypatch.setattr(verify, "_point_images", lambda table: lambda poly: None)
    calls = []
    nullspace = verify._nullspace
    monkeypatch.setattr(
        verify, "_nullspace", lambda *args: calls.append(args) or nullspace(*args)
    )
    seen: list = []
    _differential_kernel(monkeypatch, seen)
    first_integral_search(system_id, state_bound, indep_bound, SEARCH_LAMBDAS)
    assert len(seen) == len(calls) == len(SEARCH_LAMBDAS)


def test_nullspace_refuses_a_basis_that_fails_plug_back(monkeypatch):
    back_substitute = verify._back_substitute

    def corrupt(pivots, ncols):
        basis = back_substitute(pivots, ncols)
        vec = basis[0]
        vec[max(vec)] *= 2
        return basis

    monkeypatch.setattr(verify, "_back_substitute", corrupt)
    with pytest.raises(RingError, match="plug-back"):
        first_integral_search("five_dim", 2, 0, (Fraction(-1),))


def test_replayed_pivot_that_vanishes_exactly_is_refused():
    rows = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(3)}]
    with pytest.raises(RingError, match="vanished"):
        verify._eliminate(
            rows, verify._exact, lambda v: 1 / v, verify._simplicity, [(1, 1)]
        )


def test_search_ham_4d_degree_4_is_empty():
    assert first_integral_search("ham_4d", 4, 2, SEARCH_LAMBDAS) == []


@pytest.mark.parametrize("system_id", ["five_dim", "ham_4d", "K1_sys"])
def test_search_checks_columns_that_vanish_mod_p_exactly(monkeypatch, system_id):
    # at lambda = 0 mod p the constant column's entry -lambda*L vanishes mod p
    # but not over Q, so the constant 1 is no integral
    p = verify.RANK_PRIME
    for lam in (Fraction(p), Fraction(2 * p)):
        assert first_integral_search(system_id, 2, 1, (lam,)) == []
    # p divides the denominator: lambda has no image mod p
    calls = []
    nullspace = verify._nullspace
    monkeypatch.setattr(
        verify, "_nullspace", lambda *args: calls.append(args) or nullspace(*args)
    )
    assert first_integral_search(system_id, 2, 1, (Fraction(1, p),)) == []
    assert len(calls) == 1


def _matrix(system_id, state_bound, indep_bound):
    sys_obj = load_model(system_id)
    monos = verify._state_indep_monomials(
        sys_obj.table, sys_obj.state, sys_obj.indep, state_bound, indep_bound
    )
    return verify._SearchMatrix(sys_obj, monos)


def _split_keys(matrix):
    """The row keys mod p without a B cell, then those with one, in order."""
    c_cells, b_cells = matrix.mod_p
    keys = sorted(c_cells.keys() | b_cells.keys())
    return [k for k in keys if k not in b_cells], [k for k in keys if k in b_cells]


def _eliminations(monkeypatch, system_id, state_bound, indep_bound, lams, found):
    """Run a search and check its eliminations mod p: the eigenvalue-free
    rows once per search, the reduced pencil once per eigenvalue, and for an
    eigenvalue the rank mod p does not settle a replay of the factor's
    pivots, then the pencil's, each carried over by its row key."""
    runs = []
    eliminate_mod_p = verify._eliminate_mod_p
    monkeypatch.setattr(
        verify, "_eliminate_mod_p",
        lambda rows: runs.append((rows, eliminate_mod_p(rows))) or runs[-1][1],
    )
    replays = []
    nullspace = verify._nullspace
    monkeypatch.setattr(
        verify, "_nullspace",
        lambda rows, ncols, one, replay: replays.append(replay)
        or nullspace(rows, ncols, one, replay),
    )
    assert bool(first_integral_search(system_id, state_bound, indep_bound, lams)) == found
    assert len(runs) == 1 + len(lams)
    matrix = _matrix(system_id, state_bound, indep_bound)
    free_keys, pencil_keys = _split_keys(matrix)
    (free_rows, factor), *pencils = runs
    factor_cols = {c for _, c, _ in factor}
    expected_replays = []
    for lam, (pencil_rows, pencil) in zip(lams, pencils):
        stacked = matrix.rows_mod_p(lam)
        assert {k: row for k, row in zip(free_keys, free_rows) if row} == {
            k: row for k, row in stacked.items() if k in free_keys
        }
        assert len(pencil_rows) == len(pencil_keys)
        assert not any(factor_cols & row.keys() for row in pencil_rows)
        assert len(factor) + len(pencil) == len(eliminate_mod_p(list(stacked.values())))
        if found or lam == verify.RANK_PRIME:
            exact_keys = list(verify._search_rows(*matrix.exact, lam))
            expected_replays.append(
                [(exact_keys.index(free_keys[r]), c) for r, c, _ in factor]
                + [(exact_keys.index(pencil_keys[r]), c) for r, c, _ in pencil]
            )
    assert replays == expected_replays and all(replays)


@pytest.mark.parametrize(
    "system_id,state_bound,indep_bound,lam,found",
    [
        ("five_dim", 2, 0, Fraction(-1), True),
        ("K1_sys", 8, 3, Fraction(0), True),
        # lambda = 0 mod p: 114 rows mod p against 116 exact ones
        ("five_dim", 2, 1, Fraction(verify.RANK_PRIME), False),
    ],
)
def test_search_eliminates_mod_p_once_per_eigenvalue(
    monkeypatch, system_id, state_bound, indep_bound, lam, found
):
    _eliminations(monkeypatch, system_id, state_bound, indep_bound, (lam,), found)


def test_search_eliminates_the_factor_once_per_search(monkeypatch):
    # three eigenvalues share one factor, and the rank settles each
    _eliminations(monkeypatch, "ham_4d", 3, 1, SEARCH_LAMBDAS, False)


def _mod_p_elimination(rows, replay):
    p = verify.RANK_PRIME
    return verify._eliminate(rows, lambda v: v % p or None, lambda v: pow(v, -1, p), None, replay)


@pytest.mark.parametrize(
    "system_id,state_bound,indep_bound",
    [(s, 2, 1) for s in SYSTEM_IDS]
    + [("five_dim", 3, 0), ("K1_sys", 8, 3)]
    + [("ham_4d", 3, b) for b in range(5)],
)
def test_shared_factor_matches_the_stacked_elimination_mod_p(
    system_id, state_bound, indep_bound
):
    # the factor and the reduced pencil are an elimination of the stacked
    # rows C_p - lam*B_p: same rank and touched columns, and their pivots
    # replay on the stacked rows with none left over
    p = verify.RANK_PRIME
    lams = SEARCH_LAMBDAS + (Fraction(-2), Fraction(1, 2))
    if (state_bound, indep_bound) == (2, 1):
        lams += (Fraction(p), Fraction(2 * p))
    matrix = _matrix(system_id, state_bound, indep_bound)
    for lam in lams:
        stacked = matrix.rows_mod_p(lam)
        rows = list(stacked.values())
        keyed, touched = matrix.pencil.pivots(verify._residue(lam))
        assert len(keyed) == len(verify._eliminate_mod_p(rows))
        assert touched == {c for row in rows for c in row}
        index = {key: r for r, key in enumerate(stacked)}
        replay = [(index[key], c) for key, c in keyed]
        assert [(r, c) for r, c, _ in _mod_p_elimination(rows, replay)] == replay


def test_search_ham_4d_ladder_is_certified_mod_p_alone(monkeypatch):
    # the ladder up to the 175-column cliff assembles no exact matrix; only
    # the columns that vanish mod p have their own cells checked exactly
    def refuse(*args):
        raise AssertionError("exact rows built for an empty kernel")

    monkeypatch.setattr(verify._SearchMatrix, "exact", property(refuse))
    monkeypatch.setattr(verify, "_nullspace", refuse)
    for indep_bound in range(5):
        assert first_integral_search("ham_4d", 3, indep_bound, SEARCH_LAMBDAS) == []


# the systems on the normalization alpha0 + alpha1 + alpha2 = 1, stated here
# so that the references below share no code with the kernel's decision
NORMALIZED_SYSTEMS = ("five_dim", "ham_4d")


def test_normalized_systems_are_the_tables_with_all_three_alphas():
    assert NORMALIZED_SYSTEMS == tuple(
        s for s in SYSTEM_IDS if has_relation_symbols(load_model(s).table)
    )


def _reference_rows(system_id, state_bound, indep_bound, lam):
    """Search rows built term by term: one derivation per ansatz monomial,
    cleared by the product of the distinct derivative denominators through an
    exact quotient, then reduced by the relation and split per term."""
    sys_obj = load_model(system_id)
    table = sys_obj.table
    monos = verify._state_indep_monomials(
        table, sys_obj.state, sys_obj.indep, state_bound, indep_bound
    )
    flow = sys_obj.flow()
    derivs = [flow.of_poly(Poly(table, {m: Fraction(1)})) for m in monos]
    common_den = Poly.const(table, 1)
    for den in dict.fromkeys(d.den for d in derivs if not d.den.is_const):
        common_den = common_den * den
    param_idx = {
        i for i, kind in enumerate(table.kinds) if kind in ("parameter", "constant")
    }
    rows_by_key: dict = {}
    for col, (m, d) in enumerate(zip(monos, derivs)):
        cleared = d.num * exact_polynomial_quotient(common_den, d.den)
        base = Poly(table, {m: Fraction(1)}) * common_den
        if system_id in NORMALIZED_SYSTEMS:
            cleared, base = reduce_relation(cleared), reduce_relation(base)
        for mono, coeff in (cleared - base.scaled(lam)).terms:
            key = tuple(0 if i in param_idx else e for i, e in enumerate(mono))
            entry = tuple(e if i in param_idx else 0 for i, e in enumerate(mono))
            cell = rows_by_key.setdefault(key, {})
            add = RatExpr(Poly(table, {entry: coeff}))
            cell[col] = cell[col] + add if col in cell else add
    return sys_obj, monos, [rows_by_key[k] for k in sorted(rows_by_key)]


@pytest.mark.parametrize(
    "system_id,state_bound,indep_bound",
    [(s, 2, 1) for s in SYSTEM_IDS] + [("five_dim", 3, 0), ("K1_sys", 8, 3)],
)
def test_shifted_assembly_matches_termwise_rows(system_id, state_bound, indep_bound):
    for lam in SEARCH_LAMBDAS + (Fraction(-2), Fraction(1, 2)):
        sys_obj, monos, expected = _reference_rows(
            system_id, state_bound, indep_bound, lam
        )
        matrix = verify._SearchMatrix(sys_obj, monos)
        rows = verify._search_rows(*matrix.exact, lam)
        assert len(rows) == len(expected)
        for row, ref in zip(rows.values(), expected):
            assert list(row) == list(ref)
            assert all(RatExpr(row[c]) == ref[c] for c in ref)
        # the integer cells are the exact ones mod p, row key by row key
        image = verify._point_images(sys_obj.table)
        special = {
            key: {c: v for c, v in ((c, image(e)) for c, e in row.items()) if v}
            for key, row in rows.items()
        }
        assert list(matrix.rows_mod_p(lam).items()) == [
            (key, row) for key, row in special.items() if row
        ]


def _sympy_of(e, names):
    """A Poly or RatExpr rebuilt in sympy term by term."""
    def poly(p):
        return sum(
            (sp.Rational(c.numerator, c.denominator)
             * sp.Mul(*(names[i] ** k for i, k in enumerate(mono) if k))
             for mono, c in p.terms),
            sp.Integer(0),
        )

    return poly(e.num) / poly(e.den) if isinstance(e, RatExpr) else poly(e)


@pytest.mark.parametrize(
    "system_id,state_bound,indep_bound,lam,count",
    [("five_dim", 3, 0, Fraction(-1), 1), ("K1_sys", 8, 3, Fraction(0), 2)],
)
def test_search_hits_satisfy_sympy_expansion(
    system_id, state_bound, indep_bound, lam, count
):
    # independent route: D(P) - lam*P expanded in sympy from the registry
    # right-hand sides, with alpha1 = 1 - alpha0 - alpha2
    sys_obj = load_model(system_id)
    names = [sp.Symbol(n) for n in sys_obj.table.symbols]
    by_name = dict(zip(sys_obj.table.symbols, names))
    rhs = {by_name[n]: _sympy_of(r, names) for n, r in sys_obj.rhs.items()}
    rhs[by_name[sys_obj.indep]] = sp.Integer(1)
    relation = {}
    if system_id in NORMALIZED_SYSTEMS:
        relation = {by_name["alpha1"]: 1 - by_name["alpha0"] - by_name["alpha2"]}
    found = first_integral_search(system_id, state_bound, indep_bound, (lam,))
    assert len(found) == count
    for integral in found:
        P = _sympy_of(integral.expr, names)
        residual = sum(sp.diff(P, v) * f for v, f in rhs.items()) - lam * P
        numerator = sp.numer(sp.together(residual.subs(relation)))
        assert sp.expand(numerator) == 0


def test_variant_policy_in_run_scope():
    reports = run_scope("symmetry", variant="printed")
    by_id = {r.check_id: r for r in reports}
    assert not by_id["symmetry:five_dim:s2_5d:printed"].passed
    assert not by_id["symmetry:ham_4d:s2_4d:printed"].passed
    reports = run_scope("symmetry", variant="corrected")
    assert all(r.passed for r in reports)
    reports = run_scope("symmetry", variant="both")
    assert sum(not r.passed for r in reports) == 2
    # each resolution gives way to its two raw checks, in row order
    ids = [r.check_id for r in run_scope("all", variant="both")]
    assert len(ids) == 32
    assert [i for i in ids if i.endswith(("printed", "corrected"))] == [
        "symmetry:five_dim:s2_5d:printed", "symmetry:five_dim:s2_5d:corrected",
        "symmetry:ham_4d:s2_4d:printed", "symmetry:ham_4d:s2_4d:corrected",
        "chart:five_dim:chart2:printed", "chart:five_dim:chart2:corrected",
    ]
