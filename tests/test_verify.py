"""Identity checks: positive suite, designed failures, dispute resolution.

The dispute verdicts are cross-checked against two independent routes: a
hand-expanded residual frozen here, and a from-scratch sympy expansion that
shares no code with the exact kernel.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from conftest import leibniz_of, random_ratexpr, sympy_of, sympy_read
from painleve_d32 import models, verify, weyl
from painleve_d32.models import (
    SYSTEM_IDS,
    FirstIntegral,
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
    Substitution,
    SymbolMismatchError,
    SymbolTable,
    exact_polynomial_quotient,
    has_relation_symbols,
    is_identically_zero,
    jacobian_determinant,
    reduce_relation,
    syms,
)
from painleve_d32.syntax import render_poly, render_ratexpr
from painleve_d32.verify import (
    CapacityError,
    check_chart,
    check_first_integral,
    check_hamiltonian_consistency,
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
                {"context": context, "letter": letter, **action._asdict()}
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


def test_reports_are_frozen():
    report = check_invariant_divisor()
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.status = "fail"


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


@pytest.mark.parametrize("map_id", models.DISPUTED_MAP_IDS)
def test_a_resolution_fails_where_the_alias_serves_the_other_variant(map_id, monkeypatch):
    load_map = models.load_map

    def printed_as_resolved(mid, variant="printed"):
        return load_map(mid, "printed" if (mid, variant) == (map_id, "resolved") else variant)
    monkeypatch.setattr(models, "load_map", printed_as_resolved)
    report = resolve_disputed(map_id)
    assert not report.passed
    assert report.residuals == [("printed", "fail"), ("corrected", "pass")]
    assert report.detail == (
        "resolved variant: corrected, but the alias 'resolved' serves printed"
    )


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


def _registered_integral(monkeypatch, system_id, expr, lam) -> str:
    """The id of ``expr`` registered as an integral of the system for one test."""
    integral = FirstIntegral("custom", system_id, expr, Fraction(lam))
    monkeypatch.setitem(models._registry().integrals, integral.id, integral)
    return integral.id


def test_constant_residual_records_its_empty_witness(monkeypatch):
    # a nonzero constant numerator over a table without the three alphas is
    # nonzero everywhere: the empty point is its witness, and it is recorded
    table = load_model("K1_sys").table
    one = _registered_integral(monkeypatch, "K1_sys", RatExpr.const(table, 1), 1)
    report = check_first_integral("K1_sys", one)
    assert not report.passed
    assert report.residuals == [("eigen", "-1")]
    assert report.witness_point == {}
    assert report.to_record()["witness"] == {}
    assert "no witness" not in report.detail


def test_witness_search_lets_kernel_errors_through(monkeypatch):
    # every symbol of a witness candidate is bound, so an evaluation error is
    # a fault of the kernel, not a point to skip
    def broken(self, point):
        raise RingError("evaluation failed")

    monkeypatch.setattr(Poly, "evaluate", broken)
    with pytest.raises(RingError, match="evaluation failed"):
        check_symmetry("five_dim", "s2_5d", "printed")


def test_s2_5d_residual_matches_hand_expansion():
    # frozen by hand: with the printed coefficient c = alpha0 in the
    # w-component, the x-residual is 2*(alpha0 - alpha2)*x and the q-residual
    # 2*(alpha0 - alpha2)*q; the corrected coefficient alpha2 zeroes both
    five = load_model("five_dim")
    x, q, a0, a2 = syms(five.table, "x q alpha0 alpha2")
    printed = dict(verify._residuals(*verify._map_flow(load_map("s2_5d", "printed"))))
    assert printed["x"].equals(2 * (a0 - a2) * x)
    assert printed["q"].equals(2 * (a0 - a2) * q)
    corrected = dict(verify._residuals(*verify._map_flow(load_map("s2_5d", "corrected"))))
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
    assert report.detail == "non-polynomial rhs in chart"
    # the failing principal parts are searched for a witness on the normalization
    point = report.witness_point
    assert point is not None
    assert point["alpha0"] + point["alpha1"] + point["alpha2"] == 1
    # both principal-part numerators carry the s2_5d misprint factor
    # alpha0 - alpha2, and the other components are polynomial
    T = load_model("five_dim").table
    a0, a2 = sp.symbols("alpha0 alpha2")
    failing = {label: text for label, text in report.residuals if text != "zero"}
    assert sorted(failing) == ["polynomial:w", "polynomial:y"]
    for text in failing.values():
        read = sympy_read(text, T.symbols)
        assert read != 0 and sp.expand(read.subs(a2, a0)) == 0, text


def test_principal_part_is_what_no_polynomial_absorbs():
    T = SymbolTable([("x", "state"), ("y", "state")])
    x, y = syms(T, "x y")
    assert verify._principal_part((x**2 * y + y + x) / x).equals(y / x)
    assert verify._principal_part((x**2 * y + y) / x**2).equals(y / x**2)
    assert verify._principal_part(x**2 * y + 3).is_zero
    # over a denominator of several terms it is all of the expression
    assert verify._principal_part(x / (x + y)).equals(x / (x + y))
    assert verify._principal_part((x**2 - y**2) / (x + y)).is_zero


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
        images = smap.pullback_bindings(T, T)
        param_bind = {p: images[p] for p in (*smap.param_names, "eta")}
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


def test_perturbed_integral_fails(monkeypatch):
    five = load_model("five_dim")
    y, w, q = syms(five.table, "y w q")
    perturbed = _registered_integral(monkeypatch, "five_dim", y - 2 * w * q, -1)
    report = check_first_integral("five_dim", perturbed)
    assert not report.passed
    assert report.witness_point is not None


# -- Hamiltonian, reduction, second-order forms ------------------------------------------------


def test_hamiltonian_consistency():
    for sid in ("ham_4d", "K1_sys", "K2_sys", "tildeK2_sys"):
        assert check_hamiltonian_consistency(sid).passed
    assert [label for label, _ in check_hamiltonian_consistency("ham_4d").residuals] == [
        "dq1", "dp1", "dq2", "dp2", "composition",
    ]
    with pytest.raises(ValueError):
        check_hamiltonian_consistency("five_dim")


def test_negated_coupling_fails_the_composition(monkeypatch):
    ham = load_model("ham_4d")
    H = ham.hamiltonian
    mutant = ham._replace(hamiltonian=H._replace(coupling=-H.coupling))
    monkeypatch.setitem(models._registry().systems, "ham_4d", mutant)
    report = check_hamiltonian_consistency("ham_4d")
    assert not report.passed
    assert report.witness_point is not None
    p1, p2, s = syms(ham.table, "p1 p2 s")
    # H - (K1 + K2 + p1*p2/s) = -2*p1*p2/s
    assert [label for label, text in report.residuals if text != "zero"] == ["composition"]
    assert dict(report.residuals)["composition"] == render_poly((-2 * p1 * p2 / s).num)


def test_reduction(monkeypatch):
    assert check_reduction_5d_to_4d("reduce_5d_4d").passed
    # the registry map with the exponential dropped from the eliminated
    # variable, y = w*q instead of y = w*q + s, must fail
    red = load_map("reduce_5d_4d")
    w, q = syms(red.table, "w q")
    mutant = red._replace(eliminated={"y": w * q})
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
        sym(n): sympy_of(r, [sym(m) for m in source.table.symbols])
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
        stored = sympy_of(
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
    target = load_model("coupled_second_order")
    bindings = load_map("order2_ham_4d").pullback_bindings(T, target.table)
    entries = dict(verify._residuals(perturbed.flow(), target, bindings))
    assert not is_identically_zero(entries["ydot"])
    assert not is_identically_zero(entries["wdot"])


def test_each_binding_set_is_compiled_once(monkeypatch):
    """The map residuals and the chart check build one Substitution per
    binding set, however many components they substitute into."""
    built, calls = [], []
    init, substitute = Substitution.__init__, verify.substitute

    def counted_init(self, bindings, *tables):
        built.append(sorted(bindings))
        init(self, bindings, *tables)

    def counted_substitute(*args):
        calls.append(args[1])
        return substitute(*args)

    monkeypatch.setattr(Substitution, "__init__", counted_init)
    monkeypatch.setattr(verify, "substitute", counted_substitute)
    flow, target, bindings = verify._map_flow(load_map("s0_5d"))
    built.clear()
    calls.clear()
    entries = verify._residuals(flow, target, bindings)
    assert len(entries) == len(calls) == 5
    assert built == [sorted(bindings)]

    built.clear()
    calls.clear()
    bmap = load_map("chart0")
    assert check_chart("five_dim", "chart0").passed
    forward = sorted(load_model("five_dim").state)
    # forward, the eliminated bindings (none for a chart) and inverse, each
    # substituted into the five states
    assert built == [forward, sorted(bmap.eliminated), forward]
    assert len(calls) == 3 * 5


# -- the pushed field: an independent sympy oracle ----------------------------------------------

# the components whose residual (for charts: principal part) is nonzero; every
# other component of every registry map and solution vanishes
PUSHED_NONZERO = {
    ("s2_5d", "printed"): {"x", "y", "w", "q"},
    ("s2_4d", "printed"): {"p2"},
    ("chart2", "printed"): {"y", "w"},
}

MAP_VARIANTS = [
    (mid, variant)
    for mid in models.MAP_IDS
    for variant in (("printed", "corrected") if mid in models.DISPUTED_MAP_IDS else ("printed",))
]


def _sympy(e):
    return sympy_of(e, [sp.Symbol(n) for n in e.table.symbols])


def _sympy_derivation(rules):
    return lambda f: sum((sp.diff(f, v) * r for v, r in rules.items()), sp.Integer(0))


def _on_normalization(e):
    a0, a1, a2 = sp.symbols("alpha0 alpha1 alpha2")
    return e.subs(a1, 1 - a0 - a2)


def _vanishes(e, normalized) -> bool:
    """Whether ``e`` is zero, on alpha0 + alpha1 + alpha2 = 1 where ``normalized``."""
    return sp.expand(sp.numer(sp.together(_on_normalization(e) if normalized else e))) == 0


def _sympy_pushed(derive, tau, bindings, states):
    rate = derive(tau)
    return {n: derive(bindings[sp.Symbol(n)]) / rate for n in states}


def _golden_nonzero(check_id: str, prefix: str = "") -> set[str]:
    records = map(json.loads, GOLDEN_RECORDS.read_text().splitlines())
    (record,) = [r for r in records if r.get("variant") == "both" and r["check_id"] == check_id]
    return {
        label[len(prefix):] for label, resid in record["residuals"]
        if label.startswith(prefix) and resid != "zero"
    }


@pytest.mark.parametrize("map_id, variant", MAP_VARIANTS)
def test_pushed_field_matches_a_sympy_oracle(map_id, variant):
    # the flow, the images and the target field rebuilt in sympy from the
    # registry's terms, and the pullback from the action's matrix and signs
    bmap = load_map(map_id, variant)
    source, target = load_model(bmap.source), load_model(bmap.target)
    eliminated = {sp.Symbol(n): _sympy(e) for n, e in bmap.eliminated.items()}
    rules = {
        sp.Symbol(n): _sympy(source.rhs[n]).subs(eliminated, simultaneous=True)
        for n in source.state if n not in bmap.eliminated
    }
    rules.update({sp.Symbol(n): _sympy(e) for n, e in bmap.rules.items()})
    rules[sp.Symbol(source.indep)] = sp.Integer(1)
    bindings = {sp.Symbol(n): _sympy(e) for n, e in bmap.var_map.items()}
    alphas = sp.symbols(bmap.param_names)
    for name, row, offset in zip(bmap.param_names, bmap.action.matrix, bmap.action.offset):
        bindings[sp.Symbol(name)] = sum(c * a for c, a in zip(row, alphas)) + offset
    eta, indep = sp.Symbol("eta"), sp.Symbol(target.indep)
    if "eta" in target.table:
        bindings[eta] = bmap.action.eta_sign * eta
    if target.indep in bmap.table:
        bindings[indep] = bmap.action.indep_sign * indep
    pushed = _sympy_pushed(
        _sympy_derivation(rules), bindings.get(indep, indep), bindings, target.state
    )

    flow = verify._map_flow(bmap)
    got = verify._pushed(*flow)
    for name in target.state:
        assert _vanishes(_sympy(got[name]) - pushed[name], False), name
    normalized = has_relation_symbols(bmap.table)
    if bmap.id.startswith("chart"):
        # polynomial after the triangular inverse x_i -> 2*x_i - phi_i
        inverse = {v: 2 * v - phi for v, phi in bindings.items() if v.name in target.state}
        nonzero = set()
        for name in target.state:
            chart_rhs = sp.cancel(_on_normalization(pushed[name].subs(inverse, simultaneous=True)))
            if sp.fraction(chart_rhs)[1].free_symbols:
                nonzero.add(name)
        golden = _golden_nonzero(
            f"chart:{bmap.source}:{map_id}:{variant}" if map_id in models.DISPUTED_MAP_IDS
            else f"chart:{bmap.source}:{map_id}",
            "polynomial:",
        )
    else:
        residuals = dict(verify._residuals(*flow))
        nonzero = set()
        for name in target.state:
            field = _sympy(target.rhs[name]).subs(bindings, simultaneous=True)
            resid = pushed[name] - field
            assert _vanishes(_sympy(residuals[name]) - resid, False), name
            if not _vanishes(resid, normalized):
                nonzero.add(name)
        if map_id == "reduce_5d_4d":
            golden = _golden_nonzero("reduction:5d_to_4d")
        elif map_id.startswith("order2_"):
            golden = _golden_nonzero("second_order_forms", f"{map_id}:")
        else:
            suffix = f":{variant}" if map_id in models.DISPUTED_MAP_IDS else ""
            golden = _golden_nonzero(f"symmetry:{bmap.source}:{map_id}{suffix}")
    assert nonzero == PUSHED_NONZERO.get((map_id, variant), set()) == golden


@pytest.mark.parametrize("solution_id", models.SOLUTION_IDS)
def test_solution_residuals_match_a_sympy_oracle(solution_id):
    sol = verify.load_particular_solution(solution_id)
    target = load_model(sol.system_id)
    indep = sp.Symbol(target.indep)
    rules = {sp.Symbol(n): _sympy(e) for n, e in sol.rules.items()}
    rules[indep] = sp.Integer(1)
    bindings = {
        sp.Symbol(n): _sympy(e) for n, e in {**sol.bindings, **sol.param_bindings}.items()
    }
    pushed = _sympy_pushed(_sympy_derivation(rules), indep, bindings, target.state)

    kernel_bindings = {**sol.bindings, **sol.param_bindings}
    flow = Derivation(sol.table, {**sol.rules, target.indep: 1})
    got = verify._pushed(flow, target, kernel_bindings)
    residuals = dict(verify._residuals(flow, target, kernel_bindings))
    nonzero = set()
    for name in target.state:
        resid = pushed[name] - _sympy(target.rhs[name]).subs(bindings, simultaneous=True)
        assert _vanishes(_sympy(got[name]) - pushed[name], False), name
        assert _vanishes(_sympy(residuals[name]) - resid, False), name
        if not _vanishes(resid, has_relation_symbols(sol.table)):
            nonzero.add(name)
    assert nonzero == set() == _golden_nonzero(f"solution:{solution_id}")


# the maps with as many components as their table has states
SQUARE_MAP_VARIANTS = [
    (mid, variant) for mid, variant in MAP_VARIANTS
    if len(load_map(mid, variant).var_map) == len(load_map(mid, variant).table.state_names)
]


@pytest.mark.parametrize("map_id, variant", SQUARE_MAP_VARIANTS)
def test_jacobian_determinant_matches_a_sympy_oracle(map_id, variant):
    bmap = load_map(map_id, variant)
    states = bmap.table.state_names
    comps = list(bmap.var_map.values())
    matrix = sp.Matrix([[sp.diff(_sympy(c), sp.Symbol(v)) for v in states] for c in comps])
    det = jacobian_determinant(comps, states)
    assert _vanishes(_sympy(det) - matrix.det(method="berkowitz"), False)


# -- the derivation plan against the Leibniz loop ------------------------------------------------


def _assert_plan_matches_the_leibniz_loop(flow, exprs):
    # every registry rule denominator is a monomial, so both routes reach the
    # same normal form, term for term
    assert all(r.den.term_count == 1 for r in flow.rules.values())
    for e in exprs:
        assert flow.of(e) == leibniz_of(flow, e), e


@pytest.mark.parametrize("map_id, variant", MAP_VARIANTS)
def test_map_flow_derivatives_match_the_leibniz_loop(map_id, variant):
    flow, _, bindings = verify._map_flow(load_map(map_id, variant))
    _assert_plan_matches_the_leibniz_loop(flow, bindings.values())


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_system_flow_derivatives_match_the_leibniz_loop(system_id):
    sys_obj = load_model(system_id)
    integrals = [load_integral(i) for i in models.INTEGRAL_IDS]
    exprs = [*sys_obj.rhs.values(), *(i.expr for i in integrals if i.system_id == system_id)]
    _assert_plan_matches_the_leibniz_loop(sys_obj.flow(), exprs)


# -- solutions and the invariant divisor ---------------------------------------------------------


def test_particular_solutions():
    for pid in ("linear_xz_sol", "second_order_sol_a", "second_order_sol_b",
                "rest_wq_zero"):
        assert check_particular_solution(pid).passed, pid


@pytest.mark.parametrize("slope,residual", [(Fraction(1, 2), None), (1, "1/2")])
def test_particular_solution_may_depend_on_time(monkeypatch, slope, residual):
    # at alpha2 = 0, x' = 1/2 is solved by x = t/2 + C1 and not by x = t + C1
    base = verify.load_particular_solution("linear_xz_sol")
    t, C1, C2, E2, a0, eta = syms(base.table, "t C1 C2 E2 alpha0 eta")
    sol = base._replace(
        id="linear_xz_t",
        bindings={"x": slope * t + C1, "z": C2 * E2 + eta / (2 * a0)},
        rules={"E2": a0 * E2},
        param_bindings={"alpha2": RatExpr.const(base.table, 0)},
    )
    monkeypatch.setitem(models._registry().solutions, sol.id, sol)
    report = check_particular_solution(sol.id)
    assert report.passed == (residual is None)
    assert dict(report.residuals) == {"x": residual or "zero", "z": "zero"}


def test_rest_wq_zero_solves_five_dim_for_every_alpha1(monkeypatch):
    # with y = w = q = 0 both y' = (x*w + z*q - 1)*y + alpha1*w*q and w'
    # vanish whatever alpha1 is, so the binding alpha1 = 0 is not needed
    sol = verify.load_particular_solution("rest_wq_zero")
    assert set(sol.param_bindings) == {"alpha1"}
    free = sol._replace(param_bindings={})
    monkeypatch.setattr(verify, "load_particular_solution", lambda solution_id: free)
    assert check_particular_solution("rest_wq_zero").passed


def test_invariant_divisor():
    report = check_invariant_divisor()
    assert report.passed
    assert report.detail == "cofactor x*w + z*q - 1"
    assert report.residuals == [("darboux", "zero")] + [
        (f"{sid}:{name}", "zero")
        for sid, source, _ in models.RESTRICTIONS for name in load_model(source).state
    ]


def _failing(report) -> dict[str, str]:
    return {label: text for label, text in report.residuals if text != "zero"}


def _rebuilt_registry(monkeypatch, **patches) -> None:
    """A fresh registry, built with ``models`` attributes replaced, for one test."""
    for name, value in patches.items():
        monkeypatch.setattr(models, name, value)
    monkeypatch.setattr(models, "_REGISTRY", None)


def test_divisor_off_the_wall_fails_its_embedding(monkeypatch):
    # with alpha1 left free, y' = alpha1*w*q on y = 0: y = 0 is not invariant
    wall, *rest = models.RESTRICTIONS
    _rebuilt_registry(monkeypatch, RESTRICTIONS=((*wall[:2], ("y",)), *rest))
    report = check_invariant_divisor()
    assert not report.passed
    assert report.witness_point is not None
    a1, w, q = syms(load_model("reduced_alpha1_zero").table, "alpha1 w q")
    texts = {render_poly(reduce_relation((sign * a1 * w * q).num)) for sign in (1, -1)}
    failing = _failing(report)
    assert list(failing) == ["reduced_alpha1_zero:y"]
    assert failing["reduced_alpha1_zero:y"] in texts


def test_divisor_with_a_wrong_remainder_fails_the_darboux_line(monkeypatch):
    divisor = models.load_divisor()
    wrong = divisor._replace(remainder=2 * divisor.remainder)
    monkeypatch.setattr(models._registry(), "divisor", wrong)
    report = check_invariant_divisor()
    assert not report.passed
    assert report.witness_point is not None
    assert list(_failing(report)) == ["darboux"]


def test_a_perturbed_source_fails_the_restriction_below_it(monkeypatch):
    # F_q + z survives q = 0 in reduced_alpha1_zero, so xzw is no longer
    # invariant; the restrictions are rebuilt from the perturbed five_dim
    build = models._build_five_dim

    def perturbed():
        five = build()
        return five._replace(rhs={**five.rhs, "q": five.rhs["q"] + RatExpr.sym(five.table, "z")})

    _rebuilt_registry(monkeypatch, _build_five_dim=perturbed)
    report = check_invariant_divisor()
    assert not report.passed
    assert report.witness_point is not None
    assert _failing(report) == {"xzw:q": "-z"}


def test_a_misspelt_parameter_binding_is_refused(monkeypatch):
    sol = verify.load_particular_solution("rest_wq_zero")
    misspelt = sol._replace(param_bindings={"alpah1": RatExpr.const(sol.table, 0)})
    monkeypatch.setattr(verify, "load_particular_solution", lambda solution_id: misspelt)
    with pytest.raises(SymbolMismatchError, match="alpah1"):
        check_particular_solution("rest_wq_zero")


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


def test_search_refuses_inexact_eigenvalues():
    # 0.1 would otherwise run at lambda = 3602879701896397/36028797018963968
    # and name its integrals after that value
    for lam in (0.1, -1.0, True, False):
        with pytest.raises(ValueError, match=f"eigenvalue candidate {lam!r} is not exact"):
            first_integral_search("five_dim", 1, 0, [lam])
    # ints, Fractions and strings Fraction parses are exact
    found = [
        [(f.id, f.expr) for f in first_integral_search("five_dim", 2, 0, [lam])]
        for lam in (-1, Fraction(-1), "-1", "-2/2")
    ]
    assert len(found[0]) == 1 and all(f == found[0] for f in found)


def test_search_cross_check_against_integral_checker(monkeypatch):
    found = first_integral_search("five_dim", 2, 0, (Fraction(-1),))
    assert found
    for integral in found:
        hit = _registered_integral(monkeypatch, "five_dim", integral.expr, integral.lam)
        assert check_first_integral("five_dim", hit).passed


def test_search_guards(monkeypatch):
    with pytest.raises(ValueError):
        first_integral_search("five_dim", 0, 0, (Fraction(0),))
    monkeypatch.setattr(verify, "MONOMIAL_CAP", 50)
    with pytest.raises(CapacityError):
        first_integral_search("ham_4d", 6, 4, (Fraction(0),))
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
    assert len(_matrix("five_dim", 2, 1).columns) == 42
    monkeypatch.setattr(verify, "MONOMIAL_CAP", 42)
    assert first_integral_search("five_dim", 2, 1, (Fraction(-1),))
    monkeypatch.setattr(verify, "MONOMIAL_CAP", 41)
    with pytest.raises(CapacityError, match="^42 ansatz monomials exceed the cap of 41"):
        first_integral_search("five_dim", 2, 1, (Fraction(-1),))

    def refuse(*args):
        raise AssertionError("ansatz built before the cap was checked")

    # (40, 10) would be C(45, 5)*11 = 13 439 349 monomials
    monkeypatch.undo()
    monkeypatch.setattr(verify, "_ansatz", refuse)
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

    def both(rows, ncols, one):
        basis = certified(rows, ncols, one)
        reference = _gauss_jordan_nullspace(rows, ncols, one)
        assert [vec.keys() for vec in basis] == [ref.keys() for ref in reference]
        for vec, ref in zip(basis, reference):
            assert all(vec[c].equals(ref[c]) for c in ref)
        seen.append((ncols, len(basis)))
        return basis

    monkeypatch.setattr(verify, "_nullspace", both)


def _exact_cells(matrix):
    """The exact cells C and B of every column of a search matrix."""
    return verify._assemble(
        matrix.parts, matrix.base, matrix.columns, matrix.width, Poly.scaled
    )


def _differential_kernel(monkeypatch, seen):
    """Route each eigenvalue's kernel step, certified mod p or not, through
    Gauss-Jordan on every exact row as well and require a structurally
    identical basis."""
    certified = verify._SearchMatrix.kernel

    def both(matrix, lam):
        basis = certified(matrix, lam)
        rows = verify._search_rows(*_exact_cells(matrix), lam)
        assert basis == _gauss_jordan_nullspace(rows.values(), len(matrix.columns), matrix.one)
        seen.append((len(matrix.columns), len(basis)))
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
        verify._nullspace(rows, ncols, one)
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
    # the entry has no pivot mod p; the exact elimination pivots on it alone
    assert verify._nullspace(rows, 2, one) == [{1: one}]
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

    def corrupt(pivots, free, reduce, inverse):
        basis = back_substitute(pivots, free, reduce, inverse)
        if reduce is verify._exact:  # the kernel mod p is left as it is
            vec = basis[0]
            vec[max(vec)] *= 2
        return basis

    monkeypatch.setattr(verify, "_back_substitute", corrupt)
    with pytest.raises(RingError, match="plug-back"):
        first_integral_search("five_dim", 2, 0, (Fraction(-1),))


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
    return verify._SearchMatrix(load_model(system_id), state_bound, indep_bound)


def _recursive_monomials(table, state, indep, state_bound, indep_bound):
    """Reference ansatz: every exponent tuple with state total degree and
    indep degree within the bounds, built by recursion over the state
    symbols and sorted by (total degree, tuple)."""
    state_idx = [table.index(n) for n in state]
    indep_idx = table.index(indep)
    monos = []

    def rec(pos, remaining, current):
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


@pytest.mark.parametrize("system_id", SYSTEM_IDS)
def test_packed_ansatz_matches_the_recursive_enumerator(system_id):
    # the same monomials in the same order, so column numbers, the constant
    # column 0 and the lead column max(support) mean what they meant
    sys_obj = load_model(system_id)
    for bounds in ((1, 0), (2, 1), (3, 2)):
        matrix = _matrix(system_id, *bounds)
        unpacked = [matrix.monomial(c) for c in range(len(matrix.columns))]
        assert unpacked == _recursive_monomials(
            sys_obj.table, sys_obj.state, sys_obj.indep, *bounds
        )


def _split_keys(matrix):
    """The row keys mod p without a B cell, then those with one, in order."""
    c_cells, b_cells = matrix.mod_p
    keys = sorted(c_cells.keys() | b_cells.keys())
    return [k for k in keys if k not in b_cells], [k for k in keys if k in b_cells]


def _rows_mod_p(matrix, lam):
    """Nonzero rows of C_p - lam*B_p by row key, in key order."""
    p, lam_p = verify.RANK_PRIME, verify._residue(lam)
    c_cells, b_cells = matrix.mod_p
    rows = {}
    for key in sorted(c_cells.keys() | b_cells.keys()):
        crow, brow = c_cells.get(key, {}), b_cells.get(key, {})
        row = {
            c: v for c in sorted(crow.keys() | brow.keys())
            if (v := (crow.get(c, 0) - lam_p * brow.get(c, 0)) % p)
        }
        if row:
            rows[key] = row
    return rows


def _dense_kernel_mod_p(pivots, free):
    """Reference back-substitution: one vector mod p per free column, set
    through every pivot (column, row), the last pivot first."""
    p = verify.RANK_PRIME
    basis = []
    for f in free:
        vec = {f: 1}
        for c, row in reversed(pivots):
            total = sum(v * vec.get(j, 0) for j, v in row.items() if j != c) % p
            if total:
                vec[c] = -total * pow(row[c], -1, p) % p
        basis.append(vec)
    return basis


def _restricted_rows(matrix, lam, cols):
    """The nonzero exact rows of C - lam*B on the columns ``cols`` alone,
    renumbered by position."""
    local = {c: j for j, c in enumerate(cols)}
    rows = (
        {local[c]: v for c, v in row.items() if c in local}
        for row in verify._search_rows(*_exact_cells(matrix), lam).values()
    )
    return [row for row in rows if row]


def _eliminations(monkeypatch, system_id, state_bound, indep_bound, lams, found):
    """Run a search and check its eliminations: mod p, the eigenvalue-free
    rows once per search and the live rows stacked on the pencil rows once
    per eigenvalue; exactly,
    for an eigenvalue whose kernel mod p touches a nonzero exact cell, one
    elimination of the touched columns, and only for an eigenvalue that
    falls back (lambda = p) one more of every exact row."""
    runs = []
    eliminate_mod_p = verify._eliminate_mod_p
    monkeypatch.setattr(
        verify, "_eliminate_mod_p",
        lambda rows: runs.append((rows, eliminate_mod_p(rows))) or runs[-1][1],
    )
    calls = []
    nullspace = verify._nullspace
    monkeypatch.setattr(
        verify, "_nullspace",
        lambda rows, ncols, one: calls.append((rows, ncols)) or nullspace(rows, ncols, one),
    )
    assert bool(first_integral_search(system_id, state_bound, indep_bound, lams)) == found
    assert len(runs) == 1 + len(lams)
    (free_rows, factor), *pencils = runs
    matrix = _matrix(system_id, state_bound, indep_bound)
    free_keys, pencil_keys = _split_keys(matrix)
    settled, live = matrix.pencil.settled, matrix.pencil.live
    assert live == [row for _, c, row in factor if c not in settled]
    expected_calls = []
    for lam, (pencil_rows, pencil) in zip(lams, pencils):
        stacked = _rows_mod_p(matrix, lam)
        assert {k: row for k, row in zip(free_keys, free_rows) if row} == {
            k: row for k, row in stacked.items() if k in free_keys
        }
        assert pencil_rows[:len(live)] == live
        assert len(pencil_rows) == len(live) + len(pencil_keys)
        assert not any(settled & row.keys() for row in pencil_rows)
        assert len(settled) + len(pencil) == len(eliminate_mod_p(list(stacked.values())))
        pivots = [(c, row) for _, c, row in pencil]
        taken = settled.union(c for c, _ in pivots)
        free = [c for c in range(len(matrix.columns)) if c not in taken]
        cols = sorted(set().union(*_dense_kernel_mod_p(pivots, free)))
        if rows := _restricted_rows(matrix, lam, cols):
            expected_calls.append((rows, len(cols)))
        if lam == verify.RANK_PRIME:
            exact = verify._search_rows(*_exact_cells(matrix), lam)
            expected_calls.append((list(exact.values()), len(matrix.columns)))
    assert calls == expected_calls


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
    # three eigenvalues share one factor, and each settles with no exact
    # elimination
    _eliminations(monkeypatch, "ham_4d", 3, 1, SEARCH_LAMBDAS, False)


# the searches of the pencil tests; at bounds (2, 1) their eigenvalues add
# lambda = p and 2p, where the constant column's entry -lambda*L vanishes mod p
PENCIL_CASES = (
    [(s, 2, 1) for s in SYSTEM_IDS]
    + [("five_dim", 3, 0), ("K1_sys", 8, 3)]
    + [("ham_4d", 3, b) for b in range(5)]
)


def _pencil_lambdas(state_bound, indep_bound):
    p = verify.RANK_PRIME
    lams = SEARCH_LAMBDAS + (Fraction(-2), Fraction(1, 2))
    if (state_bound, indep_bound) == (2, 1):
        lams += (Fraction(p), Fraction(2 * p))
    return lams


@pytest.mark.parametrize("system_id,state_bound,indep_bound", PENCIL_CASES)
def test_shared_factor_matches_the_stacked_elimination_mod_p(
    system_id, state_bound, indep_bound
):
    # the settled columns and the pivots of the live rows stacked on the
    # pencil rows are an elimination of the stacked rows C_p - lam*B_p:
    # together as many as their rank, no live row or pivot row holds a
    # settled column, and the settled columns' unit vectors and the pivot
    # rows are independent and, stacked under the rows, leave their rank
    matrix = _matrix(system_id, state_bound, indep_bound)
    settled = matrix.pencil.settled
    assert not any(settled & row.keys() for row in matrix.pencil.live)
    units = [{c: 1} for c in settled]
    for lam in _pencil_lambdas(state_bound, indep_bound):
        rows = list(_rows_mod_p(matrix, lam).values())
        pivots = matrix.pencil.pivots(verify._residue(lam))
        rank = len(verify._eliminate_mod_p(rows))
        assert len(settled) + len(pivots) == rank
        assert not any(settled & row.keys() for _, row in pivots)
        basis = units + [row for _, row in pivots]
        assert len(verify._eliminate_mod_p(basis)) == rank
        assert len(verify._eliminate_mod_p(rows + basis)) == rank


def test_a_singleton_pivot_whose_column_an_earlier_row_holds_is_not_settled():
    # eigenvalue-free rows 0 and 1 leave no singleton: Markowitz pivots on
    # one of them, which leaves the other a single entry in a column the
    # first row holds.  Row 2 is a singleton no other row holds: settled.
    # Both Markowitz rows stay live, and the pencil row keeps column 1 and
    # loses only the settled column 2; the pencil's elimination then takes
    # the full rank, 3, with the settled column.
    c_cells = {0: {0: 1, 1: 1}, 1: {0: 1, 1: 2}, 2: {2: 5}, 3: {1: 3, 2: 1}}
    pencil = verify._Pencil(c_cells, {3: {0: 1}})
    assert pencil.settled == {2}
    assert sorted(len(row) for row in pencil.live) == [1, 2]
    assert not any(2 in row for row in pencil.live)
    assert pencil.rows == [({1: 3}, {0: 1})]
    pivots = pencil.pivots(verify._residue(Fraction(-1)))
    assert sorted(c for c, _ in pivots) == [0, 1]


class _StaleLines:
    """Rows or columns bucketed by count, empty buckets kept: the reference
    bookkeeping of the Markowitz-only elimination below."""

    def __init__(self, lines):
        self.count, self.buckets = {}, {}
        for i, line in lines.items():
            self.update(i, len(line))

    def update(self, i, n):
        old = self.count.pop(i, 0)
        if old:
            self.buckets[old].discard(i)
        if n:
            self.count[i] = n
            self.buckets.setdefault(n, set()).add(i)


def _markowitz_elimination_mod_p(rows, weight=None):
    """Reference elimination mod p: every pivot from Markowitz, none taken
    ahead as a singleton."""
    p = verify.RANK_PRIME
    live = {r: dict(row) for r, row in enumerate(rows) if row}
    cols: dict = {}
    for r, row in live.items():
        for c in row:
            cols.setdefault(c, set()).add(r)
    row_lines, col_lines = _StaleLines(live), _StaleLines(cols)
    pivots = []
    while cols:
        r, c = verify._markowitz(live, cols, row_lines, col_lines, weight)
        prow = live.pop(r)
        row_lines.update(r, 0)
        for j in prow:
            cols[j].discard(r)
        inv = pow(prow[c], -1, p)
        others = [j for j in prow if j != c]
        for s in cols.pop(c):
            srow = live[s]
            factor = srow.pop(c) * inv % p
            for j in others:
                if new := (srow.get(j, 0) - factor * prow[j]) % p:
                    srow[j] = new
                    cols[j].add(s)
                else:
                    srow.pop(j, None)
                    cols[j].discard(s)
            row_lines.update(s, len(srow))
        col_lines.update(c, 0)
        for j in others:
            col_lines.update(j, len(cols[j]))
            if not cols[j]:
                del cols[j]
        pivots.append((r, c, prow))
    return pivots


def _random_sparse_rows(rng):
    """Seeded sparse rows of small integers mod p, some of them singletons."""
    ncols = rng.randint(1, 12)
    return [
        {c: rng.choice((-3, -2, -1, 1, 2, 3)) % verify.RANK_PRIME
         for c in rng.sample(range(ncols), k)}
        for k in (rng.choice((0, 1, 1, 2, 2, 3, 4)) for _ in range(rng.randint(1, 14)))
        if k <= ncols
    ]


def _check_peel(rows):
    """The peeling elimination has the reference's rank, and its pivot rows
    span the rows: they are independent, and stacked under the rows they
    leave the reference rank as it was."""
    pivots = verify._eliminate_mod_p(rows)
    rank = len(_markowitz_elimination_mod_p(rows))
    assert len(pivots) == rank
    prows = [prow for _, _, prow in pivots]
    assert len(_markowitz_elimination_mod_p(prows)) == rank
    assert len(_markowitz_elimination_mod_p(rows + prows)) == rank


def test_singleton_chain_is_eliminated_with_no_arithmetic():
    # each pivot leaves the next row a singleton: no entry is computed, and
    # the rows stay as they were given but for the deleted entries
    def refuse(v):
        raise AssertionError("arithmetic on a singleton chain")

    rows = [{0: 2}, {0: 3, 1: 5}, {1: 7, 2: 1}, {2: 4, 3: 9}, {0: 1, 3: 6}]
    pivots = verify._eliminate(rows, refuse, refuse)
    # last in, first out: row 4, left a singleton after row 1, goes first;
    # row 1 is emptied by row 2 and dropped
    assert pivots == [(0, 0, {0: 2}), (4, 3, {3: 6}), (3, 2, {2: 4}), (2, 1, {1: 7})]


@pytest.mark.parametrize("system_id,state_bound,indep_bound", PENCIL_CASES)
def test_peel_keeps_the_rank_of_search_rows(system_id, state_bound, indep_bound):
    matrix = _matrix(system_id, state_bound, indep_bound)
    for lam in _pencil_lambdas(state_bound, indep_bound):
        _check_peel(list(_rows_mod_p(matrix, lam).values()))


def test_peel_keeps_the_rank_of_random_sparse_matrices():
    rng = random.Random(29)
    for _ in range(300):
        _check_peel(_random_sparse_rows(rng))


def test_one_back_substitution_solves_both_fields():
    # the same seeded rows mod p and as Fractions: each vector is one at its
    # free column, zero at the other free columns, holds no zero entry and
    # satisfies every row, one vector per column no pivot takes
    p = verify.RANK_PRIME
    rng = random.Random(31)
    for _ in range(300):
        rows_p = _random_sparse_rows(rng)
        rows_q = [{c: Fraction(v if v < p // 2 else v - p) for c, v in row.items()}
                  for row in rows_p]
        for rows, reduce, inverse in (
            (rows_p, verify._mod_p, verify._inverse_mod_p),
            (rows_q, verify._exact, verify._inverse),
        ):
            pivots = verify._eliminate(rows, reduce, inverse)
            taken = {c for _, c, _ in pivots}
            free = [c for c in range(12) if c not in taken]  # 12 columns at most
            basis = verify._back_substitute(
                [(c, prow) for _, c, prow in pivots], free, reduce, inverse
            )
            assert len(basis) == len(free)
            for f, vec in zip(free, basis):
                assert vec[f] == 1
                assert not (vec.keys() & set(free)) - {f}
                assert all(vec.values())
                for row in rows:
                    total = sum(v * vec.get(c, 0) for c, v in row.items())
                    assert (total % p if reduce is verify._mod_p else total) == 0


def test_markowitz_pivots_do_not_depend_on_empty_buckets():
    # with no singleton row to start from, every pivot is Markowitz's, and
    # deleting emptied buckets leaves each choice as it was.  Ties go to the
    # least weight and then the least (row, column); without a weight they go
    # to the first entry found, which follows the iteration order of the sets
    p = verify.RANK_PRIME
    rng = random.Random(30)
    compared = 0
    for _ in range(300):
        rows = _random_sparse_rows(rng)
        if all(len(row) != 1 for row in rows):
            weight = lambda v: v  # noqa: E731
            peeled = verify._eliminate(
                rows, lambda v: v % p or None, lambda v: pow(v, -1, p), weight
            )
            assert peeled == _markowitz_elimination_mod_p(rows, weight)
            compared += 1
    assert compared > 50
    lines = verify._Lines({0: [1, 2], 1: [3]})
    lines.update(1, 0)
    lines.update(0, 1)
    assert lines.buckets == {1: {0}}


class _Unsettled(Exception):
    pass


@pytest.mark.parametrize("system_id,state_bound,indep_bound", PENCIL_CASES)
def test_free_columns_settle_what_the_touched_columns_settle(
    monkeypatch, system_id, state_bound, indep_bound
):
    # the touched-column rule, stated on the stacked rows: an eigenvalue is
    # settled iff its rank mod p is the number of columns the rows mod p
    # touch and every untouched column vanishes exactly; then the kernel is
    # the untouched columns' unit vectors
    def unsettled(*args):
        raise _Unsettled

    monkeypatch.setattr(verify, "_nullspace", unsettled)
    matrix = _matrix(system_id, state_bound, indep_bound)
    for lam in _pencil_lambdas(state_bound, indep_bound):
        rows = list(_rows_mod_p(matrix, lam).values())
        touched = {c for row in rows for c in row}
        untouched = [c for c in range(len(matrix.columns)) if c not in touched]
        exact = verify._search_rows(*_exact_cells(matrix), lam)
        nonzero = {c for row in exact.values() for c in row}
        rank = len(verify._eliminate_mod_p(rows))
        settled = rank == len(touched) and nonzero.isdisjoint(untouched)
        try:
            kernel = matrix.kernel(lam)
        except _Unsettled:
            assert not settled, (system_id, lam)
        else:
            assert settled, (system_id, lam)
            assert kernel == [{c: matrix.one} for c in untouched]


def _full_kernel(matrix, lam):
    """The kernel through every exact row: the path an eigenvalue falls back
    to."""
    rows = verify._search_rows(*_exact_cells(matrix), lam)
    return verify._nullspace(list(rows.values()), len(matrix.columns), matrix.one)


@pytest.mark.parametrize("system_id,state_bound,indep_bound", PENCIL_CASES)
def test_touched_columns_kernel_matches_the_full_exact_path(
    system_id, state_bound, indep_bound
):
    # the same vectors, structurally equal entry by entry, as eliminating
    # every exact row; and the heap walk finds the vectors mod p a dense
    # back-substitution over the same pivots finds.  Every search also takes
    # lambda = p and 2p, which fall back, and 1/p, which has no residue.
    p = verify.RANK_PRIME
    matrix = _matrix(system_id, state_bound, indep_bound)
    extra = (Fraction(p), Fraction(2 * p), Fraction(1, p))
    for lam in dict.fromkeys(_pencil_lambdas(state_bound, indep_bound) + extra):
        assert matrix.kernel(lam) == _full_kernel(matrix, lam), (system_id, lam)
        if (lam_p := verify._residue(lam)) is None:
            continue
        pivots = matrix.pencil.pivots(lam_p)
        taken = matrix.pencil.settled.union(c for c, _ in pivots)
        free = [c for c in range(len(matrix.columns)) if c not in taken]
        kernel_p = verify._back_substitute(pivots, free, verify._mod_p, verify._inverse_mod_p)
        assert kernel_p == _dense_kernel_mod_p(pivots, free)


@pytest.mark.parametrize(
    "system_id,state_bound,indep_bound,lam",
    [("K1_sys", 8, 3, Fraction(0)), ("five_dim", 3, 0, Fraction(-1))],
)
def test_short_touched_columns_solve_falls_back(
    monkeypatch, system_id, state_bound, indep_bound, lam
):
    # negative control: without one pivot column its kernel vector needs, the
    # solve on the touched columns comes up one vector short; the search then
    # eliminates every exact row and returns the same integrals
    expected = first_integral_search(system_id, state_bound, indep_bound, (lam,))
    back_substitute = verify._back_substitute
    dropped = []

    def short(pivots, free, reduce, inverse):
        found = back_substitute(pivots, free, reduce, inverse)
        if reduce is not verify._mod_p:  # the exact solve is left as it is
            return found
        pivot_cols = {c for c, _ in pivots}
        c = min(c for vec in found for c in vec if c in pivot_cols)
        dropped.append(c)
        return [{j: v for j, v in vec.items() if j != c} for vec in found]

    monkeypatch.setattr(verify, "_back_substitute", short)
    calls = []
    nullspace = verify._nullspace

    def spy(rows, ncols, one):
        basis = nullspace(rows, ncols, one)
        calls.append((ncols, len(basis)))
        return basis

    monkeypatch.setattr(verify, "_nullspace", spy)
    found = first_integral_search(system_id, state_bound, indep_bound, (lam,))
    assert [(f.id, f.expr) for f in found] == [(f.id, f.expr) for f in expected]
    matrix = _matrix(system_id, state_bound, indep_bound)
    ncols = len(matrix.columns)
    (restricted, short_dim), (full, full_dim) = calls
    assert restricted < ncols == full and short_dim == full_dim - 1
    assert len(dropped) == 1
    # the kernel returned is the full path's, never the short solve's
    assert matrix.kernel(lam) == _full_kernel(matrix, lam)


def test_search_five_dim_degree_7_finds_the_powers_of_ywq():
    # scaling guard: 792 columns and four eigenvalues, each integral a power
    # of y - w*q; solving every column exactly takes 0.13-0.2 s, the search,
    # which solves only the columns the kernels mod p touch, 0.04-0.05 s
    # (shared 2-CPU Intel Xeon)
    lams = (Fraction(0), Fraction(-1), Fraction(-2), Fraction(-3))
    found = first_integral_search("five_dim", 7, 0, lams)
    ywq = load_integral("ywq").expr
    assert [f.lam for f in found] == [Fraction(-1), Fraction(-2), Fraction(-3)]
    for k, integral in enumerate(found, 1):
        assert integral.expr == (-ywq) ** k


# twenty searches, each run alone under every eigenvalue of SWEEP_LAMBDAS
SWEEP_CASES = (
    [(s, 2, 1) for s in SYSTEM_IDS]
    + [("five_dim", 3, 0), ("five_dim", 4, 1), ("five_dim", 7, 0), ("K1_sys", 8, 3)]
    + [("ham_4d", 3, b) for b in range(5)]
    + [("ham_4d", 6, 3)]
)
SWEEP_LAMBDAS = tuple(
    Fraction(lam) for lam in
    (0, -1, 1, -2, Fraction(1, 2), verify.RANK_PRIME, 2 * verify.RANK_PRIME,
     Fraction(1, verify.RANK_PRIME))
)


def test_search_sweep_outputs_are_pinned():
    # the integrals of the sweep, ids and rendered expressions byte for byte,
    # as the search found them before rows with one entry were taken ahead
    # of Markowitz and before row keys were packed; lambda = p, 2p and 1/p
    # take the exact fallback.  About 1.1 s (shared 2-CPU Intel Xeon).
    found = [
        f for case in SWEEP_CASES for lam in SWEEP_LAMBDAS
        for f in first_integral_search(*case, (lam,))
    ]
    text = "".join(f"{f.id}|{f.lam}|{f.expr!r}\n" for f in found)
    assert len(found) == 8
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "a8857be97f634bf96273ecb3c139b47b95bc9c05b4e45c24b3f93c9b331b4989"
    )


def test_search_ham_4d_ladder_is_certified_mod_p_alone(monkeypatch):
    # the ladder up to the 175-column cliff never solves every column and
    # eliminates nothing exactly: each kernel vector mod p is a free column's
    # unit vector, and those columns' own exact cells all vanish
    def refuse(*args):
        raise AssertionError("exact rows eliminated for an empty kernel")

    solve = verify._SearchMatrix._solve
    solved = []

    def spy(matrix, cols, lam):
        solved.append((len(cols), len(matrix.columns)))
        return solve(matrix, cols, lam)

    monkeypatch.setattr(verify._SearchMatrix, "_solve", spy)
    monkeypatch.setattr(verify, "_nullspace", refuse)
    for indep_bound in range(5):
        assert first_integral_search("ham_4d", 3, indep_bound, SEARCH_LAMBDAS) == []
    # lambda = 0 alone leaves a free column mod p, the constant's, and only
    # that column is solved exactly
    assert solved == [(1, 35 * (indep_bound + 1)) for indep_bound in range(5)]


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
    monos = _recursive_monomials(table, sys_obj.state, sys_obj.indep, state_bound, indep_bound)
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
        matrix = verify._SearchMatrix(sys_obj, state_bound, indep_bound)
        rows = verify._search_rows(*_exact_cells(matrix), lam)
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
        assert list(_rows_mod_p(matrix, lam).items()) == [
            (key, row) for key, row in special.items() if row
        ]


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
    rhs = {by_name[n]: sympy_of(r, names) for n, r in sys_obj.rhs.items()}
    rhs[by_name[sys_obj.indep]] = sp.Integer(1)
    relation = {}
    if system_id in NORMALIZED_SYSTEMS:
        relation = {by_name["alpha1"]: 1 - by_name["alpha0"] - by_name["alpha2"]}
    found = first_integral_search(system_id, state_bound, indep_bound, (lam,))
    assert len(found) == count
    for integral in found:
        P = sympy_of(integral.expr, names)
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
