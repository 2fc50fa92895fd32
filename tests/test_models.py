"""Model registry: exact printed formulas, variants, invariants, serialization."""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from painleve_d32 import models
from painleve_d32.models import (
    BirationalMap,
    UnknownModelError,
    dump_models,
    load_integral,
    load_map,
    load_model,
    load_particular_solution,
)
from painleve_d32.ring import (
    RatExpr,
    SymbolMismatchError,
    has_relation_symbols,
    substitute,
    syms,
)
from painleve_d32.syntax import render_ratexpr

from conftest import sympy_of, sympy_read

GOLDEN = Path(__file__).parent / "golden_models.txt"


def test_all_ids_load():
    for sid in models.SYSTEM_IDS:
        assert load_model(sid).id == sid
    for mid in models.MAP_IDS:
        assert load_map(mid).id == mid
    for iid in models.INTEGRAL_IDS:
        assert load_integral(iid).id == iid
    for pid in models.SOLUTION_IDS:
        assert load_particular_solution(pid).id == pid


def test_unknown_ids_raise():
    with pytest.raises(UnknownModelError):
        load_model("six_dim")
    with pytest.raises(UnknownModelError):
        load_map("s3_5d")
    with pytest.raises(UnknownModelError):
        load_integral("I3")
    with pytest.raises(UnknownModelError):
        load_particular_solution("nope")


def test_corrected_only_for_disputed():
    for mid in models.DISPUTED_MAP_IDS:
        assert load_map(mid, "corrected").variant == "corrected"
    with pytest.raises(UnknownModelError):
        load_map("s0_5d", "corrected")
    with pytest.raises(UnknownModelError):
        load_map("pi_4d", "corrected")


def test_five_dim_shape():
    five = load_model("five_dim")
    assert five.state == ("x", "y", "z", "w", "q")
    assert five.indep == "t"
    assert has_relation_symbols(five.table)
    allowed = set(five.state) | {"t", "alpha0", "alpha1", "alpha2", "eta"}
    for name in five.state:
        rhs = five.rhs[name]
        assert rhs.is_polynomial
        assert set(rhs.num.occurring_names()) <= allowed
        assert rhs.num.total_degree(five.state) <= 3


def test_ham_4d_hamiltonian_identity():
    # 2s*H + (q1^2 p1^2 - 2 a2 q1 p1 - q1)
    #      + (q2^2 p2^2 + 2(a1+a2) q2 p2 + eta s q2) + 2 p1 p2 = 0
    ham = load_model("ham_4d")
    T = ham.table
    q1, p1, q2, p2, s, a1, a2, eta = syms(T, "q1 p1 q2 p2 s alpha1 alpha2 eta")
    H = ham.hamiltonian.expr
    lhs = (
        2 * s * H
        + (q1**2 * p1**2 - 2 * a2 * q1 * p1 - q1)
        + (q2**2 * p2**2 + 2 * (a1 + a2) * q2 * p2 + eta * s * q2)
        + 2 * p1 * p2
    )
    assert lhs.is_zero


def test_k1_is_restriction_of_H():
    ham = load_model("ham_4d")
    k1 = load_model("K1_sys")
    T = ham.table
    restricted = substitute(ham.hamiltonian.expr, {"q2": 0, "p2": 0})
    rebased = substitute(
        k1.hamiltonian.expr,
        {
            "q1": RatExpr.sym(T, "q1"),
            "p1": RatExpr.sym(T, "p1"),
            "s": RatExpr.sym(T, "s"),
            "alpha": RatExpr.sym(T, "alpha2"),
        },
        table=T,
    )
    assert (restricted - rebased).is_zero


def test_disputed_variants_differ_in_one_place():
    five_table = load_model("five_dim").table
    x, a0, a2 = syms(five_table, "x alpha0 alpha2")
    for mid in ("s2_5d", "chart2"):
        printed = load_map(mid, "printed")
        corrected = load_map(mid, "corrected")
        same = [n for n in printed.var_map if printed.var_map[n] == corrected.var_map[n]]
        assert set(printed.var_map) - set(same) == {"w"}
        delta = printed.var_map["w"] - corrected.var_map["w"]
        sign = 1 if mid == "s2_5d" else -1
        assert (delta - sign * 2 * (a0 - a2) / x).is_zero
        assert (printed.action.eta_sign, printed.action.indep_sign) == (
            corrected.action.eta_sign, corrected.action.indep_sign
        )
    printed = load_map("s2_4d", "printed")
    corrected = load_map("s2_4d", "corrected")
    assert printed.var_map == corrected.var_map
    assert printed.action.eta_sign == -1 and corrected.action.eta_sign == +1
    assert printed.action.indep_sign == corrected.action.indep_sign == -1


def test_param_actions_preserve_normalization():
    # column sums 1 and zero offset sum keep alpha0+alpha1+alpha2 = 1
    for mid in models.MAP_IDS:
        m = load_map(mid)
        n = len(m.param_names)
        for j in range(n):
            assert sum(m.action.matrix[i][j] for i in range(n)) == 1, mid
        assert sum(m.action.offset) == 0, mid


def test_map_denominators_are_monomials_or_printed():
    ham_table = load_model("ham_4d").table
    q1, q2 = syms(ham_table, "q1 q2")
    allowed_poly = (q1 * q2 + 1).num
    for mid in models.MAP_IDS:
        variants = ("printed", "corrected") if mid in models.DISPUTED_MAP_IDS \
            else ("printed",)
        for variant in variants:
            m = load_map(mid, variant)
            for name, expr in m.var_map.items():
                den = expr.den
                assert len(den.terms) == 1 or den == allowed_poly, (mid, name)


def test_generator_signs():
    assert load_map("s0_5d").action.eta_sign == -1
    assert load_map("s0_5d").action.indep_sign == +1
    assert load_map("s1_5d").action.eta_sign == +1
    assert load_map("s2_5d").action.eta_sign == -1
    assert load_map("s0_4d").action.indep_sign == -1
    assert load_map("s0_4d").action.eta_sign == +1
    assert load_map("s2_4d").action.indep_sign == -1
    assert load_map("pi_4d").action.eta_sign == +1
    assert load_map("pi_4d").action.indep_sign == +1
    # the diagram automorphism swaps the outer parameters
    assert load_map("pi_4d").action.matrix == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_s1_var_map_printed_form():
    m = load_map("s1_5d")
    T = load_model("five_dim").table
    x, y, w, q, a1 = syms(T, "x y w q alpha1")
    assert (m.var_map["x"] - (x + a1 * q / y)).is_zero
    assert (m.var_map["z"] - (RatExpr.sym(T, "z") + a1 * w / y)).is_zero
    assert m.var_map["y"] == y and m.var_map["q"] == q


def test_integral_registry():
    ywq = load_integral("ywq")
    assert ywq.lam == Fraction(-1) and ywq.system_id == "five_dim"
    i1 = load_integral("I1")
    assert i1.lam == 0 and i1.system_id == "K1_sys"
    i2 = load_integral("I2")
    assert i2.lam == 0 and i2.system_id == "tildeK2_sys"
    # I2 carries the eta * x1 term with coefficient one
    table = i2.expr.table
    mono = [0] * len(table)
    mono[table.index("x1")] = 1
    mono[table.index("eta")] = 1
    assert dict(i2.expr.num.terms)[tuple(mono)] == 1


def test_solution_bindings_printed_forms():
    sol = load_particular_solution("linear_xz_sol")
    C1, C2, E1, E2, a0, a2, eta = syms(sol.table, "C1 C2 E1 E2 alpha0 alpha2 eta")
    assert sol.bindings["x"].equals(C1 * E1 - 1 / (2 * a2))
    assert sol.bindings["z"].equals(C2 * E2 + eta / (2 * a0))
    assert sol.rules["E1"].equals(a2 * E1)
    assert sol.rules["E2"].equals(a0 * E2)

    sol_a = load_particular_solution("second_order_sol_a")
    C1a, E, a2a = syms(sol_a.table, "C1 E alpha2")
    assert sol_a.bindings["x"].equals(((E - a2a) ** 2 - C1a**2) / (4 * C1a**2 * E))
    assert sol_a.rules["E"].equals(C1a * E)

    rest = load_particular_solution("rest_wq_zero")
    assert rest.param_bindings["alpha1"].is_zero
    for name in ("y", "w", "q"):
        assert rest.bindings[name].is_zero
    # the carrier rules are exactly the linear-subsystem right-hand sides
    lin = load_model("linear_xz")
    T5 = rest.table
    rebased = {
        n: substitute(
            lin.rhs[n], {m: RatExpr.sym(T5, m) for m in lin.table.symbols}, table=T5
        )
        for n in ("x", "z")
    }
    assert (rest.rules["x"] - rebased["x"]).is_zero
    assert (rest.rules["z"] - rebased["z"]).is_zero


def test_restrictions_equal_the_substitution_of_zeros():
    # each subsystem's table is its source's without the zeroed symbols, and
    # each right-hand side is its source's with 0 substituted for them, on
    # the lazy exact path the key filter replaces
    for sid, source_id, zeros in models.RESTRICTIONS:
        sub, source = load_model(sid), load_model(source_id)
        assert sub.table.symbols == tuple(n for n in source.table.symbols if n not in zeros)
        assert sub.state == tuple(n for n in source.state if n not in zeros)
        for name in sub.state:
            assert sub.rhs[name] == substitute(
                source.rhs[name], dict.fromkeys(zeros, 0), table=sub.table
            ), (sid, name)


def test_a_restriction_of_a_missing_symbol_is_refused():
    with pytest.raises(SymbolMismatchError, match="alpah1"):
        models._restrict("typo", load_model("five_dim"), ("y", "alpah1"))


def test_restrictions_and_divisor_match_a_sympy_oracle():
    # sympy reads five_dim's rendered field and sets each row's symbols to 0
    # itself; the rendered subsystems must be those fields, and the rendered
    # divisor record must satisfy D(y) = K*y + R on the same read field
    def read(sid):
        sys_obj = load_model(sid)
        return {n: sympy_read(render_ratexpr(e), sys_obj.table.symbols)
                for n, e in sys_obj.rhs.items()}

    oracle = {"five_dim": read("five_dim")}
    for sid, source_id, zeros in models.RESTRICTIONS:
        zero = {sp.Symbol(n): 0 for n in zeros}
        oracle[sid] = {n: f.subs(zero) for n, f in oracle[source_id].items() if n not in zeros}
        rendered = read(sid)
        assert rendered.keys() == oracle[sid].keys(), sid
        for name, f in rendered.items():
            assert sp.expand(f - oracle[sid][name]) == 0, (sid, name)

    divisor = models.load_divisor()
    five = load_model(divisor.system_id)
    f, K, R = (sympy_read(render_ratexpr(e), five.table.symbols)
               for e in (divisor.expr, divisor.cofactor, divisor.remainder))
    field = {sp.Symbol(n): g for n, g in oracle["five_dim"].items()}
    field[sp.Symbol(five.indep)] = sp.Integer(1)
    D_f = sum(sp.diff(f, v) * g for v, g in field.items())
    assert sp.expand(D_f - K * f - R) == 0
    # the remainder vanishes on the wall alpha1 = 0 and nowhere else identically
    assert R != 0 and R.subs(sp.Symbol("alpha1"), 0) == 0


def test_solution_bindings_cover_states():
    for pid in models.SOLUTION_IDS:
        sol = load_particular_solution(pid)
        target = load_model(sol.system_id)
        assert set(target.state) <= set(sol.bindings)


def _dump_expressions(text: str):
    """(expression text, table names, registry object) for every expression
    line of a registry dump, the object looked up from the block and line
    heads."""
    block = names = None
    for line in text.splitlines():
        if line.startswith("["):
            block = line.strip("[]").split()
        elif line.startswith("symbols: "):
            names = [chunk.split(":")[0] for chunk in line[len("symbols: "):].split()]
        elif ": " in line:
            head, expr_text = line.split(": ", 1)
            kind, field = block[0], head.split()
            if kind == "system" and field[0] == "rhs":
                obj = load_model(block[1]).rhs[field[1]]
            elif kind == "system" and field[0] == "hamiltonian":
                obj = load_model(block[1]).hamiltonian.expr
            elif kind == "map" and field[0] == "vars":
                variant = block[2].removeprefix("variant=")
                obj = load_map(block[1], variant).var_map[field[1]]
            elif kind == "integral" and field[0] == "expr":
                obj = load_integral(block[1]).expr
            elif kind == "solution" and field[0] in ("binding", "rule", "param"):
                sol = load_particular_solution(block[1])
                part = {"binding": sol.bindings, "rule": sol.rules,
                        "param": sol.param_bindings}[field[0]]
                obj = part[field[1]]
            else:
                continue
            yield expr_text, names, obj


def test_dump_reads_back_in_sympy():
    # every expression of the dump means, to sympy's parser, the function
    # the registry object rebuilt term by term gives; the golden file below
    # pins the text itself
    count = 0
    for text, names, obj in _dump_expressions(dump_models()):
        assert list(obj.table.symbols) == names, text
        symbols = [sp.Symbol(n) for n in names]
        read = sympy_read(text, names)
        assert sp.expand(sp.numer(sp.together(read - sympy_of(obj, symbols)))) == 0, text
        count += 1
    assert count == 127


def test_dump_matches_golden():
    assert dump_models() == GOLDEN.read_text()


def test_records_are_immutable():
    ham = load_model("ham_4d")
    s0 = load_map("s0_5d")
    for record in (ham.hamiltonian, ham, s0.action, s0, load_integral("ywq"),
                   load_particular_solution("rest_wq_zero")):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, None)


def test_mapping_defaults_are_not_shared_mutable_dicts():
    s0 = load_map("s0_5d")
    first, second = (BirationalMap(*s0[:8]) for _ in range(2))
    zero = RatExpr.const(s0.table, 0)
    for m in (first, second):
        for default in (m.eliminated, m.rules):
            with pytest.raises(TypeError):
                default["y"] = zero
    assert first.eliminated == second.eliminated == first.rules == {}
    solution = load_particular_solution("linear_xz_sol")
    with pytest.raises(TypeError):
        solution.param_bindings["alpha0"] = zero
    assert solution.param_bindings == {}
