"""Exact-arithmetic kernel: worked examples and randomized ring properties."""

from __future__ import annotations

import ast
import importlib.util
import itertools
import random
import types
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from painleve_d32.ring import (
    Derivation,
    Poly,
    RatExpr,
    RingError,
    SingularPointError,
    SingularSubstitutionError,
    Substitution,
    SymbolMismatchError,
    SymbolTable,
    ZeroDivisionExprError,
    _normalization,
    differentiate,
    evaluate,
    exact_polynomial_quotient,
    is_identically_zero,
    jacobian_determinant,
    partial_derivative,
    reduce_relation,
    substitute,
    syms,
)
from painleve_d32.syntax import render_ratexpr
from painleve_d32.models import MAP_IDS, SYSTEM_IDS, load_map, load_model

from conftest import (
    leibniz_of,
    leibniz_of_poly,
    random_nonzero_poly,
    random_poly,
    random_ratexpr,
    sympy_of,
    sympy_read,
)

T = SymbolTable(
    [("x", "state"), ("z", "state"),
     ("alpha0", "parameter"), ("alpha1", "parameter"), ("alpha2", "parameter"),
     ("eta", "constant")]
)
x, z, a0, a1, a2, eta = syms(T, "x z alpha0 alpha1 alpha2 eta")


# -- worked examples ---------------------------------------------------------------


def test_ring_ops_examples():
    assert (x - x).is_zero
    assert (1 / x + 1 / x - 2 / x).is_zero
    assert ((x**2 - 1) / (x - 1) - (x + 1)).is_zero
    assert ((x - 1) * (x + 1) - (x**2 - 1)).is_zero
    assert ((x**2 - 1) / (x - 1) / (x + 1) - 1).is_zero


def test_division_by_zero_expression():
    with pytest.raises(ZeroDivisionExprError):
        x / (x - x)


def test_substitute_examples():
    w_table = SymbolTable([("x", "state"), ("w", "state")])
    xv, wv = syms(w_table, "x w")
    assert substitute(xv * wv, {"x": 2, "w": 3}).equals(
        RatExpr.const(w_table, 6)
    )
    # identity: empty bindings pass symbols through
    assert substitute(xv, {}) == xv
    # with no bindings, substitute returns its argument: the same expression
    # the full substitution builds, over the whole registry
    exprs = [e for sid in SYSTEM_IDS for e in load_model(sid).rhs.values()]
    exprs += [e for mid in MAP_IDS for e in load_map(mid).var_map.values()]
    for e in exprs:
        plan = Substitution({}, e.table)
        full = plan.of_poly(e.num) / plan.of_poly(e.den)
        assert substitute(e, {}) is e
        assert full == e

    T5 = load_model("five_dim").table
    z5, q5, a05, eta5 = syms(T5, "z q alpha0 eta")
    image = substitute(z5 * q5, {"q": q5 - 2 * a05 / z5 + eta5 / z5**2})
    assert (image - (z5**2 * q5 - 2 * a05 * z5 + eta5) / z5).is_zero
    wide = T5.extend([("s", "generator")])
    assert substitute(z5 * q5, {}, table=wide).table is wide


def test_bindings_refuse_names_missing_from_the_table():
    # a misspelt name must not be dropped: x + y would come back unchanged
    xy = SymbolTable([("x", "state"), ("y", "state")])
    xv, yv = syms(xy, "x y")
    with pytest.raises(SymbolMismatchError, match="'yy'"):
        substitute(xv + yv, {"yy": 0})
    with pytest.raises(SymbolMismatchError, match="'yy'"):
        Substitution({"x": 1, "yy": 0}, xy)


def test_restriction_matches_the_substitution_of_zeros():
    # Poly.restricted sets the symbols the smaller table lacks to 0 by
    # dropping terms: the same as substituting 0 for them into that table
    rng = random.Random(0x2E57)
    table = SymbolTable([("x", "state"), ("y", "state"), ("t", "independent"),
                         ("alpha1", "parameter"), ("eta", "constant")])
    pairs = list(zip(table.symbols, table.kinds))
    for _ in range(200):
        zeros = {n: 0 for n in table.symbols if rng.random() < 0.4}
        small = SymbolTable([(n, k) for n, k in pairs if n not in zeros])
        p = random_poly(rng, table, max_terms=6, max_exp=3)
        assert RatExpr(p.restricted(small)) == Substitution(zeros, table, small).of_poly(p)
        e = RatExpr(p, random_nonzero_poly(rng, table, max_terms=3, max_exp=2))
        try:
            expected = substitute(e, zeros, table=small)
        except SingularSubstitutionError:
            with pytest.raises(SingularSubstitutionError):
                e.restricted(small)
        else:
            assert e.restricted(small) == expected
    # a denominator that vanishes where y = eta = 0
    xv, yv, etav = syms(table, "x y eta")
    singular = xv / (yv * xv + etav)
    small = SymbolTable([(n, k) for n, k in pairs if n not in ("y", "eta")])
    with pytest.raises(SingularSubstitutionError):
        substitute(singular, {"y": 0, "eta": 0}, table=small)
    with pytest.raises(SingularSubstitutionError):
        singular.restricted(small)


def test_substitute_singular_denominator_names_binding():
    with pytest.raises(SingularSubstitutionError) as err:
        substitute(1 / (x - 1), {"x": 1})
    assert "x" in str(err.value)


@pytest.mark.parametrize("value", [True, False, 1.5])
def test_bindings_and_rules_refuse_bool_and_float(value):
    # bool is an int to isinstance: True would otherwise bind x to 1
    with pytest.raises(TypeError, match="cannot coerce"):
        substitute(x * x, {"x": value})
    with pytest.raises(TypeError, match="cannot coerce"):
        Substitution({"x": value}, T)
    with pytest.raises(TypeError, match="cannot coerce"):
        Derivation(T, {"x": value})


def test_differentiate_examples():
    D = Derivation(T, {"x": 1})
    assert (differentiate(x**2, D) - 2 * x).is_zero

    gen_table = SymbolTable(
        [("t", "independent"), ("alpha2", "parameter"), ("E", "generator")]
    )
    tE, a2E, E = syms(gen_table, "t alpha2 E")
    Dg = Derivation(gen_table, {"E": a2E * E, "t": 1})
    assert differentiate(E, Dg).equals(a2E * E)

    five = load_model("five_dim")
    y5, w5, q5 = syms(five.table, "y w q")
    expr = y5 - w5 * q5
    resid = differentiate(expr, five.flow()) + expr
    assert is_identically_zero(resid)
    assert not resid.is_zero


def test_is_identically_zero_relation():
    r = a0 + a1 + a2 - 1
    assert is_identically_zero(r)
    assert not r.is_zero


def test_normalization_applies_from_the_five_dim_table():
    b0, b1, b2 = syms(load_model("five_dim").table, "alpha0 alpha1 alpha2")
    assert is_identically_zero(b0 + b1 + b2 - 1)
    assert (b0 + b1 + b2).equals(1)


def test_normalization_needs_all_three_alphas():
    # the alpha1 = 0 reduction carries alpha0 and alpha2 only
    b0, b2 = syms(load_model("reduced_alpha1_zero").table, "alpha0 alpha2")
    assert not is_identically_zero(b0 + b2 - 1)


def test_exact_polynomial_quotient_examples():
    xz_table = SymbolTable([("x", "state"), ("z", "state")])
    xv, zv = syms(xz_table, "x z")
    q = exact_polynomial_quotient((xv**2 * zv - xv * zv).num, xv.num)
    assert q == (xv * zv - zv).num
    assert exact_polynomial_quotient((xv**2 - 1).num, (xv + 1).num) == (xv - 1).num
    assert exact_polynomial_quotient((xv**2 + 1).num, xv.num) is None


def test_jacobian_examples():
    five = load_model("five_dim")
    names = list(five.state)
    ident = [RatExpr.sym(five.table, n) for n in names]
    assert (jacobian_determinant(ident, names) - 1).is_zero
    for chart_id in ("chart0", "chart1"):
        m = load_map(chart_id)
        det = jacobian_determinant([m.var_map[n] for n in names], names)
        assert (det - 1).is_zero


def test_jacobian_refuses_repeated_variables():
    # d(x)/dx twice would be the singular matrix [[1, 1], [1, 1]]
    with pytest.raises(ValueError, match="repeated"):
        jacobian_determinant([x, x], ["x", "x"])


def test_derivation_refuses_an_expression_over_another_table():
    flow = load_model("five_dim").flow()
    q1, p1 = syms(load_model("ham_4d").table, "q1 p1")
    with pytest.raises(SymbolMismatchError):
        flow.of(q1 * p1)
    with pytest.raises(SymbolMismatchError):
        flow.of_poly((q1 * p1).num)


def test_evaluate_examples():
    assert evaluate(x / z, {"x": 1, "z": 2}) == Fraction(1, 2)
    assert evaluate(x - x * z, {"x": 3, "z": 1}) == 0
    five = load_model("five_dim")
    y5, w5, q5 = syms(five.table, "y w q")
    assert evaluate(y5 - w5 * q5, {"y": 3, "w": 1, "q": 2}) == 1
    with pytest.raises(SingularPointError):
        evaluate(1 / z, {"z": 0})
    with pytest.raises(RingError):
        evaluate(x / z, {"x": 1})  # z unbound


def test_negative_powers_live_in_denominator():
    e = x**-2
    assert e.num.is_const and e.den == (x**2).num


def test_render_parse_roundtrip():
    # sympy reads the rendered text back as the function the term-by-term
    # rebuild of the expression gives
    cases = [
        x**2 * z - 2 * a0 * x + eta / 2,
        (z**2 - 1) / (x * z),
        RatExpr.const(T, Fraction(-3, 7)),
        -x,
        (x**3 - a1 * z / 5) / (2 * x**2 * eta + z),
    ]
    names = [sp.Symbol(n) for n in T.symbols]
    for e in cases:
        text = render_ratexpr(e)
        back = sympy_read(text, T.symbols)
        assert sp.expand(sp.numer(sp.together(back - sympy_of(e, names)))) == 0, text


# -- randomized ring properties (hypothesis) -------------------------------------------

P3 = SymbolTable([("x", "state"), ("y", "state"), ("z", "state")])


@st.composite
def small_polys(draw, max_terms: int = 4, max_exp: int = 2) -> Poly:
    n = draw(st.integers(0, max_terms))
    terms: dict = {}
    for _ in range(n):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(3))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Poly(P3, terms)


nonzero_polys = small_polys().filter(lambda p: not p.is_zero)
# denominators stay short: quotient-rule chains square them
small_dens = small_polys(max_terms=2, max_exp=1).filter(lambda p: not p.is_zero)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(small_polys(), small_polys(), small_polys())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + Poly.zero(P3) == a
    assert a * Poly.const(P3, 1) == a


@settings(max_examples=120, derandomize=True, deadline=None)
@given(small_polys(max_terms=3), small_dens, small_polys(max_terms=3), small_dens,
       st.integers(0, 2**32 - 1))
def test_leibniz_rule(pn, pd, qn, qd, seed):
    rng = random.Random(seed)
    rules = {
        name: random_ratexpr(rng, P3) for name in ("x", "y", "z")
    }
    D = Derivation(P3, rules)
    a = RatExpr(pn, pd)
    b = RatExpr(qn, qd)
    resid = D.of(a * b) - (D.of(a) * b + a * D.of(b))
    assert resid.is_zero or is_identically_zero(resid)


monomial_dens = small_polys(max_terms=1).filter(lambda p: not p.is_zero)


@pytest.mark.parametrize("rule_dens", ["monomial", "any"])
@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_derivation_plan_matches_the_leibniz_loop(rule_dens, data):
    # over monomial rule denominators both routes reach a denominator
    # monomial*M^2, whose normal form is unique: the results are equal term
    # for term.  Other rule denominators give the same function.
    dens = monomial_dens if rule_dens == "monomial" else small_dens
    rules = {n: RatExpr(data.draw(small_polys(max_terms=3)), data.draw(dens)) for n in "xyz"}
    D = Derivation(P3, rules)
    e = RatExpr(data.draw(small_polys(max_terms=3)), data.draw(small_dens))
    pairs = [(D.of(e), leibniz_of(D, e)), (D.of_poly(e.num), leibniz_of_poly(D, e.num))]
    for got, want in pairs:
        assert got == want if rule_dens == "monomial" else got.equals(want)
    # a partial derivative is the derivation with the one rule 1
    for n in "xyz":
        assert partial_derivative(e, n) == leibniz_of(Derivation(P3, {n: 1}), e)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(small_polys(max_terms=3), small_dens, small_dens, small_dens)
def test_cross_multiplication_equivalence(p, q, r, u):
    a = RatExpr(p, q)
    b = RatExpr(p * r, q * r)
    c = RatExpr(p * u, q * u)
    assert a.equals(b) and b.equals(c) and a.equals(c)
    assert not a.equals(b + 1)


@settings(max_examples=120, derandomize=True, deadline=None)
@given(small_polys(), nonzero_polys)
def test_exact_quotient_round_trip(a, d):
    n = a * d
    q = exact_polynomial_quotient(n, d)
    assert q is not None
    assert q * d - n == Poly.zero(P3)
    assert q == a


@settings(max_examples=120, derandomize=True, deadline=None)
@given(small_polys(), small_dens, small_polys(), small_dens,
       st.integers(0, 2**32 - 1))
def test_evaluate_is_ring_homomorphism(pn, pd, qn, qd, seed):
    rng = random.Random(seed)
    a = RatExpr(pn, pd)
    b = RatExpr(qn, qd)
    for _ in range(50):
        point = {n: Fraction(rng.randint(-9, 9), rng.randint(1, 5)) for n in "xyz"}
        try:
            va, vb = evaluate(a, point), evaluate(b, point)
            vab = evaluate(a * b, point)
            vsum = evaluate(a + b, point)
        except SingularPointError:
            continue
        assert vab == va * vb
        assert vsum == va + vb
        return
    # all sampled points singular is astronomically unlikely for nonzero dens
    raise AssertionError("could not find a nonsingular sample point")


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_relation_reduction_is_projection(seed):
    rng = random.Random(seed)
    p = random_poly(rng, T, max_terms=5)
    q = reduce_relation(p)
    assert not q.involves("alpha1")
    assert reduce_relation(q) == q


def _substituted_relation(p):
    """Reference reduction: alpha1 bound to 1 - alpha0 - alpha2 by a plan
    built for this call."""
    t = p.table
    binding = t.one - Poly.var(t, "alpha0") - Poly.var(t, "alpha2")
    return Substitution({"alpha1": binding}, t).of_poly(p).as_poly()


RELATION_TABLES = {name: load_model(name).table for name in ("five_dim", "ham_4d")}
FIVE_DIM = RELATION_TABLES["five_dim"]


def _relation_terms(table):
    """Terms with alpha1 exponents 0-4 and rational coefficients."""
    return st.dictionaries(
        st.tuples(*(
            st.integers(0, 4) if name == "alpha1" else st.integers(0, 2)
            for name in table.symbols
        )),
        st.fractions(min_value=-40, max_value=40, max_denominator=12),
        max_size=8,
    )


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_relation_terms(FIVE_DIM))
def test_relation_reduction_matches_the_substitution(terms):
    p = Poly(FIVE_DIM, terms)
    reduced = reduce_relation(p)
    assert reduced == _substituted_relation(p)
    if not p.involves("alpha1"):
        assert reduced is p


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data(), st.sampled_from(sorted(RELATION_TABLES)))
def test_relation_reduction_matches_sympy(data, name):
    table = RELATION_TABLES[name]
    p = Poly(table, data.draw(_relation_terms(table)))
    names = [sp.Symbol(n) for n in table.symbols]
    a0, a1, a2 = (names[table.index(n)] for n in ("alpha0", "alpha1", "alpha2"))
    want = sp.expand(sympy_of(p, names).subs(a1, 1 - a0 - a2))
    assert sp.expand(sympy_of(reduce_relation(p), names) - want) == 0


def test_one_normalization_plan_serves_every_reduction():
    # the plan keeps its powers of the binding: reducing a high alpha1 power
    # first and lower ones after, alternating between two tables, must give
    # what a plan built for each call gives
    rng = random.Random(0xA1)
    _normalization.cache_clear()  # the first reduction builds the highest power
    plans = {}
    for e in (4, 1, 3, 0, 2, 4):
        for name, table in RELATION_TABLES.items():
            p = Poly.var(table, "alpha1", e) * random_nonzero_poly(rng, table, max_exp=1)
            assert reduce_relation(p) == _substituted_relation(p)
            plans.setdefault(name, _normalization(table))
            assert _normalization(table) is plans[name]


def test_relation_reduction_needs_all_three_alphas():
    # a table without all three alphas carries no normalization
    for names in (("alpha1",), ("alpha0", "alpha1"), ("alpha1", "alpha2")):
        table = SymbolTable([("x", "state"), *((n, "parameter") for n in names)])
        p = Poly(table, {tuple(range(1, len(table) + 1)): Fraction(3, 2)})
        assert p.involves("alpha1")
        assert reduce_relation(p) is p
    p = Poly.var(FIVE_DIM, "alpha0", 2) - Poly.const(FIVE_DIM, Fraction(1, 3))
    assert reduce_relation(p) is p
    zero = Poly.zero(FIVE_DIM)
    assert reduce_relation(zero) is zero
    # alpha1^2 = (1 - alpha0 - alpha2)^2, over the argument's denominator
    alpha1 = Poly.var(FIVE_DIM, "alpha1")
    a0, a2 = Poly.var(FIVE_DIM, "alpha0"), Poly.var(FIVE_DIM, "alpha2")
    one = Poly.const(FIVE_DIM, 1)
    assert reduce_relation((alpha1 * alpha1).scaled(Fraction(1, 5))) == (
        (one - a0 - a2) * (one - a0 - a2)
    ).scaled(Fraction(1, 5))


# -- the packed format stays inside the ring --------------------------------------------

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "painleve_d32"
# the private fields of Poly and SymbolTable that know the packed keys
PACKED_FIELDS = {"_coeffs", "_den", "_shifts", "_units", "_guards", "_make", "_reduced"}
# the ring and its half that loads on first use
RING_LAYER = {"ring.py", "_ring_lazy.py"}


def test_only_the_ring_reads_the_packed_format():
    modules = sorted(PACKAGE.glob("*.py"))
    assert {PACKAGE / name for name in RING_LAYER} <= set(modules)
    reads = [
        (path.name, node.lineno, node.attr)
        for path in modules if path.name not in RING_LAYER
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in PACKED_FIELDS
    ]
    assert reads == []


# -- the names the benchmark's layer trace wraps ---------------------------------------

LAYER_TRACE = Path(__file__).resolve().parents[1] / "bench" / "layertrace.py"
TRACED_METHODS = [
    (Poly, "__mul__"), (Poly, "__add__"), (Poly, "evaluate"), (RatExpr, "__init__"),
    (Derivation, "of"), (Derivation, "of_poly"),
]
TRACED_FUNCTIONS = [
    "substitute", "jacobian_determinant", "reduce_relation", "exact_polynomial_quotient",
    "is_identically_zero",
]
# (module name, function) pairs wrapped outside the ring
TRACED_LAYER_FUNCTIONS = [
    ("weyl", "apply_word_to_point"), ("weyl", "parameter_action"),
    ("verify", "_nullspace"), ("verify", "_find_witness"),
    ("numeric", "compile_ratexpr"), ("numeric", "_rk_step"),
    ("numeric", "integrate_system"),
]


def test_layer_trace_hooks_exist(monkeypatch):
    """bench/layertrace.py wraps these by name: methods on their own class, and
    ring, weyl, verify and numeric functions in every package module that binds
    the same object."""
    import painleve_d32
    from painleve_d32 import models, numeric, ring, syntax, verify, weyl

    modules = [painleve_d32, models, numeric, ring, syntax, verify, weyl]
    owners = {"numeric": numeric, "verify": verify, "weyl": weyl}
    for cls, attr in TRACED_METHODS:
        assert attr in vars(cls), (cls.__name__, attr)
    for owner, name in [("ring", n) for n in TRACED_FUNCTIONS] + TRACED_LAYER_FUNCTIONS:
        host = owners.get(owner, ring)
        getattr(host, name)  # a name a host serves from its half is bound on lookup
        original = vars(host)[name]
        assert callable(original), (owner, name)
        for module in modules:
            if name in vars(module):
                assert vars(module)[name] is original, (module.__name__, name)

    spec = importlib.util.spec_from_file_location("layertrace", LAYER_TRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    pkg = types.SimpleNamespace(
        models=models, numeric=numeric, ring=ring, syntax=syntax, verify=verify,
        weyl=weyl, modules=modules,
    )
    tracer = layertrace.Tracer()
    try:
        tracer.install(pkg)
        for cls, attr in TRACED_METHODS:
            assert hasattr(vars(cls)[attr], "__wrapped__"), (cls.__name__, attr)
        for name in TRACED_FUNCTIONS:
            assert hasattr(getattr(ring, name), "__wrapped__"), name
        for owner, name in TRACED_LAYER_FUNCTIONS:
            assert hasattr(vars(owners[owner])[name], "__wrapped__"), (owner, name)
        # the group relations reach the point kernels through the traced
        # apply_word_to_point, which counts each singular draw as a resample;
        # every other draw is made singular (zero state and time)
        draws = itertools.count()
        draw = weyl.random_point

        def every_other_singular(rng, context):
            point = draw(rng, context)
            if next(draws) % 2:
                zero = Fraction(0)
                point = point._replace(
                    state=dict.fromkeys(point.state, zero), indep=zero
                )
            return point

        monkeypatch.setattr(weyl, "random_point", every_other_singular)
        token = tracer.begin_op()
        reports = weyl.verify_group_relations(sample_count=3, seed=5)
        tracer.end_op(token, completed=True)
    finally:
        tracer.uninstall()
    assert all(r.passed for r in reports)
    assert tracer.calls["weyl.apply_word"] >= 2 * 3 * len(reports)
    resamples = sum(int(r.detail.split(", ")[-1].split()[0]) for r in reports)
    assert tracer.counts["weyl.resamples"] == resamples > 0
    assert not hasattr(Poly.__mul__, "__wrapped__")
    assert not hasattr(ring.substitute, "__wrapped__")
    assert not hasattr(weyl.apply_word_to_point, "__wrapped__")


def test_calls_made_inside_the_lazy_halves_are_traced():
    """Moved code reaches every traced name through ``ring`` or ``weyl``,
    where the trace rebinds it: a call that escaped would not be counted."""
    import painleve_d32
    from painleve_d32 import models, numeric, ring, syntax, verify, weyl

    modules = [painleve_d32, models, numeric, ring, syntax, verify, weyl]
    spec = importlib.util.spec_from_file_location("layertrace", LAYER_TRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    pkg = types.SimpleNamespace(
        models=models, numeric=numeric, ring=ring, syntax=syntax, verify=verify,
        weyl=weyl, modules=modules,
    )
    table = load_model("five_dim").table
    a0, a1, a2 = syms(table, "alpha0 alpha1 alpha2")
    y, z, w = syms(table, "y z w")
    tracer = layertrace.Tracer()
    try:
        tracer.install(pkg)
        token = tracer.begin_op()
        assert ring.is_identically_zero(a0 + a1 + a2 - 1)
        assert (a1 * y).equals((1 - a0 - a2) * y)
        assert ring.jacobian_determinant([y * z, z, w], ["y", "z", "w"]).equals(z)
        assert ring.differentiate(y * z, ring.Derivation(table, {"y": w})) == w * z
        assert weyl.translation_shift(weyl.parse_word("s1 s2 s1 s0")).vector == (-2, 2, 0)
        tracer.end_op(token, completed=True)
    finally:
        tracer.uninstall()
    calls = tracer.calls
    # is_identically_zero once directly and twice through RatExpr.equals,
    # each reducing its numerator once
    assert calls["ring.is_identically_zero"] == calls["ring.reduce_relation"] == 3
    assert calls["ring.jacobian"] == 1
    # differentiate calls Derivation.of; the Jacobian takes plain partials
    assert calls["ring.derivation_of"] == 1
    assert calls["weyl.parameter_action"] == 1
