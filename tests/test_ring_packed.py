"""The packed-exponent kernel against a tuple/Fraction reference.

The reference below keeps a polynomial as ``{exponent tuple: Fraction}`` and
runs the textbook algorithms on it: sums and products term by term, order by
(total degree, exponents), the exact quotient by repeated leading-term
division, and substitution over the product of the binding denominators.
Every kernel operation must give the same terms, in the same order.
Substitution is also checked over the whole registry: every map's pullback
plan on every target right-hand side.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from painleve_d32 import models, verify
from painleve_d32.models import load_map, load_model
from painleve_d32.ring import (
    DEGREE_LIMIT,
    Poly,
    RatExpr,
    RingError,
    SingularSubstitutionError,
    Substitution,
    SymbolMismatchError,
    SymbolTable,
    ZeroDivisionExprError,
    _content,
    _partial,
    exact_polynomial_quotient,
    split_poly,
    substitute,
)

TABLES = {name: load_model(name).table for name in ("five_dim", "ham_4d")}
# a second output table for each: the same symbols in reverse order, and one more
OUT_TABLES = {
    name: SymbolTable([*zip(t.symbols[::-1], t.kinds[::-1]), ("u", "generator")])
    for name, t in TABLES.items()
}


# -- the reference ------------------------------------------------------------


def _order(mono):
    return (sum(mono), mono)


def ref_terms(d):
    """The terms of a reference polynomial: nonzero, descending graded-lex."""
    return tuple(
        sorted(((m, c) for m, c in d.items() if c), key=lambda t: _order(t[0]), reverse=True)
    )


def ref_add(a, b, sign=1):
    out = dict(a)
    for m, c in b.items():
        out[m] = out.get(m, Fraction(0)) + sign * c
    return {m: c for m, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            out[m] = out.get(m, Fraction(0)) + c1 * c2
    return {m: c for m, c in out.items() if c}


def ref_scaled(a, c):
    return {m: v * c for m, v in a.items() if v * c}


def ref_partial(a, i):
    out = {}
    for m, c in a.items():
        if m[i]:
            out[m[:i] + (m[i] - 1,) + m[i + 1:]] = c * m[i]
    return out


def ref_content(a, n):
    if not a:
        return (0,) * n
    return tuple(min(m[i] for m in a) for i in range(n))


def ref_quotient(n, d):
    lt = max(d, key=_order)
    rem, quot = dict(n), {}
    while rem:
        m = max(rem, key=_order)
        diff = tuple(x - y for x, y in zip(m, lt))
        if min(diff) < 0:
            return None
        ratio = rem[m] / d[lt]
        quot[diff] = ratio
        for dm, dc in d.items():
            k = tuple(x + y for x, y in zip(dm, diff))
            s = rem.get(k, Fraction(0)) - ratio * dc
            if s:
                rem[k] = s
            else:
                del rem[k]
    return quot


def ref_substitute(p, bindings, n, place=None):
    """(numerator, denominator) of p with symbol i := num_i/den_i, over n
    output symbols; an unbound symbol i moves to output index place[i], or
    stays at i."""
    one = {(0,) * n: Fraction(1)}
    top = {i: max(m[i] for m in p) for i in bindings}
    top = {i: e for i, e in top.items() if e}
    num_pows, den_pows = {}, {}
    for i, e in top.items():
        bn, bd = bindings[i]
        num_pows[i], den_pows[i] = [one], [one]
        for _ in range(e):
            num_pows[i].append(ref_mul(num_pows[i][-1], bn))
            den_pows[i].append(ref_mul(den_pows[i][-1], bd))
    common = one
    for i, e in top.items():
        common = ref_mul(common, den_pows[i][e])
    total = {}
    for m, c in p.items():
        rest = [0] * n
        for i, e in enumerate(m):
            if e and i not in top:
                rest[i if place is None else place[i]] += e
        term = {tuple(rest): c}
        for i, e in top.items():
            term = ref_mul(term, ref_mul(num_pows[i][m[i]], den_pows[i][e - m[i]]))
        total = ref_add(total, term)
    return total, common


def ref_residue(terms, point, p):
    """The image mod p at ``point``, term by term: each Fraction coefficient
    times its monomial's value, None when p divides a coefficient's
    denominator."""
    total = 0
    for mono, c in terms:
        value = 1
        for v, e in zip(point, mono):
            if e:
                value = value * pow(v, e, p) % p
        num, den = c.numerator, c.denominator
        if den != 1:
            if den % p == 0:
                return None
            num *= pow(den, -1, p)
        total += num * value
    return total % p


# -- strategies -----------------------------------------------------------------


@st.composite
def polys(draw, table, max_terms=4, max_exp=2):
    """A reference polynomial and the kernel's Poly built from it."""
    n = len(table)
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = [0] * n
        for i in draw(st.lists(st.integers(0, n - 1), max_size=3)):
            mono[i] = draw(st.integers(0, max_exp))
        coeff = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
        terms[tuple(mono)] = terms.get(tuple(mono), Fraction(0)) + coeff
    ref = {m: c for m, c in terms.items() if c}
    return ref, Poly(table, terms)


@st.composite
def bindings_over(draw, table, out):
    """Bindings of some symbols of ``table`` to values over ``out``, and the
    reference's (numerator, denominator) of each by source index.

    A binding is an identity, a sign flip, a monomial over a constant (zero
    and constants included), an affine image such as a parameter's, or a
    general quotient.
    """
    chosen = draw(st.lists(st.integers(0, len(table) - 1), max_size=4, unique=True))
    bindings, ref = {}, {}
    for i in chosen:
        name = table.symbols[i]
        kind = draw(st.sampled_from(["identity", "sign", "monomial", "affine", "general"]))
        if kind in ("identity", "sign"):
            b = RatExpr.sym(out, name) * (1 if kind == "identity" else -1)
        elif kind == "monomial":
            b = RatExpr(data_poly(draw, out, max_terms=1))
        elif kind == "affine":
            b = RatExpr.const(out, draw(st.integers(-2, 2)))
            for other in draw(st.lists(st.sampled_from(out.symbols), min_size=1, max_size=3,
                                       unique=True)):
                b = b + draw(st.sampled_from([1, -1])) * RatExpr.sym(out, other)
        else:
            num = data_poly(draw, out, max_terms=2, max_exp=1)
            den = data_poly(draw, out, max_terms=2, max_exp=1)
            if den.is_zero:
                continue
            b = RatExpr(num, den)
        bindings[name] = b
        ref[i] = (dict(b.num.terms), dict(b.den.terms))
    return bindings, ref


def data_poly(draw, table, **kwargs) -> Poly:
    return draw(polys(table, **kwargs))[1]


def place(table, out):
    """The output index of each source symbol by name, None where it has none."""
    return [out.index(n) if n in out else None for n in table.symbols]


def assert_terms_contract(p: Poly, expected=None) -> None:
    """Tuple monomials, Fraction coefficients, no zeros, strictly descending
    graded-lex order; and equal to the reference when given."""
    n = len(p.table)
    for mono, c in p.terms:
        assert type(mono) is tuple and len(mono) == n
        assert all(type(e) is int and e >= 0 for e in mono)
        assert type(c) is Fraction and c != 0
    orders = [_order(m) for m, _ in p.terms]
    assert all(a > b for a, b in zip(orders, orders[1:]))
    if expected is not None:
        assert p.terms == ref_terms(expected)
        # the same storage as a polynomial built from the reference terms
        assert p == Poly(p.table, expected) and hash(p) == hash(Poly(p.table, expected))


table_names = st.sampled_from(sorted(TABLES))
SETTINGS = settings(max_examples=100, derandomize=True, deadline=None)


# -- differential properties -------------------------------------------------------


@SETTINGS
@given(st.data(), table_names)
def test_sum_difference_product_match_the_reference(data, name):
    table = TABLES[name]
    (ra, a), (rb, b) = data.draw(polys(table)), data.draw(polys(table))
    assert_terms_contract(a, ra)
    assert_terms_contract(a + b, ref_add(ra, rb))
    assert_terms_contract(a - b, ref_add(ra, rb, -1))
    assert_terms_contract(-a, ref_scaled(ra, Fraction(-1)))
    assert_terms_contract(a * b, ref_mul(ra, rb))
    assert a * b == b * a and a + b == b + a
    assert hash(a * b) == hash(b * a) and hash(a + b) == hash(b + a)
    # rebuilt from its own terms, in either order, it is the same polynomial
    for terms in (a.terms, a.terms[::-1]):
        again = Poly(table, dict(terms))
        assert again == a and hash(again) == hash(a)


@SETTINGS
@given(st.data(), table_names, st.fractions(max_denominator=12))
def test_scaled_matches_the_reference(data, name, c):
    ra, a = data.draw(polys(TABLES[name]))
    assert_terms_contract(a.scaled(c), ref_scaled(ra, c))


@SETTINGS
@given(st.data(), table_names)
def test_partial_and_content_match_the_reference(data, name):
    table = TABLES[name]
    ra, a = data.draw(polys(table))
    for i, symbol in enumerate(table.symbols):
        assert_terms_contract(_partial(a, symbol), ref_partial(ra, i))
    content = _content(table, (table.pack(m) for m, _ in a.terms))
    assert table.unpack(content) == ref_content(ra, len(table))


@SETTINGS
@given(st.data(), table_names)
def test_exact_quotient_matches_the_reference(data, name):
    table = TABLES[name]
    (ra, a), (rd, d) = data.draw(polys(table)), data.draw(polys(table, max_terms=3))
    if not rd:
        return
    (rr, r) = data.draw(polys(table, max_terms=2))
    # one exact division and one that is exact only when r is a multiple of d
    for rn, n in ((ref_mul(ra, rd), a * d), (ref_add(ref_mul(ra, rd), rr), a * d + r)):
        expected = ref_quotient(rn, rd)
        q = exact_polynomial_quotient(n, d)
        if expected is None:
            assert q is None
        else:
            assert_terms_contract(q, expected)


@SETTINGS
@given(st.data(), table_names, st.booleans())
def test_substitute_matches_the_reference(data, name, other_table):
    table = TABLES[name]
    out = OUT_TABLES[name] if other_table else table
    rp, p = data.draw(polys(table, max_exp=3))
    bindings, ref_bindings = data.draw(bindings_over(table, out))
    result = Substitution(bindings, table, out).of_poly(p)
    assert result.table is out
    if not rp:
        assert result.is_zero
        return
    num, den = ref_substitute(rp, ref_bindings, len(out), place(table, out))
    assert result == RatExpr(Poly(out, num), Poly(out, den))
    assert_terms_contract(result.num)
    assert_terms_contract(result.den)


@SETTINGS
@given(st.data(), table_names, st.booleans())
def test_one_substitution_serves_many_polynomials(data, name, other_table):
    """A plan built once gives, polynomial after polynomial, what a plan
    built for each call gives, and the reference: its cached powers grow
    with the exponents drawn but change no result."""
    table = TABLES[name]
    out = OUT_TABLES[name] if other_table else table
    bindings, ref_bindings = data.draw(bindings_over(table, out))
    plan = Substitution(bindings, table, out)
    for _ in range(3):
        rp, p = data.draw(polys(table, max_exp=data.draw(st.integers(1, 4))))
        result = plan.of_poly(p)
        assert result == Substitution(bindings, table, out).of_poly(p)
        if rp:
            num, den = ref_substitute(rp, ref_bindings, len(out), place(table, out))
            assert result == RatExpr(Poly(out, num), Poly(out, den))
        _, q = data.draw(polys(table, max_terms=2, max_exp=2))
        if q.is_zero:
            continue
        e = RatExpr(p, q)
        try:
            fresh = substitute(e, bindings, out)
        except SingularSubstitutionError:
            with pytest.raises(SingularSubstitutionError):
                substitute(e, plan)
            continue
        assert substitute(e, plan) == fresh


def test_a_substitution_refuses_other_tables():
    table, out = TABLES["five_dim"], OUT_TABLES["five_dim"]
    plan = Substitution({"x": 2}, table, out)
    other = TABLES["ham_4d"]
    with pytest.raises(SymbolMismatchError, match="another table"):
        substitute(RatExpr(other.one), plan)
    with pytest.raises(SymbolMismatchError, match="output table"):
        substitute(RatExpr(table.one), plan, table)
    assert substitute(RatExpr(table.one), plan, out) == RatExpr(out.one)
    # an unbound symbol missing from the output table fails where it occurs
    narrow = Substitution({}, table, SymbolTable([("y", "state")]))
    assert narrow.of_poly(Poly.var(table, "y", 2)).num.terms == (((2,), 1),)
    with pytest.raises(SymbolMismatchError, match="'x' missing"):
        narrow.of_poly(Poly.var(table, "x"))


# every map of the registry and each of its variants
MAP_VARIANTS = [
    (mid, variant)
    for mid in models.MAP_IDS
    for variant in (("printed", "corrected") if mid in models.DISPUTED_MAP_IDS else ("printed",))
]


def _ref_quotient_substitute(e, ref_bindings, table, out):
    """The reference's (numerator, denominator) of a quotient substituted."""
    n = len(out)
    num, num_den = ref_substitute(dict(e.num.terms), ref_bindings, n, place(table, out))
    den, den_den = ref_substitute(dict(e.den.terms), ref_bindings, n, place(table, out))
    return ref_mul(num, den_den), ref_mul(num_den, den)


@pytest.mark.parametrize("map_id, variant", MAP_VARIANTS)
def test_registry_plans_match_the_reference(map_id, variant):
    """Each map's plans, the pullback bindings on every target right-hand
    side and the eliminated bindings on the source's, give the reference
    substitution's quotient, compared by cross-multiplication on Fractions."""
    bmap = load_map(map_id, variant)
    flow, target, bindings = verify._map_flow(bmap)
    source = load_model(bmap.source)
    cases = [(target, bindings, target.state, flow.table)]
    if bmap.eliminated:
        kept = [n for n in source.state if n not in bmap.eliminated]
        cases.append((source, bmap.eliminated, kept, bmap.table))
    for system, binding_set, names, out in cases:
        table = system.table
        plan = Substitution(binding_set, table, out)
        ref_bindings = {
            table.index(n): (dict(b.num.terms), dict(b.den.terms))
            for n, b in binding_set.items() if n in table
        }
        for name in names:
            result = substitute(system.rhs[name], plan)
            assert result.table is out
            num, den = _ref_quotient_substitute(system.rhs[name], ref_bindings, table, out)
            assert ref_mul(dict(result.num.terms), den) == ref_mul(dict(result.den.terms), num)


# the primes of the residue tests: two that divide some drawn denominators
# (1..9 and their products), and the prime of the search's rank
RESIDUE_PRIMES = (5, 7, 2**61 - 1)


@SETTINGS
@given(st.data(), table_names, st.sampled_from(RESIDUE_PRIMES))
def test_residue_matches_the_termwise_reference(data, name, prime):
    table = TABLES[name]
    point = [data.draw(st.integers(1, prime - 1)) for _ in table.symbols]
    powers: dict = {}
    # one cache serves every polynomial at the point, in any order
    for _ in range(3):
        _, a = data.draw(polys(table, max_exp=3))
        assert a.residue(point, prime, powers) == ref_residue(a.terms, point, prime)


def ref_split(terms, indices):
    """The reference split: the rest of each term, keyed by its exponent
    tuple at ``indices``."""
    out: dict = {}
    for mono, c in terms:
        rest = tuple(0 if i in indices else e for i, e in enumerate(mono))
        out.setdefault(tuple(mono[i] for i in indices), {})[rest] = c
    return out


def ref_pack(exponents, width):
    key = 0
    for e in exponents:
        key = (key << width) | e
    return key


@SETTINGS
@given(st.data(), table_names, st.integers(2, 5))
def test_split_matches_the_termwise_reference(data, name, width):
    table = TABLES[name]
    indices = sorted(data.draw(st.sets(st.integers(0, len(table) - 1), max_size=5)))
    _, a = data.draw(polys(table, max_exp=3))
    parts = split_poly(a, indices, width)
    expected = {ref_pack(e, width): (e, part) for e, part in ref_split(a.terms, indices).items()}
    assert parts.keys() == expected.keys()
    for key, part in parts.items():
        assert_terms_contract(part, expected[key][1])
    # keys compare as the exponent tuples they pack
    assert sorted(expected) == sorted(expected, key=lambda key: expected[key][0])


def test_split_refuses_an_exponent_wider_than_its_field():
    table = TABLES["five_dim"]
    p = Poly.var(table, "x", 4)
    assert split_poly(p, [table.index("x")], 3).keys() == {4}
    with pytest.raises(RingError, match="does not fit"):
        split_poly(p, [table.index("x")], 2)


def test_residue_is_none_when_the_prime_divides_a_denominator():
    table = TABLES["five_dim"]
    point = list(range(1, len(table) + 1))
    x, y = Poly.var(table, "x"), Poly.var(table, "y")
    p = x.scaled(Fraction(1, 14)) + y.scaled(Fraction(1, 3))
    assert p.residue(point, 7, {}) is None
    assert ref_residue(p.terms, point, 7) is None
    assert p.residue(point, 5, {}) == ref_residue(p.terms, point, 5) is not None


def test_residue_of_a_polynomial_vanishing_at_every_unit_is_zero():
    # alpha0^(p-1) - 1 is nonzero over Q but vanishes at every nonzero residue
    table = TABLES["five_dim"]
    prime = 2**61 - 1
    p = Poly.var(table, "alpha0", prime - 1) - Poly.const(table, 1)
    for seed in range(3):
        point = [pow(3, 17 * seed + i + 1, prime) for i in range(len(table))]
        assert p.residue(point, prime, {}) == 0 == ref_residue(p.terms, point, prime)


# -- the constant operand of a RatExpr ----------------------------------------------


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data(), table_names,
       st.one_of(st.integers(-5, 5), st.fractions(max_denominator=7)))
def test_constant_operand_equals_the_generic_quotient(data, name, c):
    """Arithmetic with a constant gives structurally the same RatExpr as the
    generic path through RatExpr.const."""
    table = TABLES[name]
    _, num = data.draw(polys(table, max_terms=3))
    _, den = data.draw(polys(table, max_terms=2, max_exp=1))
    if den.is_zero:
        return
    e = RatExpr(num, den)
    k = RatExpr.const(table, c)
    assert e * c == c * e == RatExpr(e.num * k.num, e.den * k.den)
    assert e + c == c + e == RatExpr(e.num * k.den + k.num * e.den, e.den * k.den)
    assert e - c == RatExpr(e.num * k.den - k.num * e.den, e.den * k.den)
    assert c - e == RatExpr(k.num * e.den - e.num * k.den, k.den * e.den)
    if c:
        assert e / c == RatExpr(e.num * k.den, e.den * k.num)
    else:
        with pytest.raises(ZeroDivisionExprError):
            e / c


# -- the exponent fields -------------------------------------------------------------


def test_a_degree_past_the_exponent_field_raises_instead_of_wrapping():
    table = TABLES["five_dim"]
    half = DEGREE_LIMIT // 2
    x_half, y_half = Poly.var(table, "x", half), Poly.var(table, "y", half)
    one = Poly.const(table, 1)
    # the largest degree that fits keeps its exponents exactly
    top = x_half * Poly.var(table, "y", half - 1)
    assert top.terms == (((half, half - 1) + (0,) * 8, Fraction(1)),)
    assert top.total_degree() == DEGREE_LIMIT - 1
    for overflow in (
        lambda: x_half * y_half,
        lambda: top * Poly.var(table, "z"),
        lambda: (x_half + one) * (y_half - one),
        lambda: x_half ** 2,
        lambda: Poly.var(table, "q", DEGREE_LIMIT),
        lambda: Poly(table, {(half, half) + (0,) * 8: Fraction(1)}),
    ):
        with pytest.raises(RingError, match="overflows"):
            overflow()


def test_a_larger_exponent_does_not_divide_a_smaller_one():
    table = TABLES["ham_4d"]
    x = Poly.var(table, "q1")
    big = Poly.var(table, "p1", DEGREE_LIMIT - 2)
    # q1*p1^(L-2) by q1^2: the q1 field borrows although the degree is larger
    assert exact_polynomial_quotient(x * big, x * x) is None
    assert exact_polynomial_quotient(x * big, x) == big
