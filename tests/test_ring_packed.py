"""The packed-exponent kernel against a tuple/Fraction reference.

The reference below keeps a polynomial as ``{exponent tuple: Fraction}`` and
runs the textbook algorithms on it: sums and products term by term, order by
(total degree, exponents), the exact quotient by repeated leading-term
division, and substitution over the product of the binding denominators.
Every kernel operation must give the same terms, in the same order.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from painleve_d32.models import load_model
from painleve_d32.ring import (
    DEGREE_LIMIT,
    Poly,
    RatExpr,
    RingError,
    ZeroDivisionExprError,
    exact_polynomial_quotient,
    substitute_poly,
)

TABLES = {name: load_model(name).table for name in ("five_dim", "ham_4d")}


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


def ref_mul_monomial(a, mono, c):
    return {tuple(x + y for x, y in zip(m, mono)): v * c for m, v in a.items() if v * c}


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


def ref_shift_down(a, mono):
    return {tuple(x - y for x, y in zip(m, mono)): c for m, c in a.items()}


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


def ref_substitute(p, bindings, n):
    """(numerator, denominator) of p with symbol i := num_i/den_i."""
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
        rest = tuple(0 if i in top else e for i, e in enumerate(m))
        term = {rest: c}
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
def test_scaled_and_mul_monomial_match_the_reference(data, name, c):
    table = TABLES[name]
    ra, a = data.draw(polys(table))
    mono = tuple(data.draw(st.integers(0, 2)) for _ in range(len(table)))
    assert_terms_contract(a.scaled(c), ref_scaled(ra, c))
    assert_terms_contract(a.mul_monomial(mono, c), ref_mul_monomial(ra, mono, c))


@SETTINGS
@given(st.data(), table_names)
def test_partial_content_and_shift_match_the_reference(data, name):
    table = TABLES[name]
    ra, a = data.draw(polys(table))
    for i, symbol in enumerate(table.symbols):
        assert_terms_contract(a.partial(symbol), ref_partial(ra, i))
    content = a.monomial_content()
    assert content == ref_content(ra, len(table))
    assert_terms_contract(a.shift_down(content), ref_shift_down(ra, content))


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
@given(st.data(), table_names)
def test_substitute_matches_the_reference(data, name):
    table = TABLES[name]
    rp, p = data.draw(polys(table, max_exp=3))
    chosen = data.draw(st.lists(st.integers(0, len(table) - 1), max_size=3, unique=True))
    bindings, ref_bindings = {}, {}
    for i in chosen:
        _, num = data.draw(polys(table, max_terms=2, max_exp=1))
        _, den = data.draw(polys(table, max_terms=2, max_exp=1))
        if den.is_zero:
            continue
        b = RatExpr(num, den)
        bindings[table.symbols[i]] = b
        ref_bindings[i] = (dict(b.num.terms), dict(b.den.terms))
    result = substitute_poly(p, bindings)
    if not rp:
        assert result.is_zero
        return
    num, den = ref_substitute(rp, ref_bindings, len(table))
    assert result == RatExpr(Poly(table, num), Poly(table, den))
    assert_terms_contract(result.num)
    assert_terms_contract(result.den)


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
        lambda: top.mul_monomial((0, 0, 1) + (0,) * 7),
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
