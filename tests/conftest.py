"""Shared helpers: seeded random polynomial/expression generators and the
sympy oracle for exact expressions and their rendered text."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
import sympy as sp
from sympy.parsing.sympy_parser import convert_xor, parse_expr, standard_transformations

from painleve_d32.ring import Poly, RatExpr, SymbolTable, _partial


@pytest.fixture(scope="session")
def xyz_table() -> SymbolTable:
    return SymbolTable([("x", "state"), ("y", "state"), ("z", "state")])


def random_poly(
    rng: random.Random, table: SymbolTable, max_terms: int = 4, max_exp: int = 2
) -> Poly:
    terms: dict = {}
    for _ in range(rng.randint(0, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(len(table)))
        coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[mono] = terms.get(mono, Fraction(0)) + coeff
    return Poly(table, terms)


def random_nonzero_poly(rng: random.Random, table: SymbolTable, **kw) -> Poly:
    while True:
        p = random_poly(rng, table, **kw)
        if not p.is_zero:
            return p


def random_ratexpr(rng: random.Random, table: SymbolTable) -> RatExpr:
    """Small rational expression; the denominator stays short so that chained
    quotient-rule applications in property tests cannot swell unboundedly."""
    return RatExpr(
        random_poly(rng, table, max_terms=3, max_exp=1),
        random_nonzero_poly(rng, table, max_terms=2, max_exp=1),
    )


def sympy_of(e, names):
    """A Poly or RatExpr rebuilt in sympy term by term, ``names`` the sympy
    symbols of its table in table order."""
    def poly(p):
        return sum(
            (sp.Rational(c.numerator, c.denominator)
             * sp.Mul(*(names[i] ** k for i, k in enumerate(mono) if k))
             for mono, c in p.terms),
            sp.Integer(0),
        )

    return poly(e.num) / poly(e.den) if isinstance(e, RatExpr) else poly(e)


def sympy_read(text: str, names) -> sp.Expr:
    """Rendered text read by sympy's parser, ``^`` as a power.

    Every name of the table is a plain symbol (so ``E`` is no constant), and
    a name outside it fails the read.
    """
    local = {n: sp.Symbol(n) for n in names}
    expr = parse_expr(
        text, local_dict=local, transformations=standard_transformations + (convert_xor,)
    )
    assert expr.free_symbols <= set(local.values()), text
    return expr


def leibniz_of_poly(d, p: Poly) -> RatExpr:
    """D(p) by the Leibniz loop, one RatExpr product and sum per live rule:
    the reference the compiled plan of a :class:`Derivation` is tested
    against."""
    total = RatExpr(Poly.zero(d.table))
    for name, rule in d.rules.items():
        if rule.is_zero:
            continue
        part = _partial(p, name)
        if part.is_zero:
            continue
        total = total + RatExpr(part) * rule
    return total


def leibniz_of(d, e: RatExpr) -> RatExpr:
    """D(N/M) by the quotient rule on :func:`leibniz_of_poly`'s results."""
    dn = leibniz_of_poly(d, e.num)
    if e.den.is_const:
        return dn / e.den.const_value()
    dd = leibniz_of_poly(d, e.den)
    return (dn * RatExpr(e.den) - RatExpr(e.num) * dd) / RatExpr(e.den * e.den)
