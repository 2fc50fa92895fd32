"""The half of the exact kernel that the set-up never runs.

Substitution, the parameter relation's reduction, exact evaluation at
points (one-shot and the compiled :class:`PointMap`), derivations and
Jacobian determinants live here.  :mod:`.ring` serves every name this
module defines (``ring._LAZY``) and binds them all in its own namespace the
first time one is looked up there, so ``ring.substitute`` and
``from .ring import Derivation`` keep working and importing the package
does not compile this module.

Like :mod:`.ring`, this module reads the packed format of :class:`Poly`.  A
call from here to a function that the benchmark's layer trace wraps goes
through ``ring``, where the trace rebinds it: ``ring.reduce_relation``.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from types import FunctionType
from typing import Mapping, Optional, Sequence, Union

from . import ring
from .ring import (
    _FIELD,
    RELATION_ELIMINATED,
    Monomial,
    Poly,
    RatExpr,
    RationalLike,
    RingError,
    SingularPointError,
    SingularSubstitutionError,
    SymbolMismatchError,
    SymbolTable,
    _code,
    has_relation_symbols,
)

# -- the parameter relation ----------------------------------------------------


def reduce_relation(p: Poly) -> Poly:
    """Eliminate alpha1 := 1 - alpha0 - alpha2 where the table carries all three."""
    if not has_relation_symbols(p.table) or not p.involves(RELATION_ELIMINATED):
        return p
    t = p.table
    binding = (
        Poly.const(t, 1) - Poly.var(t, "alpha0") - Poly.var(t, "alpha2")
    )
    res = substitute_poly(p, {RELATION_ELIMINATED: RatExpr(binding)})
    return res.as_poly()


def is_identically_zero(e: RatExpr) -> bool:
    """True iff the expression is the zero function.

    Wherever the table carries alpha0, alpha1 and alpha2, the numerator is
    first reduced by the normalization alpha0 + alpha1 + alpha2 = 1 (alpha1
    eliminated).  A structural zero test is ``e.is_zero``.
    """
    return ring.reduce_relation(e.num).is_zero


# -- substitution ---------------------------------------------------------------


def _coerce_binding(table: SymbolTable, value: object) -> RatExpr:
    if isinstance(value, RatExpr):
        if value.table is not table:
            raise SymbolMismatchError("binding expression over wrong table")
        return value
    if isinstance(value, Poly):
        return RatExpr(value)
    if isinstance(value, (int, Fraction)):
        return RatExpr.const(table, value)
    raise TypeError(f"cannot coerce {value!r} to a rational expression")


def substitute_poly(
    p: Poly,
    bindings: Mapping[str, object],
    table: Optional[SymbolTable] = None,
) -> RatExpr:
    """Simultaneous substitution into a polynomial.

    Binding values live over ``table`` (defaults to ``p.table``).  Unbound
    symbols pass through and must exist by name in the output table.  The
    result is assembled over a single common denominator (the product of the
    binding denominators raised to their maximal needed powers) to avoid
    denominator swell.
    """
    out = table if table is not None else p.table
    src = p.table
    bound: dict[int, RatExpr] = {}
    for name, value in bindings.items():
        if name in src:
            bound[src.index(name)] = _coerce_binding(out, value)
    if p.is_zero:
        return RatExpr(Poly.zero(out))
    keys = p._coeffs
    # bindings of symbols that do not occur are dropped
    maxexp: dict[int, int] = {}
    for i in bound:
        s = src._shifts[i]
        top = max((k >> s) & _FIELD for k in keys)
        if top:
            maxexp[i] = top
    if not maxexp and out is src:
        return RatExpr(p)

    # b = n/d becomes (L*n)/(L*d) with L the lcm of the coefficient
    # denominators of n and d, so that every power below is an integer
    # polynomial; the factor L^maxexp common to numerator and denominator
    # cancels when the quotient is made monic
    factors = []
    common_den = out.one
    for i, top in maxexp.items():
        b = bound[i]
        scale = math.lcm(b.num._den, b.den._den)
        n, d = b.num.scaled(scale), b.den.scaled(scale)
        n_pows, d_pows = [out.one], [out.one]
        for _ in range(top):
            n_pows.append(n_pows[-1] * n)
            d_pows.append(d_pows[-1] * d)
        common_den = common_den * d_pows[top]
        factors.append((src._shifts[i], top, n_pows, d_pows))

    # each occurring unbound symbol moves its exponent to the output table
    used = 0
    for k in keys:
        used |= k
    moves = []
    for i, (name, s) in enumerate(zip(src.symbols, src._shifts)):
        if i in maxexp or not (used >> s) & _FIELD:
            continue
        if name not in out:
            raise SymbolMismatchError(f"unbound symbol {name!r} missing from output table")
        moves.append((s, out._units[out.index(name)]))

    # every term carries den_i^(maxexp_i - e_i), also when e_i = 0, so that
    # the whole sum sits over the single common denominator; terms with the
    # same exponents in the bound symbols share one product
    bound_fields = sum(_FIELD << s for s, _, _, _ in factors)
    products: dict[int, Poly] = {}
    acc: dict[int, int] = {}
    get = acc.get
    for k, c in keys.items():
        pattern = k & bound_fields
        prod = products.get(pattern)
        if prod is None:
            prod = out.one
            for s, top, n_pows, d_pows in factors:
                e = (pattern >> s) & _FIELD
                if e:
                    prod = prod * n_pows[e]
                if top - e:
                    prod = prod * d_pows[top - e]
            products[pattern] = prod
        shift = sum(((k >> s) & _FIELD) * unit for s, unit in moves)
        for kk, v in prod._coeffs.items():
            kk += shift
            acc[kk] = get(kk, 0) + c * v
    result = Poly._sorted(out, acc, p._den)
    # each key is one sum of two in-range keys, so a too-large degree shows
    # in the top field without having wrapped
    if result._coeffs:
        out.check_degree(next(iter(result._coeffs)))
    return RatExpr(result, common_den)


def substitute(
    e: RatExpr,
    bindings: Mapping[str, object],
    table: Optional[SymbolTable] = None,
) -> RatExpr:
    """Simultaneous substitution into a rational expression.

    Raises :class:`SingularSubstitutionError` if the substituted denominator
    is identically zero, naming the bindings involved.  With no bindings and
    no other output table, ``e`` itself is the result.
    """
    if not bindings and (table is None or table is e.table):
        return e
    num = substitute_poly(e.num, bindings, table)
    den = substitute_poly(e.den, bindings, table)
    if den.is_zero:
        involved = [n for n in e.den.occurring_names() if n in bindings]
        raise SingularSubstitutionError(
            "substitution made the denominator identically zero "
            f"(bindings involved: {', '.join(involved) or 'none'})"
        )
    return num / den


# -- exact point evaluation ---------------------------------------------------------


def evaluate(e: Union[RatExpr, Poly], point: Mapping[str, RationalLike]) -> Fraction:
    """Exact rational value at a point; all occurring symbols must be bound.

    One-shot and interpreted: no kernel is compiled.  Numerator and
    denominator are homogenised in every input v_k = n_k/d_k to its largest
    exponent D_k in the expression: a term c*prod v_k^e_k becomes the
    integer c*prod n_k^e_k * d_k^(D_k - e_k).  Both sums carry the factor
    prod d_k^D_k, which cancels, so the value is one ``Fraction`` of two
    integer sums.  Raises :class:`SingularPointError` when the denominator
    vanishes at the point (a resampling signal, distinct from an
    identically-zero divisor).
    """
    num, den = (e.num, e.den) if isinstance(e, RatExpr) else (e, e.table.one)
    table = num.table
    terms = [[(table.unpack(k), c) for k, c in p._coeffs.items()] for p in (num, den)]
    top = [max(es) for es in zip(*(m for ts in terms for m, _ in ts))]
    powers = {}
    for i, d in enumerate(top):
        if d:
            name = table.symbols[i]
            if name not in point:
                raise RingError(f"symbol {name!r} unbound in evaluation")
            v = Fraction(point[name])
            n, q = v.numerator, v.denominator
            powers[i] = [n**k * q ** (d - k) for k in range(d + 1)]
    sums = []
    for ts in terms:
        total = 0
        for mono, c in ts:
            for i, pw in powers.items():
                c *= pw[mono[i]]
            total += c
        sums.append(total)
    if not sums[1]:
        raise SingularPointError("denominator vanishes at the evaluation point")
    return Fraction(sums[0] * den._den, sums[1] * num._den)


def _residue(
    p: Poly, point: Sequence[int], prime: int, powers: dict[int, int]
) -> Optional[int]:
    """:meth:`Poly.residue`: the image of ``p`` mod ``prime`` at ``point``."""
    den = p._den
    if den % prime == 0:
        return None
    shifts = p.table._shifts
    total = 0
    for k, c in p._coeffs.items():
        value = powers.get(k)
        if value is None:
            value = 1
            for x, s in zip(point, shifts):
                e = (k >> s) & _FIELD
                if e:
                    value = value * pow(x, e, prime) % prime
            powers[k] = value
        total += c * value
    return total * pow(den, -1, prime) % prime


class PointMap:
    """Rational expressions compiled for exact evaluation at rational points.

    The map is one generated straight-line function, compiled once per text
    (:func:`_code`).  It converts its inputs to ``Fraction`` on entry and
    writes each output in Horner form (:func:`_horner`):

    * an output whose denominator is a monomial is its numerator divided
      term by term, a Laurent polynomial whose negative powers are powers
      of inverses, each computed once: s0's y is
      ``y + 1/z*w*(-2*alpha0 + 1/z*eta)``;
    * any other output is its numerator over its denominator, both over
      integer coefficients, divided once.

    The arithmetic is :class:`_PairCode`'s: ``Fraction``'s own reductions,
    written out on integer pairs, so every gcd works on operands of the
    size of the values it combines, and no gcd has to find the inputs'
    denominators again in one large sum.  Equal subexpressions are computed
    once across outputs, and an output that is an input is that input.

    ``names`` orders the inputs; every symbol occurring in an output must be
    among them.  Calling with a vanishing denominator raises
    :class:`SingularPointError`.
    """

    __slots__ = ("_kernel",)

    def __init__(self, exprs: Sequence[Union[RatExpr, Poly]], names: Sequence[str]):
        code = _PairCode(names)
        outputs = [code.output(_output_value(code, e)) for e in exprs]
        lines = [f"({''.join(n + ', ' for n in names)}) = _values"]
        for name, (n, d) in code.inputs.items():
            lines.append(f"if type({name}) is not _F: {name} = _F({name})")
            lines.append(f"{n}, {d} = {name}.numerator, {name}.denominator")
        lines += code.lines
        lines += ["return (", *(f"    {o}," for o in outputs), ")"]
        text = "def _kernel(_values):\n" + "".join(f"    {line}\n" for line in lines)
        self._kernel = FunctionType(_code(text), _POINT_GLOBALS)

    def __call__(self, values: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        return self._kernel(values)


# source of a Fraction from a coprime pair with a positive denominator that
# skips the public constructor's gcd: the private constructor Fraction's own
# operators use, renamed in Python 3.12
_COPRIME = (
    "_F._from_coprime_ints({}, {})" if hasattr(Fraction, "_from_coprime_ints")
    else "_F({}, {}, _normalize=False)"
)
_POINT_GLOBALS = {
    "_F": Fraction, "_gcd": math.gcd, "_Singular": SingularPointError,
    "_MSG": "denominator vanishes at the evaluation point",
}

# a rational value in generated code: source of its numerator and of its
# denominator, or of an integer and None
_Pair = tuple[str, Optional[str]]


class _PairCode:
    """Straight-line code on rationals held as pairs of integer locals.

    A pair is coprime with a positive denominator, as a ``Fraction`` is, and
    every operation keeps it so by ``Fraction``'s own reductions: Knuth's
    cross gcds for a product, Henrici's for a sum.  Negation is free (a sign
    on the numerator's source), and an operation already emitted on the same
    pairs is not emitted again.
    """

    def __init__(self, names: Sequence[str]):
        self.names = names
        self.inputs: dict[str, _Pair] = {}
        self.lines: list[str] = []
        self._done: dict[tuple, _Pair] = {}

    def input(self, name: str) -> _Pair:
        if name not in self.inputs:
            self.inputs[name] = (f"_{name}_n", f"_{name}_d")
        return self.inputs[name]

    def output(self, a: _Pair) -> str:
        for name, pair in self.inputs.items():
            if pair == a:
                return name
        return f"_F({a[0]})" if a[1] is None else _COPRIME.format(*a)

    def _new(self, key: tuple, make) -> _Pair:
        if key not in self._done:
            k = len(self._done)
            self._done[key] = (f"_n{k}", f"_d{k}")
            self.lines += make(*self._done[key])
        return self._done[key]

    @staticmethod
    def neg(a: _Pair) -> _Pair:
        return (_minus(a[0]), a[1])

    def inverse(self, a: _Pair) -> _Pair:
        an, ad = a
        return self._new(("inv", a), lambda n, d: [
            f"if not {an}: raise _Singular(_MSG)",
            f"{n}, {d} = ({ad}, {an}) if {an} > 0 else ({_minus(ad)}, {_minus(an)})",
        ])

    # products and sums: at least one operand is not an integer, since a sum
    # or product of monomials has at most one constant among its operands

    def mul(self, a: _Pair, b: _Pair) -> _Pair:
        if a[1] is None:
            a, b = b, a
        (an, ad), (bn, bd) = a, b
        if bd is None:
            return self._new(("mul", a, b), lambda n, d: [
                f"_g = _gcd({bn}, {ad})",
                f"{n}, {d} = {an} * ({bn} // _g), {ad} // _g",
            ])
        return self._new(("mul", a, b), lambda n, d: [
            f"_g, _h = _gcd({an}, {bd}), _gcd({bn}, {ad})",
            f"{n}, {d} = ({an} // _g) * ({bn} // _h), ({ad} // _h) * ({bd} // _g)",
        ])

    def add(self, a: _Pair, b: _Pair) -> _Pair:
        if a[1] is None:
            a, b = b, a
        (an, ad), (bn, bd) = a, b
        if bd is None:
            scaled = {"1": f"+ {ad}", "-1": f"- {ad}"}.get(bn, f"+ {bn} * {ad}")
            return self._new(("add", a, b), lambda n, d: [f"{n}, {d} = {an} {scaled}, {ad}"])
        return self._new(("add", a, b), lambda n, d: [
            f"_g = _gcd({ad}, {bd})",
            f"_s = {ad} // _g",
            f"_t = {an} * ({bd} // _g) + {bn} * _s",
            f"_h = _gcd(_t, _g)",
            f"{n}, {d} = _t // _h, _s * ({bd} // _h)",
        ])

    def power(self, a: _Pair, e: int) -> _Pair:
        if e == 1:
            return a
        an, ad = a
        return self._new(("pow", a, e), lambda n, d: [
            f"{n}, {d} = {an} ** {e}, {ad} ** {e}",
        ])


def _minus(source: str) -> str:
    return source[1:] if source.startswith("-") else "-" + source


# a term of an output: {variable pair: exponent} and an integer coefficient
_Term = tuple[dict[_Pair, int], int]


def _output_value(code: _PairCode, e: Union[RatExpr, Poly]) -> _Pair:
    """The pair of one output of a :class:`PointMap`, its code emitted."""
    num, den = (e.num, e.den) if isinstance(e, RatExpr) else (e, e.table.one)
    symbols, unpack = num.table.symbols, num.table.unpack
    for name in (*num.occurring_names(), *den.occurring_names()):
        if name not in code.names:
            raise RingError(f"symbol {name!r} unbound in evaluation")

    def terms(p: Poly, low: Monomial, scale: int) -> list[_Term]:
        out = []
        for key, c in p._coeffs.items():
            mono = {}
            for name, x, y in zip(symbols, unpack(key), low):
                if x > y:
                    mono[code.input(name)] = x - y
                elif x < y:
                    mono[code.inverse(code.input(name))] = y - x
            out.append((mono, c * scale))
        return out

    if len(den._coeffs) > 1:
        zero = (0,) * len(symbols)
        g = math.gcd(num._den, den._den)
        top = _horner(code, terms(num, zero, den._den // g))
        bottom = _horner(code, terms(den, zero, num._den // g))
        return code.mul(top, code.inverse(bottom))
    # a monic monomial denominator shares no variable with every numerator
    # term, so each of its variables has an inverse in some Laurent term
    (key, lead), = den._coeffs.items()
    laurent = terms(num, unpack(key), den._den)
    divisor = lead * num._den
    g = math.gcd(divisor, *(c for _, c in laurent))
    value = _horner(code, [(mono, c // g) for mono, c in laurent])
    return value if divisor == g else code.mul(value, ("1", str(divisor // g)))


def _horner(code: _PairCode, terms: list[_Term]) -> _Pair:
    """A sum of terms in Horner form, its code emitted.

    The variable in the most terms (the first such) is factored out of them
    to its lowest power there, p = rest + v**e*(quotient), and both parts are
    written the same way; terms that share no variable are summed one by one.
    """
    counts: dict[_Pair, int] = {}
    for mono, _ in terms:
        for v in mono:
            counts[v] = counts.get(v, 0) + 1
    best = max(counts, key=counts.__getitem__, default=None)
    if best is None or counts[best] < 2:
        values = [_monomial(code, mono, c) for mono, c in terms]
        return functools.reduce(code.add, values or [("0", None)])
    low = min(mono[best] for mono, _ in terms if best in mono)
    rest, inner = [], []
    for mono, c in terms:
        if best not in mono:
            rest.append((mono, c))
            continue
        mono = {v: x - low if v == best else x for v, x in mono.items()}
        if not mono[best]:
            del mono[best]
        inner.append((mono, c))
    value = code.mul(code.power(best, low), _horner(code, inner))
    return code.add(_horner(code, rest), value) if rest else value


def _monomial(code: _PairCode, mono: dict[_Pair, int], c: int) -> _Pair:
    value = None
    for v, x in mono.items():
        factor = code.power(v, x)
        value = factor if value is None else code.mul(value, factor)
    if value is None:
        return (str(c), None)
    if abs(c) == 1:
        return value if c > 0 else code.neg(value)
    return code.mul(value, (str(c), None))


# -- derivations ---------------------------------------------------------------------


class Derivation:
    """A table of symbol derivatives, extended by Leibniz and quotient rules.

    Symbols absent from the rule map have derivative zero; rational constants
    always differentiate to zero.  Exponential generators are ordinary
    symbols whose rule has the shape c*E.
    """

    __slots__ = ("table", "rules")

    def __init__(self, table: SymbolTable, rules: Mapping[str, object]):
        self.table = table
        self.rules: dict[str, RatExpr] = {}
        for name, value in rules.items():
            table.index(name)  # validates the symbol exists
            self.rules[name] = _coerce_binding(table, value)

    def of_poly(self, p: Poly) -> RatExpr:
        total = RatExpr(Poly.zero(self.table))
        for name, rule in self.rules.items():
            if rule.is_zero:
                continue
            part = p.partial(name)
            if part.is_zero:
                continue
            total = total + RatExpr(part) * rule
        return total

    def of(self, e: RatExpr) -> RatExpr:
        dn = self.of_poly(e.num)
        if e.den.is_const:
            return dn / e.den.const_value()
        dd = self.of_poly(e.den)
        return (dn * RatExpr(e.den) - RatExpr(e.num) * dd) / RatExpr(e.den * e.den)


def differentiate(e: RatExpr, d: Derivation) -> RatExpr:
    """Apply a derivation to a rational expression (exact)."""
    return d.of(e)


def jacobian_determinant(maps: Sequence[RatExpr], var_names: Sequence[str]) -> RatExpr:
    """Exact determinant of the partial-derivative matrix of a map.

    Uses cofactor expansion along the row with the most structural zeros;
    fine for the 5x5 matrices that occur here.
    """
    if len(maps) != len(var_names):
        raise ValueError("map length must equal number of variables")
    if not maps:
        raise ValueError("empty map")
    table = maps[0].table
    d_rules = {n: Derivation(table, {n: 1}) for n in var_names}
    matrix = [[d_rules[n].of(phi) for n in var_names] for phi in maps]
    return _det(matrix, table)


def _det(m: list[list[RatExpr]], table: SymbolTable) -> RatExpr:
    n = len(m)
    if n == 1:
        return m[0][0]
    best_row = max(range(n), key=lambda i: sum(1 for e in m[i] if e.is_zero))
    sign = 1 if best_row % 2 == 0 else -1
    total = RatExpr(Poly.zero(table))
    for j, entry in enumerate(m[best_row]):
        if entry.is_zero:
            sign = -sign
            continue
        minor = [
            [m[i][k] for k in range(n) if k != j] for i in range(n) if i != best_row
        ]
        total = total + entry * _det(minor, table) * sign
        sign = -sign
    return total
