"""The half of the exact kernel that the set-up never runs.

Substitution, the parameter relation's reduction, exact evaluation at
points (one-shot and the compiled :class:`PointMap`), the split of a
polynomial by some symbols' exponents, derivations and Jacobian
determinants live here.  A binding set is compiled once into a
:class:`Substitution` plan, which every expression substituted with it
shares: identities pass through, integer multiples of monomials become
arithmetic on the packed keys, and the other bindings keep their powers on
the plan.  The normalization alpha1 := 1 - alpha0 - alpha2 is one such plan
per table, so substitution is the only engine that rewrites a polynomial.
A :class:`Derivation` likewise compiles its rules once, cleared over one
common denominator into integer rows, so that differentiating a polynomial
is one accumulation on packed keys; a Jacobian entry is a plain partial
derivative.  :mod:`.ring` serves whatever this module defines,
binding each name in its own namespace on its first lookup there, so
``ring.substitute`` and ``from .ring import Derivation`` keep working and
importing the package does not compile this module.

Like :mod:`.ring`, this module reads the packed format of :class:`Poly`.  A
call from here to a function that the benchmark's layer trace wraps goes
through ``ring``, where the trace rebinds it: ``ring.reduce_relation``,
``ring.exact_polynomial_quotient``.
"""

from __future__ import annotations

import builtins
import functools
import math
from fractions import Fraction
from types import FunctionType
from typing import Mapping, Optional, Sequence, Union

from . import ring
from .ring import (
    _FIELD,
    _RELATION_KEEP,
    EXPONENT_BITS,
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

# -- the bodies of Poly's and SymbolTable's helpers ---------------------------------


def _pack(table: SymbolTable, mono: Sequence[int]) -> int:
    if len(mono) != len(table._units):
        raise RingError(f"exponent vector {tuple(mono)} does not fit {table.symbols}")
    key = 0
    for e, unit in zip(mono, table._units):
        if e < 0:
            raise RingError(f"negative exponent in {tuple(mono)}")
        key += e * unit
    table.check_degree(key)
    return key


def _total_degree(p: Poly, names: Optional[Sequence[str]]) -> int:
    if p.is_zero:
        return -1
    table = p.table
    if names is None:
        return next(iter(p._coeffs)) >> (EXPONENT_BITS * len(table))
    shifts = [table._shifts[table.index(n)] for n in names]
    return max(sum((k >> s) & _FIELD for s in shifts) for k in p._coeffs)


def _occurring_names(p: Poly) -> tuple[str, ...]:
    used = 0
    for k in p._coeffs:
        used |= k
    table = p.table
    return tuple(n for n, s in zip(table.symbols, table._shifts) if (used >> s) & _FIELD)


def _partial(p: Poly, name: str) -> Poly:
    """Partial derivative with respect to one symbol."""
    i = p.table.index(name)
    s, unit = p.table._shifts[i], p.table._units[i]
    out = {}
    for k, c in p._coeffs.items():
        e = (k >> s) & _FIELD
        if e:
            out[k - unit] = c * e
    return Poly._reduced(p.table, out, p._den)


# -- the parameter relation ----------------------------------------------------


@functools.cache
def _normalization(table: SymbolTable) -> Substitution:
    """The plan alpha1 := 1 - alpha0 - alpha2 over ``table``, built on first
    use and kept with its powers of the binding for every later reduction."""
    a0, a2 = (Poly.var(table, n) for n in _RELATION_KEEP)
    return Substitution({RELATION_ELIMINATED: table.one - a0 - a2}, table)


def reduce_relation(p: Poly) -> Poly:
    """Eliminate alpha1 := 1 - alpha0 - alpha2 where the table carries all three.

    The reduction is the table's :func:`_normalization` plan: a polynomial
    binding, so the result stays a polynomial over the denominator of
    ``p``.  A polynomial free of alpha1 (the zero polynomial included), or
    over a table without all three alphas, is returned itself.
    """
    t = p.table
    if not has_relation_symbols(t) or not p.involves(RELATION_ELIMINATED):
        return p
    return _normalization(t).of_poly(p).num


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
    # a bool is an int to isinstance, but True is no rational value
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return RatExpr.const(table, value)
    raise TypeError(f"cannot coerce {value!r} to a rational expression")


class Substitution:
    """A binding set compiled once, for every polynomial substituted with it.

    ``bindings`` maps names of ``source_table`` to values over ``out_table``
    (defaults to ``source_table``); a name the source table lacks raises
    :class:`SymbolMismatchError`.  Each value is coerced once, and each
    binding is one of three kinds:

    * an identity, a symbol bound to itself by name in the output table, is
      dropped: the symbol passes through as an unbound one;
    * a key map, an integer multiple c*m of a monomial (a constant or zero
      included), sends a term's exponent e of the symbol to e times the key
      of m and multiplies its coefficient by c**e, with no product built;
    * any other binding n/d becomes (L*n)/(L*d), L the lcm of the
      coefficient denominators of n and d, so that its powers are integer
      polynomials; those powers are kept here and grown on demand, for all
      the polynomials substituted.

    Unbound symbols that occur move to the output table by name.  ``names``
    holds every bound source name, identities included.
    """

    __slots__ = ("source", "out", "names", "_steps", "_powers")

    def __init__(
        self,
        bindings: Mapping[str, object],
        source_table: SymbolTable,
        out_table: Optional[SymbolTable] = None,
    ):
        out = source_table if out_table is None else out_table
        self.source, self.out = source_table, out
        unknown = [n for n in bindings if n not in source_table]
        if unknown:
            raise SymbolMismatchError(f"bindings {unknown} not in table {source_table.symbols}")
        self.names = frozenset(bindings)
        # symbol index -> (numerator powers, denominator powers or None
        # where the denominator is 1), each list [1, b, ...]
        self._powers: dict[int, tuple[list[Poly], Optional[list[Poly]]]] = {}
        maps: dict[int, tuple[int, int]] = {}  # symbol index -> (key of m, c)
        for name, value in bindings.items():
            i = source_table.index(name)
            b = _coerce_binding(out, value)
            num, den = b.num, b.den
            if den == out.one and len(num._coeffs) <= 1 and num._den == 1:
                key, c = next(iter(num._coeffs.items()), (0, 0))
                if name not in out or (key, c) != (out._units[out.index(name)], 1):
                    maps[i] = (key, c)
                continue
            scale = math.lcm(num._den, den._den)
            n, d = num.scaled(scale), den.scaled(scale)
            self._powers[i] = ([out.one, n], None if d == out.one else [out.one, d])
        # symbol index -> (key added per unit of its exponent, factor of the
        # coefficient per unit), or None for a symbol that passes through
        # but is missing from the output table.  Into the source table the
        # key keeps what passes through and loses each bound exponent; into
        # another it is built from nothing
        self._steps: dict[int, Optional[tuple[int, int]]] = {}
        same = out is source_table
        for i, (name, unit) in enumerate(zip(source_table.symbols, source_table._units)):
            if same:
                if i in maps:
                    self._steps[i] = (maps[i][0] - unit, maps[i][1])
                elif i in self._powers:
                    self._steps[i] = (-unit, 1)
            elif i in maps:
                self._steps[i] = maps[i]
            elif i not in self._powers:
                self._steps[i] = (out._units[out.index(name)], 1) if name in out else None

    @staticmethod
    def _power(pows: list[Poly], e: int) -> Poly:
        """``pows[e]``, the list [1, b, b^2, ...] grown to it first."""
        while len(pows) <= e:
            pows.append(pows[-1] * pows[1])
        return pows[e]

    def of_poly(self, p: Poly) -> RatExpr:
        """``p`` with the bindings substituted, over one common denominator.

        Every term carries d_i^(top_i - e_i) for each general binding n_i/d_i
        that occurs, top_i its largest exponent in ``p``, so the whole sum
        sits over prod d_i^top_i; terms with the same exponents in those
        symbols share one product.  The factor L^top_i common to numerator
        and denominator cancels when the quotient is made monic.
        """
        out, src = self.out, self.source
        keys = p._coeffs
        if not keys:
            return RatExpr(Poly.zero(out))
        same = out is src
        used = 0
        for k in keys:
            used |= k
        steps = []
        factors = []
        for i, s in enumerate(src._shifts):
            if not (used >> s) & _FIELD:
                continue
            if i in self._steps:
                step = self._steps[i]
                if step is None:
                    raise SymbolMismatchError(
                        f"unbound symbol {src.symbols[i]!r} missing from output table"
                    )
                steps.append((s, *step))
            if i in self._powers:
                top = max((k >> s) & _FIELD for k in keys)
                factors.append((s, top, *self._powers[i]))
        if same and not steps:
            return RatExpr(p)

        common_den = out.one
        for _, top, _, d_pows in factors:
            if d_pows is not None:
                common_den = common_den * self._power(d_pows, top)
        fields = sum(_FIELD << s for s, *_ in factors)
        products: dict[int, Poly] = {}
        acc: dict[int, int] = {}
        get = acc.get
        for k, c in keys.items():
            key = k if same else 0
            for s, delta, f in steps:
                e = (k >> s) & _FIELD
                if e:
                    key += e * delta
                    if f != 1:
                        c *= f**e
            if not c:
                continue
            if not factors:
                acc[key] = get(key, 0) + c
                continue
            pattern = k & fields
            prod = products.get(pattern)
            if prod is None:
                prod = products[pattern] = self._product(pattern, factors)
            for kk, v in prod._coeffs.items():
                kk += key
                acc[kk] = get(kk, 0) + c * v
        result = Poly._sorted(out, acc, p._den)
        # a key is a sum of keys: its top field is at least the true total
        # degree, and no lower field carries into it below DEGREE_LIMIT
        if result._coeffs:
            out.check_degree(next(iter(result._coeffs)))
        return RatExpr(result, common_den)

    def _product(self, pattern: int, factors: list) -> Poly:
        """prod n_i^e_i * d_i^(top_i - e_i), the e_i read from ``pattern``."""
        prod = self.out.one
        for s, top, n_pows, d_pows in factors:
            e = (pattern >> s) & _FIELD
            if e:
                prod = prod * self._power(n_pows, e)
            if top - e and d_pows is not None:
                prod = prod * self._power(d_pows, top - e)
        return prod


def substitute(
    e: RatExpr,
    bindings: Union[Substitution, Mapping[str, object]],
    table: Optional[SymbolTable] = None,
) -> RatExpr:
    """Simultaneous substitution into a rational expression.

    ``bindings`` is a :class:`Substitution` from ``e.table``, built once for
    every expression substituted with it, or a mapping whose values live over
    ``table`` (defaults to ``e.table``), compiled for this call.  Raises
    :class:`SingularSubstitutionError` if the substituted denominator is
    identically zero, naming the bindings involved.  With no bindings other
    than identities and no other output table, ``e`` itself is the result.
    """
    plan = bindings
    if not isinstance(plan, Substitution):
        plan = Substitution(bindings, e.table, table)
    elif e.table is not plan.source:
        raise SymbolMismatchError("substituted expression over another table than the plan's")
    elif table is not None and table is not plan.out:
        raise SymbolMismatchError("output table differs from the plan's")
    if not plan._steps and plan.out is plan.source:
        return e
    num = plan.of_poly(e.num)
    if e.den.is_const:
        return num
    den = plan.of_poly(e.den)
    if den.is_zero:
        involved = [n for n in e.den.occurring_names() if n in plan.names]
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


def split_poly(p: Poly, indices: Sequence[int], width: int) -> dict[int, Poly]:
    """``p`` split by the exponents of the symbols at ``indices``.

    Returns ``{key: part}``: the key packs the exponents of those symbols
    into one integer, big-endian in the order given and ``width`` bits each,
    so keys compare as the exponent tuples do; the part, a polynomial in the
    other symbols, is the sum of the terms with those exponents divided by
    that monomial.  Each term's packed exponent vector is split with masks,
    and the parts keep the canonical form.  Raises :class:`RingError` for an
    exponent that does not fit ``width`` bits.
    """
    table = p.table
    shifts = [table._shifts[i] for i in indices]
    fields = sum(_FIELD << s for s in shifts)
    degree_shift = EXPONENT_BITS * len(table)
    groups: dict[int, dict[int, int]] = {}
    for k, c in p._coeffs.items():
        key = degree = 0
        for s in shifts:
            e = (k >> s) & _FIELD
            if e >> width:
                raise RingError(f"exponent {e} does not fit a {width}-bit field")
            key = (key << width) | e
            degree += e
        # the rest of the key keeps its exponents; its total degree drops by
        # the exponents taken out, and descending keys stay descending
        groups.setdefault(key, {})[(k & ~fields) - (degree << degree_shift)] = c
    return {key: Poly._reduced(table, coeffs, p._den) for key, coeffs in groups.items()}


class PointMap:
    """Rational expressions compiled for exact evaluation at rational points.

    The map is one generated straight-line function on integer pairs,
    :attr:`pairs`, compiled once per text (:func:`_code`).  It takes
    ``(n0, d0, n1, d1, ...)`` in ``names`` order, each pair coprime with a
    positive denominator, and returns its outputs the same way, so a chain
    of maps passes its values along without a ``Fraction`` in between.  It
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
    once across outputs, and an output that is an input is that input's
    pair.  Bit i of :attr:`moved` is set when output i is not the input at
    position i, so a caller boxes only those outputs.

    ``names`` orders the inputs; every symbol occurring in an output must be
    among them.  A vanishing denominator raises :class:`SingularPointError`,
    and a wrong number of inputs ``ValueError``.
    """

    __slots__ = ("pairs", "moved")

    def __init__(self, exprs: Sequence[Union[RatExpr, Poly]], names: Sequence[str]):
        code = _PairCode(names)
        outputs = [_output_value(code, e) for e in exprs]
        inputs = [code.input(name) for name in names]
        self.moved = sum(
            1 << i for i, a in enumerate(outputs) if i >= len(inputs) or a != inputs[i]
        )
        lines = [f"({''.join(f'{n}, {d}, ' for n, d in inputs)}) = _flat", *code.lines,
                 "return (", *(f"    {n}, {d or 1}," for n, d in outputs), ")"]
        text = "def _kernel(_flat):\n" + "".join(f"    {line}\n" for line in lines)
        self.pairs = FunctionType(_code(text), _POINT_GLOBALS)

    @staticmethod
    def box(flat: Sequence[int], moved: int, values: Sequence[Fraction]) -> list[Fraction]:
        """The values of the pairs of ``flat``: a new ``Fraction`` of pair i
        where bit i of ``moved`` is set, else ``values[i]``, the value of that
        unmoved pair."""
        return [
            _COPRIME(flat[2 * i], flat[2 * i + 1]) if moved >> i & 1 else values[i]
            for i in range(len(flat) // 2)
        ]


def _COPRIME(numerator: int, denominator: int, /, _new=object.__new__) -> Fraction:
    """A ``Fraction`` from a coprime pair with a positive denominator, without
    the public constructor's gcd and argument checks: the two-slot fill that
    Fraction's own operators make through ``Fraction._from_coprime_ints``
    from Python 3.12 on, used on every version."""
    value = _new(Fraction)
    value._numerator = numerator
    value._denominator = denominator
    return value


# a kernel's globals bind the builtins: on 3.12 a big-int division imports
# _pylong, and the import reads __builtins__ from the running frame's globals
_POINT_GLOBALS = {
    "__builtins__": builtins, "_gcd": math.gcd, "_Singular": SingularPointError,
    "_MSG": "denominator vanishes at the evaluation point",
}

# a rational value in generated code: source of its numerator and of its
# denominator, or of an integer and None
_Pair = tuple[str, Optional[str]]


class _PairCode:
    """Straight-line code on rationals held as pairs of integer locals.

    A pair is coprime with a positive denominator, as a ``Fraction`` is, and
    every operation keeps it so by ``Fraction``'s own reductions: Knuth's
    cross gcds for a product, Henrici's for a sum.  Input ``name`` is the
    pair of locals ``_name_n, _name_d``; an output is the pair of sources it
    was computed into, so an output that is an input can be told by its
    pair.  Negation is free (a sign on the numerator's source), and an
    operation already emitted on the same pairs is not emitted again.
    """

    def __init__(self, names: Sequence[str]):
        self.names = names
        self.lines: list[str] = []
        self._done: dict[tuple, _Pair] = {}

    @staticmethod
    def input(name: str) -> _Pair:
        return (f"_{name}_n", f"_{name}_d")

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

    The rules are compiled into a plan on first use, in two stages.
    :attr:`cleared` clears the live (nonzero) rules over L, the product of
    their distinct denominators: rule_i = N_i/L.  The first derivative taken
    then holds each N_i as integer rows over one scale, so that for a
    polynomial p the numerator A of D(p) = A/L, the sum of dp/dx_i * N_i, is
    one integer accumulation over the terms of p, and D(N/M) is
    (A*M - N*B)/(L*M^2), B the numerator of D(M), normalized once.
    """

    __slots__ = ("table", "rules", "_cleared", "_rows")

    def __init__(self, table: SymbolTable, rules: Mapping[str, object]):
        self.table = table
        self.rules: dict[str, RatExpr] = {}
        for name, value in rules.items():
            table.index(name)  # validates the symbol exists
            self.rules[name] = _coerce_binding(table, value)
        self._cleared: Optional[tuple[Poly, dict[str, Poly]]] = None
        # ([(field shift, unit key, [(key, int coefficient)]) per N_i], scale)
        self._rows: Optional[tuple[list, int]] = None

    @property
    def cleared(self) -> tuple[Poly, dict[str, Poly]]:
        """(L, {symbol: N_i}): the live rules cleared, rule_i = N_i/L, in rule
        order, L the product of their distinct non-constant denominators."""
        if self._cleared is None:
            live = {n: r for n, r in self.rules.items() if not r.is_zero}
            common = self.table.one
            for den in dict.fromkeys(r.den for r in live.values() if not r.den.is_const):
                common = common * den
            self._cleared = common, {
                n: r.num * (
                    common if r.den.is_const
                    else ring.exact_polynomial_quotient(common, r.den)
                )
                for n, r in live.items()
            }
        return self._cleared

    def _numerator(self, p: Poly) -> Poly:
        """A with D(p) = A/L: each term c*m of ``p`` adds c*e_i*(m/x_i)*N_i for
        every symbol x_i of m with a live rule, by key arithmetic on the
        integer rows of N_i."""
        table = self.table
        if p.table is not table:
            raise SymbolMismatchError("differentiated expression over another table")
        if self._rows is None:
            numerators = self.cleared[1]
            scale = math.lcm(*(n._den for n in numerators.values()))
            rows = []
            for name, n in numerators.items():
                i, f = table.index(name), scale // n._den
                rows.append((table._shifts[i], table._units[i],
                             [(k, c * f) for k, c in n._coeffs.items()]))
            self._rows = rows, scale
        rows, scale = self._rows
        acc: dict[int, int] = {}
        get = acc.get
        for k, c in p._coeffs.items():
            for s, unit, items in rows:
                e = (k >> s) & _FIELD
                if e:
                    base, f = k - unit, c * e
                    for kk, v in items:
                        kk += base
                        acc[kk] = get(kk, 0) + f * v
        result = Poly._sorted(table, acc, p._den * scale)
        # as in Substitution.of_poly: the top field of a sum of keys bounds
        # the true total degree
        if result._coeffs:
            table.check_degree(next(iter(result._coeffs)))
        return result

    def of_poly(self, p: Poly) -> RatExpr:
        return RatExpr(self._numerator(p), self.cleared[0])

    def of(self, e: RatExpr) -> RatExpr:
        n, m = e.num, e.den
        a = self._numerator(n)
        # a constant denominator is 1: construction makes it monic
        if m.is_const:
            return RatExpr(a, self.cleared[0])
        return RatExpr(a * m - n * self._numerator(m), self.cleared[0] * (m * m))


def differentiate(e: RatExpr, d: Derivation) -> RatExpr:
    """Apply a derivation to a rational expression (exact)."""
    return d.of(e)


def partial_derivative(e: RatExpr, name: str) -> RatExpr:
    """d(N/M)/d``name`` by one quotient rule on :func:`_partial`:
    (N'*M - N*M')/M^2, or N' where M is 1."""
    n, m = e.num, e.den
    if m.is_const:
        return RatExpr(_partial(n, name))
    return RatExpr(_partial(n, name) * m - n * _partial(m, name), m * m)


def jacobian_determinant(maps: Sequence[RatExpr], var_names: Sequence[str]) -> RatExpr:
    """Exact determinant of the partial-derivative matrix of a map.

    Each entry is a :func:`partial_derivative`.  Uses cofactor expansion
    along the row with the most structural zeros; fine for the 5x5 matrices
    that occur here.  Repeated variable names raise :class:`ValueError`.
    """
    if len(maps) != len(var_names):
        raise ValueError("map length must equal number of variables")
    if not maps:
        raise ValueError("empty map")
    if len(set(var_names)) != len(var_names):
        raise ValueError(f"repeated variable names in {list(var_names)}")
    matrix = [[partial_derivative(phi, n) for n in var_names] for phi in maps]
    return _det(matrix, maps[0].table)


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
