"""Exact sparse multivariate polynomial and rational-expression arithmetic.

Coefficients are arbitrary-precision rationals (``fractions.Fraction``); no
floating point enters this layer.  A :class:`Poly` is a sparse list of
(coefficient, exponent-vector) terms over a fixed :class:`SymbolTable`, kept
in graded-lexicographic order.  A :class:`RatExpr` is a quotient of two
polynomials with no guaranteed GCD reduction; equality is decided by
cross-multiplication.  A :class:`Derivation` assigns to each symbol its
derivative and extends to all rational expressions by linearity, the Leibniz
rule and the quotient rule.

The only simplifications ever applied to a quotient are cheap and exact:
cancellation of a common monomial factor, a monic denominator, and collapse
to a polynomial when the denominator divides the numerator exactly.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence, Union

Monomial = tuple[int, ...]
RationalLike = Union[int, Fraction]

SYMBOL_KINDS = ("state", "independent", "parameter", "constant", "generator")


class RingError(Exception):
    """Base class for exact-arithmetic errors."""


class ZeroDivisionExprError(RingError):
    """Division by an identically-zero expression (singular formula)."""


class SingularSubstitutionError(RingError):
    """A substitution produced an identically-zero denominator."""


class SingularPointError(RingError):
    """A denominator vanished at an evaluation point (resample signal)."""


class SymbolMismatchError(RingError):
    """Operands built over different symbol tables."""


class SymbolTable:
    """Ordered list of named symbols with kind tags.

    Exponent vectors in :class:`Poly` index into this table positionally, so
    the order is fixed at construction and names must be unique.
    """

    __slots__ = ("symbols", "kinds", "_index")

    def __init__(self, symbols: Iterable[tuple[str, str]]):
        names = []
        kinds = []
        for name, kind in symbols:
            if kind not in SYMBOL_KINDS:
                raise ValueError(f"unknown symbol kind {kind!r} for {name!r}")
            if name in names:
                raise ValueError(f"duplicate symbol name {name!r}")
            names.append(name)
            kinds.append(kind)
        self.symbols: tuple[str, ...] = tuple(names)
        self.kinds: tuple[str, ...] = tuple(kinds)
        self._index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.symbols)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"symbol {name!r} not in table {self.symbols}") from None

    def kind_of(self, name: str) -> str:
        return self.kinds[self.index(name)]

    def names_of_kind(self, kind: str) -> tuple[str, ...]:
        return tuple(n for n, k in zip(self.symbols, self.kinds) if k == kind)

    @property
    def state_names(self) -> tuple[str, ...]:
        return self.names_of_kind("state")

    @property
    def indep_name(self) -> Optional[str]:
        names = self.names_of_kind("independent")
        return names[0] if names else None

    def extend(self, extra: Iterable[tuple[str, str]]) -> "SymbolTable":
        """New table with extra symbols appended (original order preserved)."""
        return SymbolTable(list(zip(self.symbols, self.kinds)) + list(extra))

    def __repr__(self) -> str:
        return "SymbolTable(%s)" % ", ".join(
            f"{n}:{k}" for n, k in zip(self.symbols, self.kinds)
        )


def _order_key(mono: Monomial) -> tuple[int, Monomial]:
    # graded lexicographic: compare total degree first, then exponents
    return (sum(mono), mono)


class Poly:
    """Sparse multivariate polynomial with rational coefficients.

    Terms are stored as a tuple of (monomial, coefficient) pairs sorted in
    descending graded-lexicographic order; no zero coefficients, no duplicate
    monomials.  Instances are immutable and hashable.
    """

    __slots__ = ("table", "terms", "_hash")

    def __init__(self, table: SymbolTable, terms: Mapping[Monomial, Fraction]):
        cleaned = {m: c for m, c in terms.items() if c != 0}
        self.table = table
        self.terms: tuple[tuple[Monomial, Fraction], ...] = tuple(
            sorted(cleaned.items(), key=lambda t: _order_key(t[0]), reverse=True)
        )
        self._hash: Optional[int] = None

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: SymbolTable) -> "Poly":
        return Poly(table, {})

    @staticmethod
    def const(table: SymbolTable, value: RationalLike) -> "Poly":
        c = Fraction(value)
        if c == 0:
            return Poly.zero(table)
        return Poly(table, {(0,) * len(table): c})

    @staticmethod
    def var(table: SymbolTable, name: str, power: int = 1) -> "Poly":
        mono = [0] * len(table)
        mono[table.index(name)] = power
        return Poly(table, {tuple(mono): Fraction(1)})

    # -- basic queries -----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_const(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and sum(self.terms[0][0]) == 0)

    def const_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_const:
            raise ValueError("not a constant polynomial")
        return self.terms[0][1]

    @property
    def leading(self) -> tuple[Monomial, Fraction]:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading term")
        return self.terms[0]

    def total_degree(self, names: Optional[Sequence[str]] = None) -> int:
        """Max total degree over the given symbols (all symbols if None).

        Returns -1 for the zero polynomial.
        """
        if self.is_zero:
            return -1
        if names is None:
            return max(sum(m) for m, _ in self.terms)
        idx = [self.table.index(n) for n in names]
        return max(sum(m[i] for i in idx) for m, _ in self.terms)

    def involves(self, name: str) -> bool:
        i = self.table.index(name)
        return any(m[i] for m, _ in self.terms)

    def occurring_names(self) -> tuple[str, ...]:
        used = set()
        for m, _ in self.terms:
            for i, e in enumerate(m):
                if e:
                    used.add(i)
        return tuple(self.table.symbols[i] for i in sorted(used))

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.table is not other.table:
            raise SymbolMismatchError("polynomials over different symbol tables")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for m, c in other.terms:
            s = out.get(m, Fraction(0)) + c
            if s:
                out[m] = s
            elif m in out:
                del out[m]
        return Poly(self.table, out)

    def __neg__(self) -> "Poly":
        return Poly(self.table, {m: -c for m, c in self.terms})

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        self._check(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms:
            for m2, c2 in other.terms:
                m = tuple(a + b for a, b in zip(m1, m2))
                s = out.get(m, Fraction(0)) + c1 * c2
                if s:
                    out[m] = s
                elif m in out:
                    del out[m]
        return Poly(self.table, out)

    def scaled(self, c: RationalLike) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly.zero(self.table)
        return Poly(self.table, {m: coeff * c for m, coeff in self.terms})

    def mul_monomial(self, mono: Monomial, coeff: Fraction = Fraction(1)) -> "Poly":
        if coeff == 0:
            return Poly.zero(self.table)
        return Poly(
            self.table,
            {tuple(a + b for a, b in zip(m, mono)): c * coeff for m, c in self.terms},
        )

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a Poly; use RatExpr")
        result = Poly.const(self.table, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- calculus and evaluation -------------------------------------------

    def partial(self, name: str) -> "Poly":
        """Partial derivative with respect to one symbol."""
        i = self.table.index(name)
        out: dict[Monomial, Fraction] = {}
        for m, c in self.terms:
            e = m[i]
            if not e:
                continue
            mm = list(m)
            mm[i] = e - 1
            out[tuple(mm)] = c * e
        return Poly(self.table, out)

    def evaluate(self, point: Mapping[str, RationalLike]) -> Fraction:
        """Exact value at a rational point; every occurring symbol must be bound."""
        return _evaluate_at(self, point)

    # -- structure ---------------------------------------------------------

    def monomial_content(self) -> Monomial:
        """Per-symbol minimum exponent over all terms (zero poly: all zeros)."""
        if self.is_zero:
            return (0,) * len(self.table)
        mins = list(self.terms[0][0])
        for m, _ in self.terms[1:]:
            for i, e in enumerate(m):
                if e < mins[i]:
                    mins[i] = e
        return tuple(mins)

    def shift_down(self, mono: Monomial) -> "Poly":
        return Poly(
            self.table,
            {tuple(a - b for a, b in zip(m, mono)): c for m, c in self.terms},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.table is other.table and self.terms == other.terms

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.terms)
        return self._hash

    def __repr__(self) -> str:
        from .syntax import render_poly

        return render_poly(self)


def exact_polynomial_quotient(n: Poly, d: Poly) -> Optional[Poly]:
    """Quotient q with n = q*d exactly, or None if the division is not exact.

    Single-divisor reduction in graded-lexicographic order: if the division
    is exact the leading term of the remainder is always divisible by the
    leading term of d, so a single non-divisible leading term certifies
    inexactness.
    """
    if d.is_zero:
        raise ZeroDivisionExprError("exact division by the zero polynomial")
    if n.is_zero:
        return Poly.zero(n.table)
    if n.table is not d.table:
        raise SymbolMismatchError("quotient operands over different tables")
    lt_mono, lt_coeff = d.leading
    rem = {m: c for m, c in n.terms}
    quot: dict[Monomial, Fraction] = {}
    while rem:
        m = max(rem, key=_order_key)
        c = rem[m]
        diff = tuple(a - b for a, b in zip(m, lt_mono))
        if any(e < 0 for e in diff):
            return None
        ratio = c / lt_coeff
        quot[diff] = quot.get(diff, Fraction(0)) + ratio
        for dm, dc in d.terms:
            mm = tuple(a + b for a, b in zip(dm, diff))
            s = rem.get(mm, Fraction(0)) - ratio * dc
            if s:
                rem[mm] = s
            elif mm in rem:
                del rem[mm]
    return Poly(n.table, quot)


class RatExpr:
    """Quotient of two polynomials over a shared symbol table.

    The denominator is never identically zero.  No canonical GCD reduction is
    performed; equality is cross-multiplication (a/b = c/d iff a*d - c*b = 0).
    Construction applies only exact cosmetic normalizations: common monomial
    factors are cancelled, the denominator is made monic, and if the
    denominator divides the numerator exactly the expression collapses to a
    polynomial.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Optional[Poly] = None):
        if den is None:
            den = Poly.const(num.table, 1)
        if num.table is not den.table:
            raise SymbolMismatchError("numerator/denominator table mismatch")
        if den.is_zero:
            raise ZeroDivisionExprError("identically-zero denominator")
        if num.is_zero:
            den = Poly.const(num.table, 1)
        else:
            nc = num.monomial_content()
            dc = den.monomial_content()
            common = tuple(min(a, b) for a, b in zip(nc, dc))
            if any(common):
                num = num.shift_down(common)
                den = den.shift_down(common)
            lead = den.leading[1]
            if lead != 1:
                inv = 1 / lead
                num = num.scaled(inv)
                den = den.scaled(inv)
            # after content cancellation a one-term denominator never divides
            # exactly; for multi-term ones the collapse attempt is what keeps
            # chained eliminations from swelling, and it bails out at the
            # first non-divisible leading term when the quotient is not exact
            if not den.is_const and len(den.terms) > 1:
                q = exact_polynomial_quotient(num, den)
                if q is not None:
                    num, den = q, Poly.const(num.table, 1)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------------

    @staticmethod
    def const(table: SymbolTable, value: RationalLike) -> "RatExpr":
        return RatExpr(Poly.const(table, value))

    @staticmethod
    def sym(table: SymbolTable, name: str) -> "RatExpr":
        return RatExpr(Poly.var(table, name))

    @property
    def table(self) -> SymbolTable:
        return self.num.table

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.is_const

    def as_poly(self) -> Poly:
        if not self.den.is_const:
            raise ValueError("expression has a nontrivial denominator")
        return self.num.scaled(1 / self.den.const_value())

    # -- coercion and arithmetic ---------------------------------------------

    def _coerce(self, other: object) -> Optional["RatExpr"]:
        if isinstance(other, RatExpr):
            if other.table is not self.table:
                raise SymbolMismatchError("expressions over different symbol tables")
            return other
        if isinstance(other, Poly):
            return RatExpr(other)
        if isinstance(other, (int, Fraction)):
            return RatExpr.const(self.table, other)
        return None

    def __add__(self, other: object) -> "RatExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RatExpr(self.num + o.num, self.den)
        return RatExpr(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatExpr":
        return RatExpr(-self.num, self.den)

    def __sub__(self, other: object) -> "RatExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "RatExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "RatExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatExpr(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RatExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.num.is_zero:
            raise ZeroDivisionExprError("division by an identically-zero expression")
        return RatExpr(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other: object) -> "RatExpr":
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, n: int) -> "RatExpr":
        if n < 0:
            if self.num.is_zero:
                raise ZeroDivisionExprError("negative power of zero expression")
            return RatExpr(self.den ** (-n), self.num ** (-n))
        return RatExpr(self.num**n, self.den**n)

    def __eq__(self, other: object) -> bool:
        # structural equality; use equals() for cross-multiplication equality
        if not isinstance(other, RatExpr):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def equals(self, other: object) -> bool:
        o = self._coerce(other)
        if o is None:
            raise TypeError(f"cannot compare RatExpr with {type(other)!r}")
        return is_identically_zero(self - o)

    def __repr__(self) -> str:
        from .syntax import render_ratexpr

        return render_ratexpr(self)


def syms(table: SymbolTable, names: str) -> tuple[RatExpr, ...]:
    """Convenience: build symbol expressions from a space-separated list."""
    return tuple(RatExpr.sym(table, n) for n in names.split())


def ring_ops(a: RatExpr, b: RatExpr, op: str) -> RatExpr:
    """Exact field operation on rational expressions (add|sub|mul|div)."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown ring operation {op!r}")


# -- the parameter relation ----------------------------------------------------

RELATION_ELIMINATED = "alpha1"
_RELATION_KEEP = ("alpha0", "alpha2")


def has_relation_symbols(table: SymbolTable) -> bool:
    """Whether the normalization applies: the table carries all three alphas."""
    return all(n in table for n in (RELATION_ELIMINATED,) + _RELATION_KEEP)


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
    return reduce_relation(e.num).is_zero


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
    bound: dict[int, RatExpr] = {}
    for name, value in bindings.items():
        if name in p.table:
            bound[p.table.index(name)] = _coerce_binding(out, value)
    if p.is_zero:
        return RatExpr(Poly.zero(out))

    maxexp: dict[int, int] = {}
    for m, _ in p.terms:
        for i in bound:
            if m[i] > maxexp.get(i, 0):
                maxexp[i] = m[i]
    # drop bindings of symbols that do not occur
    bound = {i: b for i, b in bound.items() if maxexp.get(i, 0) > 0}

    num_pows: dict[int, list[Poly]] = {}
    den_pows: dict[int, list[Poly]] = {}
    for i, b in bound.items():
        num_pows[i] = [Poly.const(out, 1)]
        den_pows[i] = [Poly.const(out, 1)]
        for _ in range(maxexp[i]):
            num_pows[i].append(num_pows[i][-1] * b.num)
            den_pows[i].append(den_pows[i][-1] * b.den)

    common_den = Poly.const(out, 1)
    for i in bound:
        common_den = common_den * den_pows[i][maxexp[i]]

    same_table = out is p.table
    passthrough: dict[int, int] = {}

    result = Poly.zero(out)
    for m, c in p.terms:
        term = Poly.const(out, c)
        pass_mono = [0] * len(out)
        for i, e in enumerate(m):
            if not e or i in bound:
                continue
            if i not in passthrough:
                name = p.table.symbols[i]
                if same_table:
                    passthrough[i] = i
                elif name in out:
                    passthrough[i] = out.index(name)
                else:
                    raise SymbolMismatchError(
                        f"unbound symbol {name!r} missing from output table"
                    )
            pass_mono[passthrough[i]] += e
        # every term carries den_i^(maxexp_i - e_i), also when e_i = 0, so
        # that the whole sum sits over the single common denominator
        for i, b in bound.items():
            e = m[i]
            if e:
                term = term * num_pows[i][e]
            if maxexp[i] - e:
                term = term * den_pows[i][maxexp[i] - e]
        if any(pass_mono):
            term = term.mul_monomial(tuple(pass_mono))
        result = result + term
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


def evaluate(e: RatExpr, point: Mapping[str, RationalLike]) -> Fraction:
    """Exact rational value at a point; all occurring symbols must be bound.

    Raises :class:`SingularPointError` when the denominator vanishes at the
    point (a resampling signal, distinct from an identically-zero divisor).
    """
    return _evaluate_at(e, point)


# -- exact point evaluation ---------------------------------------------------------


def _evaluate_at(
    e: Union[RatExpr, Poly], point: Mapping[str, RationalLike]
) -> Fraction:
    names = [n for n in point if n in e.table]
    return PointMap([e], names)([point[n] for n in names])[0]


class PointMap:
    """Rational expressions compiled for exact evaluation at rational points.

    Each output num/den is scaled by the lcm of its coefficient denominators
    and homogenised in every input v_k = n_k/d_k to the largest exponent D_k
    of v_k in that output: a term c*prod v_k^e_k becomes
    c*prod n_k^e_k * d_k^(D_k - e_k).  Numerator and denominator then carry
    the same factor prod d_k^D_k, which cancels, so each value is
    ``Fraction(N, M)`` of two integer sums: one gcd per output and no
    ``Fraction`` arithmetic per term.  An output that is a single input or
    its negative is read off directly.

    ``names`` orders the inputs; every symbol occurring in an output must be
    among them.  Calling with a vanishing denominator raises
    :class:`SingularPointError`.
    """

    __slots__ = ("_top", "_outputs")

    def __init__(self, exprs: Sequence[Union[RatExpr, Poly]], names: Sequence[str]):
        top = [0] * len(names)
        outputs = []
        for e in exprs:
            num, den = (e.num, e.den) if isinstance(e, RatExpr) else (e, None)
            table = num.table
            where = {table.index(n): k for k, n in enumerate(names) if n in table}
            outputs.append(_compile_output(num, den, where, top))
        self._top = tuple(top)
        self._outputs = tuple(outputs)

    def __call__(self, values: Sequence[RationalLike]) -> tuple[Fraction, ...]:
        npow: list[list[int]] = []
        dpow: list[list[int]] = []
        for v, deg in zip(values, self._top, strict=True):
            n, d = v.numerator, v.denominator
            ns, ds = [1], [1]
            for _ in range(deg):
                ns.append(ns[-1] * n)
                ds.append(ds[-1] * d)
            npow.append(ns)
            dpow.append(ds)
        out = []
        for sign, k, num_terms, den_terms in self._outputs:
            if sign:
                v = values[k]
                if type(v) is not Fraction:
                    v = Fraction(v)
                out.append(v if sign > 0 else -v)
                continue
            sums = []
            for terms in (num_terms, den_terms):
                total = 0
                for c, factors in terms:
                    for i, e, r in factors:
                        c *= npow[i][e] * dpow[i][r]
                    total += c
                sums.append(total)
            if not sums[1]:
                raise SingularPointError("denominator vanishes at the evaluation point")
            out.append(Fraction(sums[0], sums[1]))
        return tuple(out)


def _compile_output(
    num: Poly, den: Optional[Poly], where: Mapping[int, int], top: list[int]
) -> tuple:
    """One output of a :class:`PointMap`: (sign, k, num terms, den terms).

    A nonzero sign means the output is sign * (input k); otherwise the term
    lists hold (integer coefficient, ((k, e_k, D_k - e_k), ...)) entries.
    """
    if den is None:
        den = Poly.const(num.table, 1)
    if den.is_const and den.const_value() == 1 and len(num.terms) == 1:
        mono, c = num.terms[0]
        used = [i for i, e in enumerate(mono) if e]
        if len(used) == 1 and mono[used[0]] == 1 and c in (1, -1) and used[0] in where:
            return (int(c), where[used[0]], (), ())
    degree: dict[int, int] = {}
    scale = 1
    for mono, c in num.terms + den.terms:
        scale = math.lcm(scale, c.denominator)
        for i, e in enumerate(mono):
            if e > degree.get(i, 0):
                degree[i] = e
    for i in degree:
        if i not in where:
            raise RingError(f"symbol {num.table.symbols[i]!r} unbound in evaluation")
    slots = [(i, where[i], d) for i, d in sorted(degree.items())]
    for _, k, d in slots:
        top[k] = max(top[k], d)

    def compiled(terms):
        return tuple(
            (int(c * scale), tuple((k, mono[i], d - mono[i]) for i, k, d in slots))
            for mono, c in terms
        )

    return (0, 0, compiled(num.terms), compiled(den.terms))


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
