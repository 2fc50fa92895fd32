"""Exact sparse multivariate polynomial and rational-expression arithmetic.

No floating point enters this layer.  A :class:`Poly` over a fixed
:class:`SymbolTable` holds integer coefficients over one positive common
denominator, keyed by packed exponent vectors: an exponent vector is one
integer, whose top field is the total degree and whose lower fields are the
exponents, symbol 0 first.  Keys then compare as their exponent vectors do
in graded-lexicographic order, and multiplying two monomials is adding their
keys.  Every field is ``EXPONENT_BITS`` = 64 bits wide, its top bit a guard,
so a total degree of ``DEGREE_LIMIT`` = 2**63 or more raises
:class:`RingError` instead of wrapping into the next field.  A
:class:`RatExpr` is a quotient of two polynomials with no
guaranteed GCD reduction; equality is decided by cross-multiplication.  A
:class:`Derivation` assigns to each symbol its derivative and extends to all
rational expressions by linearity, the Leibniz rule and the quotient rule.

The only simplifications ever applied to a quotient are cheap and exact:
cancellation of a common monomial factor, a monic denominator, and collapse
to a polynomial when the denominator divides the numerator exactly.

This module holds what building the registry runs: the symbol table, the
polynomial and quotient arithmetic, exact division, the parameter
relation's symbols and the compile cache of generated kernels (:func:`_code`).
Substitution, :func:`reduce_relation`, :func:`is_identically_zero`,
evaluation at points, :class:`PointMap`, :class:`Derivation` and
:func:`jacobian_determinant` live in :mod:`._ring_lazy`, which loads the
first time one of its names is looked up here (module ``__getattr__``,
PEP 562) and then binds them all in this namespace.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from fractions import Fraction
from itertools import chain, islice
from types import CodeType
from typing import Iterable, Mapping, Optional, Sequence, Union

Monomial = tuple[int, ...]
RationalLike = Union[int, Fraction]

SYMBOL_KINDS = ("state", "independent", "parameter", "constant", "generator")

# The top bit of every exponent field is a guard: it shows a borrow when one
# key is subtracted from another, and a sum of two keys below DEGREE_LIMIT
# cannot carry out of a field.
EXPONENT_BITS = 64
DEGREE_LIMIT = 1 << (EXPONENT_BITS - 1)
_FIELD = (1 << EXPONENT_BITS) - 1


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

    Exponent vectors index into this table positionally, so the order is
    fixed at construction and names must be unique.  The table also fixes
    how an exponent vector packs into one integer key (see :meth:`pack`).
    """

    __slots__ = (
        "symbols", "kinds", "_index", "_shifts", "_units", "_guards", "_cap", "one",
    )

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
        n = len(names)
        degree_shift = EXPONENT_BITS * n
        # symbol i sits at _shifts[i]; _units[i] is the key of that symbol
        self._shifts = tuple(EXPONENT_BITS * (n - 1 - i) for i in range(n))
        self._units = tuple((1 << s) + (1 << degree_shift) for s in self._shifts)
        self._guards = sum(1 << (s + EXPONENT_BITS - 1) for s in self._shifts)
        self._cap = DEGREE_LIMIT << degree_shift
        self.one = Poly._make(self, {0: 1}, 1)

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

    # -- packed exponent vectors ---------------------------------------------

    def pack(self, mono: Sequence[int]) -> int:
        """The key of an exponent vector: total degree in the top field, then
        one field per symbol, symbol 0 highest.  Raises :class:`RingError`
        for a vector of the wrong length, a negative exponent or a total
        degree of ``DEGREE_LIMIT`` or more."""
        if len(mono) != len(self._units):
            raise RingError(f"exponent vector {tuple(mono)} does not fit {self.symbols}")
        key = 0
        for e, unit in zip(mono, self._units):
            if e < 0:
                raise RingError(f"negative exponent in {tuple(mono)}")
            key += e * unit
        self.check_degree(key)
        return key

    def unpack(self, key: int) -> Monomial:
        return tuple((key >> s) & _FIELD for s in self._shifts)

    def check_degree(self, key: int) -> None:
        """Refuse a key whose total degree no longer fits the exponent fields."""
        if key >= self._cap:
            raise RingError(
                f"total degree {key >> (EXPONENT_BITS * len(self._units))} overflows "
                f"the {EXPONENT_BITS}-bit exponent fields (limit {DEGREE_LIMIT - 1})"
            )

    def __repr__(self) -> str:
        return "SymbolTable(%s)" % ", ".join(
            f"{n}:{k}" for n, k in zip(self.symbols, self.kinds)
        )


def _content(table: SymbolTable, keys: Iterable[int]) -> int:
    """Key of the per-symbol minimum exponent over ``keys`` (0 if none)."""
    guards = table._guards
    degree_shift = EXPONENT_BITS * len(table)
    fields = (1 << degree_shift) - 1  # every exponent field, not the degree
    mins = None
    for key in keys:
        key &= fields
        if mins is None:
            mins = key
        else:
            # a guard bit survives (mins|guards) - key where mins >= key in its
            # field; spread it over the field to pick key's exponent there
            pick = ((((mins | guards) - key) & guards) >> (EXPONENT_BITS - 1)) * _FIELD
            mins = (key & pick) | (mins & ~pick)
        if not mins:
            return 0
    if mins is None:
        return 0
    return mins + (sum((mins >> s) & _FIELD for s in table._shifts) << degree_shift)


class Poly:
    """Sparse multivariate polynomial with rational coefficients.

    A polynomial is ``{key: integer coefficient}`` over one positive integer
    denominator, where a key is a packed exponent vector
    (:meth:`SymbolTable.pack`: 64-bit fields, total degree below 2**63, a
    larger one raises :class:`RingError`).  It is kept canonical: no zero coefficients,
    keys in descending order (descending graded-lexicographic order of the
    exponent vectors), and the denominator coprime to the coefficients as a
    whole.  ``Poly(table, {monomial: coefficient})`` builds one from exponent
    tuples and rationals, and :attr:`terms` reads it back in that form.
    Instances are immutable and hashable.
    """

    __slots__ = ("table", "_coeffs", "_den", "_hash")

    def __init__(self, table: SymbolTable, terms: Mapping[Monomial, RationalLike]):
        pairs = [(table.pack(m), Fraction(c)) for m, c in terms.items() if c]
        # over the lcm of the denominators, the coefficients share no factor
        # with it: each prime of the lcm misses the numerator it came from
        den = math.lcm(*(c.denominator for _, c in pairs))
        self.table = table
        self._coeffs = {
            k: c.numerator * (den // c.denominator) for k, c in sorted(pairs, reverse=True)
        }
        self._den = den
        self._hash = None

    @staticmethod
    def _make(table: SymbolTable, coeffs: dict[int, int], den: int) -> "Poly":
        """A polynomial from its canonical parts, taken as they are."""
        p = object.__new__(Poly)
        p.table = table
        p._coeffs = coeffs
        p._den = den
        p._hash = None
        return p

    @staticmethod
    def _reduced(table: SymbolTable, coeffs: dict[int, int], den: int) -> "Poly":
        """A polynomial from nonzero coefficients in descending key order,
        the common factor of the coefficients and ``den`` divided out."""
        if den != 1:
            g = math.gcd(den, *coeffs.values())
            if g != 1:
                coeffs = {k: c // g for k, c in coeffs.items()}
                den //= g
        return Poly._make(table, coeffs, den)

    @staticmethod
    def _sorted(table: SymbolTable, coeffs: dict[int, int], den: int) -> "Poly":
        """Like :meth:`_reduced`, for coefficients in any order, some zero."""
        keys = sorted([k for k, c in coeffs.items() if c], reverse=True)
        return Poly._reduced(table, {k: coeffs[k] for k in keys}, den)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(table: SymbolTable) -> "Poly":
        return Poly._make(table, {}, 1)

    @staticmethod
    def const(table: SymbolTable, value: RationalLike) -> "Poly":
        c = Fraction(value)
        if c == 0:
            return Poly.zero(table)
        return Poly._make(table, {0: c.numerator}, c.denominator)

    @staticmethod
    def var(table: SymbolTable, name: str, power: int = 1) -> "Poly":
        i = table.index(name)
        if power < 0:
            raise RingError(f"negative power {power} of {name!r}")
        key = power * table._units[i]
        table.check_degree(key)
        return Poly._make(table, {key: 1}, 1)

    # -- basic queries -----------------------------------------------------

    @property
    def terms(self) -> tuple[tuple[Monomial, Fraction], ...]:
        """(exponent tuple, Fraction) pairs in descending graded-lex order."""
        unpack, den = self.table.unpack, self._den
        return tuple((unpack(k), Fraction(c, den)) for k, c in self._coeffs.items())

    @property
    def term_count(self) -> int:
        """The number of nonzero terms, without building them."""
        return len(self._coeffs)

    @property
    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def is_const(self) -> bool:
        # 0 is the smallest key, so it leads only when it is the only one
        return not self._coeffs or next(iter(self._coeffs)) == 0

    def const_value(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        if not self.is_const:
            raise ValueError("not a constant polynomial")
        return Fraction(self._coeffs[0], self._den)

    def total_degree(self, names: Optional[Sequence[str]] = None) -> int:
        """Max total degree over the given symbols (all symbols if None).

        Returns -1 for the zero polynomial.
        """
        if self.is_zero:
            return -1
        table = self.table
        if names is None:
            return next(iter(self._coeffs)) >> (EXPONENT_BITS * len(table))
        shifts = [table._shifts[table.index(n)] for n in names]
        return max(sum((k >> s) & _FIELD for s in shifts) for k in self._coeffs)

    def involves(self, name: str) -> bool:
        s = self.table._shifts[self.table.index(name)]
        return any((k >> s) & _FIELD for k in self._coeffs)

    def occurring_names(self) -> tuple[str, ...]:
        used = 0
        for k in self._coeffs:
            used |= k
        table = self.table
        return tuple(n for n, s in zip(table.symbols, table._shifts) if (used >> s) & _FIELD)

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "Poly") -> None:
        if self.table is not other.table:
            raise SymbolMismatchError("polynomials over different symbol tables")

    def _combine(self, other: "Poly", sign: int) -> "Poly":
        """self + sign*other."""
        self._check(other)
        b = other._coeffs
        if not b:
            return self
        a = self._coeffs
        if not a:
            return other if sign > 0 else -other
        da, db = self._den, other._den
        if da == db:
            out = dict(a)
            fb = sign
        else:
            g = math.gcd(da, db)
            fa, fb = db // g, da // g * sign
            out = {k: c * fa for k, c in a.items()}
            da *= fa
        fresh = False
        for k, c in b.items():
            s = out.get(k)
            if s is None:
                out[k] = c * fb
                fresh = True
            else:
                s += c * fb
                if s:
                    out[k] = s
                else:
                    del out[k]
        if fresh:
            out = {k: out[k] for k in sorted(out, reverse=True)}
        return Poly._reduced(self.table, out, da)

    def __add__(self, other: "Poly") -> "Poly":
        return self._combine(other, 1)

    def __sub__(self, other: "Poly") -> "Poly":
        return self._combine(other, -1)

    def __neg__(self) -> "Poly":
        return Poly._make(self.table, {k: -c for k, c in self._coeffs.items()}, self._den)

    def __mul__(self, other: "Poly") -> "Poly":
        table = self.table
        if table is not other.table:
            self._check(other)
        pa, pb = self, other
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return Poly.zero(table)
        if len(a) > len(b):
            pa, pb, a, b = pb, pa, b, a
        top = next(iter(a)) + next(iter(b))
        if top >= table._cap:
            table.check_degree(top)
        if len(a) == 1:
            # a monomial factor keeps the order of the other's keys
            (ka, ca), = a.items()
            if not ka and ca == pa._den:
                return pb
            return Poly._reduced(
                table, {ka + k: ca * c for k, c in b.items()}, pa._den * pb._den
            )
        den = pa._den * pb._den
        out: dict[int, int] = {}
        get = out.get
        for ka, ca in a.items():
            for kb, cb in b.items():
                k = ka + kb
                out[k] = get(k, 0) + ca * cb
        return Poly._sorted(table, out, den)

    def scaled(self, c: RationalLike) -> "Poly":
        if type(c) is not int:
            c = Fraction(c)
            p, q = c.numerator, c.denominator
        else:
            p, q = c, 1
        if not p:
            return Poly.zero(self.table)
        if p == q == 1:
            return self
        return Poly._reduced(
            self.table, {k: v * p for k, v in self._coeffs.items()}, self._den * q
        )

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a Poly; use RatExpr")
        result = self.table.one
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
        s, unit = self.table._shifts[i], self.table._units[i]
        out = {}
        for k, c in self._coeffs.items():
            e = (k >> s) & _FIELD
            if e:
                out[k - unit] = c * e
        return Poly._reduced(self.table, out, self._den)

    def evaluate(self, point: Mapping[str, RationalLike]) -> Fraction:
        """Exact value at a rational point; every occurring symbol must be bound."""
        return _ring.evaluate(self, point)

    def residue(self, point: Sequence[int], prime: int, powers: dict[int, int]) -> Optional[int]:
        """The image mod ``prime`` at ``point``, one residue per symbol in
        table order, or None when ``prime`` divides the denominator.
        ``powers`` caches the value of each monomial at the point, so one
        dict serves every polynomial taken at that point."""
        return _ring._residue(self, point, prime, powers)

    # -- structure ---------------------------------------------------------

    def _shifted(self, key: int) -> "Poly":
        return Poly._make(
            self.table, {k - key: c for k, c in self._coeffs.items()}, self._den
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return (
            self.table is other.table
            and self._den == other._den
            and self._coeffs == other._coeffs
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._den, tuple(self._coeffs.items())))
        return self._hash

    def __repr__(self) -> str:
        from .syntax import render_poly

        return render_poly(self)


def exact_polynomial_quotient(n: Poly, d: Poly) -> Optional[Poly]:
    """Quotient q with n = q*d exactly, or None if the division is not exact.

    Single-divisor reduction in graded-lexicographic order: if the division
    is exact the leading term of the remainder is always divisible by the
    leading term of d, so a single non-divisible leading term certifies
    inexactness.  The remainder and quotient stay integer, over a common
    scale that grows only when a leading coefficient of the remainder is not
    a multiple of the leading coefficient of d.
    """
    if d.is_zero:
        raise ZeroDivisionExprError("exact division by the zero polynomial")
    if n.is_zero:
        return Poly.zero(n.table)
    if n.table is not d.table:
        raise SymbolMismatchError("quotient operands over different tables")
    guards = n.table._guards
    lt, lc = next(iter(d._coeffs.items()))
    rem = dict(n._coeffs)
    quot: dict[int, int] = {}
    scale = 1
    while rem:
        m = max(rem)
        # a field of m below that of lt borrows from, and clears, its guard bit
        if ((m | guards) - lt) & guards != guards:
            return None
        c = rem.pop(m)
        if c % lc:
            f = abs(lc) // math.gcd(c, lc)
            c *= f
            scale *= f
            rem = {k: v * f for k, v in rem.items()}
            quot = {k: v * f for k, v in quot.items()}
        t = c // lc
        diff = m - lt
        # the leading monomials of the remainder strictly fall, so the
        # quotient's keys arrive in descending order
        quot[diff] = t
        for k, v in islice(d._coeffs.items(), 1, None):
            k += diff
            s = rem.get(k, 0) - t * v
            if s:
                rem[k] = s
            else:
                del rem[k]
    # n/d = (N/dn)/(D/dd) with N/D = quot/scale
    dd = d._den
    return Poly._reduced(n.table, {k: v * dd for k, v in quot.items()}, scale * n._den)


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
        table = num.table
        if den is None:
            den = table.one
        elif den.table is not table:
            raise SymbolMismatchError("numerator/denominator table mismatch")
        if not den._coeffs:
            raise ZeroDivisionExprError("identically-zero denominator")
        if not num._coeffs:
            den = table.one
        else:
            # a constant term (key 0, the last) leaves no monomial content
            if next(reversed(num._coeffs)) and next(reversed(den._coeffs)):
                common = _content(table, chain(num._coeffs, den._coeffs))
                if common:
                    num = num._shifted(common)
                    den = den._shifted(common)
            lead = next(iter(den._coeffs.values()))
            if lead != den._den:
                inv = Fraction(den._den, lead)
                num = num.scaled(inv)
                den = den.scaled(inv)
            # after content cancellation a one-term denominator never divides
            # exactly; for multi-term ones the collapse attempt is what keeps
            # chained eliminations from swelling, and it bails out at the
            # first non-divisible leading term when the quotient is not exact
            if len(den._coeffs) > 1:
                q = exact_polynomial_quotient(num, den)
                if q is not None:
                    num, den = q, table.one
        self.num = num
        self.den = den

    @staticmethod
    def _normal(num: Poly, den: Poly) -> "RatExpr":
        """A quotient already in the form construction gives, taken as it is."""
        if not num._coeffs:
            return RatExpr(num)
        e = object.__new__(RatExpr)
        e.num = num
        e.den = den
        return e

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
    #
    # A constant operand c takes a shorter path with the same result.  Adding
    # c*den to the numerator or scaling it by c != 0 changes neither the
    # monomial content shared with the denominator (none), nor the monic
    # denominator, nor whether the denominator divides the numerator (it
    # does not, or the expression would be a polynomial), so the sum or
    # product is already in the form construction gives.

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
        if isinstance(other, (int, Fraction)):
            return RatExpr._normal(self.num + self.den.scaled(other), self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return RatExpr(self.num + o.num, self.den)
        return RatExpr(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self) -> "RatExpr":
        return RatExpr._normal(-self.num, self.den)

    def __sub__(self, other: object) -> "RatExpr":
        if isinstance(other, (int, Fraction)):
            return RatExpr._normal(self.num - self.den.scaled(other), self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other: object) -> "RatExpr":
        if isinstance(other, (int, Fraction)):
            return RatExpr._normal(self.den.scaled(other) - self.num, self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o + (-self)

    def __mul__(self, other: object) -> "RatExpr":
        if isinstance(other, (int, Fraction)):
            return RatExpr._normal(self.num.scaled(other), self.den)
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return RatExpr(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other: object) -> "RatExpr":
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionExprError("division by an identically-zero expression")
            return RatExpr._normal(self.num.scaled(1 / Fraction(other)), self.den)
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
        return _ring.is_identically_zero(self - o)

    def __repr__(self) -> str:
        from .syntax import render_ratexpr

        return render_ratexpr(self)


def syms(table: SymbolTable, names: str) -> tuple[RatExpr, ...]:
    """Convenience: build symbol expressions from a space-separated list."""
    return tuple(RatExpr.sym(table, n) for n in names.split())


# -- the parameter relation ----------------------------------------------------

RELATION_ELIMINATED = "alpha1"
_RELATION_KEEP = ("alpha0", "alpha2")


def has_relation_symbols(table: SymbolTable) -> bool:
    """Whether the normalization applies: the table carries all three alphas."""
    return all(n in table for n in (RELATION_ELIMINATED,) + _RELATION_KEEP)


# -- generated kernels --------------------------------------------------------------


@functools.cache
def _code(text: str) -> CodeType:
    """The code object of ``_kernel`` as the one ``def`` ``text`` defines it.

    Every generated kernel, the exact :class:`PointMap` and the float
    kernels of :mod:`.numeric`, is compiled through this cache: once per
    distinct text.
    """
    namespace: dict = {}
    exec(text, namespace)
    return namespace["_kernel"].__code__


# -- the half loaded on first use ---------------------------------------------------


def _lazy_getattr(namespace: dict, half: str, names: frozenset):
    """The module ``__getattr__`` (PEP 562) of the module whose globals are
    ``namespace``: the first lookup of any of ``names`` imports the sibling
    module ``half`` and binds them all in ``namespace``, so later lookups
    read that binding (or whatever has replaced it)."""

    def __getattr__(name: str):
        if name not in names:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        module = importlib.import_module(f".{half}", namespace["__package__"])
        for key in names:
            namespace.setdefault(key, getattr(module, key))
        return namespace[name]

    return __getattr__


# every name _ring_lazy defines, served from here
_LAZY = frozenset({
    "reduce_relation", "is_identically_zero",
    "_coerce_binding", "substitute_poly", "substitute",
    "evaluate", "_residue",
    "PointMap", "_COPRIME", "_POINT_GLOBALS", "_Pair", "_PairCode", "_minus", "_Term",
    "_output_value", "_horner", "_monomial",
    "Derivation", "differentiate", "jacobian_determinant", "_det",
})
__getattr__ = _lazy_getattr(globals(), "_ring_lazy", _LAZY)

# this module as an object: a method that calls into the lazy half looks the
# name up here, so the first call loads it and a rebound name is seen
_ring = sys.modules[__name__]
