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
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import chain, islice
from types import CodeType, FunctionType
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
        return _evaluate_at(self, point)

    def residue(self, point: Sequence[int], prime: int, powers: dict[int, int]) -> Optional[int]:
        """The image mod ``prime`` at ``point``, one residue per symbol in
        table order, or None when ``prime`` divides the denominator.
        ``powers`` caches the value of each monomial at the point, so one
        dict serves every polynomial taken at that point."""
        den = self._den
        if den % prime == 0:
            return None
        shifts = self.table._shifts
        total = 0
        for k, c in self._coeffs.items():
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
        return is_identically_zero(self - o)

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


def evaluate(e: RatExpr, point: Mapping[str, RationalLike]) -> Fraction:
    """Exact rational value at a point; all occurring symbols must be bound.

    Raises :class:`SingularPointError` when the denominator vanishes at the
    point (a resampling signal, distinct from an identically-zero divisor).
    """
    return _evaluate_at(e, point)


# -- exact point evaluation ---------------------------------------------------------


@functools.cache
def _code(text: str) -> CodeType:
    """The code object of ``_kernel`` as the one ``def`` ``text`` defines it.

    Every generated kernel, the exact :class:`PointMap` here and the float
    kernels of :mod:`.numeric`, is compiled through this cache: once per
    distinct text.
    """
    namespace: dict = {}
    exec(text, namespace)
    return namespace["_kernel"].__code__


def _evaluate_at(
    e: Union[RatExpr, Poly], point: Mapping[str, RationalLike]
) -> Fraction:
    """One-shot exact value, interpreted: no kernel is compiled.

    Numerator and denominator are homogenised in every input v_k = n_k/d_k
    to its largest exponent D_k in the expression: a term c*prod v_k^e_k
    becomes the integer c*prod n_k^e_k * d_k^(D_k - e_k).  Both sums carry
    the factor prod d_k^D_k, which cancels, so the value is one ``Fraction``
    of two integer sums.
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
