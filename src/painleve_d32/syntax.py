"""Canonical infix rendering of exact expressions.

The rendered form is deterministic: polynomial terms appear in descending
graded-lexicographic order, symbols in table order inside each monomial,
rational coefficients as ``p/q``, powers with ``^``.  A quotient renders as
``(num)/(den)``.  The program only writes this text (reports and model
dumps) and never reads it back.
"""

from __future__ import annotations

from .ring import Poly, RatExpr


def render_poly(p: Poly) -> str:
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for mono, coeff in p.terms:
        factors = []
        for i, e in enumerate(mono):
            if e == 0:
                continue
            name = p.table.symbols[i]
            factors.append(name if e == 1 else f"{name}^{e}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(("+ " if coeff > 0 else "- ") + body)
    return " ".join(parts)


def render_ratexpr(e: RatExpr) -> str:
    if e.den.is_const:
        return render_poly(e.num)
    return f"({render_poly(e.num)})/({render_poly(e.den)})"

