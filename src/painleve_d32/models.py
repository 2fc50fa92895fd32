"""Authoritative registry of systems, birational maps, integrals and solutions.

Every object is addressable by a stable string id.  Where a printed
coefficient is disputed, both a ``printed`` and a ``corrected`` variant ship;
the verifier decides empirically which one satisfies the identities, and the
registry never silently fixes anything.  Symmetries, charts, the 5d -> 4d
reduction ``reduce_5d_4d`` and the second-order forms ``order2_xzw`` and
``order2_ham_4d`` are all registry maps; :mod:`.verify` certifies every one
but the charts by the same map residual.  A map's action on the parameters,
eta and time is one :class:`ParameterAction`, ``BirationalMap.action``,
which the residuals, :mod:`.weyl` and :mod:`.numeric` all apply.  The
parameter normalization alpha0 + alpha1 + alpha2 = 1 applies wherever a
table carries all three alphas; no object carries a flag for it.

Disputed objects:

* ``s2_5d`` / ``chart2`` — the w-component prints ``2*alpha0/x + 1/x^2``
  while the parallel y-component uses ``alpha2``; ``corrected`` replaces the
  single coefficient ``alpha0`` by ``alpha2``.
* ``s2_4d`` — the printed map sends ``eta -> -eta`` together with
  ``s -> -s``; ``corrected`` keeps ``eta`` fixed, which is the variant that
  conjugates to ``s0`` under the diagram automorphism.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple, Optional, Sequence

from .ring import RatExpr, SymbolTable, has_relation_symbols, syms
from .syntax import render_ratexpr

if TYPE_CHECKING:
    from .ring import Derivation

HALF = Fraction(1, 2)
_NO_BINDINGS = MappingProxyType({})  # read-only, so the mapping fields share it


class UnknownModelError(KeyError):
    pass


class Hamiltonian(NamedTuple):
    """Polynomial Hamiltonian with its canonical pairing.

    Sign convention: d(coord)/du = +dH/d(mom), d(mom)/du = -dH/d(coord).
    """

    expr: RatExpr
    pairing: tuple[tuple[str, str], ...]


class VectorFieldSystem(NamedTuple):
    id: str
    table: SymbolTable
    rhs: Mapping[str, RatExpr]
    hamiltonian: Optional[Hamiltonian] = None
    singular_at_zero_indep: bool = False

    @property
    def state(self) -> tuple[str, ...]:
        return self.table.state_names

    @property
    def indep(self) -> str:
        name = self.table.indep_name
        assert name is not None
        return name

    @property
    def params(self) -> tuple[str, ...]:
        return self.table.names_of_kind("parameter")

    def flow(self) -> Derivation:
        """Derivation along the flow: states follow rhs, d(indep)/d(indep)=1."""
        from .ring import Derivation  # the ring's lazy half, which set-up never runs

        rules: dict[str, object] = dict(self.rhs)
        rules[self.indep] = 1
        return Derivation(self.table, rules)


class ParameterAction(NamedTuple):
    """Integer affine action alpha -> M*alpha + v, with signs on eta and time."""

    matrix: tuple[tuple[int, ...], ...]
    offset: tuple[int, ...]
    eta_sign: int = +1
    indep_sign: int = +1

    @staticmethod
    def identity(n: int) -> "ParameterAction":
        return ParameterAction(
            tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), (0,) * n
        )

    def apply(self, values: Sequence) -> tuple:
        """M*values + v, for Fractions, floats or RatExprs alike.

        Zero coefficients are skipped; each sum starts from 0*values[0] + v,
        so that even a zero row has the type of the values.
        """
        zero = 0 * values[0]
        return tuple(
            sum((c * a for c, a in zip(row, values) if c), zero + off)
            for row, off in zip(self.matrix, self.offset)
        )

    def then(self, after: "ParameterAction") -> "ParameterAction":
        """Composite action: first self, then ``after``.

        Matrix and offset are the integer products; the signs multiply.
        """
        n = range(len(self.offset))
        matrix = tuple(
            tuple(sum(after.matrix[i][k] * self.matrix[k][j] for k in n) for j in n)
            for i in n
        )
        offset = tuple(
            sum(after.matrix[i][k] * self.offset[k] for k in n) + after.offset[i]
            for i in n
        )
        return ParameterAction(
            matrix, offset,
            self.eta_sign * after.eta_sign,
            self.indep_sign * after.indep_sign,
        )

    def preserves_normalization(self) -> bool:
        """Column sums 1 and zero offset sum keep alpha0+alpha1+alpha2 = 1."""
        return all(sum(col) == 1 for col in zip(*self.matrix)) and sum(self.offset) == 0


class BirationalMap(NamedTuple):
    id: str
    variant: str
    source: str
    target: str
    var_map: Mapping[str, RatExpr]  # target state name -> expression over source table
    param_names: tuple[str, ...]
    action: ParameterAction  # on param_names, eta and the independent variable
    context: Optional[str] = None  # th1 | th2 | None
    eliminated: Mapping[str, RatExpr] = _NO_BINDINGS  # source state -> binding
    rules: Mapping[str, RatExpr] = _NO_BINDINGS  # generator -> derivative

    @property
    def table(self) -> SymbolTable:
        """The table the map is written over."""
        return next(iter(self.var_map.values())).table

    def param_images(self, table: SymbolTable) -> dict[str, RatExpr]:
        """Images of the parameters as expressions over ``table``."""
        params = [RatExpr.sym(table, name) for name in self.param_names]
        return dict(zip(self.param_names, self.action.apply(params)))

    def pullback_bindings(
        self, source_table: SymbolTable, target_table: SymbolTable
    ) -> dict[str, RatExpr]:
        """Bindings sending target-table symbols to expressions over the source.

        Used to evaluate the target vector field on the image of the map:
        states go to the map components, parameters to their affine images,
        eta and the independent variable to their sign multiples, anything
        else passes through by name.  The target's time goes to the map's
        image of time: +-t for a symmetry, the generator s for the reduction.
        """
        bindings: dict[str, RatExpr] = {n: e for n, e in self.var_map.items()}
        bindings.update(self.param_images(source_table))
        if "eta" in target_table:
            bindings["eta"] = self.action.eta_sign * RatExpr.sym(source_table, "eta")
        indep = target_table.indep_name
        if indep is not None and indep in source_table:
            bindings[indep] = self.action.indep_sign * RatExpr.sym(source_table, indep)
        for name in target_table.symbols:
            if name not in bindings and name in source_table:
                bindings[name] = RatExpr.sym(source_table, name)
        return bindings


class FirstIntegral(NamedTuple):
    id: str
    system_id: str
    expr: RatExpr
    lam: Fraction  # eigenvalue in D(expr) = lam * expr


class ParticularSolution(NamedTuple):
    id: str
    system_id: str
    table: SymbolTable  # extended table the bindings live over
    bindings: Mapping[str, RatExpr]  # target state name -> expression
    rules: Mapping[str, RatExpr]  # derivation entries for generators/carriers
    param_bindings: Mapping[str, RatExpr] = _NO_BINDINGS


# -- symbol tables ----------------------------------------------------------------

_ALPHAS = [("alpha0", "parameter"), ("alpha1", "parameter"), ("alpha2", "parameter")]
_ETA = [("eta", "constant")]


def _table_5d() -> SymbolTable:
    return SymbolTable(
        [("x", "state"), ("y", "state"), ("z", "state"), ("w", "state"),
         ("q", "state"), ("t", "independent")] + _ALPHAS + _ETA
    )


def _table_reduced() -> SymbolTable:
    return SymbolTable(
        [("x", "state"), ("z", "state"), ("w", "state"), ("q", "state"),
         ("t", "independent"),
         ("alpha0", "parameter"), ("alpha2", "parameter")] + _ETA
    )


def _table_xz() -> SymbolTable:
    return SymbolTable(
        [("x", "state"), ("z", "state"), ("t", "independent"),
         ("alpha0", "parameter"), ("alpha2", "parameter")] + _ETA
    )


def _table_xzw() -> SymbolTable:
    return SymbolTable(
        [("x", "state"), ("z", "state"), ("w", "state"), ("t", "independent"),
         ("alpha0", "parameter"), ("alpha2", "parameter")] + _ETA
    )


def _table_second_order() -> SymbolTable:
    return SymbolTable(
        [("x", "state"), ("xdot", "state"), ("t", "independent"),
         ("alpha2", "parameter")]
    )


def _table_4d() -> SymbolTable:
    return SymbolTable(
        [("q1", "state"), ("p1", "state"), ("q2", "state"), ("p2", "state"),
         ("s", "independent")] + _ALPHAS + _ETA
    )


def _table_k1() -> SymbolTable:
    return SymbolTable(
        [("q1", "state"), ("p1", "state"), ("s", "independent"),
         ("alpha", "parameter")]
    )


def _table_k2() -> SymbolTable:
    return SymbolTable(
        [("q2", "state"), ("p2", "state"), ("s", "independent"),
         ("alpha", "parameter")] + _ETA
    )


def _table_tilde_k2() -> SymbolTable:
    return SymbolTable(
        [("x1", "state"), ("y1", "state"), ("s", "independent"),
         ("alpha", "parameter")] + _ETA
    )


def _table_coupled() -> SymbolTable:
    return SymbolTable(
        [("y", "state"), ("ydot", "state"), ("w", "state"), ("wdot", "state"),
         ("s", "independent"),
         ("alpha0", "parameter"), ("alpha2", "parameter")] + _ETA
    )


# -- systems ------------------------------------------------------------------------


def _build_five_dim() -> VectorFieldSystem:
    T = _table_5d()
    x, y, z, w, q, a0, a1, a2, eta = syms(T, "x y z w q alpha0 alpha1 alpha2 eta")
    rhs = {
        "x": -(x * w - a2) * x + HALF,
        "y": (x * w + z * q - 1) * y + a1 * w * q,
        "z": -(z * q - a0) * z - eta * HALF,
        "w": (x * w - z * q - a2) * w + y * z,
        "q": (z * q - x * w - a0) * q + x * y,
    }
    return VectorFieldSystem("five_dim", T, rhs)


def _build_reduced() -> VectorFieldSystem:
    T = _table_reduced()
    x, z, w, q, a0, a2, eta = syms(T, "x z w q alpha0 alpha2 eta")
    rhs = {
        "x": -(x * w - a2) * x + HALF,
        "z": -(z * q - a0) * z - eta * HALF,
        "w": (x * w - z * q - a2) * w,
        "q": (z * q - x * w - a0) * q,
    }
    return VectorFieldSystem("reduced_alpha1_zero", T, rhs)


def _build_linear_xz() -> VectorFieldSystem:
    T = _table_xz()
    x, z, a0, a2, eta = syms(T, "x z alpha0 alpha2 eta")
    rhs = {"x": a2 * x + HALF, "z": a0 * z - eta * HALF}
    return VectorFieldSystem("linear_xz", T, rhs)


def _build_xzw() -> VectorFieldSystem:
    T = _table_xzw()
    x, z, w, a0, a2, eta = syms(T, "x z w alpha0 alpha2 eta")
    rhs = {
        "x": -(x * w - a2) * x + HALF,
        "z": a0 * z - eta * HALF,
        "w": (x * w - a2) * w,
    }
    return VectorFieldSystem("xzw", T, rhs)


def _build_second_order_x() -> VectorFieldSystem:
    T = _table_second_order()
    x, xdot, a2 = syms(T, "x xdot alpha2")
    rhs = {
        "x": xdot,
        "xdot": xdot * xdot / x - a2 * HALF - Fraction(1, 4) / x,
    }
    return VectorFieldSystem("second_order_x", T, rhs)


def _build_ham_4d() -> VectorFieldSystem:
    T = _table_4d()
    q1, p1, q2, p2, s, a0, a1, a2, eta = syms(
        T, "q1 p1 q2 p2 s alpha0 alpha1 alpha2 eta"
    )
    rhs = {
        "q1": (-(q1**2) * p1 + a2 * q1 - p2) / s,
        "p1": (q1 * p1**2 - a2 * p1 - HALF) / s,
        "q2": (-(q2**2) * p2 - (a1 + a2) * q2 - p1) / s,
        "p2": (q2 * p2**2 + (a1 + a2) * p2) / s + eta * HALF,
    }
    H = (
        -(q1**2 * p1**2 - 2 * a2 * q1 * p1 - q1) / (2 * s)
        - (q2**2 * p2**2 + 2 * (a1 + a2) * q2 * p2 + eta * s * q2) / (2 * s)
        - p1 * p2 / s
    )
    return VectorFieldSystem(
        "ham_4d", T, rhs,
        hamiltonian=Hamiltonian(H, (("q1", "p1"), ("q2", "p2"))),
        singular_at_zero_indep=True,
    )


def _build_k1() -> VectorFieldSystem:
    T = _table_k1()
    q1, p1, s, a = syms(T, "q1 p1 s alpha")
    rhs = {
        "q1": (-(q1**2) * p1 + a * q1) / s,
        "p1": (q1 * p1**2 - a * p1 - HALF) / s,
    }
    K1 = -(q1**2 * p1**2 - 2 * a * q1 * p1 - q1) / (2 * s)
    return VectorFieldSystem(
        "K1_sys", T, rhs, hamiltonian=Hamiltonian(K1, (("q1", "p1"),)),
        singular_at_zero_indep=True,
    )


def _build_k2() -> VectorFieldSystem:
    T = _table_k2()
    q2, p2, s, a, eta = syms(T, "q2 p2 s alpha eta")
    rhs = {
        "q2": (-(q2**2) * p2 - a * q2) / s,
        "p2": (q2 * p2**2 + a * p2) / s + eta * HALF,
    }
    K2 = -(q2**2 * p2**2 + 2 * a * q2 * p2 + eta * s * q2) / (2 * s)
    return VectorFieldSystem(
        "K2_sys", T, rhs, hamiltonian=Hamiltonian(K2, (("q2", "p2"),)),
        singular_at_zero_indep=True,
    )


def _build_tilde_k2() -> VectorFieldSystem:
    T = _table_tilde_k2()
    x1, y1, s, a, eta = syms(T, "x1 y1 s alpha eta")
    rhs = {
        "x1": (-(x1**2) * y1 - (a - 1) * x1) / s,
        "y1": (x1 * y1**2 + (a - 1) * y1 + eta * HALF) / s,
    }
    K2t = -(x1**2 * y1**2 + 2 * (a - 1) * x1 * y1 + eta * x1) / (2 * s)
    return VectorFieldSystem(
        "tildeK2_sys", T, rhs, hamiltonian=Hamiltonian(K2t, (("x1", "y1"),)),
        singular_at_zero_indep=True,
    )


def _build_coupled_second_order() -> VectorFieldSystem:
    T = _table_coupled()
    y, ydot, w, wdot, s, a0, a2, eta = syms(T, "y ydot w wdot s alpha0 alpha2 eta")
    rhs = {
        "y": ydot,
        "ydot": (
            ydot**2 / y - ydot / s - a2 / (2 * s**2)
            - 1 / (4 * s**2 * y) - y**2 * w / s**2
        ),
        "w": wdot,
        "wdot": (
            wdot**2 / w - wdot / s + a0 * eta / (2 * s)
            - eta**2 / (4 * w) - y * w**2 / s**2
        ),
    }
    return VectorFieldSystem(
        "coupled_second_order", T, rhs, singular_at_zero_indep=True
    )


# -- birational maps ------------------------------------------------------------------

_M0 = ((-1, 0, 0), (2, 1, 0), (0, 0, 1))
_M1 = ((1, 1, 0), (0, -1, 0), (0, 1, 1))
_M2 = ((1, 0, 0), (0, 1, 2), (0, 0, -1))
_MPI = ((0, 0, 1), (0, 1, 0), (1, 0, 0))
_MID = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
_ZERO3 = (0, 0, 0)
_ALPHA_NAMES = ("alpha0", "alpha1", "alpha2")


def _maps_5d(T: SymbolTable) -> dict[tuple[str, str], BirationalMap]:
    x, y, z, w, q, a0, a1, a2, eta = syms(T, "x y z w q alpha0 alpha1 alpha2 eta")
    ident = {"x": x, "y": y, "z": z, "w": w, "q": q}

    def mk(mid, variant, var_map, matrix, eta_sign, indep_sign=1, context="th1"):
        return BirationalMap(
            mid, variant, "five_dim", "five_dim", {**ident, **var_map},
            _ALPHA_NAMES, ParameterAction(matrix, _ZERO3, eta_sign, indep_sign),
            context,
        )

    s0_vars = {
        "y": y - 2 * a0 * w / z + eta * w / z**2,
        "q": q - 2 * a0 / z + eta / z**2,
    }
    s1_vars = {"x": x + a1 * q / y, "z": z + a1 * w / y}
    s2_common = {"x": -x, "y": y - 2 * a2 * q / x - q / x**2, "z": -z, "q": -q}

    out = {}
    out[("s0_5d", "printed")] = mk("s0_5d", "printed", s0_vars, _M0, -1)
    out[("s1_5d", "printed")] = mk("s1_5d", "printed", s1_vars, _M1, +1)
    out[("s2_5d", "printed")] = mk(
        "s2_5d", "printed", {**s2_common, "w": -w + 2 * a0 / x + 1 / x**2}, _M2, -1
    )
    out[("s2_5d", "corrected")] = mk(
        "s2_5d", "corrected", {**s2_common, "w": -w + 2 * a2 / x + 1 / x**2}, _M2, -1
    )
    out[("chart0", "printed")] = mk(
        "chart0", "printed", s0_vars, _MID, +1, context=None
    )
    out[("chart1", "printed")] = mk(
        "chart1", "printed", s1_vars, _MID, +1, context=None
    )
    chart2_common = {"y": y - 2 * a2 * q / x - q / x**2}
    out[("chart2", "printed")] = mk(
        "chart2", "printed",
        {**chart2_common, "w": w - 2 * a0 / x - 1 / x**2}, _MID, +1, context=None,
    )
    out[("chart2", "corrected")] = mk(
        "chart2", "corrected",
        {**chart2_common, "w": w - 2 * a2 / x - 1 / x**2}, _MID, +1, context=None,
    )
    return out


def _maps_4d(T: SymbolTable) -> dict[tuple[str, str], BirationalMap]:
    q1, p1, q2, p2, s, a0, a1, a2, eta = syms(
        T, "q1 p1 q2 p2 s alpha0 alpha1 alpha2 eta"
    )
    ident = {"q1": q1, "p1": p1, "q2": q2, "p2": p2}

    def mk(mid, variant, var_map, matrix, eta_sign, indep_sign):
        return BirationalMap(
            mid, variant, "ham_4d", "ham_4d", {**ident, **var_map},
            _ALPHA_NAMES, ParameterAction(matrix, _ZERO3, eta_sign, indep_sign), "th2",
        )

    out = {}
    out[("s0_4d", "printed")] = mk(
        "s0_4d", "printed",
        {"q2": q2 - 2 * a0 / p2 + eta * s / p2**2}, _M0, +1, -1,
    )
    out[("s1_4d", "printed")] = mk(
        "s1_4d", "printed",
        {"p1": p1 + a1 * q2 / (q1 * q2 + 1), "p2": p2 + a1 * q1 / (q1 * q2 + 1)},
        _M1, +1, +1,
    )
    s2_vars = {"q1": -q1 + 2 * a2 / p1 + 1 / p1**2, "p1": -p1, "q2": -q2, "p2": -p2}
    out[("s2_4d", "printed")] = mk("s2_4d", "printed", s2_vars, _M2, -1, -1)
    out[("s2_4d", "corrected")] = mk("s2_4d", "corrected", s2_vars, _M2, +1, -1)
    out[("pi_4d", "printed")] = mk(
        "pi_4d", "printed",
        {
            "q1": -eta * s * q2,
            "p1": -p2 / (eta * s),
            "q2": -q1 / (eta * s),
            "p2": -eta * s * p1,
        },
        _MPI, +1, +1,
    )
    return out


def _map_reduce() -> BirationalMap:
    # y is eliminated on the integral y - w*q = s; the generator s = exp(-t) is the new time
    TR = SymbolTable(
        [("x", "state"), ("z", "state"), ("w", "state"), ("q", "state"),
         ("t", "independent")] + _ALPHAS + _ETA + [("s", "generator")]
    )
    x, z, w, q, s = syms(TR, "x z w q s")
    return BirationalMap(
        "reduce_5d_4d", "printed", "five_dim", "ham_4d",
        {"q1": w, "p1": x, "q2": q / s, "p2": z * s},
        _ALPHA_NAMES, ParameterAction.identity(3), None,
        eliminated={"y": w * q + s}, rules={"s": -s},
    )


def _maps_second_order(reg: "_Registry") -> dict[tuple[str, str], BirationalMap]:
    # each velocity image is the source's own right-hand side, linear in the
    # eliminated conjugate: a second-order identity holds in (position,
    # velocity) exactly when it holds in the source coordinates
    xzw, ham = reg.systems["xzw"], reg.systems["ham_4d"]
    (x,), (p1, p2) = syms(xzw.table, "x"), syms(ham.table, "p1 p2")
    out = {}
    for mid, source, target, var_map in (
        ("order2_xzw", xzw, "second_order_x", {"x": x, "xdot": xzw.rhs["x"]}),
        ("order2_ham_4d", ham, "coupled_second_order",
         {"y": p1, "ydot": ham.rhs["p1"], "w": p2, "wdot": ham.rhs["p2"]}),
    ):
        params = reg.systems[target].params
        out[(mid, "printed")] = BirationalMap(
            mid, "printed", source.id, target, var_map,
            params, ParameterAction.identity(len(params)), None,
        )
    return out


def _map_scale(TK2: SymbolTable) -> BirationalMap:
    q2, p2, s = syms(TK2, "q2 p2 s")
    return BirationalMap(
        "scale_step", "printed", "K2_sys", "tildeK2_sys",
        {"x1": s * q2, "y1": p2 / s},
        ("alpha",), ParameterAction.identity(1), None,
    )


# -- integrals and particular solutions -----------------------------------------------


def _build_integrals(reg: "_Registry") -> dict[str, FirstIntegral]:
    T5 = reg.systems["five_dim"].table
    y, w, q = syms(T5, "y w q")
    TK1 = reg.systems["K1_sys"].table
    q1, p1, a = syms(TK1, "q1 p1 alpha")
    TT = reg.systems["tildeK2_sys"].table
    x1, y1, at, eta = syms(TT, "x1 y1 alpha eta")
    return {
        "ywq": FirstIntegral("ywq", "five_dim", y - w * q, Fraction(-1)),
        "I1": FirstIntegral(
            "I1", "K1_sys", q1**2 * p1**2 - 2 * a * q1 * p1 - q1, Fraction(0)
        ),
        "I2": FirstIntegral(
            "I2", "tildeK2_sys",
            x1**2 * y1**2 + 2 * (at - 1) * x1 * y1 + eta * x1, Fraction(0),
        ),
    }


def _build_solutions(reg: "_Registry") -> dict[str, ParticularSolution]:
    out: dict[str, ParticularSolution] = {}

    # exponential solution of the linear x/z subsystem
    TL = _table_xz().extend(
        [("C1", "constant"), ("C2", "constant"), ("E1", "generator"),
         ("E2", "generator")]
    )
    a0, a2, eta, C1, C2, E1, E2 = syms(TL, "alpha0 alpha2 eta C1 C2 E1 E2")
    out["linear_xz_sol"] = ParticularSolution(
        "linear_xz_sol", "linear_xz", TL,
        bindings={"x": C1 * E1 - 1 / (2 * a2), "z": C2 * E2 + eta / (2 * a0)},
        rules={"E1": a2 * E1, "E2": a0 * E2},
    )

    # the two exponential solutions of the second-order x equation;
    # E stands for exp(C1*(t+C2)), so dE/dt = C1*E
    TS = _table_second_order().extend(
        [("C1", "constant"), ("C2", "constant"), ("E", "generator")]
    )
    a2s, C1s, E = syms(TS, "alpha2 C1 E")
    out["second_order_sol_a"] = ParticularSolution(
        "second_order_sol_a", "second_order_x", TS,
        bindings={
            "x": ((E - a2s) ** 2 - C1s**2) / (4 * C1s**2 * E),
            "xdot": (E**2 - a2s**2 + C1s**2) / (4 * C1s * E),
        },
        rules={"E": C1s * E},
    )
    out["second_order_sol_b"] = ParticularSolution(
        "second_order_sol_b", "second_order_x", TS,
        bindings={
            "x": ((a2s**2 - C1s**2) * E**2 - 2 * a2s * E + 1) / (4 * C1s**2 * E),
            "xdot": ((a2s**2 - C1s**2) * E**2 - 1) / (4 * C1s * E),
        },
        rules={"E": C1s * E},
    )

    # rest point in (w, q): x and z carry the linear flow, everything else sits at 0
    T5 = reg.systems["five_dim"].table
    x5, z5, a05, a25, eta5 = syms(T5, "x z alpha0 alpha2 eta")
    zero = RatExpr.const(T5, 0)
    out["rest_wq_zero"] = ParticularSolution(
        "rest_wq_zero", "five_dim", T5,
        bindings={"x": x5, "y": zero, "z": z5, "w": zero, "q": zero},
        rules={"x": a25 * x5 + HALF, "z": a05 * z5 - eta5 * HALF},
        param_bindings={"alpha1": zero},
    )
    return out


# -- registry --------------------------------------------------------------------------

DISPUTED_MAP_IDS = ("s2_5d", "chart2", "s2_4d")

SYSTEM_IDS = (
    "five_dim", "reduced_alpha1_zero", "linear_xz", "xzw", "second_order_x",
    "ham_4d", "K1_sys", "K2_sys", "tildeK2_sys", "coupled_second_order",
)
MAP_IDS = (
    "s0_5d", "s1_5d", "s2_5d", "chart0", "chart1", "chart2",
    "s0_4d", "s1_4d", "s2_4d", "pi_4d", "reduce_5d_4d", "scale_step",
    "order2_xzw", "order2_ham_4d",
)
INTEGRAL_IDS = ("ywq", "I1", "I2")
SOLUTION_IDS = (
    "linear_xz_sol", "second_order_sol_a", "second_order_sol_b", "rest_wq_zero"
)


class _Registry:
    def __init__(self) -> None:
        self.systems: dict[str, VectorFieldSystem] = {}
        for build in (
            _build_five_dim, _build_reduced, _build_linear_xz, _build_xzw,
            _build_second_order_x, _build_ham_4d, _build_k1, _build_k2,
            _build_tilde_k2, _build_coupled_second_order,
        ):
            sys_obj = build()
            self.systems[sys_obj.id] = sys_obj

        self.maps: dict[tuple[str, str], BirationalMap] = {}
        self.maps.update(_maps_5d(self.systems["five_dim"].table))
        self.maps.update(_maps_4d(self.systems["ham_4d"].table))
        self.maps[("reduce_5d_4d", "printed")] = _map_reduce()
        self.maps[("scale_step", "printed")] = _map_scale(
            self.systems["K2_sys"].table
        )
        self.maps.update(_maps_second_order(self))
        self.integrals = _build_integrals(self)
        self.solutions = _build_solutions(self)


_REGISTRY: Optional[_Registry] = None


def _registry() -> _Registry:
    global _REGISTRY
    if _REGISTRY is None:
        _REGISTRY = _Registry()
    return _REGISTRY


def load_model(model_id: str) -> VectorFieldSystem:
    reg = _registry()
    if model_id not in reg.systems:
        raise UnknownModelError(f"unknown system id {model_id!r}")
    return reg.systems[model_id]


def load_map(map_id: str, variant: str = "printed") -> BirationalMap:
    """Look up a birational map.

    ``variant`` is ``printed`` or, for disputed ids only, ``corrected``; the
    alias ``resolved`` selects the variant the verification suite certifies
    (corrected for disputed ids, printed otherwise).
    """
    reg = _registry()
    if variant == "resolved":
        variant = "corrected" if map_id in DISPUTED_MAP_IDS else "printed"
    if variant == "corrected" and map_id not in DISPUTED_MAP_IDS:
        raise UnknownModelError(f"map {map_id!r} has no corrected variant")
    key = (map_id, variant)
    if key not in reg.maps:
        raise UnknownModelError(f"unknown map id/variant {map_id!r}/{variant!r}")
    return reg.maps[key]


def load_integral(integral_id: str) -> FirstIntegral:
    reg = _registry()
    if integral_id not in reg.integrals:
        raise UnknownModelError(f"unknown integral id {integral_id!r}")
    return reg.integrals[integral_id]


def load_particular_solution(solution_id: str) -> ParticularSolution:
    reg = _registry()
    if solution_id not in reg.solutions:
        raise UnknownModelError(f"unknown solution id {solution_id!r}")
    return reg.solutions[solution_id]


# -- serialization ----------------------------------------------------------------------


def _render_symbols(table: SymbolTable) -> str:
    return " ".join(f"{n}:{k}" for n, k in zip(table.symbols, table.kinds))


def _dump_system(sys_obj: VectorFieldSystem) -> list[str]:
    lines = [f"[system {sys_obj.id}]"]
    lines.append(f"symbols: {_render_symbols(sys_obj.table)}")
    normalized = has_relation_symbols(sys_obj.table)
    lines.append(f"relation: {'alpha0+alpha1+alpha2=1' if normalized else 'none'}")
    for name in sys_obj.state:
        lines.append(f"rhs {name}: {render_ratexpr(sys_obj.rhs[name])}")
    if sys_obj.hamiltonian is not None:
        lines.append(f"hamiltonian: {render_ratexpr(sys_obj.hamiltonian.expr)}")
        lines.append(
            "pairing: "
            + " ".join(f"{c}:{p}" for c, p in sys_obj.hamiltonian.pairing)
        )
    lines.append(f"singular_at_zero_indep: {str(sys_obj.singular_at_zero_indep).lower()}")
    lines.append("[end]")
    return lines


def _dump_map(m: BirationalMap) -> list[str]:
    lines = [f"[map {m.id} variant={m.variant}]"]
    lines.append(f"context: {m.context or 'none'}")
    lines.append(f"source: {m.source}")
    lines.append(f"target: {m.target}")
    lines.append(f"symbols: {_render_symbols(m.table)}")
    for name in sorted(m.var_map):
        lines.append(f"vars {name}: {render_ratexpr(m.var_map[name])}")
    lines.append(f"params: {' '.join(m.param_names)}")
    a = m.action
    lines.append(
        "matrix: " + " / ".join(" ".join(str(c) for c in row) for row in a.matrix)
    )
    lines.append("offset: " + " ".join(str(c) for c in a.offset))
    lines.append(f"eta_sign: {a.eta_sign}")
    lines.append(f"indep_sign: {a.indep_sign}")
    lines.append("[end]")
    return lines


def dump_models() -> str:
    """Serialize the whole registry to the canonical structured text form."""
    reg = _registry()
    lines: list[str] = []
    for sid in SYSTEM_IDS:
        lines.extend(_dump_system(reg.systems[sid]))
    for mid in MAP_IDS:
        variants = ["printed", "corrected"] if mid in DISPUTED_MAP_IDS else ["printed"]
        for variant in variants:
            m = reg.maps[(mid, variant)]
            lines.extend(_dump_map(m))
    for iid in INTEGRAL_IDS:
        integral = reg.integrals[iid]
        lines.append(f"[integral {integral.id}]")
        lines.append(f"system: {integral.system_id}")
        lines.append(f"symbols: {_render_symbols(reg.systems[integral.system_id].table)}")
        lines.append(f"lambda: {integral.lam}")
        lines.append(f"expr: {render_ratexpr(integral.expr)}")
        lines.append("[end]")
    for pid in SOLUTION_IDS:
        sol = reg.solutions[pid]
        lines.append(f"[solution {sol.id}]")
        lines.append(f"system: {sol.system_id}")
        lines.append(f"symbols: {_render_symbols(sol.table)}")
        for name in sorted(sol.bindings):
            lines.append(f"binding {name}: {render_ratexpr(sol.bindings[name])}")
        for name in sorted(sol.rules):
            lines.append(f"rule {name}: {render_ratexpr(sol.rules[name])}")
        for name in sorted(sol.param_bindings):
            lines.append(f"param {name}: {render_ratexpr(sol.param_bindings[name])}")
        lines.append("[end]")
    return "\n".join(lines) + "\n"
