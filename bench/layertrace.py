"""Outside-in layer trace of the painleve_d32 package.

The tracer wraps the package's entry points from outside: every module
attribute bound to a traced function is replaced where it is looked up (so
``ring.substitute`` and ``verify.substitute`` both count), and traced methods
are replaced on their class.  Each wrapped call is a frame with a start, an
end and a parent; a layer's self time is its frame's duration minus the time
of the traced frames nested in it.  Coarse layers also keep their spans in
memory for the trace file; hot layers (polynomial products and sums,
RatExpr construction and its exact quotient, point evaluation, RK steps and
right-hand sides) keep only their counts and self time.

Nothing is installed until :meth:`Tracer.install` is called, so the untraced
run executes the package unmodified.
"""

from __future__ import annotations

import time
from collections import defaultdict

MAX_SPANS = 200_000


def _size(value) -> tuple[int, int, int]:
    """(terms, total degree, coefficient bits) of a Poly, RatExpr or Fraction."""
    if value is None:
        return 0, 0, 0
    if hasattr(value, "numerator"):
        return 0, 0, value.numerator.bit_length() + value.denominator.bit_length()
    if hasattr(value, "num"):
        a, b = _size(value.num), _size(value.den)
        return a[0] + b[0], max(a[1], b[1]), max(a[2], b[2])
    terms = value.terms
    degree = max((sum(m) for m, _ in terms), default=0)
    bits = max(
        (c.numerator.bit_length() + c.denominator.bit_length() for _, c in terms),
        default=0,
    )
    return len(terms), degree, bits


class Tracer:
    """Frames, per-layer counts and self times, and the kept spans of one run."""

    def __init__(self) -> None:
        self.on = False
        self.stack: list[list] = []  # [name, start, child_s, span_id, span_parent]
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.active: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.minima: dict[str, float] = {}
        self.spans: list[tuple] = []
        self.dropped = 0
        self.op_id = 0
        self._next_id = 1
        self._undo: list[tuple] = []

    # -- frames ---------------------------------------------------------------

    def push(self, name: str, keep: bool) -> list:
        parent = self.stack[-1] if self.stack else None
        span_parent = 0 if parent is None else (parent[3] or parent[4])
        span_id = 0
        if keep:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, time.perf_counter(), 0.0, span_id, span_parent]
        self.stack.append(frame)
        self.active[name] += 1
        return frame

    def pop(self, frame: list) -> None:
        end = time.perf_counter()
        self.stack.pop()
        name = frame[0]
        self.active[name] -= 1
        dur = end - frame[1]
        self.calls[name] += 1
        self.self_s[name] += dur - frame[2]
        self.total_s[name] += dur
        if self.stack:
            self.stack[-1][2] += dur
        if frame[3]:
            if len(self.spans) < MAX_SPANS:
                self.spans.append((frame[3], name, frame[1], end, frame[4], self.op_id))
            else:
                self.dropped += 1

    def begin_op(self) -> tuple:
        """Open the root frame of one op and remember the counters before it."""
        self.op_id += 1
        saved = (
            {k: dict(v) for k, v in (("calls", self.calls), ("self_s", self.self_s),
                                     ("total_s", self.total_s), ("counts", self.counts),
                                     ("maxima", self.maxima))},
            dict(self.minima), len(self.spans), self.dropped,
        )
        self.on = True
        return saved, self.push("op", keep=True)

    def end_op(self, token: tuple, completed: bool) -> None:
        """Close the op; an op that raised or hit its limit leaves no counts.

        Such an op may also have been stopped inside a traced call, so any
        frames it left open are dropped.
        """
        saved, frame = token
        if self.stack and self.stack[0] is frame:
            del self.stack[1:]
            self.pop(frame)
        self.stack.clear()
        self.active.clear()
        self.on = False
        if not completed:
            dicts, minima, nspans, dropped = saved
            for key, value in dicts.items():
                setattr(self, key, defaultdict(getattr(self, key).default_factory, value))
            self.minima = minima
            del self.spans[nspans:]
            self.dropped = dropped

    # -- counters ---------------------------------------------------------------

    def note_max(self, key: str, value: float) -> None:
        if value > self.maxima[key]:
            self.maxima[key] = value

    def note_min(self, key: str, value: float) -> None:
        if key not in self.minima or value < self.minima[key]:
            self.minima[key] = value

    def note_size(self, value) -> None:
        terms, degree, bits = _size(value)
        self.note_max("ring.max_terms", terms)
        self.note_max("ring.max_degree", degree)
        self.note_max("ring.max_coeff_bits", bits)

    # -- wrapping ---------------------------------------------------------------

    def wrap(self, name, fn, keep=True, after=None, on_error=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            frame = tracer.push(name, keep)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, exc)
                raise
            finally:
                tracer.pop(frame)
            if after is not None:
                after(tracer, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, modules, owner, attr, name, **kw) -> None:
        """Replace ``owner.attr`` in every module that binds the same object."""
        original = getattr(owner, attr)
        wrapper = self.wrap(name, original, **kw)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append((module, key, original))

    def patch_method(self, cls, attr, name, **kw) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.wrap(name, original, **kw))
        self._undo.append((cls, attr, original))

    def uninstall(self) -> None:
        self.on = False
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def install(self, pkg) -> None:
        """Wrap the entry points of every layer of the package ``pkg``."""
        ring, syntax, verify, weyl, numeric = (
            pkg.ring, pkg.syntax, pkg.verify, pkg.weyl, pkg.numeric,
        )
        mods = pkg.modules

        def terms(tr, result, args):
            tr.note_max("ring.max_terms", len(result.terms))

        def size(tr, result, args):
            tr.note_size(result)

        def evaluated(tr, result, args):
            tr.note_size(result)
            if tr.active["verify.witness"]:
                tr.counts["verify.witness.attempts"] += 1

        def nullspace(tr, result, args):
            rows, ncols = args[0], args[1]
            tr.counts["verify.nullspace.rows"] += len(rows)
            tr.counts["verify.nullspace.cols"] += ncols
            tr.counts["verify.nullspace.rank"] += ncols - len(result)

        def witness(tr, result, args):
            tr.counts["verify.witness.found"] += result is not None

        def singular(tr, exc):
            if isinstance(exc, ring.SingularPointError):
                tr.counts["weyl.resamples"] += 1

        def step(tr, result, args):
            h = abs(args[3])
            tr.note_min("numeric.h_min", h)
            tr.note_max("numeric.h_max", h)

        def rhs(tr, result, args):
            if tr.active["numeric.step"]:
                tr.counts["numeric.rhs_in_step"] += 1

        def trajectory(tr, result, args):
            tr.counts["numeric.steps_accepted"] += result.steps_accepted
            tr.counts["numeric.steps_rejected"] += result.steps_rejected
            tr.counts["numeric.termination." + result.termination] += 1

        def drift(tr, result, args):
            tr.note_max("numeric.drift_max", result)

        self.patch_method(ring.Poly, "__mul__", "ring.poly_mul", keep=False, after=terms)
        self.patch_method(ring.Poly, "__add__", "ring.poly_add", keep=False, after=terms)
        self.patch_method(ring.RatExpr, "__init__", "ring.ratexpr_init", keep=False)
        self.patch_method(ring.Poly, "evaluate", "ring.evaluate", keep=False, after=evaluated)
        self.patch_method(ring.Derivation, "of", "ring.derivation_of", after=size)
        self.patch_method(ring.Derivation, "of_poly", "ring.derivation_of", after=size)
        for attr, name in (
            ("substitute", "ring.substitute"),
            ("jacobian_determinant", "ring.jacobian"),
            ("reduce_relation", "ring.reduce_relation"),
        ):
            self.patch_function(mods, ring, attr, name, after=size)
        # every RatExpr construction tries an exact quotient: a hot layer
        self.patch_function(mods, ring, "exact_polynomial_quotient", "ring.exact_quotient",
                            keep=False, after=size)
        self.patch_function(mods, ring, "is_identically_zero", "ring.is_identically_zero")
        self.patch_function(mods, syntax, "render_poly", "syntax.render")
        self.patch_function(mods, syntax, "render_ratexpr", "syntax.render")
        self.patch_function(mods, verify, "_nullspace", "verify.nullspace", after=nullspace)
        self.patch_function(mods, verify, "_find_witness", "verify.witness", after=witness)
        self.patch_function(mods, weyl, "apply_word_to_point", "weyl.apply_word",
                            on_error=singular)
        self.patch_function(mods, weyl, "parameter_action", "weyl.parameter_action")
        self.patch_function(mods, numeric, "compile_ratexpr", "numeric.compile")
        self.patch_function(mods, numeric, "_rk_step", "numeric.step", keep=False, after=step)
        self.patch_method(numeric._CompiledSystem, "__call__", "numeric.rhs", keep=False,
                          after=rhs)
        self.patch_function(mods, numeric, "integrate_system", "numeric.integrate",
                            after=trajectory)
        self.patch_function(mods, numeric, "invariant_drift", "numeric.drift", after=drift)
        self.patch_function(mods, numeric, "pushforward", "numeric.pushforward")
        self.patch_function(mods, numeric, "dynamics_residual", "numeric.residual")

    # -- output -----------------------------------------------------------------

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass calls and self time of every layer, plus the counters."""
        out: dict[str, float] = {}
        for name in self.calls:
            out[name + ".calls"] = self.calls[name] / passes
            out[name + ".self_ms"] = self.self_s[name] * 1e3 / passes
        for key, value in self.counts.items():
            out[key] = value / passes
        out.update(self.maxima)
        out.update(self.minima)
        return out

    def dump(self) -> dict:
        return {
            "fields": ["id", "name", "start_s", "end_s", "parent", "op"],
            "spans": self.spans,
            "dropped": self.dropped,
        }
