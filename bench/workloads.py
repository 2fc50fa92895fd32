"""The four workloads: fixed op lists built from the package and a seed.

An op is one timed call into the package.  Its ``judge`` turns the call's
result into ``(verdict_id, verdict, ms)`` entries, normally one per op; the
relation sweep of the ``group`` workload yields one entry per relation, with
the per-relation time the package reports.  Judging runs outside the timed
region and with tracing paused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

DEFAULT_LIMIT_S = 10.0
SEARCH_LIMIT_S = 30.0
CLIFF_LIMIT_S = 1.0  # the 175-column search runs for minutes at the parent commit

LAMBDAS = (Fraction(0), Fraction(-1), Fraction(1))
RELATION_SAMPLES = 20
ORBITS_PER_WORD = 3
ORBIT_STEPS = 8

TOL = (1e-10, 1e-10)
TOLERANCES = {
    "default": TOL,
    "reduce": (1e-12, 1e-12),
    "blowup": (1e-8, 1e-8),
    "fixed_step": 1e-3,
}


@dataclass
class Op:
    id: str
    call: Callable[[], object]
    judge: Callable[[object, float], list]
    limit_s: float = DEFAULT_LIMIT_S
    scope: Optional[str] = None  # verify scope of a suite check
    columns: Optional[int] = None  # ansatz size of a search


def _report(report, ms):
    return [(report.check_id, report.status, ms)]


def _single(op_id, classify):
    def judge(raw, ms):
        return [(op_id, classify(raw), ms)]
    return judge


# -- certify -------------------------------------------------------------------


def certify(pkg, rng) -> list[Op]:
    verify = pkg.verify
    ops = [
        Op(check_id, fn, _report, scope=scope)
        for scope, check_id, fn in verify._suite()
        if scope != "search"
    ]
    disputed = (
        ("symmetry:five_dim:s2_5d", lambda v: verify.check_symmetry("five_dim", "s2_5d", v)),
        ("chart:five_dim:chart2", lambda v: verify.check_chart("five_dim", "chart2", v)),
        ("symmetry:ham_4d:s2_4d", lambda v: verify.check_symmetry("ham_4d", "s2_4d", v)),
    )
    for prefix, check in disputed:
        for variant in ("printed", "corrected"):
            op_id = f"{prefix}:{variant}"
            ops.append(Op(op_id, lambda c=check, v=variant: c(v), _report))
    rng.shuffle(ops)
    return ops


# -- search --------------------------------------------------------------------


def _rank(vectors: list[dict]) -> int:
    pivots: dict = {}
    for vec in vectors:
        vec = dict(vec)
        while vec:
            lead = min(vec)
            if lead not in pivots:
                pivots[lead] = vec
                break
            factor = vec[lead] / pivots[lead][lead]
            for key, value in pivots[lead].items():
                new = vec.get(key, 0) - factor * value
                if new:
                    vec[key] = new
                else:
                    vec.pop(key, None)
    return len(pivots)


# two fixed parameter points; a span verdict must hold at both
SPECIALIZATIONS = (
    {"alpha0": Fraction(3, 7), "alpha2": Fraction(-5, 11), "eta": Fraction(13, 4),
     "alpha": Fraction(2, 9)},
    {"alpha0": Fraction(-8, 3), "alpha2": Fraction(7, 5), "eta": Fraction(-1, 6),
     "alpha": Fraction(-11, 7)},
)


def _coefficients(ring, expr, point) -> Optional[dict]:
    table = expr.table
    binding = {n: v for n, v in point.items() if n in table}
    if "alpha1" in table:
        binding["alpha1"] = 1 - binding["alpha0"] - binding["alpha2"]
    special = ring.substitute(expr, binding)
    if not special.is_polynomial:
        return None
    return dict(special.as_poly().terms)


def _classify_search(pkg, targets: tuple[str, ...], lam: Fraction):
    """Verdict of a search against the span of the named integrals."""
    names = {"ywq": "ywq", "I1": "I1", "I1^2": "I1"}
    label = "span:" + ",".join(targets)

    def classify(found):
        if not found:
            return "empty"
        if not targets or len(found) != len(targets) or any(f.lam != lam for f in found):
            return f"{len(found)} integrals"
        exprs = []
        for t in targets:
            base = pkg.models.load_integral(names[t]).expr
            exprs.append(base * base if t.endswith("^2") else base)
        for point in SPECIALIZATIONS:
            vf = [_coefficients(pkg.ring, f.expr, point) for f in found]
            vt = [_coefficients(pkg.ring, e, point) for e in exprs]
            if None in vf or None in vt:
                return "non-polynomial integral"
            if _rank(vf) != len(targets) or _rank(vf + vt) != len(targets):
                return f"{len(found)} integrals outside {label}"
        return label

    return classify


LADDER = (
    # (op id, system, state bound, indep bound, lambdas, expected span, columns)
    ("ladder:ham_4d:3,0", "ham_4d", 3, 0, LAMBDAS, (), 35),
    ("ladder:ham_4d:3,1", "ham_4d", 3, 1, LAMBDAS, (), 70),
    ("ladder:ham_4d:3,2", "ham_4d", 3, 2, LAMBDAS, (), 105),
    ("ladder:ham_4d:3,3", "ham_4d", 3, 3, LAMBDAS, (), 140),
    ("ladder:five_dim:3,0", "five_dim", 3, 0, LAMBDAS, ("ywq",), 56),
    ("ladder:K1_sys:8,3", "K1_sys", 8, 3, (Fraction(0),), ("I1", "I1^2"), 180),
    ("cliff:ham_4d:3,4", "ham_4d", 3, 4, LAMBDAS, (), 175),
)


def search(pkg, rng) -> list[Op]:
    verify = pkg.verify
    ops = [
        Op(check_id, fn, _report, limit_s=SEARCH_LIMIT_S, scope=scope)
        for scope, check_id, fn in verify._suite()
        if scope == "search"
    ]
    for op_id, system, state_b, indep_b, lams, targets, cols in LADDER:
        lam = Fraction(-1) if targets == ("ywq",) else Fraction(0)
        ops.append(Op(
            op_id,
            lambda a=(system, state_b, indep_b, lams): verify.first_integral_search(*a),
            _single(op_id, _classify_search(pkg, targets, lam)),
            limit_s=CLIFF_LIMIT_S if op_id.startswith("cliff") else SEARCH_LIMIT_S,
            columns=cols,
        ))
    rng.shuffle(ops)
    return ops


# -- group ---------------------------------------------------------------------

ORBIT_WORDS = (("t1", "s1 s2 s1 s0", (-2, 2, 0)), ("t2", "s1 s1 s2 s1 s0 s1", (0, -2, 2)))


def _orbit_points(weyl, word, rng):
    """A seeded start point whose orbit meets no singular generator."""
    while True:
        start = weyl.random_point(rng, word.context)
        try:
            point = start
            for _ in range(ORBIT_STEPS):
                point = weyl.apply_word_to_point(word, point)
            return start
        except weyl.SingularPointError:
            continue


def _classify_orbit(start, shift):
    def classify(points):
        for k, point in enumerate(points, start=1):
            moved = tuple(a - b for a, b in zip(point.alphas, start.alphas))
            if (moved != tuple(k * s for s in shift) or point.eta != start.eta
                    or point.indep != start.indep):
                return f"step {k} moved by {moved}"
        return "shift:" + ",".join(map(str, shift))
    return classify


def group(pkg, rng) -> list[Op]:
    weyl = pkg.weyl
    seed = rng.randrange(1, 2**31)

    def relations(reports, ms):
        return [(r.check_id, r.status, r.duration_ms) for r in reports]

    ops = [
        Op("relations", lambda: weyl.verify_group_relations(RELATION_SAMPLES, seed),
           relations, limit_s=30.0),
        Op("translations", weyl.translation_report, _report),
    ]
    for name, text, shift in ORBIT_WORDS:
        word = weyl.parse_word(text, "th1")
        for i in range(ORBITS_PER_WORD):
            start = _orbit_points(weyl, word, rng)

            def orbit(word=word, start=start):
                points, point = [], start
                for _ in range(ORBIT_STEPS):
                    point = weyl.apply_word_to_point(word, point)
                    points.append(point)
                return points

            op_id = f"orbit:{name}:{i}"
            ops.append(Op(op_id, orbit, _single(op_id, _classify_orbit(start, shift))))
    return ops


# -- integrate -----------------------------------------------------------------


def _verdict(checks: dict) -> str:
    bad = [name for name, ok in checks.items() if not ok]
    return "pass" if not bad else "fail:" + ",".join(bad)


def integrate(pkg, rng) -> list[Op]:
    numeric = pkg.numeric

    def jitter(value, width=0.05):
        return value + rng.uniform(-width, width)

    a0, a2, eta = jitter(0.3), jitter(0.45), jitter(0.7)
    p5 = {"alpha0": a0, "alpha1": 1 - a0 - a2, "alpha2": a2, "eta": eta}
    init5 = [jitter(v) for v in (0.4, 0.8, -0.3, 0.5, -0.2)]
    blow5 = [v * jitter(1.0) for v in (1.0, 1.0, 1.0, -1.0, 1.0)]
    init4 = [jitter(v) for v in (0.1, 0.2, 0.3, 0.4)]
    k1 = ({"alpha": jitter(0.4)}, [jitter(0.3), jitter(0.5)])
    lin = {"alpha0": jitter(0.5), "alpha2": jitter(0.5), "eta": jitter(1.0)}
    lin0 = [jitter(0.0), jitter(1.0)]
    h = TOLERANCES["fixed_step"]

    def residual(traj, system):
        return numeric.dynamics_residual(traj, system, traj.params)

    def adaptive5():
        traj = numeric.integrate("five_dim", p5, init5, (0.0, 1.0), tolerances=TOL)
        return {"completed": traj.termination == "completed",
                "drift": numeric.invariant_drift(traj, "ywq") < 1e-6}

    def grid5():
        grid = [i / 1000 for i in range(1001)]
        traj = numeric.integrate("five_dim", p5, init5, (0.0, 1.0), tolerances=TOL,
                                 mode="grid", grid=grid)
        pushed = numeric.pushforward(traj, "s1_5d")
        return {"drift": numeric.invariant_drift(traj, "ywq") < 1e-6,
                "residual": residual(traj, "five_dim") < 1e-4,
                "s1_residual": residual(pushed, "five_dim") < 1e-4}

    def fixed5():
        traj = numeric.integrate("five_dim", p5, init5, (0.0, 0.5), mode="fixed", step=h)
        pushed = numeric.pushforward(traj, "s1_5d")
        return {"drift": numeric.invariant_drift(traj, "ywq") < 1e-6,
                "s1_residual": residual(pushed, "five_dim") < 1e-4}

    def convergence5():
        res = [
            residual(numeric.integrate("five_dim", p5, init5, (0.0, 0.5),
                                       mode="fixed", step=step), "five_dim")
            for step in (8e-3, 4e-3, 2e-3, 1e-3, 5e-4)
        ]
        return {"ratios": all(3.0 < a / b < 5.0 for a, b in zip(res, res[1:]))}

    def reduce5():
        # uniform s-grid, conserved combination matched: y - w*q = 1 at t = 0
        n, s_lo = 400, math.exp(-0.9)
        t_grid = [-math.log(1.0 - i * (1.0 - s_lo) / n) for i in range(n + 1)]
        init = list(init5)
        init[1] = init5[3] * init5[4] + 1.0
        traj = numeric.integrate("five_dim", p5, init, (t_grid[0], t_grid[-1]),
                                 tolerances=TOLERANCES["reduce"], mode="grid", grid=t_grid)
        reduced = numeric.pushforward(traj, "reduce_5d_4d")
        return {"reduced_residual": residual(reduced, "ham_4d") < 1e-4}

    def blowup5():
        traj = numeric.integrate("five_dim", p5, blow5, (0.0, 10.0),
                                 tolerances=TOLERANCES["blowup"])
        return traj.termination if traj.times[-1] < 10.0 else "reached u = 10"

    def adaptive4():
        traj = numeric.integrate("ham_4d", p5, init4, (0.5, 2.0), tolerances=TOL)
        return {"completed": traj.termination == "completed"}

    def fixed4():
        traj = numeric.integrate("ham_4d", p5, init4, (0.5, 2.0), mode="fixed", step=h)
        pushed = numeric.pushforward(traj, "s1_4d")
        return {"residual": residual(traj, "ham_4d") < 1e-4,
                "s1_residual": residual(pushed, "ham_4d") < 1e-4}

    def k1_sys():
        traj = numeric.integrate("K1_sys", k1[0], k1[1], (1.0, 2.0), tolerances=TOL)
        return {"drift": numeric.invariant_drift(traj, "I1") < 1e-6}

    def linear():
        traj = numeric.integrate("linear_xz", lin, lin0, (0.0, 1.0), tolerances=TOL)
        a0l, a2l, etal = lin["alpha0"], lin["alpha2"], lin["eta"]
        x1 = (lin0[0] + 1 / (2 * a2l)) * math.exp(a2l) - 1 / (2 * a2l)
        z1 = (lin0[1] - etal / (2 * a0l)) * math.exp(a0l) + etal / (2 * a0l)
        return {"x_closed_form": abs(traj.states[-1][0] - x1) < 1e-8,
                "z_closed_form": abs(traj.states[-1][1] - z1) < 1e-8}

    calls = (
        ("traj:five_dim:adaptive", adaptive5), ("traj:five_dim:grid1001", grid5),
        ("traj:five_dim:fixed", fixed5), ("traj:five_dim:convergence", convergence5),
        ("traj:five_dim:reduce", reduce5), ("traj:five_dim:blowup", blowup5),
        ("traj:ham_4d:adaptive", adaptive4), ("traj:ham_4d:fixed", fixed4),
        ("traj:K1_sys", k1_sys), ("traj:linear_xz", linear),
    )
    return [
        Op(op_id, fn, _single(op_id, lambda r: r if isinstance(r, str) else _verdict(r)))
        for op_id, fn in calls
    ]


# Search ops run for seconds each; three passes give every op three
# repetitions to take the fastest of.
WORKLOADS = {
    # name: (builder, minimum passes per run)
    "certify": (certify, 1),
    "search": (search, 3),
    "group": (group, 1),
    "integrate": (integrate, 1),
}
