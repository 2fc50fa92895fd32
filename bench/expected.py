"""Hand-written expected verdict of every op of every workload.

Each entry maps a verdict id to ``(verdict, reason)``.  The verdicts come
from the paper and from the exact identities the suite certifies; they were
written down by hand and are never regenerated from program output.  A
verdict that differs from its entry makes the op fail.

Verdict words:
  pass / fail       a check report's status
  empty             a first-integral search found nothing nontrivial
  span:<ids>        a search found exactly a basis of the span of <ids>
  shift:<vector>    every step of an orbit moved the parameters by <vector>
  blow_up           a trajectory stopped at the blow-up guard
"""

SUITE = {
    # symmetry scope
    "symmetry:five_dim:s0_5d": ("pass", "s0 is a symmetry of the 5d flow (paper, Theorem 1)"),
    "symmetry:five_dim:s1_5d": ("pass", "s1 is a symmetry of the 5d flow (paper, Theorem 1)"),
    "resolve:s2_5d": ("pass", "exactly one variant of s2_5d verifies: the corrected one"),
    "symmetry:ham_4d:s0_4d": ("pass", "s0 is a symmetry of the 4d Hamiltonian system"),
    "symmetry:ham_4d:s1_4d": ("pass", "s1 is a symmetry of the 4d Hamiltonian system"),
    "resolve:s2_4d": ("pass", "exactly one variant of s2_4d verifies: the one keeping eta"),
    "symmetry:ham_4d:pi_4d": ("pass", "the diagram automorphism pi is a symmetry of the 4d system"),
    # charts scope
    "degree:five_dim": ("pass", "the 5d right-hand sides are polynomial of state degree 3"),
    "chart:five_dim:chart0": ("pass", "chart0 is a holomorphy chart: inverse, unit Jacobian, polynomial field"),
    "chart:five_dim:chart1": ("pass", "chart1 is a holomorphy chart: inverse, unit Jacobian, polynomial field"),
    "resolve:chart2": ("pass", "exactly one variant of chart2 verifies: the corrected one"),
    # integrals scope
    "integral:five_dim:ywq": ("pass", "D(y - w*q) = -(y - w*q) along the 5d flow"),
    "integral:K1_sys:I1": ("pass", "I1 is conserved by the K1 subsystem"),
    "integral:tildeK2_sys:I2": ("pass", "I2 is conserved by the tilde-K2 subsystem"),
    # hamiltonian scope
    "hamiltonian:ham_4d": ("pass", "4d flow = signed partials of H, and H = K1 + K2 - p1*p2/s"),
    "hamiltonian:K1_sys": ("pass", "K1 flow = signed partials of K1"),
    "hamiltonian:K2_sys": ("pass", "K2 flow = signed partials of K2"),
    "hamiltonian:tildeK2_sys": ("pass", "tilde-K2 flow = signed partials of tilde-K2"),
    # reduction scope
    "reduction:5d_to_4d": ("pass", "eliminating y = w*q + s turns the 5d flow into the 4d system"),
    "symmetry:K2_sys:scale_step": ("pass", "the scaling step is a symmetry of the K2 subsystem"),
    "second_order_forms": ("pass", "eliminating the conjugates gives the printed second-order forms"),
    # solutions scope
    "solution:linear_xz_sol": ("pass", "the exponential solution solves the linear x/z subsystem"),
    "solution:second_order_sol_a": ("pass", "first exponential solution of the second-order x equation"),
    "solution:second_order_sol_b": ("pass", "second exponential solution of the second-order x equation"),
    "solution:rest_wq_zero": ("pass", "w = q = y = 0 is invariant when alpha1 = 0"),
    "invariant_divisor": ("pass", "y = 0 is invariant exactly when alpha1 = 0"),
    # search scope
    "search:five_dim": ("pass", "degree-2 search at lambda=-1 recovers exactly y - w*q"),
    "search:K1_sys": ("pass", "degree-4 search at lambda=0 recovers exactly I1"),
    "search:ham_4d": ("pass", "nothing new for the coupled system at bounds (3,2), lambda in {0,-1,1}"),
}

VARIANTS = {
    "symmetry:five_dim:s2_5d:printed": ("fail", "printed w-component uses alpha0; x-residual is 2*(alpha0-alpha2)*x"),
    "symmetry:five_dim:s2_5d:corrected": ("pass", "alpha0 replaced by alpha2 in the w-component"),
    "chart:five_dim:chart2:printed": ("fail", "same misprinted alpha0 as s2_5d in the w-component"),
    "chart:five_dim:chart2:corrected": ("pass", "alpha0 replaced by alpha2 in the w-component"),
    "symmetry:ham_4d:s2_4d:printed": ("fail", "eta -> -eta together with s -> -s breaks the p2 equation"),
    "symmetry:ham_4d:s2_4d:corrected": ("pass", "eta kept fixed; conjugates to s0 under pi"),
}

LADDER = {
    "ladder:ham_4d:3,0": ("empty", "35 columns; no polynomial quasi-integral of the coupled system"),
    "ladder:ham_4d:3,1": ("empty", "70 columns; no polynomial quasi-integral of the coupled system"),
    "ladder:ham_4d:3,2": ("empty", "105 columns; same bounds as search:ham_4d"),
    "ladder:ham_4d:3,3": ("empty", "140 columns; no polynomial quasi-integral of the coupled system"),
    "ladder:five_dim:3,0": ("span:ywq", "56 columns; only y - w*q (lambda=-1), kernel dimension 1"),
    "ladder:K1_sys:8,3": ("span:I1,I1^2", "180 columns; every integral of degree <= 8 is a polynomial in I1"),
    "cliff:ham_4d:3,4": (
        "empty",
        "175 columns; rank 174/175/175 for lambda 0/-1/1 at a random specialization mod 2^61-1",
    ),
}

GROUP = {
    **{
        f"relation:th1:{name}": ("pass", "D3(2) relation of s0, s1, s2 (involutions, braid orders 4, 4, 2)")
        for name in ("s0^2", "s1^2", "s2^2", "(s0 s1)^4", "(s1 s2)^4", "(s0 s2)^2")
    },
    **{
        f"relation:th2:{name}": ("pass", "D3(2) relation with the diagram automorphism pi")
        for name in (
            "s0^2", "s1^2", "s2^2", "(s0 s1)^4", "(s1 s2)^4", "(s0 s2)^2",
            "pi^2", "pi s0 pi = s2", "pi s1 pi = s1",
        )
    },
    "translations": ("pass", "t1 shifts by (-2,2,0) and t2 by (0,-2,2) as printed"),
    **{f"orbit:t1:{i}": ("shift:-2,2,0", "t1 = s1 s2 s1 s0 translates by (-2,2,0)") for i in range(3)},
    **{f"orbit:t2:{i}": ("shift:0,-2,2", "t2 = s1 s1 s2 s1 s0 s1 translates by (0,-2,2)") for i in range(3)},
}

INTEGRATE = {
    "traj:five_dim:adaptive": ("pass", "ywq drift < 1e-6 at tolerance 1e-10 (criterion 5)"),
    "traj:five_dim:grid1001": ("pass", "ywq drift < 1e-6; residuals of the path and its s1 image < 1e-4"),
    "traj:five_dim:fixed": ("pass", "h = 1e-3: ywq drift < 1e-6, s1 pushforward residual < 1e-4 (criterion 5)"),
    "traj:five_dim:convergence": ("pass", "residual ratios between halved steps lie in (3, 5) (criterion 5)"),
    "traj:five_dim:reduce": ("pass", "reduce_5d_4d image solves ham_4d to residual < 1e-4"),
    "traj:five_dim:blowup": ("blow_up", "from (1,1,1,-1,1) the flow blows up near u = 3.2, before u = 10"),
    "traj:ham_4d:adaptive": ("pass", "s in [0.5, 2] avoids the singular locus s = 0 and completes"),
    "traj:ham_4d:fixed": ("pass", "residuals of the path and its s1_4d image < 1e-4"),
    "traj:K1_sys": ("pass", "I1 drift < 1e-6 at tolerance 1e-10"),
    "traj:linear_xz": ("pass", "x(1) and z(1) match the closed form to 1e-8"),
}

EXPECTED = {**SUITE, **VARIANTS, **LADDER, **GROUP, **INTEGRATE}
