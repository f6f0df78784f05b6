"""End-to-end acceptance: one test per shipped guarantee, at stated tolerance.

Each test here re-derives its expected values from an independent oracle
(quadrature, closed forms, or direct construction) rather than trusting the
module under test.  Run with ``pytest -v tests/test_acceptance.py`` to get
one pass/fail line per guarantee.
"""

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import ode_plane_profile
from umbilic.conformal import (
    conformality_check,
    h2xi_to_h3_map,
    pushforward,
    s2xr_to_r3_map,
    sol_flattening,
)
from umbilic.elliptic import elliptic_K, jacobi_am, jacobi_cn, jacobi_sn
from umbilic.families import build_family
from umbilic.geometry import h2xr, parabolic, rotation, sol, vertical_shift
from umbilic.profiles import (
    h2xr_parabolic_profile,
    s2xr_profile,
    sol_profile,
)
from umbilic.surfaces import (
    classify_slice_structure,
    curvature_report,
    mean_curvature_stats,
    orbit_surface,
    patch_from_chart,
    synthetic_profile,
    transform_patch,
    umbilicity_defect,
)
from umbilic.verify import check_sol_identities, nonexistence_falsifier, run_suite

E4 = float(np.exp(4.0))

# every registered family at every parameter the guarantee quantifies over
FAMILY_SWEEP = (
    [("S2xR_slice", None), ("S2xR_cylinder", None)]
    + [("S2xR_a_lt_1", a) for a in (0.3, 0.6, 0.9)]
    + [("S2xR_a_eq_1", None)]
    + [("S2xR_a_gt_1", a) for a in (1.5, 3.0)]
    + [("H2xR_slice", None), ("H2xR_vertical_plane", None)]
    + [("H2xR_elliptic", b) for b in (0.5, 1.0, 2.0)]
    + [("H2xR_parabolic", None)]
    + [("H2xR_hyperbolic", c) for c in (0.25, 0.5, 0.75)]
    + [("Sol_geodesic_plane", None), ("Sol_Fa", 1.0), ("Sol_Fa", E4)]
)


def test_c01_family_umbilicity():
    for name, param in FAMILY_SWEEP:
        _, patch = build_family(name, param)
        rep = curvature_report(patch, 64, 64)
        assert rep.defect_max < 1e-6, (
            f"{name}(param={param}): defect {rep.defect_max:.3e}")


def test_c02_closed_forms_and_integrated_odes():
    s = np.linspace(-10.0, 10.0, 401)

    border = s2xr_profile(1.0, s_span=(-10.0, 10.0))
    j = border.jet(s)
    assert np.max(np.abs(j["rho"] - (np.pi / 2 - 2 * np.arctan(np.exp(-s))))) < 1e-12
    assert np.max(np.abs(j["t"] - np.log(np.cosh(s)))) < 1e-12

    para = h2xr_parabolic_profile(s_span=(-10.0, 10.0))
    jp = para.jet(s)
    assert np.max(np.abs(jp["rho"] + np.log(np.cosh(s)))) < 1e-12
    assert np.max(np.abs(jp["t"] - (2 * np.arctan(np.exp(s)) - np.pi / 2))) < 1e-12

    for closed, ode in (
        (border, ode_plane_profile("s2xr", 1.0, s_span=(-10.0, 10.0))),
        (para, ode_plane_profile("h2xr-parabolic", None, s_span=(-10.0, 10.0))),
    ):
        for key in ("rho", "t", "theta"):
            gap = np.max(np.abs(closed.jet(s)[key] - ode.jet(s)[key]))
            assert gap < 1e-8, f"{closed.name} vs ODE on {key}: {gap:.3e}"


def test_c03_winding_periods_and_closure():
    for a in (0.3, 0.6, 0.9):
        curve = s2xr_profile(a)
        s1 = curve.period_data.s1
        oracle = quad(lambda r: 1.0 / np.sqrt(1.0 - a * a * np.sin(r) ** 2),
                      0.0, np.pi, epsabs=1e-12, epsrel=1e-12)[0]
        assert abs(s1 - oracle) < 1e-8
        assert abs(s1 - 2.0 * elliptic_K(a * a)) < 1e-8
        s = np.linspace(-s1, s1, 101)
        ja, jb = curve.jet(s), curve.jet(s + 2 * s1)
        assert np.max(np.abs(jb["rho"] - ja["rho"] - 2 * np.pi)) < 1e-8
        assert np.max(np.abs(jb["t"] - ja["t"])) < 1e-8

    for a in (1.5, 3.0):
        delta = s2xr_profile(a).period_data.delta
        # int_0^{arcsin 1/a} (1 - a^2 sin^2 r)^{-1/2} dr, made regular at the
        # turning point by the substitution sin r = sin(phi) / a
        oracle = quad(lambda p: 1.0 / np.sqrt(a * a - np.sin(p) ** 2),
                      0.0, np.pi / 2, epsabs=1e-12, epsrel=1e-12)[0]
        assert abs(delta - oracle) < 1e-8


def test_c04_amplitude_function_cross_check():
    a = 0.6
    curve = s2xr_profile(a)
    s1 = curve.period_data.s1
    s = np.linspace(-2 * s1, 2 * s1, 801)
    assert np.max(np.abs(curve.jet(s)["rho"] - jacobi_am(s, a * a))) < 1e-8

    u = np.linspace(-20.0, 20.0, 1000)
    for m in (0.1, 0.36, 0.9, 0.99):
        pyth = jacobi_sn(u, m) ** 2 + jacobi_cn(u, m) ** 2
        assert np.max(np.abs(pyth - 1.0)) < 1e-12


def test_c05_product_identities_and_killing_grid():
    suite = run_suite("product-identities")
    required = {"daniel_formula", "gradient_product", "bracket_TJT", "jt_nu"}
    seen = set()
    for check in suite["checks"]:
        if check["identity"] in required:
            seen.add(check["identity"])
            assert check["max_residual"] < 1e-5, (
                f"{check['identity']} on {check['space']}: "
                f"{check['max_residual']:.3e}")
    assert seen == required

    killing = run_suite("killing-grid")
    assert killing["n_checks"] == 6
    assert killing["max_residual"] < 1e-8


def test_c06_falsifier_floors_and_controls():
    for kappa, tau in ((0.0, 0.5), (-1.0, 1.0), (1.0, 1.0)):
        found = nonexistence_falsifier(kappa, tau, n_starts=50, seed=7)
        assert found["min_defect_found"] > 1e-2, (
            f"(kappa={kappa}, tau={tau}): floor "
            f"{found['min_defect_found']:.3e} via {found['best_params']}")

    # in a space form and in a product, the same search must find an
    # umbilic surface (geodesic sphere, resp. totally geodesic graph)
    space_form = nonexistence_falsifier(1.0, 0.5, family="sphere",
                                        n_starts=2, budget=300, seed=1)
    assert space_form["min_defect_found"] < 1e-6
    product = nonexistence_falsifier(-1.0, 0.0, family="graph",
                                     n_starts=2, budget=400, seed=1)
    assert product["min_defect_found"] < 1e-6


def test_c07_sol_graphs_and_geodesic_plane():
    assert sol_profile(1.0).jet(0.0)["z"] == 0.0
    assert abs(sol_profile(E4).jet(0.0)["z"] - 1.0) < 1e-14

    for a in (1.0, E4):
        curve = sol_profile(a)
        y = np.linspace(-0.9 * curve.span[1], 0.9 * curve.span[1], 257)
        j = curve.jet(y)
        resid = np.max(np.abs(
            j["z_yy"] + 3.0 * j["z_y"] ** 2 + 2.0 * np.exp(-2.0 * j["z"])))
        assert resid < 1e-8, f"graph equation residual at a={a}: {resid:.3e}"

        _, patch = build_family("Sol_Fa", a)
        lie = check_sol_identities(patch)[2]
        assert lie.extras["alpha_max"] < 1e-8

    # (x, y, z) -> (e^{-1} x, e y, z + 1) carries the a = 1 graph to a = e^4
    base, big = sol_profile(1.0), sol_profile(E4)
    y = np.linspace(-0.8 * base.span[1], 0.8 * base.span[1], 101)
    gap = np.max(np.abs(big.jet(np.e * y)["z"] - (base.jet(y)["z"] + 1.0)))
    assert gap < 1e-8

    plane = patch_from_chart(
        sol(), "z=0",
        lambda U, V: np.stack([U, V, np.zeros_like(U)], axis=-1),
        (-1.0, 1.0), (-1.0, 1.0))
    assert mean_curvature_stats(plane, 64, 64)["max_abs"] < 1e-8
    assert umbilicity_defect(plane, 64, 64)["max"] > 0.1


def test_c08_minimal_companion():
    comp = orbit_surface(h2xr_parabolic_profile(), parabolic(0.0, 1.0),
                         s_range=(-4.0, 4.0), profile_ideal=np.pi,
                         name="companion")
    assert mean_curvature_stats(comp, 64, 64)["max_abs"] < 1e-6


def test_c09_conformal_maps_and_flattening():
    xs = np.linspace(-1.2, 1.2, 9)
    ts = np.linspace(-1.0, 1.0, 5)
    X, Y, T = np.meshgrid(xs, xs, ts, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel(), T.ravel()])
    assert conformality_check(s2xr_to_r3_map(), pts)["max_off_proportionality"] < 1e-8

    xs = np.linspace(-0.45, 0.45, 9)
    ts = np.pi / 2 + np.linspace(-1.0, 1.0, 5)
    X, Y, T = np.meshgrid(xs, xs, ts, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel(), T.ravel()])
    assert conformality_check(h2xi_to_h3_map(), pts)["max_off_proportionality"] < 1e-8

    # the parabolic orbit surface, lifted into the slab, becomes a horosphere
    sp = orbit_surface(h2xr_parabolic_profile(), parabolic(np.pi, 1.0),
                       s_range=(-4.0, 4.0), name="S_P")
    lifted = transform_patch(sp, vertical_shift(np.pi / 2))
    rep = curvature_report(pushforward(h2xi_to_h3_map(), lifted), 32, 32)
    assert rep.defect_max < 1e-5
    for lam in (rep.lambda1[rep.included], rep.lambda2[rep.included]):
        assert np.max(np.abs(np.abs(lam) - 1.0)) < 1e-4

    # the zero slice of S^2 x R maps to the unit sphere
    sl = orbit_surface(synthetic_profile("s2xr", "horizontal", 0.0),
                       rotation(1.0), s_range=(0.05, 3.0))
    ps = pushforward(s2xr_to_r3_map(), sl)
    U, V = ps.grid(24, 24)
    assert np.max(np.abs(np.linalg.norm(ps.chart(U, V), axis=-1) - 1.0)) < 1e-10

    fl = sol_flattening(sol_profile(1.0))
    assert fl["xi_strictly_increasing"]
    assert fl["conformal_residual"] < 1e-8
    assert abs(fl["conformal_scale"] - 1.0) < 1e-8
    # g_yy = e^{-2z} + z'^2 collapses to a multiple of e^{-6z} on solutions;
    # the report records how far the e^{-z} power law would be instead
    assert abs(fl["g_yy_exponent"] + 6.0) < 1e-6
    assert fl["g_yy_vs_scale_e_minus_6z"] < 1e-8
    assert fl["g_yy_vs_e_minus_z"] > 1.0


def test_c10_slice_classifier():
    for b in (0.5, 1.0, 2.0):
        curve, patch = build_family("H2xR_elliptic", b)
        entry = classify_slice_structure(patch, [float(curve.jet(1.0)["t"])])[0]
        assert entry["tag"] == "elliptic", f"b={b}: {entry}"
        assert entry["k_g_residual"] < 1e-4

    _, patch = build_family("H2xR_parabolic")
    entry = classify_slice_structure(patch, [0.2])[0]
    assert entry["tag"] == "parabolic", entry
    assert entry["k_g_residual"] < 1e-4

    for c in (0.25, 0.5, 0.75):
        curve, patch = build_family("H2xR_hyperbolic", c)
        entry = classify_slice_structure(patch, [float(curve.jet(0.8)["t"])])[0]
        assert entry["tag"] == "hyperbolic", f"c={c}: {entry}"
        assert entry["k_g_residual"] < 1e-4

    # negative control: a wavy tilted graph is invariant under no slice group
    tilt = patch_from_chart(
        h2xr(-1.0), "tilted",
        lambda U, V: np.stack(
            [0.15 + 0.25 * U, 0.25 * V,
             U * (1.0 + 0.2 * np.sin(2.0 * V))], axis=-1),
        (-0.8, 0.8), (-0.8, 0.8))
    entry = classify_slice_structure(tilt, [0.1])[0]
    assert entry["tag"] == "none", entry
