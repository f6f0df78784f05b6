"""Identity checks, their FD convergence, and the umbilic falsification search."""

import copy
from functools import partial

import numpy as np
import pytest
from scipy.optimize import minimize

from umbilic.families import build_family
from umbilic.geometry import ChartDomainError, h2xr, m3, metric_at, s2xr, sol
from umbilic.surfaces import ImmersionError, curvature_report, patch_from_chart
from umbilic.verify import (
    _TRIAL_FAMILIES,
    _lockstep,
    _nelder_mead,
    IdentityCheck,
    NonUmbilicPatchError,
    SUITE_NAMES,
    check_bracket_and_jtnu,
    check_curvature_commutator,
    check_daniel_formula,
    check_gradient_identity,
    check_killing,
    check_sol_identities,
    geodesic_sphere_patch,
    nonexistence_falsifier,
    rotational_graph_patch,
    run_suite,
    trial_defect,
    trial_defects,
    trial_patch,
)


@pytest.fixture(scope="module")
def patches():
    built = {
        "a_lt": build_family("S2xR_a_lt_1", 0.6),
        "a_eq": build_family("S2xR_a_eq_1"),
        "b": build_family("H2xR_elliptic", 0.8),
        "p": build_family("H2xR_parabolic"),
        "c": build_family("H2xR_hyperbolic", 0.5),
        "slice_s2": build_family("S2xR_slice"),
        "fa": build_family("Sol_Fa", 1.0),
    }
    out = {k: v[1] for k, v in built.items()}
    out["plane_y0"] = patch_from_chart(sol(), "sol-y0", lambda U, V: np.stack(
        [U, np.zeros_like(U), V], axis=-1), (-1.0, 1.0), (-1.0, 1.0))
    return out


# --- vertical Killing field ----------------------------------------------------


@pytest.mark.parametrize("kappa,tau", [(0.0, 0.5), (-1.0, 1.0), (1.0, 1.0)])
def test_killing_identity_on_fibrations(kappa, tau):
    c = check_killing(m3(kappa, tau), seed=3)
    assert c.residual_stats["max"] < 1e-8


def test_killing_field_is_parallel_on_products():
    for sp in (s2xr(), h2xr()):
        c = check_killing(sp, seed=3)
        assert c.residual_stats["max"] < 1e-14


def test_killing_grid_suite():
    rep = run_suite("killing-grid", seed=0)
    assert rep["n_checks"] == 6
    assert rep["max_residual"] < 1e-8


# --- curvature commutator and fibration curvature formula ----------------------


@pytest.mark.parametrize("key,space", [
    ("a_lt", s2xr()), ("a_eq", s2xr()), ("b", h2xr()), ("c", h2xr()),
])
def test_commutator_identity_on_umbilic_patches(patches, key, space):
    c = check_curvature_commutator(space, patches[key])
    assert c.residual_stats["max"] < 1e-5


def test_commutator_requires_umbilic_patch():
    sp = m3(0.0, 0.5)
    graph = rotational_graph_patch(sp, [0.1, 0.3, -0.2])
    with pytest.raises(NonUmbilicPatchError):
        check_curvature_commutator(sp, graph)


def test_daniel_formula_on_rotational_patch(patches):
    c = check_daniel_formula(s2xr(), patches["a_lt"])
    assert c.residual_stats["max"] < 1e-6


def test_daniel_formula_holds_off_umbilic_surfaces():
    sp = m3(0.0, 0.5)
    graph = rotational_graph_patch(sp, [0.1, 0.3, -0.2])
    c = check_daniel_formula(sp, graph)
    assert c.residual_stats["max"] < 1e-6


def test_daniel_formula_slice_both_sides_vanish(patches):
    c = check_daniel_formula(s2xr(), patches["slice_s2"])
    assert c.residual_stats["max"] < 1e-12


def test_daniel_formula_space_form_right_side_vanishes():
    # kappa = 4 tau^2: the factor is zero and the residual reduces to
    # |R(X_u, X_v)N|, which vanishes in constant curvature
    sp = m3(1.0, 0.5)
    assert sp.is_space_form
    graph = rotational_graph_patch(sp, [0.1, 0.3])
    c = check_daniel_formula(sp, graph)
    assert c.residual_stats["max"] < 1e-6


def test_daniel_formula_needs_a_vertical_field(patches):
    with pytest.raises(ValueError):
        check_daniel_formula(sol(), patches["fa"])


def test_daniel_grid_on_geodesic_spheres():
    rep = run_suite("daniel-grid", seed=0)
    assert rep["n_checks"] == 7
    assert rep["max_residual"] < 1e-6


# --- gradient law ---------------------------------------------------------------


def test_gradient_identity_a1_surface(patches):
    c = check_gradient_identity(s2xr(), patches["a_eq"])
    assert c.name == "gradient_product"
    assert c.residual_stats["max"] < 1e-5


def test_gradient_identity_slice_trivial(patches):
    c = check_gradient_identity(s2xr(), patches["slice_s2"])
    assert c.residual_stats["max"] < 1e-12


def test_gradient_identity_sol_graph(patches):
    c = check_gradient_identity(sol(), patches["fa"])
    assert c.name == "gradient_sol"
    assert c.residual_stats["max"] < 1e-5


def test_gradient_identity_rejects_non_umbilic():
    sp = m3(0.0, 0.5)
    graph = rotational_graph_patch(sp, [0.1, 0.3, -0.2])
    with pytest.raises(NonUmbilicPatchError, match="defect"):
        check_gradient_identity(sp, graph)


def test_gradient_identity_space_mismatch(patches):
    with pytest.raises(ValueError, match="does not match"):
        check_gradient_identity(h2xr(), patches["a_eq"])


# --- bracket of T and JT --------------------------------------------------------


def test_bracket_and_jtnu_on_hyperbolic_family(patches):
    br, jn = check_bracket_and_jtnu(h2xr(), patches["c"])
    assert br.residual_stats["max"] < 1e-5
    assert jn.residual_stats["max"] < 1e-5


def test_bracket_slice_is_vacuous(patches):
    br, jn = check_bracket_and_jtnu(s2xr(), patches["slice_s2"])
    assert br.skipped_points == 16 * 16
    assert br.residual_stats["max"] == 0.0
    assert jn.residual_stats["max"] == 0.0


def test_jtnu_on_small_sphere_family(patches):
    _, jn = check_bracket_and_jtnu(s2xr(), patches["a_lt"])
    assert jn.residual_stats["max"] < 1e-5


def test_bracket_rejects_fibration_spaces():
    sp = m3(0.0, 0.5)
    graph = rotational_graph_patch(sp, [0.0])
    with pytest.raises(ValueError, match="product"):
        check_bracket_and_jtnu(sp, graph)


# --- Sol identities --------------------------------------------------------------


def test_sol_identities_on_fa(patches):
    frame, curved, lie = check_sol_identities(patches["fa"])
    assert frame.name == "sol_frame_table"
    assert frame.residual_stats["max"] < 1e-12
    assert curved.name == "sol_curvature_formula"
    assert curved.residual_stats["max"] < 1e-12
    assert lie.name == "lie_lambda"
    assert lie.residual_stats["max"] < 1e-5
    assert lie.extras["alpha_max"] < 1e-8
    assert lie.extras["beta_max"] > 0.1


def test_sol_identities_geodesic_plane_vacuous(patches):
    frame, curved, lie = check_sol_identities(patches["plane_y0"])
    assert frame.residual_stats["max"] < 1e-12
    assert curved.residual_stats["max"] < 1e-12
    assert lie.residual_stats["max"] < 1e-9
    assert lie.extras["alpha_max"] < 1e-9
    assert lie.extras["beta_max"] < 1e-9


def test_sol_identities_reject_other_spaces(patches):
    with pytest.raises(ValueError, match="Sol"):
        check_sol_identities(patches["a_eq"])


# --- FD machinery sanity ----------------------------------------------------------


@pytest.mark.parametrize("key,check", [
    ("c", lambda patch: check_bracket_and_jtnu(h2xr(), patch)),
    ("fa", check_sol_identities),
])
def test_stencil_checks_evaluate_five_jets(patches, key, check):
    # the center and its four shifts, each evaluated once per check
    patch = copy.copy(patches[key])
    calls = []

    def counted(U, V):
        calls.append(np.shape(U))
        return patches[key].jet(U, V)

    patch.jet = counted
    check(patch)
    assert len(calls) == 5



@pytest.mark.parametrize("check,args", [
    (check_gradient_identity, ("a_lt", s2xr())),
    (check_curvature_commutator, ("a_lt", s2xr())),
])
def test_residual_at_least_halves_with_the_step(patches, check, args):
    key, sp = args
    r1 = check(sp, patches[key], fd_step=2e-2).residual_stats["max"]
    r2 = check(sp, patches[key], fd_step=1e-2).residual_stats["max"]
    assert r2 <= 0.6 * r1


def test_bracket_residual_at_least_halves_with_the_step(patches):
    b1, _ = check_bracket_and_jtnu(s2xr(), patches["a_lt"], fd_step=2e-2)
    b2, _ = check_bracket_and_jtnu(s2xr(), patches["a_lt"], fd_step=1e-2)
    assert b2.residual_stats["max"] <= 0.6 * b1.residual_stats["max"]


def test_identity_check_validates_inputs():
    with pytest.raises(ValueError, match="unknown identity"):
        IdentityCheck("bogus", (16, 16), {"max": 0.0, "mean": 0.0})
    with pytest.raises(ValueError, match="max >= mean"):
        IdentityCheck("killing", (16, 16), {"max": 1.0, "mean": 2.0})


def test_checks_demand_enough_points():
    with pytest.raises(ValueError, match="256"):
        check_killing(m3(0.0, 0.5), grid=(8, 8))


def test_report_serialization_shape(patches):
    c = check_gradient_identity(sol(), patches["fa"])
    rep = c.as_report(sol())
    assert set(rep) == {"identity", "space", "grid", "max_residual",
                        "mean_residual", "skipped_points"}
    assert rep["space"] == {"kind": "sol", "kappa": None, "tau": None}
    rep2 = check_killing(m3(-1.0, 1.0)).as_report(m3(-1.0, 1.0))
    assert rep2["space"] == {"kind": "m3", "kappa": -1.0, "tau": 1.0}


# --- trial families ---------------------------------------------------------------


def test_rotational_graph_jet_matches_differenced_chart():
    p = rotational_graph_patch(m3(0.0, 0.5), [0.3, -0.4, 0.05])
    U, V = p.grid(8, 8)
    j = p.jet(U, V)
    h = 1e-6

    def X(u, v):
        return p.jet(u, v)["X"]

    du = (X(U + h, V) - X(U - h, V)) / (2 * h)
    dv = (X(U, V + h) - X(U, V - h)) / (2 * h)
    # larger step for the second difference: its rounding error grows as 1/h^2
    h2 = 1e-4
    duu = (X(U + h2, V) - 2 * j["X"] + X(U - h2, V)) / h2**2
    assert np.max(np.abs(du - j["Xu"])) < 1e-8
    assert np.max(np.abs(dv - j["Xv"])) < 1e-8
    assert np.max(np.abs(duu - j["Xuu"])) < 1e-6


def test_geodesic_sphere_has_the_right_radius_in_flat_chart():
    # m3(0, 0) is the Euclidean space in this chart, so geodesic spheres
    # are round spheres about the center
    patch = geodesic_sphere_patch(m3(0.0, 0.0), center_height=0.3,
                                  radius=1.2, n_steps=32)
    U, V = patch.grid(8, 8)
    X = patch.chart(U, V)
    r = np.linalg.norm(X - np.array([0.0, 0.0, 0.3]), axis=-1)
    assert np.max(np.abs(r - 1.2)) < 1e-10


def _stencil_sphere(space, center_height, radius, n_steps):
    # the geodesic sphere with the 9-point finite-difference jet of its real
    # RK4 chart, as the patch was built before its Jacobi-field jet
    p = geodesic_sphere_patch(space, center_height, radius, n_steps=n_steps)
    return patch_from_chart(space, "stencil-sphere", p.chart, p.u_range,
                            p.v_range)


@pytest.mark.parametrize("n_steps", [12, 96])
def test_sphere_jacobi_jet_matches_the_stencil(n_steps):
    sp = m3(0.0, 0.5)
    p = geodesic_sphere_patch(sp, 0.2, 1.3, n_steps=n_steps)
    U, V = p.grid(12, 12)
    got = p.jet(U, V)
    want = _stencil_sphere(sp, 0.2, 1.3, n_steps).jet(U, V)
    # the real part of the complex flow is the real flow, up to the rounding
    # of complex products
    assert np.max(np.abs(got["X"] - p.chart(U, V))) <= 1e-14
    for key in ("Xu", "Xv"):
        assert np.max(np.abs(got[key] - want[key])) <= 1e-7
    # Gauss lemma: the end velocity is normal to the sphere, up to the
    # flow's truncation error (1e-6 at 12 steps, 2e-10 at 96)
    g_normal = np.einsum("...ij,...j->...i", metric_at(sp, got["X"]), got["normal"])
    for key in ("Xu", "Xv"):
        assert np.max(np.abs(np.sum(g_normal * got[key], axis=-1))) <= 1e-5


@pytest.mark.parametrize("kappa,tau", [(0.0, 0.5), (-1.0, 1.0), (1.0, 1.0),
                                       (-1.0, 0.0)])
def test_sphere_curvatures_match_the_stencil(kappa, tau):
    sp = m3(kappa, tau)
    p = geodesic_sphere_patch(sp, 0.1, 0.9, n_steps=96)
    got = curvature_report(p, 12, 12)
    want = curvature_report(_stencil_sphere(sp, 0.1, 0.9, 96), 12, 12)
    assert np.array_equal(got.included, want.included)
    for name in ("lambda1", "lambda2", "mean_curvature"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-5, name


def test_sphere_flow_checks_every_stage_in_the_chart():
    # the complex-step flow must reject a sphere that leaves the disk chart
    # of m3(-1, 1/2), as the real flow does
    sp = m3(-1.0, 0.5)
    patch = trial_patch(sp, "sphere", [0.0, 100.0])
    with pytest.raises(ChartDomainError):
        patch.jet(*patch.grid(4, 1))
    with pytest.raises(ChartDomainError):
        trial_defect(sp, "sphere", [0.0, 100.0])


def _polynomial_graph_jet(coeffs, U, V):
    # the rotational graph jet through np.polynomial
    poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    dpoly, ddpoly = poly.deriv(), poly.deriv(2)
    w = U * U
    fp = dpoly(w) * 2.0 * U
    fpp = ddpoly(w) * 4.0 * w + 2.0 * dpoly(w)
    cv, sv = np.cos(V), np.sin(V)
    zero = np.zeros_like(U)
    return {
        "X": np.stack([U * cv, U * sv, poly(w)], axis=-1),
        "Xu": np.stack([cv, sv, fp], axis=-1),
        "Xv": np.stack([-U * sv, U * cv, zero], axis=-1),
        "Xuu": np.stack([zero, zero, fpp], axis=-1),
        "Xuv": np.stack([-sv, cv, zero], axis=-1),
        "Xvv": np.stack([-U * cv, -U * sv, zero], axis=-1),
    }


@pytest.mark.parametrize("k", range(1, 7))
def test_graph_jet_matches_np_polynomial_bitwise(k):
    rng = np.random.default_rng(k)
    sp = m3(0.0, 0.5)
    rows = np.vstack([np.zeros(k), rng.uniform(-2.0, 2.0, (3, k))])
    U, V = rotational_graph_patch(sp, rows[0]).grid(24, 24)
    batched = rotational_graph_patch(sp, rows).jet(
        np.broadcast_to(U, (4,) + U.shape), np.broadcast_to(V, (4,) + V.shape))
    for r, coeffs in enumerate(rows):
        want = _polynomial_graph_jet(coeffs, U, V)
        got = rotational_graph_patch(sp, coeffs).jet(U, V)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), (k, r, key)
            assert batched[key][r].tobytes() == want[key].tobytes(), (k, r, key)


def _one_trial_defect(space, family, params, grid):
    # the objective of one trial surface, a scalar-parameter patch through
    # curvature_report
    patch = trial_patch(space, family, params)
    try:
        with np.errstate(all="ignore"):
            val = curvature_report(patch, *grid).defect_max
    except ImmersionError:
        return 1e3
    return val if np.isfinite(val) else 1e3


@pytest.mark.parametrize("family,rows,grid", [
    ("graph", [[0.0] * 6, [0.1, 0.3, -0.2, 0.0, 0.5, -1.0], [0.4, -0.1, 0.2, 0.3, 0.0, 0.1]],
     (24, 1)),
    ("graph", [[0.0] * 6, [0.1, 0.3, -0.2, 0.0, 0.5, -1.0]], (24, 24)),
    ("sphere", [[0.0, 1.0], [0.0, 1e-12], [0.3, 0.7]], (12, 12)),
])
def test_trial_defects_rows_match_one_at_a_time(family, rows, grid):
    sp = m3(0.0, 0.5)
    got = trial_defects(sp, family, rows, grid=grid)
    want = [_one_trial_defect(sp, family, row, grid) for row in rows]
    assert got.tolist() == want
    assert [trial_defect(sp, family, row, grid=grid) for row in rows] == want
    if family == "sphere":
        assert want[1] == 1e3


@pytest.mark.parametrize("kappa,tau", [
    (0.0, 0.5), (-1.0, 1.0), (1.0, 1.0), (1.0, 0.5), (-1.0, 0.0)])
def test_graph_meridian_max_matches_the_full_grid(kappa, tau):
    # rotations about the z axis are isometries that fix each graph, so one
    # meridian sees the same defect as every parallel
    sp = m3(kappa, tau)
    rng = np.random.default_rng(3)
    P = np.vstack([np.zeros(6), rng.uniform(-0.5, 0.5, (4, 6))])
    meridian = trial_defects(sp, "graph", P, grid=(24, 1))
    full = trial_defects(sp, "graph", P, grid=(24, 24))
    assert np.all(full < 1e3)
    # the flat graph is umbilic in the space form (1, 1/2) and totally
    # geodesic in H2xR, where both maxima are round-off near 1e-16
    assert np.all(np.abs(meridian - full) <= 1e-12 * full + 1e-14)


@pytest.mark.parametrize("kappa,tau", [
    (0.0, 0.5), (-1.0, 1.0), (1.0, 1.0), (1.0, 0.5), (-1.0, 0.0)])
def test_sphere_meridian_max_matches_the_full_grid(kappa, tau):
    # with Jacobi-field jets the sphere defect carries no differencing noise,
    # so like a graph's it is constant along parallels up to rounding
    sp = m3(kappa, tau)
    rng = np.random.default_rng(5)
    bounds = _TRIAL_FAMILIES["sphere"]["bounds"]
    P = np.vstack([[0.0, 1.0]] + [[rng.uniform(lo, hi) for lo, hi in bounds]
                                  for _ in range(4)])
    meridian = trial_defects(sp, "sphere", P, grid=(24, 1))
    full = trial_defects(sp, "sphere", P, grid=(24, 24))
    assert np.all(full < 1e3)
    # the spheres of the space form (1, 1/2) are umbilic up to the flow's
    # truncation error, about 1e-8 here
    assert np.all(np.abs(meridian - full) <= 1e-11 * full + 1e-14)


# --- lockstep Nelder-Mead ----------------------------------------------------------


def _scipy_restart(objective, x0, bounds, maxfev, options):
    # scipy's Nelder-Mead, with every value and the count at each iteration end
    values, ends = [], []

    def f(x):
        values.append(objective(x))
        return values[-1]

    res = minimize(f, x0, method="Nelder-Mead", bounds=bounds,
                   callback=lambda xk: ends.append(len(values)),
                   options={"maxfev": maxfev, **options})
    return res, values, ends


def _capped_step(values, ends, n, budget):
    # the step whose request evaluation number budget + 1 answered
    if budget < n + 1:
        return "initial"
    pos = budget - max(e for e in [n + 1] + ends if e <= budget)
    if pos == 0:
        return "reflection"
    if pos == 1:
        best = min(values[:budget - 1])
        return "expansion" if values[budget - 1] < best else "contraction"
    return "shrink"


@pytest.mark.parametrize("family,kappa_tau,grid,budgets,starts", [
    ("graph", (0.0, 0.5), (24, 1), range(8, 61, 3), 2),
    ("sphere", (1.0, 0.5), (6, 6), (8, 9, 13, 16, 21, 34, 55), 1),
])
def test_lockstep_matches_scipy_nelder_mead(family, kappa_tau, grid, budgets,
                                           starts):
    sp = m3(*kappa_tau)
    spec = _TRIAL_FAMILIES[family]
    bounds, options = spec["bounds"], spec["options"]

    def one(x):
        return trial_defect(sp, family, x, grid=grid)

    stops = set()
    for budget in budgets:
        x0s = [np.array([rng.uniform(lo, hi) for lo, hi in bounds])
               for rng in (np.random.default_rng((budget, k)) for k in range(starts))]
        runs = [_nelder_mead(x0, bounds, budget, **options) for x0 in x0s]
        got = _lockstep(partial(trial_defects, sp, family, grid=grid), runs)
        for x0, (x, fun, nfev, success) in zip(x0s, got):
            res, _, _ = _scipy_restart(one, x0, bounds, budget, options)
            assert np.array_equal(x, res.x) and fun == res.fun
            assert (nfev, success) == (res.nfev, res.success)
            if success:
                stops.add("converged")
            else:
                _, values, ends = _scipy_restart(one, x0, bounds, budget + 1,
                                                 options)
                stops.add(_capped_step(values, ends, len(x0), budget))
    expected = {"graph": {"reflection", "expansion", "contraction"},
                "sphere": {"reflection", "expansion", "contraction", "shrink",
                           "converged"}}
    assert stops >= expected[family]


def test_falsifier_makes_one_surface_fields_call_per_round(monkeypatch):
    import umbilic.surfaces
    import umbilic.verify

    calls = []
    original = umbilic.surfaces.surface_fields

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in (umbilic.surfaces, umbilic.verify):
        monkeypatch.setattr(module, "surface_fields", counted)
    r = nonexistence_falsifier(0.0, 0.5, family="graph", n_starts=10,
                               budget=400, seed=0)
    assert r["n_evals"] == 400
    # every round advances every pending restart, so there are at most as
    # many rounds as evaluations per restart
    assert len(calls) <= 400 // 10


# --- falsification search ----------------------------------------------------------


def test_falsifier_space_form_control_finds_spheres():
    r = nonexistence_falsifier(1.0, 0.5, family="sphere", n_starts=2,
                               budget=300, seed=1)
    assert r["min_defect_found"] < 1e-6
    assert r["best_params"]["family"] == "sphere"


def test_falsifier_product_control_finds_slices():
    r = nonexistence_falsifier(-1.0, 0.0, family="graph", n_starts=2,
                               budget=400, seed=1)
    assert r["min_defect_found"] < 1e-6


def test_falsifier_small_run_stays_off_the_floor():
    # measured floor for (0, 1/2) with converged budgets: 3.23e-2
    r = nonexistence_falsifier(0.0, 0.5, family="graph", n_starts=3,
                               budget=900, seed=0)
    assert r["min_defect_found"] > 1e-2


def test_falsifier_flags_exhausted_budget():
    r = nonexistence_falsifier(0.0, 0.5, family="auto", n_starts=3,
                               budget=24, seed=0)
    assert r["partial"] is True
    assert r["min_defect_found"] > 0.0


def test_falsifier_is_deterministic():
    r1 = nonexistence_falsifier(0.0, 0.5, family="graph", n_starts=2,
                                budget=200, seed=5)
    r2 = nonexistence_falsifier(0.0, 0.5, family="graph", n_starts=2,
                                budget=200, seed=5)
    assert r1 == r2


def test_falsifier_reports_composition():
    r = nonexistence_falsifier(0.0, 0.5, family="auto", n_starts=3,
                               budget=60, seed=0)
    assert set(r["floors_by_family"]) == {"graph", "sphere"}
    assert r["n_starts"] == {"graph": 3, "sphere": 3}


def test_falsifier_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        nonexistence_falsifier(0.0, 0.5, family="bogus")


def test_trial_defect_penalizes_degenerate_params():
    assert trial_defect(m3(0.0, 0.5), "sphere", [0.0, 1e-12]) == 1e3


# --- suites ------------------------------------------------------------------------


def test_product_identities_suite():
    rep = run_suite("product-identities", seed=0)
    assert rep["n_checks"] == 32
    assert rep["max_residual"] < 1e-5
    names = {c["identity"] for c in rep["checks"]}
    assert {"daniel_formula", "curvature_commutator", "gradient_product",
            "bracket_TJT", "jt_nu", "killing"} <= names


def test_sol_identities_suite():
    rep = run_suite("sol-identities", seed=0)
    assert rep["max_residual"] < 1e-5
    names = [c["identity"] for c in rep["checks"]]
    assert names.count("gradient_sol") == 2


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")
    assert len(SUITE_NAMES) == 4
