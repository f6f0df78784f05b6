"""Identity checks, their FD convergence, and the umbilic falsification search."""

import copy
import json

import mpmath
import numpy as np
import pytest
from oracles import (
    STACKED_CHECKS,
    broadcast_trial_fields,
    complex_step_sphere_patch,
    lockstep_levenberg_marquardt,
    stacked_jet,
)
from scipy.optimize import least_squares

import umbilic.families
import umbilic.verify
from umbilic.families import build_family
from umbilic.geometry import (
    _GL_NODES,
    _GL_WEIGHTS,
    ChartDomainError,
    h2xr,
    h3,
    m3,
    metric_at,
    r3,
    s2xr,
    sol,
)
from umbilic.surfaces import ImmersionError, curvature_report, patch_from_chart, surface_fields
from umbilic.verify import (
    _PRODUCT_SUITE_CASES,
    _TRIAL_FAMILIES,
    _levenberg_marquardt,
    _solve_first_form,
    _trial_fields,
    _trial_grid,
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


def test_first_form_solve_matches_numpy():
    # Cramer's rule on a batch of first fundamental forms, against LAPACK
    rng = np.random.default_rng(4)
    A = rng.normal(size=(48, 48, 2, 2))
    I = A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(2)
    b = rng.normal(size=(48, 48, 2))
    want = np.linalg.solve(I, b[..., None])[..., 0]
    # the solve reads the forms E, F, G of a symmetric I
    assert np.array_equal(I, np.swapaxes(I, -1, -2))
    x0, x1 = _solve_first_form(I[..., 0, 0], I[..., 0, 1], I[..., 1, 1], b[..., 0], b[..., 1])
    scale = np.abs(want).max(axis=-1) * np.linalg.cond(I)
    assert np.all(np.abs(np.stack([x0, x1], -1) - want).max(axis=-1) <= 1e-15 * scale)


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
    # the center grid and its four shifts: the jet sees 5 n_u n_v points,
    # each once, in one call for the center and one for the stacked shifts
    patch = copy.copy(patches[key])
    calls = []

    def counted(U, V):
        calls.append(np.stack(np.broadcast_arrays(U, V), axis=-1).reshape(-1, 2))
        return patches[key].jet(U, V)

    patch.jet = counted
    check(patch)
    points = np.concatenate(calls)
    assert len(calls) == 2
    assert len(points) == 5 * 16 * 16
    assert len(np.unique(points, axis=0)) == len(points)


def test_product_suite_evaluates_five_grids_per_family(monkeypatch):
    # each family's jet sees its grid and the four shifts, 5 n points, where
    # separate checks would evaluate 16 n
    real = umbilic.families.build_family
    points = {}

    def build(name, param=None):
        curve, patch = real(name, param)
        patch, jet = copy.copy(patch), patch.jet
        points[name] = 0

        def counted(U, V):
            points[name] += np.broadcast(U, V).size
            return jet(U, V)

        patch.jet = counted
        return curve, patch

    monkeypatch.setattr(umbilic.families, "build_family", build)
    run_suite("product-identities", grid=(16, 16))
    assert points == {fam: 5 * 16 * 16 for fam, _ in _PRODUCT_SUITE_CASES}


def test_product_suite_computes_each_curvature_tensor_once(monkeypatch):
    calls = []
    real = umbilic.verify._curvature

    def counted(space, *args):
        calls.append(space.kind)
        return real(space, *args)

    monkeypatch.setattr(umbilic.verify, "_curvature", counted)
    run_suite("product-identities", grid=(16, 16))
    assert sorted(calls) == ["h2xr"] * 3 + ["s2xr"] * 3


@pytest.mark.parametrize("suite", ["product-identities", "sol-identities"])
def test_public_checks_match_the_suite(suite):
    # each public check_* builds its own stencil; the suite shares one per
    # patch, and both give the same report
    grid = (16, 16)
    alone = []
    if suite == "product-identities":
        for fam, param in _PRODUCT_SUITE_CASES:
            patch = build_family(fam, param)[1]
            sp = patch.space
            alone += [(sp, c) for c in (
                check_daniel_formula(sp, patch, grid),
                check_curvature_commutator(sp, patch, grid),
                check_gradient_identity(sp, patch, grid),
                *check_bracket_and_jtnu(sp, patch, grid))]
        alone += [(sp, check_killing(sp, grid)) for sp in (s2xr(), h2xr())]
    else:
        for fam, param in (("Sol_Fa", 1.0), ("Sol_geodesic_plane", None)):
            patch = build_family(fam, param)[1]
            alone += [(sol(), c) for c in check_sol_identities(patch, grid)]
            alone.append((sol(), check_gradient_identity(sol(), patch, grid)))
    rep = run_suite(suite, grid=grid)
    assert rep["checks"] == [c.as_report(sp) for sp, c in alone]



@pytest.mark.parametrize("check,args", [
    (check_gradient_identity, ("a_lt", s2xr())),
    (check_curvature_commutator, ("a_lt", s2xr())),
])
def test_residual_at_least_halves_with_the_step(patches, check, args, monkeypatch):
    key, sp = args
    monkeypatch.setattr(umbilic.verify, "STENCIL_STEP", 6e-3)
    r1 = check(sp, patches[key]).residual_stats["max"]
    monkeypatch.setattr(umbilic.verify, "STENCIL_STEP", 3e-3)
    r2 = check(sp, patches[key]).residual_stats["max"]
    assert r2 <= 0.6 * r1


def test_bracket_residual_at_least_halves_with_the_step(patches, monkeypatch):
    monkeypatch.setattr(umbilic.verify, "STENCIL_STEP", 6e-3)
    b1, _ = check_bracket_and_jtnu(s2xr(), patches["a_lt"])
    monkeypatch.setattr(umbilic.verify, "STENCIL_STEP", 3e-3)
    b2, _ = check_bracket_and_jtnu(s2xr(), patches["a_lt"])
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
    j = stacked_jet(p, U, V)
    h = 1e-6

    def X(u, v):
        return p.chart(u, v)

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
    patch = geodesic_sphere_patch(m3(0.0, 0.0), center_height=0.3, radius=1.2)
    U, V = patch.grid(8, 8)
    X = patch.chart(U, V)
    r = np.linalg.norm(X - np.array([0.0, 0.0, 0.3]), axis=-1)
    assert np.max(np.abs(r - 1.2)) < 1e-10


def _stencil_sphere(space, center_height, radius):
    # the geodesic sphere with the 9-point finite-difference jet of its real
    # chart, the end points of the closed-form geodesics
    p = geodesic_sphere_patch(space, center_height, radius)
    return patch_from_chart(space, "stencil-sphere", p.chart, p.u_range,
                            p.v_range)


@pytest.mark.parametrize("n_grid", [12, 96])
def test_sphere_jacobi_jet_matches_the_stencil(n_grid):
    # a coarse grid and a fine one over the same inset domain
    sp = m3(0.0, 0.5)
    p = geodesic_sphere_patch(sp, 0.2, 1.3)
    U, V = p.grid(n_grid, n_grid)
    got = stacked_jet(p, U, V)
    want = stacked_jet(_stencil_sphere(sp, 0.2, 1.3), U, V)
    # the real part of the complex-step geodesics is the real chart, up to
    # the rounding of complex products
    assert np.max(np.abs(got["X"] - p.chart(U, V))) <= 1e-14
    for key in ("Xu", "Xv"):
        assert np.max(np.abs(got[key] - want[key])) <= 1e-7
    # Gauss lemma: the end velocity is normal to the sphere, up to rounding
    # (5.6e-16 measured on the coarse grid, 7.8e-16 on the fine)
    g_normal = np.einsum("...ij,...j->...i", metric_at(sp, got["X"]), got["normal"])
    for key in ("Xu", "Xv"):
        assert np.max(np.abs(np.sum(g_normal * got[key], axis=-1))) <= 1e-13


@pytest.mark.parametrize("kappa,tau", [(-1.0, 0.5), (0.0, 0.5), (1.0, 1.0), (-1.0, 0.0),
                                       (1.0, 0.5), (0.0, 0.0), (-4.0, 1.0)])
def test_sphere_jet_is_rotation_equivariant(kappa, tau):
    # v turns the initial velocity about the z axis, and rotations about that
    # axis are isometries, so X_v is the rotation field J X = (-y, x, 0)
    sp = m3(kappa, tau)
    p = geodesic_sphere_patch(sp, np.array([-0.2, 0.4]), np.array([0.8, 0.6]))
    U, V = p.grid(9, 7)
    j = stacked_jet(p, np.broadcast_to(U, (2,) + U.shape), np.broadcast_to(V, (2,) + V.shape))
    X = j["X"]
    JX = np.stack([-X[..., 1], X[..., 0], np.zeros_like(X[..., 0])], axis=-1)
    assert np.max(np.abs(j["Xv"] - JX)) <= 1e-14


@pytest.mark.parametrize("space", [s2xr(), h2xr(), sol(), h3(), r3()], ids=lambda s: s.kind)
def test_geodesic_sphere_rejects_other_geometries(space):
    # the closed-form geodesics are those of the m3 chart
    with pytest.raises(ValueError, match="m3"):
        geodesic_sphere_patch(space, 0.0, 1.0)


@pytest.mark.parametrize("kappa,tau", [(0.0, 0.5), (-1.0, 1.0), (1.0, 1.0),
                                       (-1.0, 0.0)])
def test_sphere_curvatures_match_the_stencil(kappa, tau):
    sp = m3(kappa, tau)
    p = geodesic_sphere_patch(sp, 0.1, 0.9)
    got = curvature_report(p, 12, 12)
    want = curvature_report(_stencil_sphere(sp, 0.1, 0.9), 12, 12)
    assert np.array_equal(got.included, want.included)
    for name in ("lambda1", "lambda2", "mean_curvature"):
        a, b = getattr(got, name), getattr(want, name)
        assert np.max(np.abs(a - b) / np.abs(b)) <= 1e-5, name


def test_sphere_flow_checks_every_stage_in_the_chart():
    # a sphere of radius 100 in m3(-1, 1/2) has points within rounding of
    # the disk boundary x^2 + y^2 = 4; the complex-step jet must reject the
    # ones that round onto or past it, as the real chart does
    sp = m3(-1.0, 0.5)
    patch = trial_patch(sp, "sphere", [100.0])
    with pytest.raises(ChartDomainError):
        patch.jet(*patch.grid(4, 1))
    with pytest.raises(ChartDomainError):
        trial_defect(sp, "sphere", [100.0])


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
    batched = stacked_jet(rotational_graph_patch(sp, rows),
                           np.broadcast_to(U, (4,) + U.shape), np.broadcast_to(V, (4,) + V.shape))
    for r, coeffs in enumerate(rows):
        want = _polynomial_graph_jet(coeffs, U, V)
        got = stacked_jet(rotational_graph_patch(sp, coeffs), U, V)
        for key in want:
            assert got[key].tobytes() == want[key].tobytes(), (k, r, key)
            assert batched[key][r].tobytes() == want[key].tobytes(), (k, r, key)


def _one_trial_defect(space, family, params, grid):
    # the objective of one trial surface, a scalar-parameter patch through
    # curvature_report
    return _one_trial_defect_of(trial_patch(space, family, params), grid)


def _one_trial_defect_of(patch, grid):
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
    ("sphere", [[1.0], [1e-12], [0.7]], (12, 12)),
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
    P = np.vstack([[1.0]] + [[rng.uniform(lo, hi) for lo, hi in bounds]
                             for _ in range(4)])
    meridian = trial_defects(sp, "sphere", P, grid=(24, 1))
    full = trial_defects(sp, "sphere", P, grid=(24, 24))
    assert np.all(full < 1e3)
    # the spheres of the space form (1, 1/2) are umbilic up to rounding,
    # about 1e-16 here
    assert np.all(np.abs(meridian - full) <= 1e-11 * full + 1e-14)


@pytest.mark.parametrize("kappa,tau", [(0.0, 0.5), (-1.0, 1.0), (1.0, 1.0)])
def test_sphere_defect_does_not_depend_on_the_center_height(kappa, tau):
    # z-translations are isometries of the m3 chart, which is why the sphere
    # trials are centred at height 0 and searched over the radius alone
    sp = m3(kappa, tau)
    radii = np.array([0.5, 0.8, 1.7, 2.2])
    want = trial_defects(sp, "sphere", radii[:, None], grid=(24, 1))
    for height in (-0.5, -0.1, 0.0, 0.3, 0.5):
        got = [_one_trial_defect_of(geodesic_sphere_patch(sp, height, r), (24, 1))
               for r in radii]
        assert np.max(np.abs(np.array(got) - want)) <= 1e-14, height


def test_sphere_batch_of_center_heights_matches_one_sphere_at_a_time():
    # a (K,) batch of heights about one radius broadcasts like a batch of radii
    sp = m3(-1.0, 1.0)
    heights = np.array([-0.5, 0.0, 0.3])
    U, V = geodesic_sphere_patch(sp).grid(6, 5)
    batch = surface_fields(geodesic_sphere_patch(sp, heights, 0.8), U[None], V[None])
    for k, height in enumerate(heights):
        one = surface_fields(geodesic_sphere_patch(sp, height, 0.8), U, V)
        for name in ("X", "Xu", "Xv", "N", "defect"):
            assert getattr(batch, name)[k].tobytes() == getattr(one, name).tobytes(), name


_ORACLE_SPACES = [(0.0, 0.5), (-1.0, 1.0), (1.0, 1.0), (1.0, 0.5), (-1.0, 0.0),
                  (1.0, 0.0), (0.0, 0.0), (-1.0, 0.5)]


@pytest.mark.parametrize("kappa,tau", _ORACLE_SPACES)
def test_shared_grid_trials_match_the_broadcast_oracle_bitwise(kappa, tau):
    # the fields that do not depend on the trial are evaluated once on the
    # (1, n_u, n_v) grid; the scores and residuals equal those of the
    # (K, n_u, n_v) grid, every field evaluated per trial, bit for bit; the
    # sphere of radius 1e-12 scores the penalty
    sp = m3(kappa, tau)
    rng = np.random.default_rng(int(10 * (kappa + 2) + 20 * tau))
    (lo, hi), *box = _TRIAL_FAMILIES["graph"]["bounds"]
    graphs = np.column_stack([rng.uniform(lo, hi, 9)]
                             + [rng.uniform(a, b, 9) for a, b in box])
    graphs[0] = 0.0
    batches = [("graph", graphs), ("graph", graphs[4:5]),
               ("sphere", np.array([[0.5], [0.8], [1e-12], [1.7], [2.2]]))]
    for family, P in batches:
        for grid in [(24, 1), (24, 24), (12, 12), (7, 3)]:
            UV = _trial_grid(sp, family, grid)
            assert [a.shape for a in UV] == [(1,) + grid] * 2
            got = _trial_fields(sp, family, P, UV)
            want = broadcast_trial_fields(sp, family, P, grid)
            for a, b in zip(got, want):
                assert (a.shape, a.dtype) == (b.shape, b.dtype), (family, grid)
                assert a.tobytes() == b.tobytes(), (family, len(P), grid)


# --- lockstep Levenberg-Marquardt --------------------------------------------------


def _rosenbrock(P):
    return np.stack([10.0 * (P[:, 1] - P[:, 0] ** 2), 1.0 - P[:, 0]], axis=1)


def _rosenbrock_jac(x):
    return np.array([[-20.0 * x[0], 10.0], [-1.0, 0.0]])


# a consistent 4 x 3 system nudged off its range: the unconstrained minimum,
# about (0.5, -0.25, 1.31), lies above the third coordinate's bound 1.2
_A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, -1.0], [2.0, 0.0, 1.0], [1.0, 1.0, 1.0]])
_B = _A @ [0.5, -0.25, 1.3] + [0.01, -0.02, 0.01, 0.0]


def _linear(P):
    return P @ _A.T - _B


@pytest.mark.parametrize("residual,jac,bounds,active", [
    (_rosenbrock, _rosenbrock_jac, [(-2.0, 2.0), (-1.0, 3.0)], []),
    # the bound x <= 0.8 moves the minimum to (0.8, 0.64)
    (_rosenbrock, _rosenbrock_jac, [(-2.0, 0.8), (-1.0, 3.0)], [0]),
    (_linear, lambda x: _A, [(-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.2)], [2]),
], ids=["rosenbrock", "rosenbrock-bounded", "linear-bounded"])
def test_lockstep_lm_matches_scipy_least_squares(residual, jac, bounds, active):
    # the forward-difference Jacobian limits agreement at a nonzero residual
    # to about sqrt(eps) |r| relative; |r| is about 0.11 at the linear minimum
    lb, ub = np.array(bounds).T
    x0s = np.random.default_rng(len(active)).uniform(lb, ub, (8, len(bounds)))
    results = _levenberg_marquardt(lambda P: (np.zeros(len(P)), residual(P)),
                                   x0s, bounds, 2000)
    for x0, x, cost, _, nfev, status in zip(x0s, *results):
        want = least_squares(lambda v: residual(v[None])[0], x0, jac=jac,
                             bounds=(lb, ub), ftol=1e-15, xtol=1e-15, gtol=1e-15)
        assert status != "cap" and nfev <= 2000
        assert np.max(np.abs(x - want.x)) <= 1e-8, (x0, x, want.x)
        assert abs(cost - want.cost) <= 1e-12
        assert np.flatnonzero((x <= lb) | (x >= ub)).tolist() == active


def _walled(P):
    # Rosenbrock with a non-finite residual past x = 1.2: a start there is
    # penalized, and a trial step there is rejected
    R = _rosenbrock(P)
    R[P[:, 0] > 1.2] = np.inf
    return R


def _assert_driver_matches_oracle(objective, x0s, bounds, maxfev):
    got = _levenberg_marquardt(objective, x0s, bounds, maxfev)
    want = lockstep_levenberg_marquardt(objective, x0s, bounds, maxfev)
    for name, a, b in zip(("x", "cost", "score"), got, want):
        assert a.tobytes() == b.tobytes(), (name, a, b)
    assert got[3].tolist() == want[3].tolist()  # nfev
    assert got[4].tolist() == want[4].tolist()  # status
    return got


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("residual,bounds", [
    (_rosenbrock, [(-2.0, 2.0), (-1.0, 3.0)]),
    (_rosenbrock, [(-2.0, 0.8), (-1.0, 3.0)]),
    (_linear, [(-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.2)]),
    (_walled, [(-2.0, 2.0), (-1.0, 3.0)]),
], ids=["rosenbrock", "rosenbrock-bounded", "linear-bounded", "walled"])
def test_batched_lm_matches_the_coroutine_oracle_bitwise(residual, bounds):
    # the driver holds every restart in arrays; the coroutine oracle runs one
    # generator per restart.  Every stopping rule is reached across the caps.
    lb, ub = np.array(bounds).T
    x0s = np.random.default_rng(2).uniform(lb, ub, (8, len(bounds)))
    x0s[0, 0] = 1.2  # on the wall: its difference neighbour is not finite
    statuses = set()
    for maxfev in (2000, 40, 12, 9):
        got = _assert_driver_matches_oracle(
            lambda P: (P[:, 0] * P[:, 1], residual(P)), x0s, bounds, maxfev)
        statuses.update(got[4].tolist())
    assert "cap" in statuses and statuses & {"step", "gradient", "reduction"}
    if residual is _walled:
        assert "penalized" in statuses


def test_batched_lm_matches_the_coroutine_oracle_at_every_cap():
    # the budgets of the capped falsifier test: the last round spends the
    # rows left under the cap (left > 0) or none (left == 0)
    sp = m3(0.0, 0.5)
    bounds = _TRIAL_FAMILIES["graph"]["bounds"]
    UV = _trial_grid(sp, "graph", (24, 1))
    for budget in range(8, 61):
        _assert_driver_matches_oracle(
            lambda P: umbilic.verify._trial_fields(sp, "graph", P, UV),
            np.zeros((1, 6)), bounds, budget)


@pytest.mark.parametrize("kappa,tau", [(0.0, 0.5), (-1.0, 1.0), (1.0, 1.0)])
def test_falsifier_searches_match_the_coroutine_oracle_bitwise(monkeypatch, kappa, tau):
    # the graph and sphere searches of the C06 spaces, each restart's x, cost,
    # defect, nfev and status against the oracle's on the same inputs
    calls = []

    def both(*args):
        calls.append(1)
        return _assert_driver_matches_oracle(*args)

    monkeypatch.setattr(umbilic.verify, "_levenberg_marquardt", both)
    for seed in range(10):
        nonexistence_falsifier(kappa, tau, n_starts=8, budget=640, seed=seed)
    # the default budget runs long enough for the damping update's scalar
    # pow to matter: numpy's array power rounds some cubes differently
    nonexistence_falsifier(kappa, tau, n_starts=8, seed=8)
    assert len(calls) == 22


def test_falsifier_report_is_unchanged_with_the_coroutine_oracle(monkeypatch):
    searches = [((0.0, 0.5), dict(n_starts=50, seed=7)),
                ((1.0, 0.5), dict(family="sphere", n_starts=2, budget=300, seed=1)),
                ((-1.0, 0.0), dict(family="graph", n_starts=2, budget=400, seed=1))]
    want = [nonexistence_falsifier(*kt, **kw) for kt, kw in searches]
    monkeypatch.setattr(umbilic.verify, "_levenberg_marquardt",
                        lockstep_levenberg_marquardt)
    assert [nonexistence_falsifier(*kt, **kw) for kt, kw in searches] == want


def test_falsifier_report_is_unchanged_with_the_broadcast_oracle(monkeypatch):
    # the default searches of the C06 spaces and the falsify benchmark's
    # three ops at seeds 0-9, with the (K, n_u, n_v) grid oracle in place
    # of the shared grid
    searches = [((kappa, tau), dict(seed=0))
                for kappa, tau in [(0.0, 0.5), (-1.0, 1.0), (1.0, 1.0)]]
    for seed in range(10):
        searches += [
            ((0.0, 0.5), dict(family="graph", n_starts=50, seed=7 + seed)),
            ((1.0, 0.5), dict(family="sphere", n_starts=2, budget=300, seed=1 + seed)),
            ((-1.0, 0.0), dict(family="graph", n_starts=2, budget=400, seed=1 + seed))]
    want = [nonexistence_falsifier(*kt, **kw) for kt, kw in searches]
    calls = []

    def oracle(space, family, P, UV):
        calls.append(1)
        return broadcast_trial_fields(space, family, P, UV[0].shape[1:])

    monkeypatch.setattr(umbilic.verify, "_trial_fields", oracle)
    assert [nonexistence_falsifier(*kt, **kw) for kt, kw in searches] == want
    assert calls


def test_falsifier_caps_rows_and_flags_partial_at_the_cap():
    # from the flat graph the search in m3(0, 1/2) stops on its reduction
    # test after 56 rows, so the budgets below end at the cap
    sp = m3(0.0, 0.5)
    bounds = _TRIAL_FAMILIES["graph"]["bounds"]
    UV = _trial_grid(sp, "graph", (24, 1))
    statuses = set()
    for budget in range(8, 61):
        r = nonexistence_falsifier(0.0, 0.5, family="graph", n_starts=1,
                                   budget=budget)
        assert r["n_evals"] <= budget
        _, _, _, [nfev], [status] = _levenberg_marquardt(
            lambda P: umbilic.verify._trial_fields(sp, "graph", P, UV),
            np.zeros((1, 6)), bounds, budget)
        assert nfev == r["n_evals"]
        # a capped restart spends its whole cap
        assert nfev == budget if status == "cap" else nfev <= budget
        assert r["partial"] == (status == "cap")
        statuses.add(status)
    assert statuses == {"cap", "reduction"}


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
    # every round is one iteration of every pending restart, 7 rows each
    # (the trial point and its 6 difference neighbours), plus one last
    # round that spends the rows left under the cap
    assert len(calls) <= 400 // (10 * 7) + 1


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
    assert trial_defect(m3(0.0, 0.5), "sphere", [1e-12]) == 1e3


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


def test_suites_convert_no_stacked_vectors(monkeypatch):
    # the four suites contract component triples from the jets to the
    # residuals, and building their patches orients them on triples too, so
    # no vector is split from or joined onto a last axis
    import umbilic.geometry as geometry

    def refuse(*args, **kwargs):
        raise AssertionError("stacked vector converted")

    monkeypatch.setattr(geometry, "_components", refuse)
    monkeypatch.setattr(geometry, "_join", refuse)
    with pytest.raises(AssertionError, match="converted"):
        geometry.inner(m3(0.0, 0.5), np.zeros(3), np.ones(3), np.ones(3))
    for suite in SUITE_NAMES:
        assert run_suite(suite, grid=(16, 16))["max_residual"] < 1e-5, suite


# --- the checks and the sphere jets against their oracles ---------------------------


def _stacked_checks(monkeypatch, calls):
    # the checks on (..., 3) vectors in place of those on component triples
    for name, fn in STACKED_CHECKS.items():
        def counted(*args, _fn=fn, _name=name, **kwargs):
            calls.append(_name)
            return _fn(*args, **kwargs)

        monkeypatch.setattr(umbilic.verify, name, counted)


@pytest.mark.parametrize("suite", ["product-identities", "sol-identities", "killing-grid"])
@pytest.mark.parametrize("grid,seed", [((16, 16), 0), ((48, 48), 0), ((48, 48), 5)])
def test_suites_match_the_stacked_oracle_bytewise(monkeypatch, suite, grid, seed):
    # each contraction keeps its operands and order, inner(A, B) = _dot(A, lower(B)),
    # so the reports are the bytes of the (..., 3) checks'
    got = json.dumps(run_suite(suite, grid=grid, seed=seed))
    calls = []
    with monkeypatch.context() as m:
        _stacked_checks(m, calls)
        want = json.dumps(run_suite(suite, grid=grid, seed=seed))
    assert calls
    assert got == want


@pytest.mark.parametrize("grid", [(16, 16), (48, 48)])
def test_daniel_grid_stays_within_1e_15_of_the_complex_step_oracle(monkeypatch, grid):
    # the real forward-mode sphere jets move each check's residual by
    # rounding only (at most 3.3e-16 measured); the checks alone on the same
    # jets are byte-identical
    got = run_suite("daniel-grid", grid=grid)
    calls = []
    with monkeypatch.context() as m:
        _stacked_checks(m, calls)
        assert json.dumps(run_suite("daniel-grid", grid=grid)) == json.dumps(got)
        m.setattr(umbilic.verify, "geodesic_sphere_patch", complex_step_sphere_patch)
        want = run_suite("daniel-grid", grid=grid)
    assert calls.count("_daniel_formula") == 2 * 7
    for a, b in zip(got["checks"], want["checks"], strict=True):
        assert a["skipped_points"] == b["skipped_points"]
        assert abs(a["max_residual"] - b["max_residual"]) <= 1e-15
        assert abs(a["mean_residual"] - b["mean_residual"]) <= 1e-15


_DANIEL_SPACES = [(k, t) for k in (-1.0, 0.0, 1.0) for t in (0.0, 0.5, 1.0) if k != 4.0 * t * t]


@pytest.mark.parametrize("kappa,tau", _DANIEL_SPACES)
def test_real_sphere_jets_match_the_complex_step_oracle(kappa, tau):
    # radii from the daniel-grid sphere's 0.9 up to 1.7; every jet takes the
    # Taylor branch of sinc and cos at the first Gauss-Legendre nodes, the
    # spaces with kappa < 0 reach D < 0, those with tau = 1 sqrt(D) > pi
    sp = m3(kappa, tau)
    radii = np.array([0.05, 0.5, 0.9, 1.3, 1.7])
    patch = geodesic_sphere_patch(sp, 0.1, radii)
    U, V = (a[None] for a in patch.grid(24, 12))
    got, want = patch.jet(U, V), complex_step_sphere_patch(sp, 0.1, radii).jet(U, V)
    for key in want:
        a, b = np.stack(got[key]), np.stack(want[key])
        assert np.max(np.abs(a - b)) <= 2e-15 * np.max(np.abs(b)), key
    a2, c2 = (radii[:, None, None] * np.sin(U)) ** 2, (radii[:, None, None] * np.cos(U)) ** 2
    D = kappa * a2 + 4.0 * tau * tau * c2
    assert (D < 0).any() == (kappa < 0)
    assert (D > np.pi**2).any() == (tau == 1.0 and kappa >= 0.0)


def _mp_axis_geodesic(kappa, tau, height, v):
    # the closed form of geometry._m3_axis_geodesic for one mpmath velocity
    v0, v1, c = v
    a2 = v0 * v0 + v1 * v1
    D = kappa * a2 + 4 * tau * tau * c * c
    t = [mpmath.mpf(1)] + [mpmath.mpf(float(x)) for x in _GL_NODES]
    sinc = [mpmath.sin(mpmath.sqrt(D) * s / 2) / (mpmath.sqrt(D) * s / 2) for s in t]
    cos = mpmath.cos(mpmath.sqrt(D) / 2)
    half2 = [(s * q / 2) ** 2 for s, q in zip(t, sinc)]
    r2 = [4 * a2 * h / (1 - kappa * a2 * h) for h in half2]
    S, V = sinc[0] * cos, 2 * half2[0]
    C, Q, B, dB = 1 - D * V, 2 - kappa * a2 * V, 2 * tau * c * V, 2 * tau * c * S
    x, y = 2 * (v0 * S - v1 * B) / Q, 2 * (v0 * B + v1 * S) / Q
    z = height + c * (1 + tau * tau * mpmath.fsum(
        mpmath.mpf(float(w)) * r for w, r in zip(_GL_WEIGHTS, r2[1:])))
    return [x, y, z, (2 * (v0 * C - v1 * dB) + x * kappa * a2 * S) / Q,
            (2 * (v0 * dB + v1 * C) + y * kappa * a2 * S) / Q, c * (1 + tau * tau * r2[0])]


@pytest.mark.parametrize("kappa,tau,radius", [(-4.0, 1.0, 1.7), (1.0, 0.0, 2.2),
                                              (1.0, 1.0, 2.2)])
def test_sphere_jets_meet_a_50_digit_evaluation(kappa, tau, radius):
    # where the real and the complex-step jets part by up to 5e-15 relative,
    # both are that close to the same closed form at 50 digits (a complex
    # step of 1e-30 gives its Jacobi fields); the gap is their rounding
    sp = m3(kappa, tau)
    patches = [geodesic_sphere_patch(sp, 0.1, radius), complex_step_sphere_patch(sp, 0.1, radius)]
    U, V = patches[0].grid(8, 3)
    jets = [{k: np.stack(v) for k, v in p.jet(U, V).items()} for p in patches]
    want = {k: np.zeros_like(v) for k, v in jets[0].items()}
    with mpmath.workdps(50):
        h = mpmath.mpf("1e-30")
        for i, j in np.ndindex(U.shape):
            u, v = mpmath.mpf(float(U[i, j])), mpmath.mpf(float(V[i, j]))
            d = [mpmath.sin(u) * mpmath.cos(v), mpmath.sin(u) * mpmath.sin(v), mpmath.cos(u)]
            steps = {("X", "normal"): [0, 0, 0],
                     ("Xu", "normal_u"): [mpmath.cos(u) * mpmath.cos(v),
                                          mpmath.cos(u) * mpmath.sin(v), -mpmath.sin(u)],
                     ("Xv", "normal_v"): [-mpmath.sin(u) * mpmath.sin(v),
                                          mpmath.sin(u) * mpmath.cos(v), 0]}
            for (X, n), e in steps.items():
                end = _mp_axis_geodesic(mpmath.mpf(kappa), mpmath.mpf(tau), mpmath.mpf("0.1"),
                                        [radius * (a + 1j * h * b) for a, b in zip(d, e)])
                part = (lambda w: mpmath.re(w)) if X == "X" else (lambda w: mpmath.im(w) / h)
                want[X][:, i, j] = [float(part(w)) for w in end[:3]]
                want[n][:, i, j] = [float(part(w)) for w in end[3:]]
    for key, w in want.items():
        for jet in jets:  # 3.1e-15 at most, measured
            assert np.max(np.abs(jet[key] - w)) <= 4e-15 * np.max(np.abs(w)), key


_C06_SPACES = [(0.0, 0.5), (-1.0, 1.0), (1.0, 1.0)]


def test_sphere_searches_keep_their_course_under_the_complex_step_oracle(monkeypatch):
    # the C06 sphere searches and the sphere control at seeds 0-9: every
    # restart stops with the same status after the same rows, and the floors
    # agree to rounding; the best radius may move between restarts that tie
    real = umbilic.verify._levenberg_marquardt

    def searches():
        runs, reports = [], []

        def recorded(*args):
            out = real(*args)
            runs.append((out[3].tolist(), out[4].tolist()))
            return out

        with monkeypatch.context() as m:
            m.setattr(umbilic.verify, "_levenberg_marquardt", recorded)
            for seed in range(10):
                reports += [nonexistence_falsifier(kappa, tau, family="sphere", n_starts=3,
                                                   seed=seed) for kappa, tau in _C06_SPACES]
                reports.append(nonexistence_falsifier(1.0, 0.5, family="sphere", n_starts=2,
                                                      budget=300, seed=1 + seed))
        return runs, reports

    got = searches()
    monkeypatch.setattr(umbilic.verify, "geodesic_sphere_patch", complex_step_sphere_patch)
    want = searches()
    assert got[0] == want[0]
    for a, b in zip(got[1], want[1], strict=True):
        assert (a["n_evals"], a["partial"]) == (b["n_evals"], b["partial"])
        assert abs(a["min_defect_found"] - b["min_defect_found"]) <= 1e-15
    assert all(r["min_defect_found"] < 1e-15 for r in got[1][3::4])
