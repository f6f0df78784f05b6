"""Identity checks, their FD convergence, and the umbilic falsification search."""

import copy

import numpy as np
import pytest
from oracles import lockstep_levenberg_marquardt, stacked_jet
from scipy.optimize import least_squares

import umbilic.families
import umbilic.verify
from umbilic.families import build_family
from umbilic.geometry import ChartDomainError, h2xr, h3, m3, metric_at, r3, s2xr, sol
from umbilic.surfaces import ImmersionError, curvature_report, patch_from_chart
from umbilic.verify import (
    _PRODUCT_SUITE_CASES,
    _TRIAL_FAMILIES,
    _levenberg_marquardt,
    _solve_first_form,
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
    x0, x1 = _solve_first_form(I, b[..., 0], b[..., 1])
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
    real = umbilic.verify.curvature_tensor

    def counted(space, *args):
        calls.append(space.kind)
        return real(space, *args)

    monkeypatch.setattr(umbilic.verify, "curvature_tensor", counted)
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
    for budget in range(8, 61):
        _assert_driver_matches_oracle(
            lambda P: umbilic.verify._trial_fields(sp, "graph", P, (24, 1)),
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


def test_falsifier_caps_rows_and_flags_partial_at_the_cap():
    # from the flat graph the search in m3(0, 1/2) stops on its reduction
    # test after 56 rows, so the budgets below end at the cap
    sp = m3(0.0, 0.5)
    bounds = _TRIAL_FAMILIES["graph"]["bounds"]
    statuses = set()
    for budget in range(8, 61):
        r = nonexistence_falsifier(0.0, 0.5, family="graph", n_starts=1,
                                   budget=budget)
        assert r["n_evals"] <= budget
        _, _, _, [nfev], [status] = _levenberg_marquardt(
            lambda P: umbilic.verify._trial_fields(sp, "graph", P, (24, 1)),
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
