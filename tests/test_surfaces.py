"""Orbit surfaces: umbilicity, principal curvatures, isometry invariance, slices.

The batched slice classifier is checked against a scalar oracle: one
``brentq`` solve per v-line and per stencil point, and a per-v loop for the
geodesic curvature.
"""

import dataclasses

import numpy as np
import pytest
from scipy.optimize import brentq

from oracles import (
    _geodesic_rhs,
    christoffel_contract,
    pointwise_moved_jet,
    principal_curvature_normal_part,
    stacked_orient,
    stacked_surface_fields,
)
from umbilic.families import build_family, family_names
from umbilic.geometry import (
    christoffels,
    cross,
    h2xr,
    h3,
    hyperbolic_translation,
    inner,
    isometry_jet,
    m3,
    norm,
    parabolic,
    r3,
    rotation,
    s2xr,
    slice_reflection,
    sol,
    sol_translation,
    vertical_field,
    vertical_shift,
)
from umbilic.profiles import (
    h2xr_elliptic_profile,
    h2xr_hyperbolic_profile,
    h2xr_parabolic_profile,
    s2xr_profile,
    sol_profile,
)
from umbilic.surfaces import (
    CLASSIFY_BAND,
    CONSTANCY_TOL,
    GRID_MARGIN,
    ImmersionError,
    IncompatibleActionError,
    TransversalityError,
    classify_slice_structure,
    curvature_report,
    fd_jet,
    fundamental_forms,
    mean_curvature_stats,
    orbit_surface,
    patch_from_chart,
    principal_curvatures,
    surface_fields,
    synthetic_profile,
    transform_patch,
    umbilicity_defect,
)
from umbilic.verify import rotational_graph_patch, trial_patch


@pytest.fixture(scope="module")
def family():
    """One patch per invariant family, plus the generating curves."""
    curves = {
        "a_lt": s2xr_profile(0.6),
        "a_eq": s2xr_profile(1.0),
        "a_gt": s2xr_profile(1.5),
        "b": h2xr_elliptic_profile(0.8),
        "p": h2xr_parabolic_profile(),
        "c": h2xr_hyperbolic_profile(0.5),
        "sol": sol_profile(1.0),
    }
    s1 = curves["a_lt"].period_data.s1
    da = curves["a_gt"].period_data.delta
    db = curves["b"].period_data.delta
    patches = {
        "a_lt": orbit_surface(curves["a_lt"], rotation(1.0),
                              s_range=(0.05, 0.97 * s1), name="a<1"),
        "a_eq": orbit_surface(curves["a_eq"], rotation(1.0),
                              s_range=(0.05, 6.0), name="a=1"),
        "a_gt": orbit_surface(curves["a_gt"], rotation(1.0),
                              s_range=(-1.9 * da, 1.9 * da), name="a>1"),
        "b": orbit_surface(curves["b"], rotation(1.0),
                           s_range=(-1.9 * db, 1.9 * db), name="b"),
        "p": orbit_surface(curves["p"], parabolic(np.pi, 1.0),
                           s_range=(-4.0, 4.0), name="S_P"),
        "c": orbit_surface(curves["c"], hyperbolic_translation((np.pi, 0.0), 1.0),
                           s_range=(0.9 * curves["c"].span[0],
                                    0.9 * curves["c"].span[1]), name="c"),
        "sol": orbit_surface(curves["sol"], sol_translation(1.0, 0.0, 0.0),
                             s_range=(0.9 * curves["sol"].span[0],
                                      0.9 * curves["sol"].span[1]), name="F_a"),
    }
    return curves, patches


# --- umbilicity of the seven invariant families -------------------------------


@pytest.mark.parametrize("key", ["a_lt", "a_eq", "a_gt", "b", "p", "c", "sol"])
def test_family_defect_below_tolerance(family, key):
    _, patches = family
    d = umbilicity_defect(patches[key], n_u=64, n_v=64)
    assert d["max"] < 1e-6


# every registered family at the C01 parameters
NO_FLOOR_CASES = (
    [("a_eq", "S2xR_a_eq_1", None), ("p", "H2xR_parabolic", None),
     ("sol", "Sol_Fa", 1.0)]
    + [(f"{name}-{param}", name, param) for name, param in (
        [("S2xR_slice", None), ("S2xR_cylinder", None)]
        + [("S2xR_a_lt_1", a) for a in (0.3, 0.6, 0.9)]
        + [("S2xR_a_gt_1", a) for a in (1.5, 3.0)]
        + [("H2xR_slice", None), ("H2xR_vertical_plane", None)]
        + [("H2xR_elliptic", b) for b in (0.5, 1.0, 2.0)]
        + [("H2xR_hyperbolic", c) for c in (0.25, 0.5, 0.75)]
        + [("Sol_geodesic_plane", None), ("Sol_Fa", float(np.exp(4.0)))])]
)


@pytest.mark.parametrize("key,name,param", NO_FLOOR_CASES,
                         ids=[c[0] for c in NO_FLOOR_CASES])
def test_closed_form_families_have_no_defect_floor(key, name, param):
    # closed-form jets (elementary or Jacobi) leave only rounding in the
    # defect; the discriminant sqrt(H^2 - K) put a floor of 1.2e-8 to
    # 1.4e-8 under the curved families
    _, patch = build_family(name, param)
    assert umbilicity_defect(patch, n_u=64, n_v=64)["max"] <= 1e-13


def _discriminant_curvatures(I, II):
    # the principal curvatures as H -+ sqrt(H^2 - K), the formula the defect
    # was computed from before the orthonormal-frame gap
    E, F, G = I[..., 0, 0], I[..., 0, 1], I[..., 1, 1]
    L, M, Nn = II[..., 0, 0], II[..., 0, 1], II[..., 1, 1]
    det_I = E * G - F * F
    H = (E * Nn - 2.0 * F * M + G * L) / (2.0 * det_I)
    K = (L * Nn - M * M) / det_I
    disc = np.sqrt(np.maximum(H * H - K, 0.0))
    return H - disc, H + disc, H


@pytest.mark.parametrize("kappa,tau", [(0.0, 0.5), (-1.0, 1.0), (1.0, 1.0)])
def test_defect_matches_the_discriminant_oracle(kappa, tau):
    # away from umbilic points both formulas are well conditioned
    space = m3(kappa, tau)
    rng = np.random.default_rng(11)
    coeffs = np.vstack([[0.1, 0.3, -0.2], rng.uniform(-1.0, 1.0, (19, 3))])
    patch = rotational_graph_patch(space, coeffs)
    U, V = patch.grid(24, 4)
    shape = (len(coeffs),) + U.shape
    rep = surface_fields(patch, np.broadcast_to(U, shape), np.broadcast_to(V, shape))
    lam1, lam2, H = _discriminant_curvatures(rep.I, rep.II)
    defect = np.abs(lam1 - lam2) / (1.0 + np.abs(lam1) + np.abs(lam2))
    far = rep.included & (defect > 1e-6)
    assert np.mean(far) > 0.9
    assert np.max(np.abs(rep.defect - defect)[far] / defect[far]) <= 1e-11
    scale = (1.0 + np.abs(lam1) + np.abs(lam2))[far]
    for got, want in ((rep.lambda1, lam1), (rep.lambda2, lam2)):
        assert np.max(np.abs(got - want)[far] / scale) <= 1e-11
    # H keeps its expression; (lambda1 + lambda2) / 2 moves by rounding only
    assert rep.mean_curvature.tobytes() == H.tobytes()
    uf = 0.5 * (lam1 + lam2)
    assert np.max(np.abs(rep.umbilicity_factor - uf)[far] / scale) <= 1e-15


@pytest.mark.parametrize("key,kind,param", [
    ("a_lt", "s2xr", 0.6),
    ("a_gt", "s2xr", 1.5),
    ("b", "h2xr-elliptic", 0.8),
    ("p", "h2xr-parabolic", None),
    ("c", "h2xr-hyperbolic", 0.5),
])
def test_principal_curvatures_match_profile_closed_forms(family, key, kind, param):
    curves, patches = family
    patch, curve = patches[key], curves[key]
    u0, u1 = patch.u_range
    us = np.linspace(u0 + 0.6 * (u1 - u0), u0 + 0.9 * (u1 - u0), 7)
    vs = np.full_like(us, 0.5 * (patch.v_range[0] + patch.v_range[1]))
    l1, l2 = principal_curvatures(patch, us, vs)
    j = curve.jet(us)
    lam_curve = j["theta_s"]
    lam_orbit = principal_curvature_normal_part(kind, j["rho"], j["theta"], param)
    got = np.sort(np.stack([l1, l2]), axis=0)
    want = np.sort(np.stack([lam_curve, lam_orbit]), axis=0)
    assert np.max(np.abs(got - want)) < 1e-6
    # unsorted too: on an umbilic surface both branches agree pointwise
    assert np.max(np.abs(l1 - lam_curve)) < 1e-6
    assert np.max(np.abs(l2 - lam_curve)) < 1e-6


def richardson_limit(f, h0, nodes=3, ratio=2.0, order=2):
    """Extrapolate ``f(h) -> f(0)`` from samples at h0, h0/ratio, ...

    Assumes an error expansion in powers of ``h**order``.  Used for limits
    that cannot be evaluated at the singular point itself, e.g. quantities
    on a surface of revolution as the axis is approached.
    """
    hs = [h0 / ratio**k for k in range(nodes)]
    table = [np.asarray(f(h), dtype=float) for h in hs]
    fac = ratio**order
    for level in range(1, nodes):
        table = [
            (fac**level * table[i + 1] - table[i]) / (fac**level - 1.0)
            for i in range(len(table) - 1)
        ]
    return table[0]


def test_axis_limit_of_orbit_curvature_recovers_theta_rate():
    # the orbit-direction curvature has a removable singularity at the axis;
    # its Richardson limit is the profile's angular rate at s = 0
    curve = s2xr_profile(0.6)
    s1 = curve.period_data.s1
    patch = orbit_surface(curve, rotation(1.0), s_range=(0.01, 0.9 * s1))

    def lam2_at(h):
        _, l2 = principal_curvatures(patch, np.asarray(h), np.asarray(1.0))
        return float(l2)

    assert abs(richardson_limit(lam2_at, 0.1) - 0.6) < 1e-8


# --- totally geodesic and reference surfaces ----------------------------------


def _synthetic_patches():
    return [
        orbit_surface(synthetic_profile("s2xr", "horizontal", 0.4), rotation(1.0),
                      s_range=(0.05, 2.8), name="slice-s2"),
        orbit_surface(synthetic_profile("h2xr-elliptic", "horizontal", -0.2),
                      rotation(1.0), s_range=(0.05, 3.0), name="slice-h2"),
        orbit_surface(synthetic_profile("s2xr", "vertical", np.pi / 2), rotation(1.0),
                      s_range=(-2.0, 2.0), name="cyl-s2"),
        orbit_surface(synthetic_profile("h2xr-hyperbolic", "vertical", 0.0),
                      hyperbolic_translation((np.pi, 0.0), 1.0),
                      s_range=(-2.0, 2.0), v_range=(-2.0, 2.0), name="vplane-h2"),
    ]


def test_slices_cylinder_and_vertical_plane_are_totally_geodesic():
    for p in _synthetic_patches():
        rep = curvature_report(p, n_u=32, n_v=32)
        assert np.max(np.abs(rep.II[rep.included])) < 1e-9


def test_sol_vertical_planes_are_totally_geodesic():
    planes = [
        patch_from_chart(sol(), "sol-x", lambda U, V: np.stack(
            [np.full_like(U, 0.3), U, V], axis=-1), (-1, 1), (-1, 1)),
        patch_from_chart(sol(), "sol-y", lambda U, V: np.stack(
            [U, np.full_like(U, -0.2), V], axis=-1), (-1, 1), (-1, 1)),
    ]
    for p in planes:
        rep = curvature_report(p, n_u=24, n_v=24)
        assert np.max(np.abs(rep.II[rep.included])) < 1e-7


def test_sol_horizontal_plane_is_minimal_but_not_umbilic():
    p = patch_from_chart(sol(), "sol-z", lambda U, V: np.stack(
        [U, V, np.zeros_like(U)], axis=-1), (-1, 1), (-1, 1))
    rep = curvature_report(p, n_u=24, n_v=24)
    assert np.max(np.abs(rep.mean_curvature[rep.included])) < 1e-7
    lam = np.sort(np.stack([rep.lambda1[rep.included], rep.lambda2[rep.included]]), axis=0)
    assert np.max(np.abs(lam[0] + 1.0)) < 1e-6
    assert np.max(np.abs(lam[1] - 1.0)) < 1e-6
    assert abs(rep.defect_max - 2.0 / 3.0) < 1e-7


def test_euclidean_cylinder_defect_formula():
    r = 0.7
    p = patch_from_chart(r3(), "cyl-r3", lambda U, V: np.stack(
        [r * np.cos(V), r * np.sin(V), U], axis=-1), (-1, 1), (0, 2 * np.pi))
    d = umbilicity_defect(p, n_u=24, n_v=24)
    expect = (1.0 / r) / (1.0 + 1.0 / r)
    assert abs(d["max"] - expect) < 1e-7
    assert abs(d["max"] - d["mean"]) < 1e-7


def test_horosphere_is_umbilic_with_unit_curvature():
    p = patch_from_chart(h3(), "horosphere", lambda U, V: np.stack(
        [U, V, np.ones_like(U)], axis=-1), (-1, 1), (-1, 1))
    rep = curvature_report(p, n_u=24, n_v=24)
    assert rep.defect_max < 1e-8
    assert np.max(np.abs(np.abs(rep.mean_curvature[rep.included]) - 1.0)) < 1e-7


# --- report internals ----------------------------------------------------------


def _assert_frame_invariants(p):
    rep = curvature_report(p, n_u=32, n_v=32)
    m = rep.included
    X = rep.X
    assert np.max(np.abs(norm(p.space, X, rep.N)[m] - 1.0)) < 1e-10
    assert np.max(np.abs(rep.nu**2 + inner(p.space, X, rep.T, rep.T) - 1.0)[m]) < 1e-8
    assert np.max(np.abs(inner(p.space, X, rep.JT, rep.T))[m]) < 1e-8
    assert np.max(np.abs(norm(p.space, X, rep.JT) - norm(p.space, X, rep.T))[m]) < 1e-8


def test_report_frame_invariants(family):
    _assert_frame_invariants(family[1]["b"])


def test_report_frame_invariants_sol(family):
    # on Sol the split is taken against the unit frame field E3 = d_z
    _assert_frame_invariants(family[1]["sol"])


def _fd_patch(patch, h):
    """The patch with its jet replaced by a finite-difference jet of step h."""
    return dataclasses.replace(patch, jet=fd_jet(patch.chart, patch.u_range, patch.v_range, h=h))


def test_finite_difference_defect_scales_quadratically(family):
    _, patches = family
    rep_h = curvature_report(_fd_patch(patches["a_lt"], 1e-3), n_u=16, n_v=16)
    rep_h2 = curvature_report(_fd_patch(patches["a_lt"], 5e-4), n_u=16, n_v=16)
    ratio = rep_h.defect_max / rep_h2.defect_max
    assert 3.5 < ratio < 4.5


def test_fundamental_forms_raise_on_degenerate_points(family):
    _, patches = family
    # u = 0 is the rotation axis of the a > 1 sphere: X_v vanishes there
    with pytest.raises(ImmersionError):
        fundamental_forms(patches["a_gt"], np.array([0.0]), np.array([1.0]))


# --- the non-umbilic companion -------------------------------------------------


def test_minimal_companion_of_parabolic_surface(family):
    curves, patches = family
    comp = orbit_surface(curves["p"], parabolic(0.0, 1.0), s_range=(-4.0, 4.0),
                         profile_ideal=np.pi, name="companion")
    stats = mean_curvature_stats(comp, n_u=48, n_v=48)
    assert stats["max_abs"] < 1e-6
    # same profile swept toward its own ideal point is umbilic, not minimal
    stats_p = mean_curvature_stats(patches["p"], n_u=48, n_v=48)
    assert stats_p["max"] - stats_p["min"] > 0.1
    d = umbilicity_defect(comp, n_u=32, n_v=32)
    assert d["max"] > 0.5


# --- isometry equivariance -----------------------------------------------------


@pytest.mark.parametrize("key,iso", [
    ("a_gt", rotation(0.7)),
    ("a_gt", vertical_shift(0.9)),
    ("b", hyperbolic_translation((np.pi, 0.0), 0.5)),
    ("p", parabolic(np.pi, 0.8)),
    ("c", slice_reflection(0.1)),
    ("sol", sol_translation(0.4, -0.3, 0.0)),
])
def test_defect_is_isometry_invariant(family, key, iso):
    _, patches = family
    patch = patches[key]
    moved = transform_patch(patch, iso)
    d0 = umbilicity_defect(patch, n_u=24, n_v=24)
    d1 = umbilicity_defect(moved, n_u=24, n_v=24)
    assert abs(d0["max"] - d1["max"]) < 1e-8


@pytest.mark.parametrize("key,action", [
    ("a_gt", lambda w: rotation(w)),
    ("p", lambda w: parabolic(np.pi, w)),
    ("c", lambda w: hyperbolic_translation((np.pi, 0.0), w)),
    ("sol", lambda w: sol_translation(w, 0.0, 0.0)),
])
def test_sweep_parameter_is_the_isometry_parameter(family, key, action):
    from umbilic.geometry import apply_isometry

    _, patches = family
    patch = patches[key]
    u0, u1 = patch.u_range
    us = np.linspace(u0 + 0.2 * (u1 - u0), u0 + 0.8 * (u1 - u0), 5)
    vs = np.linspace(-0.4, 0.4, 5)
    U, V = np.meshgrid(us, vs, indexing="ij")
    w = 0.37
    direct = patch.chart(U, V + w)
    via_iso = apply_isometry(patch.space, action(w), patch.chart(U, V))
    assert np.max(np.abs(direct - via_iso)) < 1e-12


@pytest.mark.parametrize("key,iso", [
    ("a_gt", rotation(0.4)),
    ("b", hyperbolic_translation((np.pi, 0.0), 0.5)),
    ("p", parabolic(np.pi, 0.8)),
    ("c", slice_reflection(0.1)),
    ("sol", sol_translation(0.4, -0.3, 0.2)),
])
def test_moved_jet_matches_the_pointwise_oracle(family, key, iso):
    patch = family[1][key]
    U, V = patch.grid(4, 5)
    got = transform_patch(patch, iso).jet(U, V)
    for k, want in pointwise_moved_jet(patch, iso, U, V).items():
        g = np.stack(got[k], axis=-1)
        assert g.shape == want.shape, k
        assert np.max(np.abs(g - want)) <= 1e-15 * np.max(np.abs(want)), k


def test_sol_scaling_carries_one_graph_onto_another(family):
    curves, patches = family
    c_shift = 0.25
    cv_b = sol_profile(float(np.exp(4 * c_shift)))
    p_b = orbit_surface(cv_b, sol_translation(1, 0, 0),
                        s_range=(0.9 * cv_b.span[0], 0.9 * cv_b.span[1]))
    moved = transform_patch(patches["sol"], sol_translation(0.0, 0.0, c_shift))
    p_sol = patches["sol"]
    us = np.linspace(p_sol.u_range[0] * 0.8, p_sol.u_range[1] * 0.8, 9)
    vs = np.linspace(-0.8, 0.8, 9)
    U, V = np.meshgrid(us, vs, indexing="ij")
    got = moved.chart(U, V)
    want = p_b.chart(np.exp(c_shift) * U, np.exp(-c_shift) * V)
    assert np.max(np.abs(got - want)) < 1e-8


# --- slice classifier ----------------------------------------------------------


def test_classifier_tags_the_three_hyperbolic_families(family):
    curves, patches = family
    lev_b = float(curves["b"].jet(1.0)["t"])
    rho_b = float(curves["b"].jet(1.0)["rho"])
    e = classify_slice_structure(patches["b"], [lev_b])[0]
    assert e["tag"] == "elliptic"
    assert abs(abs(e["k_g"]) - 1.0 / np.tanh(rho_b)) < 1e-5

    e = classify_slice_structure(patches["p"], [0.2])[0]
    assert e["tag"] == "parabolic"
    assert abs(abs(e["k_g"]) - 1.0) < 1e-5

    lev_c = float(curves["c"].jet(0.8)["t"])
    e = classify_slice_structure(patches["c"], [lev_c])[0]
    assert e["tag"] == "hyperbolic"
    assert abs(e["k_g"]) < 1.0


def test_classifier_on_spherical_base_and_geodesic_level(family):
    curves, patches = family
    lev_a = float(curves["a_lt"].jet(1.0)["t"])
    e = classify_slice_structure(patches["a_lt"], [lev_a])[0]
    assert e["tag"] == "elliptic"

    vplane = _synthetic_patches()[3]
    e = classify_slice_structure(vplane, [0.5])[0]
    assert e["tag"] == "geodesic"


def test_classifier_skip_paths(family):
    _, patches = family
    slice_h2 = _synthetic_patches()[1]
    e = classify_slice_structure(slice_h2, [-0.2])[0]
    assert e["skipped"] and "contained" in e["reason"]
    with pytest.raises(TransversalityError):
        classify_slice_structure(slice_h2, [-0.2], strict=True)

    e = classify_slice_structure(patches["b"], [100.0])[0]
    assert e["skipped"] and "not attained" in e["reason"]

    # horizontal tangent along u = 0 makes level 0 a tangential contact
    cubic = patch_from_chart(
        h2xr(-1.0), "cubic",
        lambda U, V: np.stack([0.2 + 0.1 * U, 0.1 * V, U**3], axis=-1),
        (-0.5, 0.5), (-0.5, 0.5),
    )
    e = classify_slice_structure(cubic, [0.0])[0]
    assert e["skipped"] and "tangential contact" in e["reason"]

    # the level curve u = 0.4 sin(200 v) moves further in u between v-lines
    # than the 5% re-solve bracket reaches, so some stencil points have no
    # root near the closest hit
    steep = patch_from_chart(
        h2xr(-1.0), "steep",
        lambda U, V: np.stack(
            [0.2 + 0.1 * U, 0.1 * V, U - 0.4 * np.sin(200 * V)], axis=-1),
        (-0.5, 0.5), (-0.5, 0.5),
    )
    e = classify_slice_structure(steep, [0.0])[0]
    assert e["skipped"] and "left its root bracket at 22 of 310" in e["reason"]
    assert "k_g" not in e
    with pytest.raises(TransversalityError):
        classify_slice_structure(steep, [0.0], strict=True)


def test_classifier_root_solve_failure_raises():
    # the height is NaN only near its root, off the 257-point sampling grid
    hole = patch_from_chart(
        h2xr(-1.0), "hole",
        lambda U, V: np.stack(
            [0.2 + 0.1 * U, 0.1 * V,
             np.where(np.abs(U - 0.0123) < 1e-6, np.nan, U - 0.0123)], axis=-1),
        (-0.5, 0.5), (-0.5, 0.5),
    )
    with pytest.raises(RuntimeError, match="root solve failed") as info:
        classify_slice_structure(hole, [0.0])
    assert not isinstance(info.value, TransversalityError)


def _scalar_classify(patch, level, n_v=64):
    """Scalar reference classifier: brentq per point, k_g looped over v.

    Covers transversal levels on the hyperbolic base, the only cases it is
    compared on.
    """
    assert patch.space.kind == "h2xr"
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    vs_all = np.linspace(v0 + GRID_MARGIN * (v1 - v0),
                         v1 - GRID_MARGIN * (v1 - v0), n_v)
    u_grid = np.linspace(u0 + GRID_MARGIN * (u1 - u0),
                         u1 - GRID_MARGIN * (u1 - u0), 257)

    def height(u, v):
        return float(patch.chart(np.asarray(u), np.asarray(v))[..., 2]) - level

    hits = []
    for v in vs_all:
        f = patch.chart(u_grid, np.full_like(u_grid, v))[..., 2] - level
        assert not np.all(np.abs(f) < 1e-12)
        idx = np.nonzero(np.sign(f[:-1]) * np.sign(f[1:]) < 0)[0]
        if idx.size == 0:
            zeros = np.nonzero(f == 0.0)[0]
            if zeros.size:
                hits.append((float(u_grid[zeros[0]]), float(v)))
            continue
        k = idx[0]
        hits.append((brentq(height, u_grid[k], u_grid[k + 1], args=(v,),
                            xtol=1e-14), float(v)))
    us = np.array([p[0] for p in hits])
    vs = np.array([p[1] for p in hits])

    space = patch.space
    X = patch.chart(us, vs)
    nu = inner(space, X, stacked_surface_fields(patch, us, vs)["N"], vertical_field(space, X))

    dv = 1e-3 * (v1 - v0)
    bracket = 0.05 * (u1 - u0)

    def chart2d(v):
        u_near = us[np.argmin(np.abs(vs - v))]
        lo, hi = max(u_near - bracket, u0), min(u_near + bracket, u1)
        assert height(lo, v) * height(hi, v) < 0
        u_star = brentq(height, lo, hi, args=(v,), xtol=1e-14)
        return patch.chart(np.asarray(u_star), np.asarray(v))

    def kg_at(c0, step, v):
        cp, cm = chart2d(v + step), chart2d(v - step)
        vel = (cp - cm) / (2.0 * step)
        acc2 = (cp - 2.0 * c0 + cm) / step**2
        acc = acc2 + christoffel_contract(christoffels(space, c0), vel, vel)
        speed2 = inner(space, c0, vel, vel)
        n_in = cross(space, c0, vertical_field(space, c0), vel)
        return float(inner(space, c0, acc, n_in) / (norm(space, c0, n_in) * speed2))

    kgs = []
    for v in vs[1:-1]:
        c0 = chart2d(v)
        kgs.append((4.0 * kg_at(c0, dv / 2.0, v) - kg_at(c0, dv, v)) / 3.0)
    kg = np.asarray(kgs)
    kg_mean = float(np.mean(kg))
    entry = {
        "k_g": kg_mean,
        "k_g_residual": float(np.max(np.abs(kg - kg_mean))),
        "nu": float(np.mean(nu)),
        "nu_residual": float(np.max(np.abs(nu - np.mean(nu)))),
        "n_points": len(hits),
    }
    if max(entry["k_g_residual"], entry["nu_residual"]) > CONSTANCY_TOL:
        entry["tag"] = "none"
    elif abs(kg_mean) <= CLASSIFY_BAND:
        entry["tag"] = "geodesic"
    elif abs(abs(kg_mean) - 1.0) <= CLASSIFY_BAND:
        entry["tag"] = "parabolic"
    else:
        entry["tag"] = "elliptic" if abs(kg_mean) > 1.0 else "hyperbolic"
    return entry


def _c10_case(key):
    """A C10 level (family, parameter) or the tilted negative control."""
    if key == "tilted":
        patch = patch_from_chart(
            h2xr(-1.0), "tilted",
            lambda U, V: np.stack(
                [0.15 + 0.25 * U, 0.25 * V,
                 U * (1.0 + 0.2 * np.sin(2.0 * V))], axis=-1),
            (-0.8, 0.8), (-0.8, 0.8))
        return patch, 0.1
    name, param = key
    curve, patch = build_family(name, param)
    if name == "H2xR_parabolic":
        return patch, 0.2
    s = 1.0 if name == "H2xR_elliptic" else 0.8
    return patch, float(curve.jet(s)["t"])


@pytest.mark.parametrize("key", [
    ("H2xR_elliptic", 0.5), ("H2xR_elliptic", 1.0), ("H2xR_elliptic", 2.0),
    ("H2xR_parabolic", None),
    ("H2xR_hyperbolic", 0.25), ("H2xR_hyperbolic", 0.5),
    ("H2xR_hyperbolic", 0.75), "tilted",
], ids=str)
def test_batched_classifier_matches_scalar_oracle(key):
    patch, level = _c10_case(key)
    got = classify_slice_structure(patch, [level])[0]
    want = _scalar_classify(patch, level)
    assert got["tag"] == want["tag"]
    assert got["n_points"] == want["n_points"]
    assert abs(got["k_g"] - want["k_g"]) <= 1e-9
    assert abs(got["k_g_residual"] - want["k_g_residual"]) <= 1e-8
    assert abs(got["nu"] - want["nu"]) <= 1e-12
    assert abs(got["nu_residual"] - want["nu_residual"]) <= 1e-12


def test_classifier_requires_a_product_base():
    p = patch_from_chart(r3(), "plane", lambda U, V: np.stack(
        [U, V, np.zeros_like(U)], axis=-1), (-1, 1), (-1, 1))
    with pytest.raises(ValueError):
        classify_slice_structure(p, [0.0])


# --- grid jets ---------------------------------------------------------------------

_ORBIT_FAMILIES = [
    ("S2xR_slice", None), ("S2xR_cylinder", None), ("S2xR_a_lt_1", 0.6),
    ("S2xR_a_eq_1", None), ("S2xR_a_gt_1", 1.5), ("H2xR_slice", None),
    ("H2xR_vertical_plane", None), ("H2xR_elliptic", 1.0),
    ("H2xR_parabolic", None), ("H2xR_hyperbolic", 0.5),
]


def _jet_arrays(jet, shape):
    # every jet component, broadcast to the grid shape, by (field, index)
    return {(key, i): np.ascontiguousarray(np.broadcast_to(a, shape))
            for key, value in jet.items()
            for i, a in enumerate(value if isinstance(value, tuple) else (value,))}


@pytest.mark.parametrize("name,param", _ORBIT_FAMILIES)
def test_orbit_grid_jets_equal_pointwise_jets_bitwise(name, param):
    # on a grid, or a stack of grids, the profile jet is taken once per row
    # of U and the functions of V (cos, sin, exp) once per row of V; every
    # value must be the one the flat pointwise call gives
    patch = build_family(name, param)[1]
    U, V = patch.grid(64, 64)
    cases = [(U, V), (np.stack([U, U[::-1], U]), np.stack([V, V + 0.5, -V]))]
    for U, V in cases:
        grid = _jet_arrays(patch.jet(U, V), U.shape)
        flat = _jet_arrays(patch.jet(U.ravel(), V.ravel()), U.size)
        assert grid.keys() == flat.keys()
        for key, a in flat.items():
            assert grid[key].tobytes() == a.tobytes(), key


# --- constructor validation ----------------------------------------------------


def test_orbit_surface_rejects_mismatched_actions(family):
    curves, _ = family
    with pytest.raises(IncompatibleActionError):
        orbit_surface(curves["a_lt"], parabolic(np.pi, 1.0))
    with pytest.raises(IncompatibleActionError):
        orbit_surface(curves["a_lt"], rotation(1.0, center=(0.3, 0.0)))
    with pytest.raises(IncompatibleActionError):
        orbit_surface(curves["c"], hyperbolic_translation((np.pi, 0.4), 1.0))
    with pytest.raises(IncompatibleActionError):
        orbit_surface(curves["p"], parabolic(np.pi, 1.0), profile_ideal=np.pi / 3)


def test_synthetic_profile_rejects_unknown_variant():
    with pytest.raises(ValueError):
        synthetic_profile("s2xr", "diagonal")


def test_surface_fields_and_geodesic_flow_use_no_dense_tensors(monkeypatch):
    # the surface fields, the geodesic right-hand side, the identity suites
    # and the orientation of orbit patches contract vectors against the
    # closed-form components; the dense tensors stay for callers outside
    # these paths
    import sys

    import umbilic.geometry as geometry
    from umbilic.families import build_family
    from umbilic.verify import geodesic_sphere_patch, run_suite

    def block(*names):
        for name in names:
            original = getattr(geometry, name)

            def blocked(*args, _name=name, **kwargs):
                raise AssertionError(f"{_name} called")

            for mod in list(sys.modules.values()):
                if (getattr(mod, "__name__", "").startswith("umbilic")
                        and getattr(mod, name, None) is original):
                    monkeypatch.setattr(mod, name, blocked)
            with pytest.raises(AssertionError, match=f"{name} called"):
                getattr(geometry, name)(h3(), np.array([0.0, 0.0, 1.0]))

    block("christoffels", "christoffel_deriv", "riemann", "metric_at")
    for suite in ("product-identities", "sol-identities"):
        assert run_suite(suite, grid=(16, 16))["max_residual"] < 1e-5
    patches = [build_family(name, param)[1] for name, param in (
        ("H2xR_elliptic", 1.0), ("S2xR_a_lt_1", 0.6), ("Sol_Fa", 1.0))]
    patches.append(rotational_graph_patch(m3(1.0, 0.5), [0.3, -0.2, 0.1]))
    patches.append(geodesic_sphere_patch(m3(1.0, 0.5), radius=0.8))
    for patch in patches:
        rep = surface_fields(patch, *patch.grid(8, 6))
        assert np.all(np.isfinite(rep.defect[rep.included]))
    state = np.array([0.1, -0.2, 0.3, 0.5, 0.4, -0.3])
    for space in (m3(1.0, 0.5), h2xr(-1.0), sol(), h3()):
        assert np.all(np.isfinite(_geodesic_rhs(space, state)))
        assert np.all(np.isfinite(_geodesic_rhs(space, state + 1e-20j)))


# --- the component-major pipeline against the stacked one ----------------------

_FAMILY_PARAMS = {"S2xR_a_lt_1": 0.6, "S2xR_a_gt_1": 1.5, "H2xR_elliptic": 1.0,
                  "H2xR_hyperbolic": 0.5, "Sol_Fa": 1.0}


def _stencil_stack(name):
    # the (4, 16, 16) grid of the identity suites' shifted fields
    patch = build_family(name, _FAMILY_PARAMS.get(name))[1]
    U, V = patch.grid(16, 16)
    hu = 1e-5 * (patch.u_range[1] - patch.u_range[0])
    hv = 1e-5 * (patch.v_range[1] - patch.v_range[0])
    return patch, np.stack([U + hu, U - hu, U, U]), np.stack([V, V, V + hv, V - hv])


def _trial_batch(space, family, P, shared=False):
    # a batch of K trials on a 24^2 grid broadcast to (K, 24, 24), or shared
    # by the trials as (1, 24, 24), the way the falsifier evaluates its
    # meridian: fields that do not depend on the trial keep that shape
    patch = trial_patch(space, family, np.asarray(P, dtype=float))
    U, V = patch.grid(24, 24)
    if shared:
        return patch, U[None], V[None]
    shape = (len(P),) + U.shape
    return patch, np.broadcast_to(U, shape), np.broadcast_to(V, shape)


_PIPELINE_CASES = {
    **{name: lambda name=name: (build_family(name, _FAMILY_PARAMS.get(name))[1],)
       for name in family_names()},
    "product-stencil": lambda: _stencil_stack("H2xR_elliptic"),
    "sol-stencil": lambda: _stencil_stack("Sol_Fa"),
    "graph-m3(0,1/2)": lambda: _trial_batch(
        m3(0.0, 0.5), "graph", np.random.default_rng(20).uniform(-1, 1, (7, 6))),
    "graph-m3(1,1/2)": lambda: _trial_batch(
        m3(1.0, 0.5), "graph", np.random.default_rng(21).uniform(-1, 1, (7, 6))),
    "sphere-m3(-1,1)": lambda: _trial_batch(m3(-1.0, 1.0), "sphere", [[0.6], [1.1], [1.7]]),
    "sphere-m3(1,1/2)": lambda: _trial_batch(m3(1.0, 0.5), "sphere", [[0.6], [1.1], [1.7]]),
    "shared-graph-m3(0,1/2)": lambda: _trial_batch(
        m3(0.0, 0.5), "graph", np.random.default_rng(20).uniform(-1, 1, (7, 6)), True),
    "shared-graph-m3(-1,1)": lambda: _trial_batch(
        m3(-1.0, 1.0), "graph", np.random.default_rng(22).uniform(-1, 1, (7, 6)), True),
    "shared-sphere-m3(-1,1)": lambda: _trial_batch(
        m3(-1.0, 1.0), "sphere", [[0.6], [1.1], [1.7]], True),
    "fd-h": lambda: (_fd_patch(build_family("S2xR_a_lt_1", 0.6)[1], 1e-3),),
}


@pytest.mark.parametrize("case", _PIPELINE_CASES)
def test_surface_fields_match_the_stacked_pipeline_bitwise(case):
    # every report field, bit for bit, against the (..., 3) pipeline of the
    # oracles: families at 64^2, stencil stacks, trial batches on broadcast
    # and shared grids (the sphere takes the Weingarten path), a forced
    # finite-difference jet and the m3(1, 1/2) metric with its off-diagonal
    # entries
    patch, U, V = (_PIPELINE_CASES[case]() + (None, None))[:3]
    if U is None:
        U, V = patch.grid(64, 64)
    with np.errstate(all="ignore"):
        rep = surface_fields(patch, U, V)
        want = stacked_surface_fields(patch, U, V)
    assert np.count_nonzero(rep.included) > 0
    for name, value in want.items():
        got = getattr(rep, name)
        if value is None:
            assert got is None, name
            continue
        assert (got.shape, got.dtype) == (value.shape, value.dtype), name
        assert got.tobytes() == value.tobytes(), name


@pytest.mark.parametrize("space,family,P", [
    (m3(0.0, 0.5), "graph", np.random.default_rng(20).uniform(-1, 1, (7, 6))),
    (m3(-1.0, 1.0), "graph", np.random.default_rng(22).uniform(-1, 1, (7, 6))),
    (m3(-1.0, 1.0), "sphere", [[0.6], [1.1], [1.7]]),
], ids=["graph-m3(0,1/2)", "graph-m3(-1,1)", "sphere-m3(-1,1)"])
def test_shared_grid_reports_read_like_the_broadcast_grid(space, family, P):
    # a batch on the (1, 24, 24) grid keeps the fields that do not depend on
    # the trial at that shape (the graph's X_v, say); every field read from
    # its report has the shape and bytes of the report on the (K, 24, 24) grid
    patch, U, V = _trial_batch(space, family, P, shared=True)
    with np.errstate(all="ignore"):
        rep = surface_fields(patch, U, V)
        want = surface_fields(*_trial_batch(space, family, P))
    if family == "graph":
        assert rep._vectors["Xv"][0].shape == U.shape
    for name in ("X", "Xu", "Xv", "N", "T", "JT", "I", "II", "lambda1", "lambda2",
                 "mean_curvature", "umbilicity_factor", "defect", "s0_11", "s0_12",
                 "included", "nu"):
        got, value = getattr(rep, name), getattr(want, name)
        assert (got.shape, got.dtype) == (value.shape, value.dtype), name
        assert got.tobytes() == value.tobytes(), name


def test_surface_fields_convert_no_stacked_vectors(monkeypatch):
    # jets, kernels and report work on component triples end to end, so the
    # pipeline never splits a stacked vector or stacks a kernel result
    import umbilic.geometry as geometry

    cases = [(build_family("H2xR_elliptic", 1.0)[1],), _stencil_stack("Sol_Fa"),
             _trial_batch(m3(0.0, 0.5), "graph", np.zeros((3, 6))),
             _trial_batch(m3(1.0, 0.5), "sphere", [[0.8], [1.2]])]

    def refuse(*args, **kwargs):
        raise AssertionError("stacked vector converted")

    monkeypatch.setattr(geometry, "_components", refuse)
    monkeypatch.setattr(geometry, "_join", refuse)
    with pytest.raises(AssertionError, match="converted"):
        geometry.lowering(m3(0.0, 0.5), np.zeros(3))
    for patch, *grid in cases:
        rep = surface_fields(patch, *(grid or patch.grid(16, 16)))
        assert np.all(np.isfinite(rep.defect[rep.included]))
        for name in ("X", "Xu", "Xv", "I", "II", "N", "T", "JT"):
            assert np.all(np.isfinite(getattr(rep, name)[rep.included])), name


_ORIENT_PARAMS = {"S2xR_a_lt_1": (0.3, 0.6, 0.9), "S2xR_a_gt_1": (1.2, 1.5, 3.0),
                  "H2xR_elliptic": (0.5, 1.0, 2.0), "H2xR_hyperbolic": (0.25, 0.5, 0.75),
                  "Sol_Fa": (0.5, 1.0, 4.0)}


def test_orbit_orientation_matches_the_stacked_oracle():
    # the orientation sample on component triples picks the sign of the
    # (..., 3) computation: every catalog family built by a sweep, the
    # parabolic companion, and their images under isometries
    cases = [build_family(name, param) for name in family_names()
             for param in _ORIENT_PARAMS.get(name, (None,))]
    curve = h2xr_parabolic_profile()
    cases.append((curve, orbit_surface(curve, parabolic(np.pi, 1.0), s_range=(-4.0, 4.0),
                                       profile_ideal=0.0)))
    signs = set()
    for curve, patch in cases:
        if curve is None:  # the Sol plane's chart is not a sweep
            continue
        assert patch.orient == stacked_orient(patch, curve), patch.name
        signs.add(patch.orient)
        isos = ([sol_translation(0.3, -0.2, 0.5)] if patch.space.kind == "sol" else
                [vertical_shift(0.7), slice_reflection(0.25)])
        for iso in isos:
            moved = transform_patch(patch, iso)
            _, J, _ = isometry_jet(patch.space, iso, np.zeros(3))
            assert moved.orient == patch.orient * np.sign(np.linalg.det(J))
    assert signs == {-1.0, 1.0}


@pytest.mark.parametrize("case", ["graph-batch", "shared-graph-batch", "stencil", "family"])
def test_defect_summary_reads_grids_of_every_rank(case):
    # a (3, 8, 8) graph batch on its broadcast and its shared grid, the
    # (4, 16, 16) stencil stack and a family's 2-D grid: the argmax is the
    # (u, v) of a point where the defect is largest, as gen prints it in 2-D
    patch = trial_patch(m3(0.0, 0.5), "graph", np.random.default_rng(6).uniform(-1, 1, (3, 6)))
    U, V = patch.grid(8, 8)
    patch, U, V = {
        "graph-batch": lambda: (patch, *np.broadcast_arrays(U, V, np.zeros((3, 8, 8)))[:2]),
        "shared-graph-batch": lambda: (patch, U[None], V[None]),
        "stencil": lambda: _stencil_stack("H2xR_elliptic"),
        "family": lambda: (build_family("H2xR_elliptic", 1.0)[1], *build_family(
            "H2xR_elliptic", 1.0)[1].grid(16, 16)),
    }[case]()
    rep = surface_fields(patch, U, V)
    summary = rep.defect_summary()
    u, v = summary["argmax"]
    at = (np.broadcast_to(U, rep.defect.shape) == u) & (np.broadcast_to(V, rep.defect.shape) == v)
    assert summary["max"] == np.max(rep.defect[at & rep.included])
    if case == "family":
        i, j = np.unravel_index(np.argmax(np.where(rep.included, rep.defect, -np.inf)), U.shape)
        assert (u, v) == (float(U[i, j]), float(V[i, j]))
