"""Conformal maps: proportionality of pullbacks and umbilic pushforwards."""

import dataclasses

import numpy as np
import pytest

from oracles import exp_map, fd_jacobian, sol_flattening_xi
from umbilic.conformal import (
    ConformalMap,
    conformality_check,
    _disk_to_halfplane,
    h2xi_to_h3_map,
    normal_flow_distance,
    pushforward,
    s2xr_to_r3,
    s2xr_to_r3_map,
    sol_flattening,
)
from umbilic.geometry import (
    ModelGeometry,
    h3,
    parabolic,
    r3,
    rotation,
    vertical_shift,
)
from umbilic.profiles import h2xr_parabolic_profile, s2xr_profile, sol_profile
from umbilic.surfaces import (
    curvature_report,
    orbit_surface,
    synthetic_profile,
    transform_patch,
)


def _sample_points(rng, n, t_lo=-1.0, t_hi=1.0, r=1.2):
    return np.column_stack([
        rng.uniform(-r, r, n), rng.uniform(-r, r, n), rng.uniform(t_lo, t_hi, n),
    ])


# --- the exponential-height map ------------------------------------------------


def test_unit_vector_map_direct_values():
    assert np.allclose(s2xr_to_r3((0.0, 0.0, 1.0), 0.0), [0.0, 0.0, 1.0])
    assert np.allclose(s2xr_to_r3((1.0, 0.0, 0.0), np.log(2.0)), [2.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        s2xr_to_r3((0.5, 0.0, 0.0), 0.0)


def test_exponential_height_map_is_conformal_with_factor_exp_t():
    rng = np.random.default_rng(0)
    pts = _sample_points(rng, 400)
    res = conformality_check(s2xr_to_r3_map(), pts)
    assert res["max_off_proportionality"] < 1e-12
    assert np.max(np.abs(res["phi"] - np.exp(pts[:, 2]))) < 1e-10
    # same conclusion through the finite-difference Jacobian oracle
    sm = s2xr_to_r3_map()
    res = conformality_check(
        dataclasses.replace(sm, jacobian=lambda q: fd_jacobian(sm.evaluate, q)), pts)
    assert res["max_off_proportionality"] < 1e-8


def identity_map(space: ModelGeometry) -> ConformalMap:
    eye = np.eye(3)
    return ConformalMap(
        "identity", space, space,
        lambda q: np.asarray(q, dtype=float).copy(),
        lambda q: np.broadcast_to(eye, np.shape(q)[:-1] + (3, 3)).copy(),
    )


def test_identity_map_has_unit_factor_exactly():
    rng = np.random.default_rng(1)
    pts = _sample_points(rng, 64)
    res = conformality_check(identity_map(r3()), pts)
    assert np.max(np.abs(res["phi"] - 1.0)) == 0.0
    assert res["max_off_proportionality"] == 0.0


def test_shear_is_detected_as_non_conformal():
    J = np.array([[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    shear = ConformalMap(
        "shear", r3(), r3(),
        lambda q: np.stack([q[..., 0] + 0.5 * q[..., 1], q[..., 1], q[..., 2]],
                           axis=-1),
        lambda q: np.broadcast_to(J, np.shape(q)[:-1] + (3, 3)),
    )
    rng = np.random.default_rng(2)
    res = conformality_check(shear, _sample_points(rng, 64))
    assert res["max_off_proportionality"] > 0.1


def test_slices_map_to_round_spheres():
    sm = s2xr_to_r3_map()
    for t0, tol in ((0.0, 1e-10), (0.7, 1e-10)):
        sl = orbit_surface(synthetic_profile("s2xr", "horizontal", t0),
                           rotation(1.0), s_range=(0.05, 3.0))
        ps = pushforward(sm, sl)
        U, V = ps.grid(24, 24)
        radius = np.linalg.norm(ps.chart(U, V), axis=-1)
        assert np.max(np.abs(radius - np.exp(t0))) < tol


def test_pushforward_preserves_umbilicity():
    curve = s2xr_profile(0.6)
    s1 = curve.period_data.s1
    patch = orbit_surface(curve, rotation(1.0), s_range=(0.05, 0.97 * s1))
    rep = curvature_report(pushforward(s2xr_to_r3_map(), patch), 32, 32)
    assert rep.defect_max < 1e-5


# --- the slab-to-hyperbolic-space map -------------------------------------------


def h2xi_to_h3_via_exp(q):
    """Single-point oracle for the slab map using the geodesic integrator."""
    q = np.asarray(q, dtype=float)
    y0, z0 = _disk_to_halfplane(q[0], q[1])
    d = float(normal_flow_distance(q[2]))
    p0 = np.array([0.0, y0, z0])
    # z d/dx is the unit normal of the plane {x = 0} in the half-space chart
    return exp_map(h3(), p0, np.array([d * z0, 0.0, 0.0]))


def test_slab_map_fixes_the_middle_slice():
    hm = h2xi_to_h3_map()
    img = hm.evaluate(np.array([[0.3, -0.2, np.pi / 2]]))[0]
    # the Cayley image of 0.3 - 0.2i, pushed a zero distance
    assert abs(img[0]) < 1e-14
    assert np.allclose(img[1:], h2xi_to_h3_via_exp([0.3, -0.2, np.pi / 2])[1:],
                       atol=1e-12)


@pytest.mark.parametrize("q", [
    [0.1, 0.2, np.pi / 2 + 0.4],
    [-0.3, 0.1, np.pi / 2 - 0.7],
    [0.0, 0.0, np.pi / 2 + 1e-3],
])
def test_slab_map_matches_geodesic_integrator(q):
    hm = h2xi_to_h3_map()
    closed = hm.evaluate(np.asarray([q]))[0]
    assert np.max(np.abs(closed - h2xi_to_h3_via_exp(np.asarray(q)))) < 1e-10


def test_slab_map_clips_escaping_heights_with_warning():
    hm = h2xi_to_h3_map()
    with pytest.warns(RuntimeWarning, match="clipped"):
        img = hm.evaluate(np.array([[0.0, 0.0, 1e-12]]))
    assert np.all(np.isfinite(img))
    assert img[0, 2] > 0.0


def _slab_points(rng, n):
    return np.column_stack([
        rng.uniform(-0.45, 0.45, n),
        rng.uniform(-0.45, 0.45, n),
        np.pi / 2 + rng.uniform(-1.0, 1.0, n),
    ])


def test_slab_map_is_conformal_with_factor_cosec_t():
    pts = _slab_points(np.random.default_rng(3), 300)
    res = conformality_check(h2xi_to_h3_map(), pts)
    assert res["max_off_proportionality"] < 1e-8
    assert np.max(np.abs(res["phi"] - 1.0 / np.sin(pts[:, 2]))) < 1e-8


@pytest.mark.parametrize("cmap,points", [
    (s2xr_to_r3_map(), _sample_points(np.random.default_rng(5), 200)),
    (h2xi_to_h3_map(), _slab_points(np.random.default_rng(6), 200)),
], ids=["s2xr-r3", "h2xi-h3"])
def test_closed_form_jacobian_matches_finite_differences(cmap, points):
    assert np.max(np.abs(cmap.jacobian(points) - fd_jacobian(cmap.evaluate, points))) <= 1e-8


def test_slab_jacobian_is_flat_in_t_where_t_is_clipped():
    J = h2xi_to_h3_map().jacobian(np.array([[0.1, 0.2, 1e-12], [0.1, 0.2, np.pi - 1e-12]]))
    assert np.all(J[..., 2] == 0.0)
    assert np.all(np.isfinite(J))


@pytest.mark.parametrize("t0", [np.pi / 2 - 0.4, np.pi / 2 + 0.6])
def test_slices_map_to_equidistant_surfaces(t0):
    sl = orbit_surface(synthetic_profile("h2xr-elliptic", "horizontal", t0),
                       rotation(1.0), s_range=(0.05, 2.0))
    rep = curvature_report(pushforward(h2xi_to_h3_map(), sl), 20, 20)
    lam = np.stack([rep.lambda1[rep.included], rep.lambda2[rep.included]])
    want = abs(np.tanh(np.log(np.tan(t0 / 2))))
    assert np.var(lam, axis=1).max() < 1e-8
    assert np.max(np.abs(np.abs(lam) - want)) < 1e-5
    assert rep.defect_max < 1e-5


def test_parabolic_surface_maps_to_a_horosphere():
    curve = h2xr_parabolic_profile()
    sp = orbit_surface(curve, parabolic(np.pi, 1.0), s_range=(-4.0, 4.0),
                       name="S_P")
    lifted = transform_patch(sp, vertical_shift(np.pi / 2))
    rep = curvature_report(pushforward(h2xi_to_h3_map(), lifted), 32, 32)
    assert rep.defect_max < 1e-5
    lam1 = rep.lambda1[rep.included]
    lam2 = rep.lambda2[rep.included]
    assert np.max(np.abs(np.abs(lam1) - 1.0)) < 1e-4
    assert np.max(np.abs(np.abs(lam2) - 1.0)) < 1e-4
    assert np.all(lam1 * lam2 > 0.0)


# --- flattening the invariant Sol graph -----------------------------------------


@pytest.mark.parametrize("a", [1.0, float(np.exp(1.0))])
def test_sol_flattening_is_conformal(a):
    fl = sol_flattening(sol_profile(a))
    assert fl["xi_strictly_increasing"]
    assert np.isfinite(fl["xi_range"]).all()
    assert fl["conformal_residual"] < 1e-8
    assert abs(fl["conformal_scale"] - a) < 1e-8
    assert abs(fl["z_sup"] - 0.25 * np.log(a)) < 1e-10


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 4.0])
def test_sol_flattening_matches_the_quadrature_oracle(a):
    # the exact antiderivative xi = -(y + e^{2z} z') / a against adaptive
    # quadrature of e^{-4z}, relative to the span of xi
    curve = sol_profile(a)
    xi = sol_flattening(curve)["xi"]
    want = sol_flattening_xi(curve)
    assert np.max(np.abs(xi - want)) <= 1e-9 * np.max(np.abs(want))


def test_sol_flattening_measures_the_metric_exponent():
    fl = sol_flattening(sol_profile(1.0))
    # raw g_yy follows e^{-6z}; the e^{-z} power is off by orders of magnitude
    assert abs(fl["g_yy_exponent"] + 6.0) < 1e-6
    assert fl["g_yy_vs_scale_e_minus_6z"] < 1e-8
    assert fl["g_yy_vs_e_minus_z"] > 1.0
    # independent slope cross-check, away from the steep wings of the graph
    n = len(fl["y"])
    mid = slice(n // 4, 3 * n // 4)
    fd = np.gradient(fl["z"], fl["y"])**2 + np.exp(-2.0 * fl["z"])
    assert np.max(np.abs(fl["g_yy"] - fd)[mid]) < 1e-3
    with pytest.raises(ValueError):
        sol_flattening(s2xr_profile(0.5))


@pytest.mark.parametrize("n", [-4, 0, 1])
def test_sol_flattening_rejects_fewer_than_two_samples(n):
    with pytest.raises(ValueError, match="at least 2 samples"):
        sol_flattening(sol_profile(1.0), n=n)


@pytest.mark.parametrize("n", [2, 128])
def test_sol_flattening_rejects_even_sample_counts(n):
    with pytest.raises(ValueError, match="odd sample count"):
        sol_flattening(sol_profile(1.0), n=n)
