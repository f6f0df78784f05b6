"""Metric, curvature, geodesic, and isometry checks for the model spaces.

Frozen expected values come from independent routes: finite differences of
the closed-form metrics, textbook curvature constants of the model spaces,
closed-form geodesics, and a Koszul-formula oracle (metric derivatives, a
batched inverse and einsum contractions) for the closed-form connection.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from umbilic.geometry import (
    ChartDomainError,
    GeodesicEscapeError,
    GeodesicFan,
    IllFormedIsometryError,
    apply_isometry,
    chart_contains,
    christoffel_deriv,
    christoffels,
    cross,
    curvature_tensor,
    exp_map,
    h2xr,
    h3,
    hyperbolic_translation,
    inner,
    inverse_metric,
    isometry_jet,
    m3,
    metric_at,
    norm,
    parabolic,
    pullback_residual,
    r3,
    riemann,
    rotation,
    s2xr,
    sol,
    sol_swap,
    sol_translation,
    slice_reflection,
    vertical_field,
    vertical_shift,
)
from umbilic.verify import sample_points

ALL_SPACES = [r3(), h3(), sol(), s2xr(1.0), h2xr(-1.0), m3(1.0, 0.5), m3(-1.0, 1.0)]


def interior_point(space):
    if space.kind == "h3":
        return np.array([0.3, -0.2, 0.8])
    return np.array([0.21, -0.13, 0.4])


# --- metric and chart ------------------------------------------------------


def test_product_metrics_at_origin():
    p = np.zeros(3)
    assert_allclose(metric_at(s2xr(1.0), p), np.diag([4.0, 4.0, 1.0]), atol=1e-15)
    assert_allclose(metric_at(h2xr(-1.0), p), np.diag([4.0, 4.0, 1.0]), atol=1e-15)


def test_h3_metric_scales_like_inverse_height_squared():
    g = metric_at(h3(), np.array([5.0, -2.0, 0.5]))
    assert_allclose(g, np.eye(3) / 0.25, atol=1e-15)


def test_sol_metric_is_diagonal_exponential():
    g = metric_at(sol(), np.array([1.0, 2.0, 0.7]))
    assert_allclose(np.diag(g), [np.exp(1.4), np.exp(-1.4), 1.0], rtol=1e-15)


def test_m3_metric_has_bundle_cross_terms():
    kappa, tau = 1.0, 0.5
    p = np.array([0.4, -0.3, 0.0])
    lam = 1.0 / (1.0 + kappa * 0.25 / 4.0)
    g = metric_at(m3(kappa, tau), p)
    assert_allclose(g[2, 2], 1.0, atol=1e-15)
    assert_allclose(g[0, 2], tau * lam * p[1], rtol=1e-14)
    assert_allclose(g[1, 2], -tau * lam * p[0], rtol=1e-14)


def test_chart_domains():
    assert chart_contains(h2xr(-1.0), [0.9, 0.0, 3.0])
    assert not chart_contains(h2xr(-1.0), [1.1, 0.0, 0.0])
    assert not chart_contains(h3(), [0.0, 0.0, -0.1])
    with pytest.raises(ChartDomainError):
        metric_at(h3(), np.array([0.0, 0.0, 0.0]))


def test_space_parameter_validation():
    with pytest.raises(ValueError):
        s2xr(-1.0)
    with pytest.raises(ValueError):
        h2xr(1.0)


# --- Koszul oracle for the closed-form connection ------------------------------


def metric_deriv(space, p):
    """Coordinate derivatives dg[..., k, i, j] = d_k g_ij (closed form, complex-safe)."""
    p = np.asarray(p)
    x, y = p[..., 0], p[..., 1]
    z = p[..., 2]
    dg = np.zeros(p.shape[:-1] + (3, 3, 3), dtype=p.dtype if np.iscomplexobj(p) else float)
    if space.kind == "r3":
        return dg
    if space.kind == "h3":
        d = -2.0 / z**3
        dg[..., 2, 0, 0] = dg[..., 2, 1, 1] = dg[..., 2, 2, 2] = d
        return dg
    if space.kind == "sol":
        dg[..., 2, 0, 0] = 2.0 * np.exp(2.0 * z)
        dg[..., 2, 1, 1] = -2.0 * np.exp(-2.0 * z)
        return dg
    if space.kind in ("s2xr", "h2xr"):
        sgn = 1.0 if space.kind == "s2xr" else -1.0
        c = 2.0 / np.sqrt(abs(space.kappa))
        F = c / (1.0 + sgn * (x**2 + y**2))
        # F = c/(1 + sgn*(x^2+y^2)) => dF = -sgn * F^2 * (2x, 2y)/c
        Fx = -sgn * 2.0 * x * F**2 / c
        Fy = -sgn * 2.0 * y * F**2 / c
        dg[..., 0, 0, 0] = dg[..., 0, 1, 1] = 2.0 * F * Fx
        dg[..., 1, 0, 0] = dg[..., 1, 1, 1] = 2.0 * F * Fy
        return dg
    k, tau = space.kappa, space.tau
    lam = 1.0 / (1.0 + k * (x**2 + y**2) / 4.0)
    lx = -0.5 * k * x * lam**2
    ly = -0.5 * k * y * lam**2
    # g_xx = lam^2 (1 + tau^2 y^2), g_yy = lam^2 (1 + tau^2 x^2)
    dg[..., 0, 0, 0] = 2.0 * lam * lx * (1.0 + tau**2 * y**2)
    dg[..., 1, 0, 0] = 2.0 * lam * ly * (1.0 + tau**2 * y**2) + 2.0 * tau**2 * y * lam**2
    dg[..., 0, 1, 1] = 2.0 * lam * lx * (1.0 + tau**2 * x**2) + 2.0 * tau**2 * x * lam**2
    dg[..., 1, 1, 1] = 2.0 * lam * ly * (1.0 + tau**2 * x**2)
    # g_xy = -tau^2 lam^2 x y
    gxy_x = -(tau**2) * (2.0 * lam * lx * x * y + lam**2 * y)
    gxy_y = -(tau**2) * (2.0 * lam * ly * x * y + lam**2 * x)
    dg[..., 0, 0, 1] = dg[..., 0, 1, 0] = gxy_x
    dg[..., 1, 0, 1] = dg[..., 1, 1, 0] = gxy_y
    # g_xz = tau lam y, g_yz = -tau lam x
    dg[..., 0, 0, 2] = dg[..., 0, 2, 0] = tau * lx * y
    dg[..., 1, 0, 2] = dg[..., 1, 2, 0] = tau * (ly * y + lam)
    dg[..., 0, 1, 2] = dg[..., 0, 2, 1] = -tau * (lx * x + lam)
    dg[..., 1, 1, 2] = dg[..., 1, 2, 1] = -tau * ly * x
    return dg


def koszul_christoffels(space, p):
    """gamma[..., l, i, j] = g^lm (d_i g_jm + d_j g_im - d_m g_ij) / 2."""
    dg = metric_deriv(space, p)
    low = 0.5 * (np.swapaxes(dg, -3, -2) + np.einsum("...jim->...mij", dg) - dg)
    return np.einsum("...lm,...mij->...lij", np.linalg.inv(metric_at(space, p)), low)


def koszul_christoffel_deriv(space, p, step=1e-100):
    out = np.empty(p.shape[:-1] + (3, 3, 3, 3))
    for m in range(3):
        pc = p.astype(complex)
        pc[..., m] += 1j * step
        out[..., m, :, :, :] = koszul_christoffels(space, pc).imag / step
    return out


def koszul_cross(space, p, X, Y):
    g = metric_at(space, p)
    e = np.zeros((3, 3, 3))
    e[0, 1, 2] = e[1, 2, 0] = e[2, 0, 1] = 1.0
    e[0, 2, 1] = e[2, 1, 0] = e[1, 0, 2] = -1.0
    low = np.einsum("...,lmn,...m,...n->...l", np.sqrt(np.linalg.det(g)), e, X, Y)
    return np.einsum("...kl,...l->...k", np.linalg.inv(g), low)


def koszul_inner(space, p, X, Y):
    return np.einsum("...ij,...i,...j->...", metric_at(space, p), X, Y)


def assert_relative(actual, oracle, rtol=1e-12):
    scale = max(float(np.max(np.abs(oracle))), 1e-300)
    assert np.max(np.abs(actual - oracle)) <= rtol * scale


ORACLE_SPACES = [r3(), h3(), sol(), s2xr(1.0), h2xr(-1.0)] + [
    m3(kappa, tau) for kappa in (-1.0, 0.0, 1.0) for tau in (0.0, 0.5, 1.0)
]


def test_metric_deriv_matches_finite_differences():
    # layout: metric_deriv(space, p)[k, i, j] = d_k g_ij
    h = 1e-6
    for space in ALL_SPACES:
        p = interior_point(space)
        dg = metric_deriv(space, p)
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            fd = (metric_at(space, p + e) - metric_at(space, p - e)) / (2 * h)
            assert_allclose(dg[k], fd, atol=5e-9, err_msg=space.kind)


@pytest.mark.parametrize(
    "space", ORACLE_SPACES, ids=lambda s: f"{s.kind}({s.kappa:g},{s.tau:g})")
def test_closed_form_connection_matches_koszul_oracle(space):
    # includes the space form m3(1, 0.5), where kappa = 4 tau^2
    p = sample_points(space, 64, seed=11)
    X, Y = np.random.default_rng(12).standard_normal((2, 64, 3))
    assert_relative(christoffels(space, p), koszul_christoffels(space, p))
    assert_relative(cross(space, p, X, Y), koszul_cross(space, p, X, Y))
    assert_relative(inner(space, p, X, Y), koszul_inner(space, p, X, Y))
    assert_allclose(inverse_metric(space, p) @ metric_at(space, p),
                    np.broadcast_to(np.eye(3), (64, 3, 3)), atol=1e-12)
    assert_relative(christoffel_deriv(space, p), koszul_christoffel_deriv(space, p))


# --- connection and curvature ----------------------------------------------


def test_sol_christoffels_at_origin():
    G = christoffels(sol(), np.zeros(3))
    expected = np.zeros((3, 3, 3))
    expected[0, 0, 2] = expected[0, 2, 0] = 1.0  # Gamma^x_{xz}
    expected[1, 1, 2] = expected[1, 2, 1] = -1.0  # Gamma^y_{yz}
    expected[2, 0, 0] = -1.0  # Gamma^z_{xx}
    expected[2, 1, 1] = 1.0  # Gamma^z_{yy}
    assert_allclose(G, expected, atol=1e-15)


def test_christoffels_match_finite_difference_koszul():
    h = 1e-5
    for space in ALL_SPACES:
        p = interior_point(space)
        ginv = np.linalg.inv(metric_at(space, p))
        dg = np.empty((3, 3, 3))  # dg[k, i, j] = d_k g_ij
        for k in range(3):
            e = np.zeros(3)
            e[k] = h
            dg[k] = (metric_at(space, p + e) - metric_at(space, p - e)) / (2 * h)
        # low[m,i,j] = (d_i g_jm + d_j g_im - d_m g_ij) / 2
        low = 0.5 * (
            np.einsum("ijm->mij", dg) + np.einsum("jim->mij", dg) - dg
        )
        fd = np.einsum("lm,mij->lij", ginv, low)
        assert_allclose(christoffels(space, p), fd, atol=5e-8, err_msg=space.kind)


def sectional(space, p, X, Y):
    G = metric_at(space, p)
    num = inner(space, p, curvature_tensor(space, p, X, Y, Y), X)
    return num / ((X @ G @ X) * (Y @ G @ Y) - (X @ G @ Y) ** 2)


def test_h3_plane_curvature_is_plus_one():
    # sign convention: <R(X,Y)Y,X> = +1 on orthonormal planes of h3
    p = np.array([0.1, 0.4, 2.0])
    rng = np.random.default_rng(3)
    for _ in range(4):
        X, Y = rng.standard_normal((2, 3))
        assert_allclose(sectional(h3(), p, X, Y), 1.0, atol=1e-11)


def test_r3_is_flat():
    R = riemann(r3(), np.array([1.0, 2.0, 3.0]))
    assert_allclose(R, 0.0, atol=1e-14)


def test_sol_frame_plane_curvatures():
    # orthonormal frame E1 = e^{-z} dx, E2 = e^{z} dy, E3 = dz
    p = np.array([0.7, -1.1, 0.3])
    E1 = np.array([np.exp(-p[2]), 0.0, 0.0])
    E2 = np.array([0.0, np.exp(p[2]), 0.0])
    E3 = np.array([0.0, 0.0, 1.0])
    g = sol()
    assert_allclose(sectional(g, p, E1, E2), -1.0, atol=1e-12)
    assert_allclose(sectional(g, p, E1, E3), 1.0, atol=1e-12)
    assert_allclose(sectional(g, p, E2, E3), 1.0, atol=1e-12)


@pytest.mark.parametrize("kappa,tau", [(1.0, 0.5), (-1.0, 1.0), (0.5, 0.7)])
def test_m3_plane_curvatures(kappa, tau):
    # horizontal planes: -(kappa - 3 tau^2); planes containing xi: -tau^2
    space = m3(kappa, tau)
    p = np.array([0.21, -0.13, 0.4])
    G = metric_at(space, p)
    xi = vertical_field(space, p)
    H1 = np.array([1.0, 0.0, -G[0, 2] / G[2, 2]])
    H2 = np.array([0.0, 1.0, -G[1, 2] / G[2, 2]])
    assert_allclose(sectional(space, p, H1, H2), -(kappa - 3 * tau**2), atol=1e-10)
    assert_allclose(sectional(space, p, H1, xi), -(tau**2), atol=1e-10)
    assert_allclose(sectional(space, p, H2, xi), -(tau**2), atol=1e-10)


def test_product_plane_curvatures():
    for space, kappa in [(s2xr(1.0), 1.0), (h2xr(-1.0), -1.0)]:
        p = np.array([0.3, -0.1, 2.0])
        xi = vertical_field(space, p)
        H1 = np.array([1.0, 0.0, 0.0])
        H2 = np.array([0.0, 1.0, 0.0])
        assert_allclose(sectional(space, p, H1, H2), -kappa, atol=1e-11)
        assert_allclose(sectional(space, p, H1, xi), 0.0, atol=1e-11)


def test_riemann_symmetries():
    for space in ALL_SPACES:
        p = interior_point(space)
        R = riemann(space, p)  # R[l,i,j,k] = components of R(e_i,e_j)e_k
        g = metric_at(space, p)
        Rlow = np.einsum("lm,lijk->mijk", g, R)  # Rlow[m,i,j,k] = <R(ei,ej)ek, em>
        assert_allclose(Rlow, -np.einsum("mjik->mijk", Rlow), atol=1e-11)
        assert_allclose(Rlow, -np.einsum("kijm->mijk", Rlow), atol=1e-11)
        assert_allclose(Rlow, np.einsum("jkmi->mijk", Rlow), atol=1e-11)
        bianchi = Rlow + np.einsum("mjki->mijk", Rlow) + np.einsum("mkij->mijk", Rlow)
        assert_allclose(bianchi, 0.0, atol=1e-11, err_msg=space.kind)


def killing_residual(space, p, h=1e-6):
    """Max-norm of d_i xi_j + d_j xi_i - 2 Gamma^m_ij xi_m for the vertical field."""
    xi_low = lambda q: metric_at(space, q) @ vertical_field(space, q)
    dxi = np.empty((3, 3))
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        dxi[i] = (xi_low(p + e) - xi_low(p - e)) / (2 * h)
    K = dxi + dxi.T - 2 * np.einsum("mij,m->ij", christoffels(space, p), xi_low(p))
    return float(np.max(np.abs(K)))


def test_vertical_field_is_unit_killing():
    for space in [s2xr(1.0), h2xr(-1.0), m3(1.0, 0.5), m3(-1.0, 1.0), m3(0.0, 0.5)]:
        p = np.array([0.21, -0.13, 0.4])
        assert_allclose(norm(space, p, vertical_field(space, p)), 1.0, atol=1e-13)
        assert killing_residual(space, p) < 1e-8


# --- geodesics ---------------------------------------------------------------


def test_r3_geodesics_are_straight_lines():
    p = np.array([1.0, -2.0, 0.5])
    v = np.array([0.3, 0.4, -0.2])
    assert_allclose(exp_map(r3(), p, v), p + v, atol=1e-12)


def test_h3_vertical_geodesic_is_exponential():
    q = exp_map(h3(), [0.0, 0.0, 1.0], [0.0, 0.0, 1.0])
    assert_allclose(q, [0.0, 0.0, np.e], rtol=1e-11)
    q = exp_map(h3(), [0.0, 0.0, 1.0], [0.0, 0.0, -2.0])
    assert_allclose(q, [0.0, 0.0, np.exp(-2.0)], rtol=1e-11)


def test_product_fiber_geodesic():
    q = exp_map(s2xr(1.0), [0.1, 0.2, 0.0], [0.0, 0.0, 1.7])
    assert_allclose(q, [0.1, 0.2, 1.7], atol=1e-12)


def test_geodesic_speed_is_conserved():
    for space in ALL_SPACES:
        p = interior_point(space)
        v = np.array([0.11, -0.23, 0.17])
        speed0 = norm(space, p, v)

        # midpoint check: exp to 1/2 stays in the chart; speed norm persists
        half = exp_map(space, p, 0.5 * v)
        assert chart_contains(space, half)
        fan = GeodesicFan(space, p, v[None, :] / speed0, r_max=float(speed0))
        qs, vs = fan.at(float(speed0) * 0.77)
        assert_allclose(norm(space, qs[0], vs[0]), 1.0, atol=1e-9, err_msg=space.kind)


def test_s2xr_geodesic_escapes_at_antipodal_fiber():
    # unit ray from the chart center reaches the missing antipodal fiber at
    # distance pi; the chart radius blows up there
    space = s2xr(1.0)
    with pytest.raises(GeodesicEscapeError) as exc:
        exp_map(space, [0.0, 0.0, 0.0], [0.5 * 3.2, 0.0, 0.0])
    assert abs(exc.value.s_exit * 3.2 - np.pi) < 1e-5


def test_exp_map_zero_vector_is_identity():
    p = np.array([0.2, 0.1, 0.5])
    assert_allclose(exp_map(sol(), p, np.zeros(3)), p, atol=0.0)


def test_geodesic_fan_matches_exp_map():
    space = h2xr(-1.0)
    p = np.array([0.1, -0.2, 0.3])
    dirs = np.array([[0.25, 0.0, 0.0], [0.0, 0.2, 0.6]])
    dirs = dirs / np.array([norm(space, p, d) for d in dirs])[:, None]
    fan = GeodesicFan(space, p, dirs, r_max=0.8)
    qs, _ = fan.at(0.8)
    for q, d in zip(qs, dirs):
        assert_allclose(q, exp_map(space, p, 0.8 * d), atol=1e-9)


# --- vector algebra ----------------------------------------------------------


@given(st.integers(0, len(ALL_SPACES) - 1), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_cross_product_gram_identity(idx, seed):
    space = ALL_SPACES[idx]
    rng = np.random.default_rng(seed)
    p = interior_point(space)
    X, Y = rng.standard_normal((2, 3))
    Z = cross(space, p, X, Y)
    assert abs(inner(space, p, Z, X)) < 1e-10
    assert abs(inner(space, p, Z, Y)) < 1e-10
    gram = inner(space, p, X, X) * inner(space, p, Y, Y) - inner(space, p, X, Y) ** 2
    assert_allclose(inner(space, p, Z, Z), gram, rtol=1e-9, atol=1e-12)


def test_cross_product_orientation():
    # coordinate frame at the s2xr origin: (dx ^ dy) points up with weight
    # sqrt(det g) g^{zz} ... = 4 / 1; check against the closed form
    space = s2xr(1.0)
    p = np.zeros(3)
    Z = cross(space, p, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert_allclose(Z, [0.0, 0.0, 4.0], atol=1e-14)


# --- isometries --------------------------------------------------------------


def pullback_specs(space):
    if space.kind == "sol":
        return [sol_translation(0.3, -0.2, 0.5), sol_swap(0.0, 0.1, -0.4)]
    if space.kind == "s2xr":
        return [rotation(0.7, center=(0.2, -0.1)), vertical_shift(1.2)]
    if space.kind == "h2xr":
        return [
            rotation(1.1, center=(0.3, 0.2)),
            parabolic(0.4, 0.8),
            hyperbolic_translation((0.9, 0.9 + np.pi), 0.6),
            slice_reflection(0.25),
            vertical_shift(-0.7),
        ]
    return []


def test_isometry_pullback_residuals():
    for space in [sol(), s2xr(1.0), h2xr(-1.0)]:
        p = np.array([0.15, -0.22, 0.4])
        for iso in pullback_specs(space):
            assert pullback_residual(space, iso, p) < 1e-11, (space.kind, iso.kind)


def test_sol_translation_example():
    q = apply_isometry(sol(), sol_translation(0.0, 0.0, np.log(2.0)), [1.0, 1.0, 0.0])
    assert_allclose(q, [0.5, 2.0, np.log(2.0)], rtol=1e-15)


def test_sol_swap_involves_axes():
    iso = sol_swap(0.0, 0.0, 0.0)
    q = apply_isometry(sol(), iso, [1.0, 2.0, 0.3])
    assert_allclose(q[2], -0.3, atol=1e-15)
    assert pullback_residual(sol(), iso, np.array([0.4, 0.1, -0.2])) < 1e-12


def test_rotation_at_origin_is_euclidean_rotation():
    iso = rotation(0.9)
    q, J, H = isometry_jet(s2xr(1.0), iso, np.zeros(3))
    c, s = np.cos(0.9), np.sin(0.9)
    assert_allclose(q, np.zeros(3), atol=1e-15)
    assert_allclose(J[:2, :2], [[c, -s], [s, c]], atol=1e-14)
    assert_allclose(H, 0.0, atol=1e-14)


def test_parabolic_fixes_its_ideal_point():
    # the boundary fixed point is preserved in the limit: push a nearby
    # interior point and check it stays near the ideal direction
    iso = parabolic(0.0, 2.0)
    w = np.array([0.999, 0.0, 0.0])
    q = apply_isometry(h2xr(-1.0), iso, w)
    assert np.hypot(q[0] - 1.0, q[1]) < np.hypot(w[0] - 1.0, w[1]) * 1.5
    assert np.hypot(q[0], q[1]) < 1.0


def test_hyperbolic_translation_moves_along_axis():
    # axis through the disk center: endpoints at angles 0 and pi; the origin
    # moves to euclidean radius tanh(d/2)
    iso = hyperbolic_translation((np.pi, 0.0), 0.8)
    q = apply_isometry(h2xr(-1.0), iso, np.zeros(3))
    assert_allclose(np.hypot(q[0], q[1]), np.tanh(0.4), atol=1e-12)


def test_ill_formed_isometries_raise():
    with pytest.raises(IllFormedIsometryError):
        apply_isometry(sol(), rotation(0.3), np.zeros(3))
    with pytest.raises(IllFormedIsometryError):
        apply_isometry(s2xr(1.0), parabolic(0.1, 1.0), np.zeros(3))
    with pytest.raises(IllFormedIsometryError):
        apply_isometry(h2xr(-1.0), sol_translation(0.0, 0.0, 1.0), np.zeros(3))


@given(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6), st.floats(0.1, 3.0))
@settings(max_examples=25, deadline=None)
def test_rotation_preserves_hyperbolic_norms(x, y, angle):
    space = h2xr(-1.0)
    p = np.array([x, y, 0.2])
    v = np.array([0.3, -0.1, 0.5])
    q, J, _ = isometry_jet(space, rotation(angle), p)
    assert_allclose(norm(space, q, J @ v), norm(space, p, v), rtol=1e-10)
