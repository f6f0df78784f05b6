"""Conformal diffeomorphisms between model spaces, with numeric verification.

Three maps are provided: the exponential-height map carrying the product of
the round sphere and a line onto punctured Euclidean space, the normal
geodesic flow carrying a hyperbolic-plane slab onto hyperbolic 3-space, and
the arc-length flattening of the invariant Sol graph.  The first two carry
closed-form Jacobians, through which the conformality relation
pullback = phi^2 * (domain metric) is tested pointwise.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .geometry import (
    ModelGeometry,
    h2xr,
    h3,
    metric_at,
    r3,
    s2xr,
)
from .surfaces import SurfacePatch, patch_from_chart

T_EDGE = 1e-9


@dataclass
class ConformalMap:
    """A smooth map between model charts expected to be conformal.

    ``evaluate`` sends chart points (..., 3) of ``domain`` into ``codomain``;
    ``jacobian`` gives its derivative there, J[..., i, k] = d image_i / d q_k.
    """

    kind: str
    domain: ModelGeometry
    codomain: ModelGeometry
    evaluate: Callable = field(repr=False)
    jacobian: Callable = field(repr=False)


def s2xr_to_r3(p, t):
    """Send (p, t) with p a unit vector to e^t p in punctured 3-space."""
    p = np.asarray(p, dtype=float)
    if np.max(np.abs(np.sum(p * p, axis=-1) - 1.0)) > 1e-12:
        raise ValueError("base point must be a unit vector")
    return np.exp(np.asarray(t, dtype=float))[..., None] * p


def _stereo_unit(x, y):
    r2 = x * x + y * y
    den = 1.0 + r2
    return np.stack([2.0 * x / den, 2.0 * y / den, (r2 - 1.0) / den], axis=-1)


def s2xr_to_r3_map() -> ConformalMap:
    """Chart-level version of the exponential-height map (factor e^t)."""

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        return np.exp(q[..., 2:3]) * _stereo_unit(q[..., 0], q[..., 1])

    def jacobian(q):
        q = np.asarray(q, dtype=float)
        x, y, t = q[..., 0], q[..., 1], q[..., 2]
        den = 1.0 + x * x + y * y
        J = np.empty(q.shape[:-1] + (3, 3))
        J[..., 0, 0] = 2.0 * (den - 2.0 * x * x) / den**2
        J[..., 1, 0] = -4.0 * x * y / den**2
        J[..., 2, 0] = 4.0 * x / den**2
        J[..., 0, 1] = -4.0 * x * y / den**2
        J[..., 1, 1] = 2.0 * (den - 2.0 * y * y) / den**2
        J[..., 2, 1] = 4.0 * y / den**2
        J[..., :, 2] = _stereo_unit(x, y)
        return np.exp(t)[..., None, None] * J

    return ConformalMap("s2xr_to_r3", s2xr(1.0), r3(), evaluate, jacobian)


def _disk_to_halfplane(x, y):
    """Cayley transform of the unit disk onto the upper half plane."""
    w = x + 1j * y
    zeta = 1j * (1.0 + w) / (1.0 - w)
    return zeta.real, zeta.imag


def normal_flow_distance(t):
    """Signed geodesic distance log tan(t/2) of the slab coordinate t."""
    t = np.asarray(t, dtype=float)
    clipped = np.clip(t, T_EDGE, np.pi - T_EDGE)
    if np.any(clipped != t):
        warnings.warn("slab coordinate clipped away from {0, pi}; the image "
                      "escapes to infinity there", RuntimeWarning, stacklevel=2)
    return np.log(np.tan(0.5 * clipped))


def h2xi_to_h3_map() -> ConformalMap:
    """Flow of a hyperbolic-plane slab along normal geodesics of a fixed plane.

    The plane is {x = 0} in the half-space chart, identified with the disk
    by the Cayley transform y0 + i z0 = i(1 + w)/(1 - w), w = x + iy.  Height
    t in (0, pi) is pushed to signed normal distance d = log tan(t/2), so the
    image is (z0 tanh d, y0, z0 sech d) = (-z0 cos t, y0, z0 sin t), the
    identity at t = pi/2.  The Jacobian uses d(y0 + i z0)/dw = 2i/(1 - w)^2;
    where :func:`normal_flow_distance` clips t, the map is constant in t.
    """

    def evaluate(q):
        q = np.asarray(q, dtype=float)
        y0, z0 = _disk_to_halfplane(q[..., 0], q[..., 1])
        d = normal_flow_distance(q[..., 2])
        return np.stack([z0 * np.tanh(d), y0, z0 / np.cosh(d)], axis=-1)

    def jacobian(q):
        q = np.asarray(q, dtype=float)
        x, y, t = q[..., 0], q[..., 1], q[..., 2]
        _, z0 = _disk_to_halfplane(x, y)
        dw = 2j / (1.0 - (x + 1j * y)) ** 2  # d(y0 + i z0)/dx; i dw is d/dy
        clipped = np.clip(t, T_EDGE, np.pi - T_EDGE)
        c, s = np.cos(clipped), np.sin(clipped)
        z0_t = np.where(clipped == t, z0, 0.0)
        rows = ((-dw.imag * c, -dw.real * c, z0_t * s),
                (dw.real, -dw.imag, np.zeros_like(t)),
                (dw.imag * s, dw.real * s, z0_t * c))
        return np.stack([np.stack(r, axis=-1) for r in rows], axis=-2)

    return ConformalMap("h2xi_to_h3", h2xr(-1.0), h3(), evaluate, jacobian)


def conformality_check(cmap: ConformalMap, points) -> dict:
    """Pointwise off-proportionality of the pullback metric.

    Returns the conformal factor field phi (square root of the trace ratio)
    and the Frobenius-relative residual of pullback - phi^2 * domain metric.
    Points with a singular derivative are reported, not silently dropped.
    """
    points = np.asarray(points, dtype=float)
    J = cmap.jacobian(points)
    g_dom = metric_at(cmap.domain, points)
    g_cod = metric_at(cmap.codomain, cmap.evaluate(points))
    G = np.einsum("...ki,...kl,...lj->...ij", J, g_cod, J)
    singular = np.abs(np.linalg.det(J)) < 1e-12
    phi2 = np.einsum("...ij,...ji->...", G, np.linalg.inv(g_dom)) / 3.0
    resid = np.linalg.norm(G - phi2[..., None, None] * g_dom, axis=(-2, -1))
    resid = resid / np.linalg.norm(G, axis=(-2, -1))
    ok = ~singular
    return {
        "max_off_proportionality": float(np.max(resid[ok])) if np.any(ok) else np.nan,
        "phi": np.sqrt(np.maximum(phi2, 0.0)),
        "residual": resid,
        "singular": singular,
    }


def pushforward(cmap: ConformalMap, patch: SurfacePatch, name=None) -> SurfacePatch:
    """Image of a surface patch under the map, as a codomain patch."""
    return patch_from_chart(
        cmap.codomain,
        name or f"{patch.name}|{cmap.kind}",
        lambda U, V: cmap.evaluate(patch.chart(U, V)),
        patch.u_range,
        patch.v_range,
    )


def sol_flattening(curve, n=129) -> dict:
    """Arc-length-style flattening of the invariant Sol graph.

    The new abscissa is xi(y) = integral of e^{-4 z} from 0 to y.  The first
    integral z'^2 = a e^{-6z} - e^{-2z} gives (e^{2z} z')' = -a e^{-4z} - 1,
    so xi = -(y + e^{2z} z') / a exactly, with no quadrature.  In the
    (t, xi) coordinates the induced metric becomes e^{2z} (dt^2 + s dxi^2)
    with a constant s (equal to 1 for the unit-parameter graph); the report
    also measures which power of e^{-z} the raw g_yy actually follows.
    ``n`` is the odd number of profile samples, spread over 0.95 of the
    span; the middle one is y = 0.
    """
    if curve.kind != "sol":
        raise ValueError("flattening applies to Sol graph profiles")
    if n < 2:
        raise ValueError("the flattening needs at least 2 samples")
    if n % 2 == 0:
        raise ValueError("the flattening needs an odd sample count, so that "
                         "y = 0 is a sample")
    y = np.linspace(0.95 * curve.span[0], 0.95 * curve.span[1], n)
    j = curve.jet(y)
    z, z_y = j["z"], j["z_y"]
    xi = -(y + np.exp(2.0 * z) * z_y) / curve.param
    xi -= xi[n // 2]  # y grid is symmetric, so the middle sample is y = 0

    g_tt = np.exp(2.0 * z)
    g_yy = np.exp(-2.0 * z) + z_y**2
    g_xixi = g_yy * np.exp(8.0 * z)
    scale = float(np.median(g_xixi / g_tt))
    conformal_residual = float(np.max(np.abs(g_xixi / (scale * g_tt) - 1.0)))

    # measured exponent: slope of log g_yy against z (pure power law in e^z)
    slope = float(np.polyfit(z, np.log(g_yy), 1)[0])

    return {
        "y": y,
        "z": z,
        "xi": xi,
        "xi_strictly_increasing": bool(np.all(np.diff(xi) > 0.0)),
        "xi_range": (float(xi[0]), float(xi[-1])),
        "z_sup": float(np.max(z)),
        "g_tt": g_tt,
        "g_yy": g_yy,
        "conformal_scale": scale,
        "conformal_residual": conformal_residual,
        "g_yy_exponent": slope,
        "g_yy_vs_scale_e_minus_6z": float(np.max(np.abs(g_yy - scale * np.exp(-6.0 * z)))),
        "g_yy_vs_e_minus_z": float(np.max(np.abs(g_yy - np.exp(-z)))),
    }
