"""Surface patches as group orbits of profile curves, and their curvature.

A :class:`SurfacePatch` is a parametrized map (u, v) -> chart point together
with first and second derivative evaluators.  Orbit surfaces built from a
:class:`~umbilic.profiles.GeneratingCurve` carry closed-form jets (the group
actions are explicit Mobius or affine maps); arbitrary charts fall back to
centered finite differences with step 1e-4 times the domain span.

Conventions.  Patches are parametrized by (u, v) = (curve parameter, group
parameter).  The unit normal N makes (X_u, X_v, N) positively oriented in
the chart; profile-based patches flip N globally, if needed, so that inside
the generating vertical plane N equals the curve tangent rotated by +90
degrees, N = -sin(theta) u_rho + cos(theta) xi.  With that choice the
curve-direction principal curvature is theta'(s) and the orbit-direction one
is the family's closed form (sin/tan, sinh/tanh, exp, or cosh/sinh ratios).

Jets give vectors as component triples (x, y, z), kept so through the
geometry kernels and the forms E, F, G, L, M, N; a report builds its vector
and matrix fields when first read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .geometry import (
    ModelGeometry,
    connection,
    cross,
    h2xr,
    inner,
    isometry_jet,
    metric_at,
    norm,
    s2xr,
    sol,
    vertical_field,
    _check_domain,
    _connection,
    _cross,
    _dot,
    _lowering,
    _mobius_jet,
)
from .profiles import GeneratingCurve

FD_STEP_FRACTION = 1e-4
AXIS_TUBE = 1e-2
GRID_MARGIN = 1e-3
IMMERSION_FLOOR = 1e-10
CLASSIFY_BAND = 1e-4
CONSTANCY_TOL = 1e-3

JET_KEYS = ("X", "Xu", "Xv", "Xuu", "Xuv", "Xvv")


class ImmersionError(RuntimeError):
    """The first fundamental form is degenerate at an evaluation point."""


class TransversalityError(RuntimeError):
    """A requested slice level is tangential to the surface."""


class IncompatibleActionError(ValueError):
    """The group action cannot sweep the given generating curve."""


@dataclass
class SurfacePatch:
    """Immersed patch with derivative evaluators.

    ``jet(U, V)`` returns a dict keyed by ``JET_KEYS`` whose vectors are
    component triples (x, y, z) of arrays shaped like the parameters, so the
    curvature pipeline reads each component as one array.  In place of the
    second derivatives a jet may carry a nonvanishing normal field
    ``normal`` with its chart partials ``normal_u`` and ``normal_v``; the
    second fundamental form then comes from the Weingarten equation.
    ``chart(U, V)`` returns positions only, on a trailing axis of chart
    components; it always exists so curvature can be recomputed by finite
    differences at a chosen step.  ``orient`` is the overall sign applied to
    the cross-product normal.
    """

    space: ModelGeometry
    name: str
    u_range: tuple
    v_range: tuple
    jet: Callable = field(repr=False)
    chart: Callable = field(repr=False, default=None)
    orient: float = 1.0

    def __post_init__(self):
        if self.chart is None:
            jet = self.jet
            self.chart = lambda U, V: np.stack(jet(U, V)["X"], axis=-1)

    def grid(self, n_u=48, n_v=48, margin=GRID_MARGIN):
        """Meshgrid over the domain inset by a relative margin."""
        (u0, u1), (v0, v1) = self.u_range, self.v_range
        du, dv = margin * (u1 - u0), margin * (v1 - v0)
        u = np.linspace(u0 + du, u1 - du, n_u)
        v = np.linspace(v0 + dv, v1 - dv, n_v)
        return np.meshgrid(u, v, indexing="ij")


def fd_jet(chart, u_range, v_range, h=None):
    """Centered finite-difference jet of an arbitrary chart map.

    The 9-point stencil goes through the chart in one call on a stacked
    leading axis, so ``chart`` must act elementwise over leading axes.
    """
    hu = h if h is not None else FD_STEP_FRACTION * (u_range[1] - u_range[0])
    hv = h if h is not None else FD_STEP_FRACTION * (v_range[1] - v_range[0])

    def jet(U, V):
        U, V = np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float))
        P = np.moveaxis(chart(
            np.stack([U, U + hu, U - hu, U, U, U + hu, U + hu, U - hu, U - hu]),
            np.stack([V, V, V, V + hv, V - hv, V + hv, V - hv, V + hv, V - hv]),
        ), -1, 0)
        # X is a copy, so the stacked stencil is freed with this frame
        return {
            "X": tuple(P[:, 0].copy()),
            "Xu": tuple((P[:, 1] - P[:, 2]) / (2 * hu)),
            "Xv": tuple((P[:, 3] - P[:, 4]) / (2 * hv)),
            "Xuu": tuple((P[:, 1] - 2 * P[:, 0] + P[:, 2]) / hu**2),
            "Xvv": tuple((P[:, 3] - 2 * P[:, 0] + P[:, 4]) / hv**2),
            "Xuv": tuple((P[:, 5] - P[:, 6] - P[:, 7] + P[:, 8]) / (4 * hu * hv)),
        }

    return jet


def patch_from_chart(space, name, chart, u_range, v_range, h=None) -> SurfacePatch:
    """Wrap a bare chart map in a patch with finite-difference jets."""
    return SurfacePatch(
        space=space,
        name=name,
        u_range=tuple(u_range),
        v_range=tuple(v_range),
        jet=fd_jet(chart, u_range, v_range, h=h),
        chart=chart,
    )


# ---------------------------------------------------------------------------
# orbit surfaces


def _assemble(wjets, t, t_u, t_uu):
    """Real chart jets from complex horizontal jets plus a vertical profile."""
    shape = wjets[0].shape
    t, t_u, t_uu = (np.broadcast_to(a, shape) for a in (t, t_u, t_uu))
    zero = np.zeros(shape)
    return {key: (h.real, h.imag, vert) for key, h, vert
            in zip(JET_KEYS, wjets, (t, t_u, zero, t_uu, zero, zero))}


def _mobius_chain(M, W, Wu, Wv, Wuu, Wuv, Wvv):
    """Push complex jets through a fixed Mobius map w = M(W)."""
    w, d1, d2 = _mobius_jet(M, W)
    return (
        w,
        d1 * Wu,
        d1 * Wv,
        d2 * Wu**2 + d1 * Wuu,
        d2 * Wu * Wv + d1 * Wuv,
        d2 * Wv**2 + d1 * Wvv,
    )


def _grid_args(curve, U, V):
    """Broadcast (U, V), evaluate the curve jet once per grid row, take V's row.

    Where U is constant along its last axis (a grid, or a stack of grids)
    the jet is taken at U[..., 0] and its fields keep a last axis of length
    1, to broadcast against U.  Where V is constant along its second-to-last
    axis, ``v`` is its first row, for the functions of V alone; else it is
    V.  The jet and what the sweeps compute from it are elementwise, so the
    values are the pointwise ones.
    """
    U, V = np.broadcast_arrays(
        np.asarray(U, dtype=float), np.asarray(V, dtype=float)
    )
    rows = U[..., :1] if U.ndim >= 2 and (U == U[..., :1]).all() else U
    v = V[..., :1, :] if V.ndim >= 2 and (V == V[..., :1, :]).all() else V
    j = curve.jet(np.ravel(rows))
    return U, V, v, {k: np.reshape(a, rows.shape) for k, a in j.items()}


def _rotational_jet(curve, kappa_sign):
    half = np.tan if kappa_sign > 0 else np.tanh

    def jet(U, V):
        U, _, v, j = _grid_args(curve, U, V)
        rho = j["rho"]
        r = half(rho / 2.0)
        r_rho = (1.0 + kappa_sign * r * r) / 2.0
        r_rhorho = kappa_sign * r * (1.0 + kappa_sign * r * r) / 2.0
        r_u = r_rho * j["rho_s"]
        r_uu = r_rhorho * j["rho_s"] ** 2 + r_rho * j["rho_ss"]
        c, s = np.cos(v), np.sin(v)
        zero = np.zeros(U.shape)
        t, t_s, t_ss = (np.broadcast_to(j[k], U.shape) for k in ("t", "t_s", "t_ss"))
        return {
            "X": (r * c, r * s, t),
            "Xu": (r_u * c, r_u * s, t_s),
            "Xv": (r * -s, r * c, zero),
            "Xuu": (r_uu * c, r_uu * s, t_ss),
            "Xuv": (r_u * -s, r_u * c, zero),
            "Xvv": (-r * c, -r * s, zero),
            # the (u, v) parametrization reverses orientation each time the
            # profile crosses the rotation axis (sign of r); folding that
            # into the normal keeps N smooth across axis crossings
            "orient_sign": np.where(r >= 0.0, 1.0, -1.0),
        }

    return jet


def _parabolic_jet(curve, action_ideal, profile_sign):
    # right half-plane picture adapted to the action's ideal point: the
    # profile sits on the positive real axis at W = exp(sigma rho), orbits
    # are the vertical translations W -> W + i v.  The curve's rho is the
    # Busemann coordinate oriented away from its accumulation point, so
    # sigma = -1 when the curve accumulates at the action's own fixed point
    # (umbilic sweep) and sigma = +1 at the antipode (minimal companion).
    zeta = np.exp(1j * action_ideal)
    Rm = np.array([[-1.0 / zeta, 0.0], [0.0, 1.0]])
    C = np.array([[-1.0, 1.0], [1.0, 1.0]])
    M = np.linalg.inv(Rm) @ np.linalg.inv(C)

    def jet(U, V):
        U, _, v, j = _grid_args(curve, U, V)
        E = np.exp(profile_sign * j["rho"])
        rho_s = profile_sign * j["rho_s"]
        rho_ss = profile_sign * j["rho_ss"]
        W = E + 1j * v
        Wu = rho_s * E + 0j
        Wv = np.full(U.shape, 1j)
        Wuu = (rho_ss + rho_s**2) * E + 0j
        zero = np.zeros(U.shape, dtype=complex)
        wjets = _mobius_chain(M, W, Wu, Wv, Wuu, zero, zero)
        return _assemble(wjets, j["t"], j["t_s"], j["t_ss"])

    return jet


def _hyperbolic_jet(curve, axis_angle):
    # upper half-plane picture: the translation axis is the imaginary axis,
    # profile points sit on the unit circle at signed distance rho from it,
    # orbits are the scalings W -> e^{-v} W (so +v translates toward the
    # second axis endpoint, matching the isometry's sign); M maps back to
    # the disk and a final rotation places the axis endpoints
    M = np.array([[np.exp(1j * axis_angle), 0.0], [0.0, 1.0]]) @ np.array(
        [[-1.0, 1j], [1.0, 1j]]
    )

    def jet(U, V):
        _, _, v, j = _grid_args(curve, U, V)
        rho, rho_s, rho_ss = j["rho"], j["rho_s"], j["rho_ss"]
        sech, tanh = 1.0 / np.cosh(rho), np.tanh(rho)
        q = tanh + 1j * sech
        q_rho = sech * sech - 1j * sech * tanh
        q_rhorho = -2.0 * sech**2 * tanh - 1j * (sech**3 - sech * tanh**2)
        ev = np.exp(-v)
        W = ev * q
        Wu = ev * q_rho * rho_s
        Wuu = ev * (q_rhorho * rho_s**2 + q_rho * rho_ss)
        wjets = _mobius_chain(M, W, Wu, -W, Wuu, -Wu, W)
        return _assemble(wjets, j["t"], j["t_s"], j["t_ss"])

    return jet


def _sol_graph_jet(curve):
    def jet(U, V):
        U, V, _, j = _grid_args(curve, U, V)
        zero, one = np.zeros(U.shape), np.ones(U.shape)
        z, z_y, z_yy = (np.broadcast_to(j[k], U.shape) for k in ("z", "z_y", "z_yy"))
        return {"X": (V, U, z), "Xu": (zero, one, z_y), "Xv": (one, zero, zero),
                "Xuu": (zero, zero, z_yy), "Xuv": (zero,) * 3, "Xvv": (zero,) * 3}

    return jet


def synthetic_profile(kind, variant, level=0.0) -> GeneratingCurve:
    """Degenerate generating curves for slices, cylinders, and planes.

    ``variant='horizontal'`` is the horizontal geodesic rho = s at height
    t = ``level`` (its rotation orbit is a slice).  ``variant='vertical'``
    is the vertical line t = s at axis distance rho = ``level`` (its orbit
    is a cylinder over a circle, or a vertical plane when swept from the
    axis by a hyperbolic translation).
    """
    if variant == "horizontal":
        fields = lambda s: (s, np.full_like(s, level), np.zeros_like(s))
        derivs = lambda s: (np.ones_like(s), np.zeros_like(s))
    elif variant == "vertical":
        fields = lambda s: (np.full_like(s, level), s, np.full_like(s, np.pi / 2.0))
        derivs = lambda s: (np.zeros_like(s), np.ones_like(s))
    else:
        raise ValueError(f"unknown synthetic variant {variant!r}")

    def jet(s):
        rho, t, theta = fields(s)
        rho_s, t_s = derivs(s)
        zero = np.zeros_like(s)
        return {
            "rho": rho, "t": t, "theta": theta,
            "rho_s": rho_s, "t_s": t_s, "theta_s": zero,
            "rho_ss": zero, "t_ss": zero, "theta_ss": zero,
        }

    span = 8.0
    grid = np.linspace(-span, span, 257)
    rho, t, theta = fields(grid)
    return GeneratingCurve(
        kind=kind,
        param=None,
        span=(-span, span),
        columns=("s", "rho", "t", "theta"),
        samples=np.column_stack([grid, rho, t, theta]),
        period_data=None,
        _jet=jet,
    )


_ACTION_FOR_KIND = {
    "s2xr": "rotation",
    "h2xr-elliptic": "rotation",
    "h2xr-parabolic": "parabolic",
    "h2xr-hyperbolic": "hyperbolic",
    "sol": "sol_translation",
}

_TWO_PI = 2.0 * np.pi


def _angles_antipodal(a, b):
    return abs(abs((a - b) % _TWO_PI) - np.pi) < 1e-12


def orbit_surface(curve: GeneratingCurve, action, s_range=None, v_range=None,
                  name=None, profile_ideal=None) -> SurfacePatch:
    """Sweep a generating curve with a one-parameter isometry group.

    ``action`` is an :class:`~umbilic.geometry.IsometrySpec` naming the
    group; its own parameter is ignored and the patch coordinate v runs
    through the group instead.  Supported pairings: rotations about the
    origin with rotationally symmetric curves, boundary-point-fixing
    parabolic actions with parabolic curves, translations along a diameter
    geodesic with hyperbolic curves, and Sol x-translations with Sol graph
    curves.

    For parabolic sweeps, ``profile_ideal`` is the boundary angle at which
    the generating curve accumulates (default: the action's own fixed
    point, giving the umbilic sweep).  Passing the antipodal angle builds
    the companion surface whose orbit horocycles bend the opposite way
    relative to the profile normal.
    """
    expected = _ACTION_FOR_KIND[curve.kind]
    if action.kind != expected:
        raise IncompatibleActionError(
            f"{curve.kind} curves are swept by {expected} actions, not {action.kind!r}"
        )

    if s_range is None:
        s_range = curve.span

    if curve.kind == "sol":
        space = sol()
        jet = _sol_graph_jet(curve)
        v_range = v_range or (-1.0, 1.0)
    elif curve.kind == "s2xr":
        if tuple(action.center) != (0.0, 0.0):
            raise IncompatibleActionError("orbit sweeps require rotation about the origin")
        space = s2xr(1.0)
        jet = _rotational_jet(curve, +1.0)
        v_range = v_range or (0.0, _TWO_PI)
    elif curve.kind == "h2xr-elliptic":
        if tuple(action.center) != (0.0, 0.0):
            raise IncompatibleActionError("orbit sweeps require rotation about the origin")
        space = h2xr(-1.0)
        jet = _rotational_jet(curve, -1.0)
        v_range = v_range or (0.0, _TWO_PI)
    elif curve.kind == "h2xr-parabolic":
        space = h2xr(-1.0)
        ref = action.ideal if profile_ideal is None else float(profile_ideal)
        if abs((ref - action.ideal) % _TWO_PI) < 1e-12:
            sign = -1.0
        elif _angles_antipodal(ref, action.ideal):
            sign = +1.0
        else:
            raise IncompatibleActionError(
                "profile ideal point must coincide with or oppose the action's"
            )
        jet = _parabolic_jet(curve, action.ideal, sign)
        v_range = v_range or (-1.0, 1.0)
    else:
        space = h2xr(-1.0)
        e0, e1 = action.endpoints
        if not _angles_antipodal(e0, e1):
            raise IncompatibleActionError(
                "orbit sweeps require a translation axis through the origin"
            )
        jet = _hyperbolic_jet(curve, axis_angle=e1)
        v_range = v_range or (-1.0, 1.0)

    patch = SurfacePatch(
        space, name or f"{curve.kind}-orbit", tuple(s_range), tuple(v_range), jet
    )
    return _orient_to_profile(patch, curve)


def _orient_to_profile(patch, curve):
    """Fix the normal sign so the profile convention holds globally.

    The sign of the cross-product normal against the profile normal is
    constant on a connected patch, so one well-conditioned sample fixes it.
    """
    u0, u1 = patch.u_range
    v0, v1 = patch.v_range
    v_ref = 0.5 * (v0 + v1)
    us = np.linspace(u0 + 0.05 * (u1 - u0), u1 - 0.05 * (u1 - u0), 33)
    j = curve.jet(us)
    if curve.kind == "sol":
        i = int(np.argmax(np.abs(j["z_y"])))
    else:
        i = int(np.argmax(np.abs(np.cos(j["theta"])) * np.minimum(np.abs(j["rho"]), 1.0)))
    jet = patch.jet(np.asarray(us[i]), np.asarray(v_ref))
    X, Xu, Xv = (np.stack(jet[k], axis=-1) for k in ("X", "Xu", "Xv"))
    if curve.kind == "sol":
        # conormal covector of the graph z = z(y) is (0, -z', 1)
        cov = np.array([0.0, -float(j["z_y"][i]), 1.0])
        hint = np.linalg.solve(metric_at(patch.space, X), cov)
    else:
        theta = float(j["theta"][i])
        xi = vertical_field(patch.space, X)
        horiz = Xu - inner(patch.space, X, Xu, xi) * xi
        nh = norm(patch.space, X, horiz)
        if nh < 1e-12 or abs(np.cos(theta)) < 1e-12:
            hint = np.cos(theta) * xi
        else:
            u_rho = horiz / nh * np.sign(np.cos(theta))
            hint = -np.sin(theta) * u_rho + np.cos(theta) * xi
    n_cross = cross(patch.space, X, Xu, Xv)
    n_cross = n_cross * float(np.asarray(jet.get("orient_sign", 1.0)))
    sign = np.sign(inner(patch.space, X, n_cross, hint))
    patch.orient = float(sign) if sign != 0 else 1.0
    return patch


def transform_patch(patch: SurfacePatch, iso, name=None) -> SurfacePatch:
    """Push a patch through an ambient isometry using its closed-form jets."""
    space = patch.space
    base_jet = patch.jet

    def moved_jet(U, V):
        j = base_jet(U, V)
        flats = {k: np.stack(j[k], axis=-1).reshape(-1, 3) for k in JET_KEYS}
        res = {k: np.empty_like(flats[k]) for k in JET_KEYS}
        for n, p in enumerate(flats["X"]):
            q, J, H = isometry_jet(space, iso, p)
            a, b = flats["Xu"][n], flats["Xv"][n]
            res["X"][n] = q
            res["Xu"][n] = J @ a
            res["Xv"][n] = J @ b
            res["Xuu"][n] = J @ flats["Xuu"][n] + np.einsum("kij,i,j->k", H, a, a)
            res["Xuv"][n] = J @ flats["Xuv"][n] + np.einsum("kij,i,j->k", H, a, b)
            res["Xvv"][n] = J @ flats["Xvv"][n] + np.einsum("kij,i,j->k", H, b, b)
        shape = (3,) + np.shape(j["X"][0])
        out = {k: tuple(res[k].T.reshape(shape)) for k in JET_KEYS}
        if "orient_sign" in j:
            out["orient_sign"] = j["orient_sign"]
        return out

    moved = SurfacePatch(
        space=space,
        name=name or f"{patch.name}*",
        u_range=patch.u_range,
        v_range=patch.v_range,
        jet=moved_jet,
    )
    # reflections reverse the cross-product normal
    u_ref = 0.5 * (patch.u_range[0] + patch.u_range[1])
    v_ref = 0.5 * (patch.v_range[0] + patch.v_range[1])
    p_ref = patch.chart(np.asarray(u_ref), np.asarray(v_ref))
    _, J, _ = isometry_jet(space, iso, np.asarray(p_ref, dtype=float))
    moved.orient = patch.orient * float(np.sign(np.linalg.det(J)))
    return moved


# ---------------------------------------------------------------------------
# curvature


def _jet_arrays(patch, U, V, h=None):
    if h is None:
        return patch.jet(U, V)
    return fd_jet(patch.chart, patch.u_range, patch.v_range, h=h)(U, V)


def _sym2(a, b, c):
    """The symmetric 2x2 matrices [[a, b], [b, c]] on two last axes."""
    return np.stack([np.stack([a, b], axis=-1), np.stack([b, c], axis=-1)], axis=-2)


def _forms_from_jet(space, j, orient):
    """I = (E, F, G), II = (L, M, N), the unit normal and its lowered form,
    from a jet of component triples; the chart domain is checked once, here."""
    X, Xu, Xv = j["X"], j["Xu"], j["Xv"]
    _check_domain(space, X)
    lower = _lowering(space, X)
    gXu = lower(Xu)
    E = _dot(Xu, gXu)
    F = _dot(Xv, gXu)
    gXv = lower(Xv)
    G = _dot(Xv, gXv)

    factor = orient * np.asarray(j.get("orient_sign", 1.0))
    n_raw = tuple(c * factor for c in _cross(space, X, Xu, Xv))
    gn = lower(n_raw)
    n_len = np.sqrt(_dot(n_raw, gn))
    safe = np.where(n_len > 0, n_len, 1.0)
    N = tuple(c / safe for c in n_raw)
    gN = tuple(c / safe for c in gn)

    gamma = _connection(space, X)
    if "normal" in j:
        # Weingarten: II_ab = -<nabla_{X_a} n, X_b> with n the jet's normal
        # field, made unit and oriented like N.  A normal field from a
        # geodesic flow is normal only up to rounding, so the mixed term is
        # symmetrized.
        n = tuple(c * factor for c in j["normal"])
        gn = lower(n)
        scale = np.sqrt(_dot(n, gn))
        n, gn = tuple(c / scale for c in n), tuple(c / scale for c in gn)

        def dn(n_a, Xa):
            # nabla_{X_a} of the unit field, from the partials of j["normal"]
            d = tuple(c * factor / scale + g for c, g in zip(n_a, gamma(Xa, n)))
            t = _dot(d, gn)
            return tuple(c - t * m for c, m in zip(d, n))

        dn_u, dn_v = dn(j["normal_u"], Xu), dn(j["normal_v"], Xv)
        L = -_dot(dn_u, gXu)
        M = -0.5 * (_dot(dn_u, gXv) + _dot(dn_v, gXu))
        Nn = -_dot(dn_v, gXv)
    else:
        def second(Xa, Xb, Xab):
            return _dot(tuple(c + g for c, g in zip(Xab, gamma(Xa, Xb))), gN)

        L = second(Xu, Xu, j["Xuu"])
        M = second(Xu, Xv, j["Xuv"])
        Nn = second(Xv, Xv, j["Xvv"])
    return (E, F, G, L, M, Nn), N, gN


def _checked_forms(patch: SurfacePatch, u, v, h):
    """E, F, G, L, M, N and the unit normal's components at (u, v), det I checked."""
    j = _jet_arrays(patch, np.asarray(u, dtype=float), np.asarray(v, dtype=float), h=h)
    (E, F, G, L, M, Nn), N, _ = _forms_from_jet(patch.space, j, patch.orient)
    bad = np.flatnonzero(E * G - F * F <= IMMERSION_FLOOR)
    if bad.size:
        raise ImmersionError(
            f"patch {patch.name!r}: first fundamental form degenerate "
            f"(det I <= {IMMERSION_FLOOR}) at flat grid index {bad[:1]}"
        )
    return (E, F, G, L, M, Nn), N


def fundamental_forms(patch: SurfacePatch, u, v, h=None):
    """First and second fundamental forms and the unit normal at (u, v).

    ``h`` forces a finite-difference jet with that step on the patch chart;
    by default the patch's own (closed-form or default-step) jet is used.
    Raises :class:`ImmersionError` where det I falls below 1e-10.
    """
    (E, F, G, L, M, Nn), N = _checked_forms(patch, u, v, h)
    return _sym2(E, F, G), _sym2(L, M, Nn), np.stack(N, axis=-1)


def _shape_invariants(E, F, G, L, M, Nn):
    """H, the half gap (lambda2 - lambda1)/2 and the trace-free part (s, b).

    In the orthonormal frame e1 = X_u / sqrt(E), e2 perpendicular, the shape
    matrix [[a, b], [b, c]] has trace-free part [[s, b], [b, -s]], s = (a - c)/2,
    and half gap sqrt(s^2 + b^2): it has no cancellation at umbilic points,
    where sqrt(H^2 - K) returns rounding noise of order sqrt(eps).
    """
    det_I = E * G - F * F
    H = (E * Nn - 2.0 * F * M + G * L) / (2.0 * det_I)
    s = 0.5 * (L / E - (E * E * Nn - 2.0 * E * F * M + F * F * L) / (E * det_I))
    # excluded points may have det I slightly below 0
    b = (E * M - F * L) / (E * np.sqrt(np.abs(det_I)))
    return H, np.sqrt(s * s + b * b), s, b


def principal_curvatures(patch: SurfacePatch, u, v, h=None):
    """Ordered principal curvatures (lambda1 <= lambda2) at (u, v)."""
    forms, _ = _checked_forms(patch, u, v, h)
    H, half_gap, _, _ = _shape_invariants(*forms)
    return H - half_gap, H + half_gap


@dataclass
class CurvatureReport:
    """Surface fields of a patch at an array of parameter points (U, V).

    Holds the jet's position and first derivatives, the fundamental forms,
    the unit normal, the principal curvatures, the umbilicity factor
    (lambda1 + lambda2) / 2, the normalized defect, the trace-free shape operator
    [[s0_11, s0_12], [s0_12, -s0_11]] (``_shape_invariants``).  ``included``
    masks out points within the axis tube (orbit speed below ``AXIS_TUBE``)
    or with degenerate first fundamental form; statistics are over included
    points only.  ``nu``/``T``/``JT`` split the height field d_z = nu N + T,
    with JT = N ^ T, wherever d_z is a unit field: the vertical Killing field
    of the products and of M^3(kappa, tau), and the frame field E3 of Sol,
    the one space without a vertical Killing field where the split is taken.
    They are None in every other space.

    X, Xu, Xv, N, T, JT (..., 3) and I, II (..., 2, 2) are built from
    components on first read, under the error state the report was made in.
    """

    patch_name: str
    U: np.ndarray
    V: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    mean_curvature: np.ndarray
    umbilicity_factor: np.ndarray
    defect: np.ndarray
    s0_11: np.ndarray
    s0_12: np.ndarray
    included: np.ndarray
    nu: Optional[np.ndarray]
    _space: ModelGeometry = field(repr=False)
    _vectors: dict = field(repr=False)  # component triples of X, Xu, Xv, N (and T)
    _forms: tuple = field(repr=False)  # E, F, G, L, M, N
    _errstate: dict = field(repr=False)

    X = cached_property(lambda self: np.stack(self._vectors["X"], axis=-1))
    Xu = cached_property(lambda self: np.stack(self._vectors["Xu"], axis=-1))
    Xv = cached_property(lambda self: np.stack(self._vectors["Xv"], axis=-1))
    N = cached_property(lambda self: np.stack(self._vectors["N"], axis=-1))
    I = cached_property(lambda self: _sym2(*self._forms[:3]))
    II = cached_property(lambda self: _sym2(*self._forms[3:]))

    @cached_property
    def T(self):
        if self.nu is None:
            return None
        nu, N = self.nu, self._vectors["N"]
        with np.errstate(**self._errstate):  # T = d_z - nu N
            self._vectors["T"] = 0.0 - nu * N[0], 0.0 - nu * N[1], 1.0 - nu * N[2]
        return np.stack(self._vectors["T"], axis=-1)

    @cached_property
    def JT(self):
        if self.T is None:
            return None
        X, N, T = (self._vectors[k] for k in ("X", "N", "T"))
        with np.errstate(**self._errstate):
            return np.stack(_cross(self._space, X, N, T), axis=-1)

    @property
    def defect_max(self) -> float:
        return float(np.max(self.defect[self.included]))

    @property
    def defect_mean(self) -> float:
        return float(np.mean(self.defect[self.included]))

    @property
    def defect_argmax(self):
        masked = np.where(self.included, self.defect, -np.inf)
        i, j = np.unravel_index(np.argmax(masked), masked.shape)
        return float(self.U[i, j]), float(self.V[i, j])

    def defect_summary(self) -> dict:
        """Max, mean, and argmax of the defect over included points."""
        return {
            "max": self.defect_max,
            "mean": self.defect_mean,
            "argmax": self.defect_argmax,
        }

    def defect_quality(self) -> np.ndarray:
        """The defect as a flat per-point array, NaN at excluded points."""
        return np.where(self.included, self.defect, np.nan).ravel()


def surface_fields(patch: SurfacePatch, U, V, h=None) -> CurvatureReport:
    """Every surface field of the patch at the parameter points (U, V).

    The one place a patch jet becomes surface data: the verify checks, the
    slice classifier and :func:`curvature_report` all read their fields from
    here.  ``h`` forces a finite-difference jet with that step on the patch
    chart.  Never raises on degenerate points; they are only excluded.
    """
    space = patch.space
    j = _jet_arrays(patch, U, V, h=h)
    forms, N, gN = _forms_from_jet(space, j, patch.orient)
    E, F, G = forms[:3]
    included = (np.sqrt(G) > AXIS_TUBE) & (E * G - F * F > IMMERSION_FLOOR)

    H, half_gap, s0_11, s0_12 = _shape_invariants(*forms)
    lam1, lam2 = H - half_gap, H + half_gap
    defect = 2.0 * half_gap / (1.0 + np.abs(lam1) + np.abs(lam2))
    # d_z: the vertical Killing field, or Sol's unit frame field E3;
    # nu = <N, d_z> is the z-component of the lowered normal
    nu = gN[2] if space.has_vertical_field or space.kind == "sol" else None
    return CurvatureReport(
        patch.name, U, V, lam1, lam2, H, 0.5 * (lam1 + lam2), defect, s0_11, s0_12,
        included, nu, space, {"X": j["X"], "Xu": j["Xu"], "Xv": j["Xv"], "N": N},
        forms, np.geterr(),
    )


def curvature_report(patch: SurfacePatch, n_u=48, n_v=48, margin=GRID_MARGIN,
                     h=None) -> CurvatureReport:
    """Surface fields on the patch grid, with at least one admissible point."""
    rep = surface_fields(patch, *patch.grid(n_u, n_v, margin=margin), h=h)
    if not np.any(rep.included):
        raise ImmersionError(
            f"patch {patch.name!r}: no admissible grid points outside the axis tube"
        )
    return rep


def umbilicity_defect(patch: SurfacePatch, n_u=48, n_v=48, h=None) -> dict:
    """Max, mean, and argmax of the scaled umbilicity defect on a grid."""
    return curvature_report(patch, n_u=n_u, n_v=n_v, h=h).defect_summary()


def mean_curvature_stats(patch: SurfacePatch, n_u=48, n_v=48, h=None) -> dict:
    """Range statistics of the mean curvature on a grid."""
    rep = curvature_report(patch, n_u=n_u, n_v=n_v, h=h)
    H = rep.mean_curvature[rep.included]
    return {
        "max_abs": float(np.max(np.abs(H))),
        "min": float(np.min(H)),
        "max": float(np.max(H)),
        "mean": float(np.mean(H)),
    }


# ---------------------------------------------------------------------------
# slice structure


def _find_roots(f, lo, hi, args):
    """Elementwise roots of f(x, *args) on the brackets [lo, hi] (1-D arrays).

    Chandrupatla's method (Adv. Eng. Software 28, 1997) with scipy's
    ``find_root`` steps: a point stops at its end of smaller |f| once |f| is
    at most the smallest normal or the bracket is under 4 eps |x| + 1e-14.
    A lost bracket, or a point still open after 2046 steps, raises RuntimeError.
    """
    x1, x2 = np.array(lo, dtype=float), np.array(hi, dtype=float)
    f1, f2 = f(x1, *args), f(x2, *args)
    roots, live = np.full(x1.shape, np.nan), np.arange(x1.size)
    for step in range(2047):
        small = np.abs(f1) < np.abs(f2)
        xm, fm = np.where(small, x1, x2), np.where(small, f1, f2)
        dx, tol = np.abs(x2 - x1), 4.0 * np.finfo(float).eps * np.abs(xm) + 1e-14
        done = (np.abs(fm) <= np.finfo(float).tiny) | (dx < tol)
        bad = ~done & ((np.sign(f1) == np.sign(f2)) | ~(np.isfinite(x1) & np.isfinite(x2))
                       | (np.isnan(f1) & np.isnan(f2)))
        roots[live[done]] = xm[done]  # a lost or open point stays NaN
        keep = ~(done | bad)
        live, x1, x2, f1, f2, dx, tol = (a[keep] for a in (live, x1, x2, f1, f2, dx, tol))
        args = tuple(a[keep] for a in args)
        if not live.size or step == 2046:
            break
        t = 0.5
        if step:
            x3, f3 = x3[keep], f3[keep]
            with np.errstate(divide="ignore", invalid="ignore"):
                xi, phi = (x1 - x2) / (x3 - x2), (f1 - f2) / (f3 - f2)
                alpha = (x3 - x1) / (x2 - x1)
                iqi = (f1 / (f1 - f2) * f3 / (f3 - f2)
                       - alpha * f1 / (f3 - f1) * f2 / (f2 - f3))
                t = np.where(((1 - np.sqrt(1 - xi)) < phi) & (phi < np.sqrt(xi)), iqi, 0.5)
            t = np.clip(t, 0.5 * tol / dx, 1 - 0.5 * tol / dx)
        x = x1 + t * (x2 - x1)
        fx = f(x, *args)
        same = np.sign(fx) == np.sign(f1)
        x3, f3 = np.where(same, x1, x2), np.where(same, f1, f2)
        x2, f2 = np.where(same, x2, x1), np.where(same, f2, f1)
        x1, f1 = x, fx
    if np.isnan(roots).any():
        raise RuntimeError(
            f"root solve failed at {np.isnan(roots).sum()} of {roots.size} points")
    return roots


def _level_points(patch, level, n_v):
    """Intersections of the patch with the slice t = level, one per v-line.

    Each v-line is sampled at 257 u-values in one chart call.  A line whose
    heights all sit within 1e-12 of the level is flat; otherwise its hit is
    the root in the first sign-changing interval, or failing that the first
    exact zero.  Returns the hit coordinates ``(us, vs)`` as arrays in
    v order, the number of flat lines and the number of lines.
    """
    (u0, u1), (v0, v1) = patch.u_range, patch.v_range
    du = GRID_MARGIN * (u1 - u0)
    dv = GRID_MARGIN * (v1 - v0)
    vs = np.linspace(v0 + dv, v1 - dv, n_v)
    u_grid = np.linspace(u0 + du, u1 - du, 257)

    U, V = np.meshgrid(u_grid, vs, indexing="ij")
    f = patch.chart(U, V)[..., 2] - level
    flat = np.all(np.abs(f) < 1e-12, axis=0)
    change = np.sign(f[:-1]) * np.sign(f[1:]) < 0
    zero = f == 0.0
    bracketed = ~flat & np.any(change, axis=0)
    touched = ~flat & ~bracketed & np.any(zero, axis=0)

    cols = np.nonzero(bracketed)[0]
    k = np.argmax(change[:, cols], axis=0)
    roots = _find_roots(lambda u, v: patch.chart(u, v)[..., 2] - level,
                        u_grid[k], u_grid[k + 1], (vs[cols],))

    us = np.empty(n_v)
    us[bracketed] = roots
    us[touched] = u_grid[np.argmax(zero[:, touched], axis=0)]
    hit = bracketed | touched
    return us[hit], vs[hit], int(np.count_nonzero(flat)), n_v


def _slice_geodesic_curvature(space, chart2d, vs, dv):
    """Signed k_g of the level curve v -> chart2d(v) inside its slice.

    The slice is totally geodesic, so the ambient covariant acceleration
    projected onto the in-slice normal (the velocity rotated a quarter turn
    about the vertical) is the intrinsic geodesic curvature.  Centered
    differences at steps dv and dv/2 are Richardson-combined to cancel the
    leading truncation term.  ``chart2d`` maps an array of v to level-curve
    points; it is called once, on the centers and all four stencil offsets.
    """
    half = dv / 2.0
    P = chart2d(np.concatenate([vs, vs + dv, vs - dv, vs + half, vs - half]))
    c0, cp, cm, hp, hm = np.split(P, 5)
    gamma = connection(space, c0)
    xi = vertical_field(space, c0)

    def kg(cp, cm, step):
        vel = (cp - cm) / (2.0 * step)
        acc2 = (cp - 2.0 * c0 + cm) / step**2
        acc = acc2 + gamma(vel, vel)
        speed2 = inner(space, c0, vel, vel)
        n_in = cross(space, c0, xi, vel)
        n_len = norm(space, c0, n_in)
        return inner(space, c0, acc, n_in) / (n_len * speed2)

    coarse = kg(cp, cm, dv)
    fine = kg(hp, hm, half)
    return (4.0 * fine - coarse) / 3.0


def classify_slice_structure(patch: SurfacePatch, levels, n_v=64,
                             band=CLASSIFY_BAND, constancy_tol=CONSTANCY_TOL,
                             strict=False) -> list:
    """Classify the curves cut on a product-space patch by horizontal slices.

    For each level t0, the level curve is sampled (one intersection per
    v-line), its geodesic curvature inside the slice and the normal's
    vertical component nu are measured, and their constancy is checked.
    The hits, and the level-curve points of the k_g stencil (re-solved
    within 5% of the u-range around the nearest hit), come from batched
    bracketing root solves to 1e-14 in u, one per stage.  Levels the patch
    meets tangentially (|T| below 1e-6 at a hit, or a slice contained in
    the patch), and levels whose curve leaves the re-solve bracket at some
    stencil point, are skipped and reported, or raise
    :class:`TransversalityError` when ``strict``.  A root solve that fails
    to converge raises ``RuntimeError``.

    Tags: ``geodesic`` when |k_g| sits within ``band`` of 0; on the sphere
    base every other circle is ``elliptic``; on the hyperbolic base |k_g|
    against 1 separates ``elliptic`` / ``parabolic`` / ``hyperbolic``; and
    ``none`` marks level curves whose k_g or nu fail to be constant.
    """
    if patch.space.kind not in ("s2xr", "h2xr"):
        raise ValueError("slice classification requires a product space")

    out = []
    for level in levels:
        entry = {"level": float(level), "tag": None, "skipped": False}
        us, vs, flat, n_lines = _level_points(patch, level, n_v)
        if flat == n_lines:
            entry.update(skipped=True, reason="slice contained in patch (tangential)")
            if strict:
                raise TransversalityError(entry["reason"])
            out.append(entry)
            continue
        if us.size == 0:
            entry.update(skipped=True, reason="level not attained on patch")
            out.append(entry)
            continue

        nu = surface_fields(patch, us, vs).nu
        t_norm = np.sqrt(np.maximum(1.0 - nu**2, 0.0))
        if np.min(t_norm) < 1e-6:
            entry.update(skipped=True,
                         reason=f"tangential contact (min |T| = {np.min(t_norm):.2e})")
            if strict:
                raise TransversalityError(entry["reason"])
            out.append(entry)
            continue

        # dv balances second-difference truncation against root-solve noise
        dv = 1e-3 * (patch.v_range[1] - patch.v_range[0])
        bracket = 0.05 * (patch.u_range[1] - patch.u_range[0])

        def height(u, v, _level=level):
            return patch.chart(u, v)[..., 2] - _level

        def chart2d(v, us=us, vs=vs):
            # re-solve near the hit of the closest v-line; a point whose
            # bracket holds no sign change would not lie on the level curve
            u_near = us[np.argmin(np.abs(vs - v[:, None]), axis=1)]
            lo = np.maximum(u_near - bracket, patch.u_range[0])
            hi = np.minimum(u_near + bracket, patch.u_range[1])
            lost = np.count_nonzero(~(height(lo, v) * height(hi, v) < 0))
            if lost:
                raise TransversalityError(
                    f"level curve left its root bracket at {lost} of {v.size} points")
            return patch.chart(_find_roots(height, lo, hi, (v,)), v)

        inner_vs = vs[1:-1] if len(vs) > 4 else vs
        try:
            kg = _slice_geodesic_curvature(patch.space, chart2d, inner_vs, dv)
        except TransversalityError as exc:
            entry.update(skipped=True, reason=str(exc))
            if strict:
                raise
            out.append(entry)
            continue
        kg_mean = float(np.mean(kg))
        entry.update(
            k_g=kg_mean,
            k_g_residual=float(np.max(np.abs(kg - kg_mean))),
            nu=float(np.mean(nu)),
            nu_residual=float(np.max(np.abs(nu - np.mean(nu)))),
            n_points=len(us),
        )

        if entry["k_g_residual"] > constancy_tol or entry["nu_residual"] > constancy_tol:
            entry["tag"] = "none"
        elif abs(kg_mean) <= band:
            entry["tag"] = "geodesic"
        elif patch.space.kind == "s2xr":
            entry["tag"] = "elliptic"
        elif abs(abs(kg_mean) - 1.0) <= band:
            entry["tag"] = "parabolic"
        elif abs(kg_mean) > 1.0:
            entry["tag"] = "elliptic"
        else:
            entry["tag"] = "hyperbolic"
        out.append(entry)
    return out
