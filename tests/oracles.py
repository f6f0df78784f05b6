"""Test oracles shared by several test files.

``exp_map`` integrates one geodesic with scipy's DOP853 at a tight
tolerance.  The closed-form slab map (``test_conformal``), the geodesic
fan (``test_geometry``) and the closed-form m3 geodesics of the geodesic
spheres (``test_verify``) are checked against it.  ``_rk4_flow`` is
fixed-step complex RK4 on the geodesic equation (``_geodesic_rhs``), whose
complex step carries the Jacobi fields of the discrete flow; the sphere
jets' Jacobi fields are checked against it.

``christoffel_contract`` contracts two vectors against the dense
Christoffel tensor, and ``_matvec`` multiplies by a dense matrix; the sparse
kernels of ``umbilic.geometry`` are checked against them.

``inverse_metric`` assembles the dense inverse metric from the closed-form
table the sparse kernels use; it checks ``metric_at`` and ``cross``.

``find_event`` locates a profile event (turning point, rho level, Sol
blow-down) nearest 0, solving only the brackets that can hold that root;
``find_event_all_roots`` solves every bracketed sign change and checks it.
Below a Sol graph's evaluated span, the blow-down level is found by
quadrature of dz / |z'| (``_sol_blow_down``); the blow-down abscissa
``period_data.y_a`` is checked against it.

``principal_curvature_normal_part`` is the closed-form orbit-direction
principal curvature of the plane-profile families; the curvature pipeline
is checked against it.

``stacked_surface_fields`` is the curvature pipeline on (..., 3) vectors:
jets stacked on a last axis, dot products as ``np.sum`` over it, and the
public ``lowering``, ``cross`` and ``connection``.  The component-major
``umbilic.surfaces.surface_fields`` is checked against it bit for bit.

``sol_flattening_xi`` integrates e^{-4z} over a Sol graph by adaptive
quadrature; the exact antiderivative of ``umbilic.conformal.sol_flattening``
is checked against it.  ``fd_jacobian`` differentiates a chart map by
centred differences; the closed-form Jacobians of the conformal maps are
checked against it.

``_levenberg_marquardt`` is the bounded Levenberg-Marquardt search as one
coroutine per restart, driven in lockstep by ``_lockstep``;
``lockstep_levenberg_marquardt`` gives it the signature of the array-based
``umbilic.verify._levenberg_marquardt``, which is checked against it bit for
bit.

``broadcast_trial_fields`` scores a batch of falsifier trials on a (K, n_u,
n_v) grid broadcast from the patch grid, every field evaluated once per
trial; ``umbilic.verify._trial_fields``, which evaluates the trial-free
fields once on the shared (1, n_u, n_v) grid, is checked against it bit for
bit.

``STACKED_CHECKS`` are the identity checks on (..., 3) vectors, with their
stacked ``_Stencil``: they contract through the public ``inner``, ``norm``,
``cross`` and ``connection`` and a ``curvature_tensor`` that takes the
imaginary part of complex contractions.  Patched into ``umbilic.verify``
they give the reports the component-major checks are checked against, byte
for byte.  ``complex_step_sphere_patch`` is the geodesic sphere whose Jacobi
fields come from a complex step through the complex ``_m3_axis_geodesic``
and ``_sinc_cos``; the real forward-mode sphere jets are checked against
it.  ``stacked_orient`` is the orientation of an orbit patch on (..., 3)
vectors, with a dense metric solve for Sol's conormal.

``point_isometry_jet`` is the jet of an isometry at one chart point, and
``pointwise_moved_jet`` pushes a patch jet through it one point at a time;
the array-wide ``umbilic.geometry.isometry_jet`` and
``umbilic.surfaces.transform_patch`` are checked against them.

``ode_plane_profile`` integrates a plane profile's (rho, t, theta) system
with DOP853 (``_integrate_plane``); the closed-form Jacobi and elementary
profiles of ``umbilic.profiles`` are checked against it.  ``ode_sol_profile``
integrates the Sol graph equation the same way, for the closed-form
lemniscatic Sol profile.
"""

from functools import cached_property

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from umbilic.geometry import (
    _CS,
    _GL_NODES,
    _GL_WEIGHTS,
    ModelGeometry,
    _check_domain,
    _dense,
    IllFormedIsometryError,
    _inverse_table,
    _mobius_jet,
    _mobius_matrix,
    connection,
    cross,
    inner,
    lowering,
    metric_at,
    norm,
    vertical_field,
)
from umbilic.profiles import (
    GeneratingCurve,
    _SHAPE_RATE,
    _build_plane_curve,
    _plane_jet,
)
from umbilic import verify
from umbilic.surfaces import ImmersionError, SurfacePatch, surface_fields
from umbilic.verify import (
    T_FLOOR,
    IdentityCheck,
    _batch_param,
    _require_grid,
    _require_umbilic,
    _stats,
    sample_points,
)

GEODESIC_RTOL = 1e-12
PROFILE_RTOL = 1e-10
PROFILE_ATOL = 1e-12

_CHUNK = 20.0
_MAX_SPAN = 2000.0


def _matvec(A, v):
    """A[..., k, j] v[..., j] for (k x 3) blocks, by explicit components."""
    v = np.asarray(v)
    return (A[..., 0] * v[..., None, 0] + A[..., 1] * v[..., None, 1]
            + A[..., 2] * v[..., None, 2])


def christoffel_contract(G, a, b) -> np.ndarray:
    """Gamma(a, b)^l = Gamma^l_ij a^i b^j for Christoffel symbols G at the points of a, b.

    The j sum runs as one matmul over the nine (l, i) rows of each point.
    """
    b = np.asarray(b)
    Gb = (G.reshape(G.shape[:-3] + (9, 3)) @ b[..., None])[..., 0]
    return _matvec(Gb.reshape(Gb.shape[:-1] + (3, 3)), a)


def _geodesic_rhs(space, state):
    """state (..., 6) -> derivative; velocity transport by the connection."""
    q = state[..., :3]
    v = state[..., 3:]
    acc = -connection(space, q)(v, v)
    return np.concatenate([v, acc], axis=-1)


def _rk4_flow(space, p0, v0, n_steps):
    """End state (position, velocity) of the geodesics with initial velocity v0.

    Fixed-step RK4 over the unit parameter interval.  The fixed step count
    makes the end state an analytic map of (p0, v0), so a complex step in v0
    carries its exact first variation for this discrete flow.
    """
    y = np.concatenate([np.broadcast_to(p0, v0.shape), v0], axis=-1)
    shape = y.shape
    y = y.reshape(-1, 6)
    h = 1.0 / n_steps
    for _ in range(n_steps):
        k1 = _geodesic_rhs(space, y)
        k2 = _geodesic_rhs(space, y + 0.5 * h * k1)
        k3 = _geodesic_rhs(space, y + 0.5 * h * k2)
        k4 = _geodesic_rhs(space, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return y.reshape(shape)


class GeodesicEscapeError(RuntimeError):
    """A geodesic left the chart before the requested parameter."""

    def __init__(self, message, s_exit):
        super().__init__(message)
        self.s_exit = s_exit


def _chart_clearance(space, q):
    """Positive inside the chart, crossing zero at the boundary / blow-up."""
    x, y, z = q[0], q[1], q[2]
    if space.kind == "h3":
        return z
    if space.kind == "h2xr":
        return 1.0 - (x**2 + y**2)
    if space.kind == "m3" and space.kappa < 0:
        return 4.0 / (-space.kappa) - (x**2 + y**2)
    # charts covering the whole space, or (s2xr) missing a single fiber:
    # treat coordinate blow-up as the escape condition.
    return 1.0e16 - (x**2 + y**2 + z**2)


def exp_map(space: ModelGeometry, p, v, tol: float = GEODESIC_RTOL) -> np.ndarray:
    """Riemannian exponential: endpoint of the geodesic with gamma'(0) = v.

    Raises :class:`GeodesicEscapeError` (carrying the exit parameter) if the
    geodesic leaves the chart before parameter 1.
    """
    p = np.asarray(p, dtype=float)
    v = np.asarray(v, dtype=float)
    _check_domain(space, np.moveaxis(p, -1, 0))
    if np.allclose(v, 0.0):
        return p.copy()

    def rhs(_, y):
        return _geodesic_rhs(space, y)

    def escape(_, y):
        return _chart_clearance(space, y[:3])

    escape.terminal = True
    escape.direction = -1
    sol_ = solve_ivp(
        rhs,
        (0.0, 1.0),
        np.concatenate([p, v]),
        method="DOP853",
        rtol=tol,
        atol=tol * 1e-2,
        events=escape,
    )
    if sol_.status == 1:
        raise GeodesicEscapeError(
            f"geodesic left the {space.kind} chart", s_exit=float(sol_.t_events[0][0])
        )
    if not sol_.success:
        raise RuntimeError(f"geodesic integration failed: {sol_.message}")
    return sol_.y[:3, -1]


def inverse_metric(space: ModelGeometry, p) -> np.ndarray:
    """Inverse metric g^ij at p in closed form; broadcasts like ``metric_at``."""
    p = np.asarray(p)
    P = np.moveaxis(p, -1, 0)
    _check_domain(space, P)
    return _dense(p, _inverse_table(space, P), (3, 3))


class EventNotFoundError(RuntimeError):
    """The requested event is not bracketed by the curve's sample range."""


_EVENTS = ("rho_prime_zero", "rho_hits", "blow_down")


def find_event(curve: GeneratingCurve, kind: str, value=None, tol=1e-13) -> float:
    """Parameter of the event nearest 0 (ties resolved to s >= 0).

    ``rho_prime_zero``: rho'(s) = 0 (Sol: z'(y) = 0).
    ``rho_hits``: rho(s) = value.
    ``blow_down``: z(y) = value (default Z_CLIP; Sol graphs only).

    Raises :class:`EventNotFoundError` when no sign change is bracketed.
    """
    if kind not in _EVENTS:
        raise ValueError(f"unknown event kind {kind!r}")
    if kind == "rho_hits" and value is None:
        raise ValueError("rho_hits requires a value")

    if curve.kind == "sol":
        if kind == "rho_hits":
            raise ValueError("rho_hits applies to plane profiles")
        if kind == "blow_down":
            # the samples end at the clip
            z_clip = float(curve.samples[:, 1].min())
            target = z_clip if value is None else float(value)
            if target < z_clip:
                raise EventNotFoundError(
                    f"blow-down level {target} is below the clip {z_clip}")
            if target < float(curve.jet(curve.span[1])["z"]):
                return _sol_blow_down(curve.param, target)
            fn = lambda s: curve.jet(s)["z"] - target
        else:
            fn = lambda s: curve.jet(s)["z_y"]
    elif kind == "blow_down":
        raise ValueError("blow_down applies to Sol graphs")
    elif kind == "rho_prime_zero":
        fn = lambda s: curve.jet(s)["rho_s"]
    else:
        fn = lambda s: curve.jet(s)["rho"] - float(value)

    grid = curve.s
    lo, hi = curve.span
    grid = grid[(grid >= lo) & (grid <= hi)]
    vals = np.asarray(fn(grid))
    sgn = np.sign(vals)
    flips = np.nonzero((sgn[1:] * sgn[:-1] < 0))[0]
    exact = grid[vals == 0.0]
    if not (flips.size or exact.size):
        raise EventNotFoundError(f"event {kind!r} not bracketed on span {curve.span}")

    def key(r):
        return (abs(r), -np.sign(r))

    # a bracket holds no root nearer 0 than the bracket itself, so brackets
    # are solved nearest first until the next one cannot hold the winner
    best = min((float(r) for r in exact), key=key, default=None)
    a, b = grid[flips], grid[flips + 1]
    near = np.where((a <= 0.0) & (b >= 0.0), 0.0, np.minimum(np.abs(a), np.abs(b)))
    for n in np.argsort(near, kind="stable"):
        if best is not None and near[n] > abs(best):
            break
        root = brentq(lambda s: float(fn(s)), a[n], b[n], xtol=tol)
        best = root if best is None else min(best, root, key=key)
    return float(best)


def _sol_blow_down(a, target):
    """y > 0 with z(y) = target on the Sol graph of parameter a, below its
    evaluated span: y_a - y is the integral of dz / |z'| from -infinity to
    the target, which e^z = u turns into that of u^2 (a - u^4)^{-1/2}."""
    # u^4 = a sin^2(t^2) makes the integrand of y_a smooth
    y_a = quad(lambda t: a**0.25 * t * np.sqrt(np.sin(t * t)), 0.0, np.sqrt(np.pi / 2),
               epsabs=0.0, epsrel=1e-13)[0]
    return y_a - quad(lambda u: u * u / np.sqrt(a - u**4), 0.0, np.exp(target),
                      epsabs=0.0, epsrel=1e-13)[0]


def find_event_all_roots(curve, kind, value=None, tol=1e-13) -> float:
    """Root nearest 0 (ties to s >= 0) of a plane-profile or Sol-graph event,
    from a solve of every sign change on the curve's sample grid."""
    if kind == "rho_prime_zero":
        field, target = ("z_y" if curve.kind == "sol" else "rho_s"), 0.0
    else:
        field, target = "rho", float(value)
    fn = lambda s: curve.jet(s)[field] - target
    grid = curve.s
    lo, hi = curve.span
    grid = grid[(grid >= lo) & (grid <= hi)]
    vals = np.asarray(fn(grid))
    roots = [float(grid[i]) for i in np.nonzero(vals == 0.0)[0]]
    sgn = np.sign(vals)
    for i in np.nonzero(sgn[1:] * sgn[:-1] < 0)[0]:
        roots.append(brentq(lambda s: float(fn(s)), grid[i], grid[i + 1], xtol=tol))
    roots.sort(key=lambda r: (abs(r), -np.sign(r)))
    return float(roots[0])


def _integrate_plane(kind, param, theta0, want_event, span, rtol, atol):
    """Integrate the (rho, t, theta) system symmetrically around s = 0.

    ``want_event`` is None or a callable state -> scalar whose first positive
    root sizes the default span (the span then covers ~5 of those units).
    """

    def rhs(_, y):
        rho, t, theta = y
        return [np.cos(theta), np.sin(theta), _SHAPE_RATE[kind](rho, theta, param)]

    y0 = [0.0, 0.0, theta0]
    if span is not None:
        smax = 0.5 * (span[1] - span[0])
        legs = [_solve_leg(rhs, y0, smax, rtol, atol), _solve_leg(rhs, y0, -smax, rtol, atol)]
    else:
        # grow in chunks until the sizing event appears, then cover 5.5x it
        smax = _CHUNK
        while True:
            fwd = _solve_leg(rhs, y0, smax, rtol, atol)
            s_evt = _first_event(fwd, want_event) if want_event else None
            if want_event is None or s_evt is not None:
                break
            smax += _CHUNK
            if smax > _MAX_SPAN:
                raise RuntimeError(f"no sizing event within span {_MAX_SPAN}")
        if want_event is not None:
            smax = max(5.5 * s_evt, 10.0)
            fwd = _solve_leg(rhs, y0, smax, rtol, atol)
        legs = [fwd, _solve_leg(rhs, y0, -smax, rtol, atol)]
    fwd, bwd = legs

    def dense(s):
        s = np.asarray(s, dtype=float)
        out = np.empty((3,) + s.shape)
        pos = s >= 0
        if np.any(pos):
            out[:, pos] = fwd.sol(s[pos])
        if np.any(~pos):
            out[:, ~pos] = bwd.sol(s[~pos])
        return out

    return dense, smax


def _solve_leg(rhs, y0, s_end, rtol, atol):
    res = solve_ivp(
        rhs,
        (0.0, s_end),
        y0,
        method="DOP853",
        rtol=rtol,
        atol=atol,
        dense_output=True,
    )
    if not res.success:
        raise RuntimeError(f"profile integration failed: {res.message}")
    return res


def _first_event(leg, fn):
    ts = np.linspace(0.0, leg.t[-1], 2001)
    vals = fn(leg.sol(ts))
    sgn = np.sign(vals)
    flips = np.nonzero(sgn[1:] * sgn[:-1] < 0)[0]
    if flips.size == 0:
        return None
    i = flips[0]
    return brentq(lambda s: float(fn(leg.sol(s))), ts[i], ts[i + 1], xtol=1e-13)


def ode_plane_profile(kind, param, s_span=None, rtol=PROFILE_RTOL, atol=PROFILE_ATOL):
    """A plane profile integrated from its start angle at s = 0.

    The default span covers 5.5 sizing events, as for the closed forms:
    the winding event rho = pi for S2xR a < 1, else the turning point
    theta = pi/2; a = 1 and the parabolic family have none and need
    ``s_span``.
    """
    theta0, want = 0.0, lambda y: y[2] - np.pi / 2.0  # turning point
    if kind == "h2xr-parabolic":
        theta0, want = np.pi / 2.0, None
    elif kind == "h2xr-hyperbolic":
        theta0 = float(np.arcsin(param))
    elif kind == "s2xr" and param == 1.0:
        want = None
    elif kind == "s2xr" and param < 1.0:
        want = lambda y: y[0] - np.pi  # rho reaches pi
    dense, smax = _integrate_plane(kind, param, theta0, want, s_span, rtol, atol)
    return _build_plane_curve(kind, param, _plane_jet(kind, param, dense), None,
                              (-smax, smax), None)


def ode_sol_profile(a, rtol=PROFILE_RTOL, atol=PROFILE_ATOL):
    """The Sol graph z'' + 3 z'^2 + 2 e^{-2z} = 0 from its crest z(0) = log(a)/4,
    integrated with DOP853 in both directions until z is 4 below the crest,
    where the closed form's span ends too; the curve carries no period data."""
    z0 = 0.25 * np.log(a)

    def rhs(_, y):
        z, w = y
        return [w, -3.0 * w**2 - 2.0 * np.exp(-2.0 * z)]

    def switch(_, y):
        return y[0] - (z0 - 4.0)

    switch.terminal = True
    switch.direction = -1
    legs = []
    for sign in (1.0, -1.0):
        res = solve_ivp(rhs, (0.0, sign * 1e6), [z0, 0.0], method="DOP853",
                        rtol=rtol, atol=atol, dense_output=True, events=switch)
        if res.status != 1:
            raise RuntimeError("sol profile never reached the switch depth")
        legs.append(res)
    fwd, bwd = legs
    y_end = float(fwd.t_events[0][0])

    def jet(y):
        out = np.empty((2,) + y.shape)
        pos = y >= 0
        out[:, pos] = fwd.sol(y[pos])
        out[:, ~pos] = bwd.sol(y[~pos])
        z, w = out
        return {"z": z, "z_y": w, "z_yy": -3.0 * w**2 - 2.0 * np.exp(-2.0 * z)}

    grid = np.linspace(-y_end, y_end, 2001)
    return GeneratingCurve(kind="sol", param=float(a), span=(-y_end, y_end),
                           columns=("y", "z"),
                           samples=np.column_stack([grid, jet(grid)["z"]]),
                           period_data=None, _jet=jet)


def principal_curvature_normal_part(kind, rho, theta, param):
    """The orbit-direction principal curvature lambda_2 of a plane-profile
    orbit surface, in closed form."""
    if kind == "s2xr":
        return np.sin(theta) / np.tan(rho)
    if kind == "h2xr-elliptic":
        return np.sin(theta) / np.tanh(rho)
    if kind == "h2xr-parabolic":
        return np.sin(theta)
    if kind == "h2xr-hyperbolic":
        return np.sin(theta) * np.tanh(rho)
    raise ValueError(kind)


def sol_flattening_xi(curve, n=129, margin=0.95) -> np.ndarray:
    """The flattening abscissa xi(y) = int_0^y e^{-4z} on the samples of
    ``sol_flattening``, by one tight quadrature per sample interval."""
    y = np.linspace(margin * curve.span[0], margin * curve.span[1], n)

    def rate(yy):
        return np.exp(-4.0 * float(curve.jet(yy)["z"]))

    seg = np.array([quad(rate, y[k], y[k + 1], epsabs=1e-13, epsrel=1e-13)[0]
                    for k in range(n - 1)])
    xi = np.concatenate([[0.0], np.cumsum(seg)])
    return xi - xi[n // 2]


def fd_jacobian(evaluate, points):
    """Centred differences with step 1e-6 in each chart coordinate."""
    h = 1e-6
    J = np.empty(points.shape[:-1] + (3, 3))
    for k in range(3):
        dp = np.zeros(3)
        dp[k] = h
        J[..., :, k] = (evaluate(points + dp) - evaluate(points - dp)) / (2.0 * h)
    return J


def stacked_jet(patch, U, V):
    """The patch jet with every component triple stacked on a last axis, all
    of them broadcast to one shape."""
    j = patch.jet(U, V)
    shape = np.broadcast_shapes(*(np.shape(a) for v in j.values()
                                  if isinstance(v, tuple) for a in v))
    return {k: np.stack([np.broadcast_to(a, shape) for a in v], axis=-1)
            if isinstance(v, tuple) else v for k, v in j.items()}


def _dot(a, b):
    return np.sum(a * b, axis=-1)


def _stacked_forms(space, j, orient):
    """I, II, the unit normal N, its lowered form gN and det I of a stacked jet."""
    X, Xu, Xv = j["X"], j["Xu"], j["Xv"]
    lower = lowering(space, X)
    gXu = lower(Xu)
    E = _dot(Xu, gXu)
    F = _dot(Xv, gXu)
    gXv = lower(Xv)
    G = _dot(Xv, gXv)
    I = np.stack([np.stack([E, F], axis=-1), np.stack([F, G], axis=-1)], axis=-2)
    det_I = E * G - F * F

    factor = np.expand_dims(orient * np.asarray(j.get("orient_sign", 1.0)), -1)
    n_raw = cross(space, X, Xu, Xv) * factor
    gn = lower(n_raw)
    n_len = np.sqrt(_dot(n_raw, gn))
    safe = np.where(n_len > 0, n_len, 1.0)[..., None]
    N = n_raw / safe
    gN = gn / safe

    gamma = connection(space, X)
    if "normal" in j:
        n = j["normal"] * factor
        gn = lower(n)
        scale = np.sqrt(_dot(n, gn))[..., None]
        n, gn = n / scale, gn / scale

        def dn(n_a, Xa):
            d = n_a * factor / scale + gamma(Xa, n)
            return d - _dot(d, gn)[..., None] * n

        dn_u, dn_v = dn(j["normal_u"], Xu), dn(j["normal_v"], Xv)
        L = -_dot(dn_u, gXu)
        M = -0.5 * (_dot(dn_u, gXv) + _dot(dn_v, gXu))
        Nn = -_dot(dn_v, gXv)
    else:
        def second(Xa, Xb, Xab):
            return _dot(Xab + gamma(Xa, Xb), gN)

        L = second(Xu, Xu, j["Xuu"])
        M = second(Xu, Xv, j["Xuv"])
        Nn = second(Xv, Xv, j["Xvv"])
    II = np.stack([np.stack([L, M], axis=-1), np.stack([M, Nn], axis=-1)], axis=-2)
    return I, II, N, gN, det_I


def stacked_surface_fields(patch, U, V) -> dict:
    """Every ``CurvatureReport`` field of the patch at (U, V), by name."""
    from umbilic.surfaces import AXIS_TUBE, IMMERSION_FLOOR

    space = patch.space
    j = stacked_jet(patch, U, V)
    I, II, N, gN, det_I = _stacked_forms(space, j, patch.orient)
    X = j["X"]
    included = (np.sqrt(I[..., 1, 1]) > AXIS_TUBE) & (det_I > IMMERSION_FLOOR)

    E, F, G = I[..., 0, 0], I[..., 0, 1], I[..., 1, 1]
    L, M, Nn = II[..., 0, 0], II[..., 0, 1], II[..., 1, 1]
    det_I = E * G - F * F
    H = (E * Nn - 2.0 * F * M + G * L) / (2.0 * det_I)
    s = 0.5 * (L / E - (E * E * Nn - 2.0 * E * F * M + F * F * L) / (E * det_I))
    b = (E * M - F * L) / (E * np.sqrt(np.abs(det_I)))
    half_gap = np.sqrt(s * s + b * b)
    lam1, lam2 = H - half_gap, H + half_gap

    nu = T = JT = None
    if space.has_vertical_field or space.kind == "sol":
        xi = np.zeros_like(X)
        xi[..., 2] = 1.0
        nu = gN[..., 2]
        T = xi - nu[..., None] * N
        JT = cross(space, X, N, T)
    return {"X": X, "Xu": j["Xu"], "Xv": j["Xv"], "I": I, "II": II, "N": N,
            "lambda1": lam1, "lambda2": lam2, "mean_curvature": H,
            "umbilicity_factor": 0.5 * (lam1 + lam2),
            "defect": 2.0 * half_gap / (1.0 + np.abs(lam1) + np.abs(lam2)),
            "s0_11": s, "s0_12": b, "included": included, "nu": nu, "T": T, "JT": JT}


def broadcast_trial_fields(space, family, P, grid):
    """Max normalized defect and trace-free residual of each trial in a batch.

    The K trials of the (K, n) parameters ``P`` go through one
    :func:`surface_fields` call on a (K, n_u, n_v) grid.  Row k of the
    residual holds (s0_11, s0_12) at the admissible grid points of trial k
    and 0 elsewhere.  A trial with no admissible point, or with a non-finite
    max, scores the penalty 1e3 and an infinite residual.
    """
    from umbilic.surfaces import surface_fields
    from umbilic.verify import trial_patch

    P = np.asarray(P, dtype=float)
    patch = trial_patch(space, family, P)
    U, V = patch.grid(*grid)
    shape = (len(P),) + U.shape
    with np.errstate(all="ignore"):
        rep = surface_fields(patch, np.broadcast_to(U, shape),
                             np.broadcast_to(V, shape))
        worst = np.max(np.where(rep.included, rep.defect, -np.inf), axis=(1, 2))
    penalized = ~np.isfinite(worst)
    resid = np.where(rep.included[:, None], np.stack([rep.s0_11, rep.s0_12], 1), 0.0)
    resid = resid.reshape(len(P), -1)
    resid[penalized] = np.inf
    return np.where(penalized, 1e3, worst), resid


# stopping tolerances: relative cost reduction, step over |x|, free gradient
_FTOL, _XTOL, _GTOL = 1e-10, 1e-10, 1e-12


def _levenberg_marquardt(x0, bounds, maxfev):
    """Bounded Levenberg-Marquardt (More, LNM 630, 1978) as a coroutine.

    It yields each (m, n) array of points it needs and is sent their (m, k)
    residuals.  An iteration is one request: the trial point and its n
    forward-difference neighbours, whose Jacobian serves the next step if
    the trial lowers the cost |r|^2 / 2.  A step solves (J^T J + lam D) dx =
    -J^T r, D the running max of diag(J^T J), on the coordinates the
    gradient does not hold at a bound, and is clipped into the box.  The run
    stops on the free gradient ("gradient"), the step ("step"), an accepted
    relative cost reduction ("reduction") or a start with a non-finite
    residual ("penalized").  ``maxfev`` >= n + 1 caps the rows: the rows left
    under it go to trial steps at damping lam, 4 lam, ... ("cap").  Returns
    ``(x, cost, nfev, status)``.
    """
    lb, ub = (np.array(b, dtype=float) for b in zip(*bounds))
    x = np.clip(np.asarray(x0, dtype=float), lb, ub)
    n, nfev = len(x), 0

    def probe(x):
        # residual, cost and transposed forward-difference Jacobian at x
        nonlocal nfev
        h = 2.0 ** -26 * np.maximum(1.0, np.abs(x))  # sqrt(eps) max(1, |x|)
        pts = np.vstack([x, x + np.diag(np.where(x + h > ub, -h, h))])
        nfev += n + 1
        R = yield pts
        cost = 0.5 * (R * R).sum(axis=1)
        Jt = (R[1:] - R[0]) / (pts.diagonal(-1) - x)[:, None]
        Jt[~np.isfinite(cost[1:])] = 0.0
        return R[0].copy(), Jt, cost[0]

    r, Jt, cost = yield from probe(x)
    if not np.isfinite(cost):
        return x, cost, nfev, "penalized"
    lam, nu, D = 1e-3, 2.0, np.zeros(n)
    while True:
        g = Jt @ r
        held = ((x <= lb) & (g > 0)) | ((x >= ub) & (g < 0))
        g[held] = 0.0
        if np.abs(g).max() <= _GTOL:
            return x, cost, nfev, "gradient"
        A = Jt @ Jt.T
        D = np.maximum(D, A.diagonal())
        A[held] = A[:, held] = 0.0
        scale = np.diag(np.where(D > 0, D, 1.0))

        def trial(lam):
            return np.clip(x - np.linalg.solve(A + lam * scale, g), lb, ub)

        left = maxfev - nfev
        if left < n + 1:
            if left:
                pts = np.array([trial(lam * 4.0 ** k) for k in range(left)])
                nfev += left
                R = yield pts
                costs = 0.5 * (R * R).sum(axis=1)
                k = int(np.argmin(costs))
                if costs[k] < cost:
                    x, cost = pts[k], costs[k]
            return x, cost, nfev, "cap"
        x_new = trial(lam)
        s = x_new - x
        if np.sqrt(s @ s) <= _XTOL * (_XTOL + np.sqrt(x @ x)):
            return x, cost, nfev, "step"
        r_new, Jt_new, cost_new = yield from probe(x_new)
        actual = cost - cost_new
        if actual > 0:
            Js = s @ Jt
            predicted = -(g @ s) - 0.5 * (Js @ Js)
            ratio = actual / predicted if predicted > 0 else 0.0
            x, r, Jt, cost = x_new, r_new, Jt_new, cost_new
            lam *= max(1.0 / 3.0, 1.0 - (2.0 * ratio - 1.0) ** 3)
            nu = 2.0
            if actual <= _FTOL * (cost + actual) and ratio > 0.25:
                return x, cost, nfev, "reduction"
        else:
            lam, nu = lam * nu, 2.0 * nu


def _lockstep(objective, runs):
    """Drive coroutine runs together, one objective call per round.

    Each round concatenates every pending request, evaluates them in one
    ``objective`` call on the stacked points and sends each run its values.
    Returns the runs' return values in order.
    """
    results = [None] * len(runs)
    pending = {}

    def advance(i, values=None):
        try:
            pending[i] = runs[i].send(values)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    for i in range(len(runs)):
        advance(i)
    while pending:
        order = list(pending)
        values = objective(np.concatenate([pending[i] for i in order]))
        cuts = np.cumsum([len(pending[i]) for i in order])[:-1]
        for i, vals in zip(order, np.split(values, cuts)):
            advance(i, vals)
    return results


def lockstep_levenberg_marquardt(objective, x0s, bounds, maxfev):
    """The coroutine driver behind the signature of ``verify._levenberg_marquardt``.

    ``objective`` returns (score, residual) per row, as there.  The score of
    each restart's x is looked up among every evaluated row, the first row
    equal to x.
    """
    seen = []

    def residual(P):
        score, resid = objective(P)
        seen.append((P, score))
        return resid

    runs = [_levenberg_marquardt(x0, bounds, maxfev) for x0 in x0s]
    x, cost, nfev, status = zip(*_lockstep(residual, runs))
    P, score = (np.concatenate(a) for a in zip(*seen))
    fx = [score[np.all(P == xk, axis=1)][0] for xk in x]
    return (np.array(x), np.array(cost), np.array(fx), np.array(nfev),
            np.array(status))


# ---------------------------------------------------------------------------
# the identity checks on (..., 3) vectors


def curvature_tensor(space, p, X, Y, Z):
    """R(X, Y)Z on (..., 3) vectors, by the public connection at p and at
    complex steps of p along X and Y, as the package computed it before its
    complex-step contractions moved to real arithmetic."""
    p = np.asarray(p, dtype=float)
    X, Y, Z = np.asarray(X), np.asarray(Y), np.asarray(Z)
    gamma = connection(space, p)
    dY = connection(space, p + (1j * _CS) * Y)(X, Z).imag / _CS
    dX = connection(space, p + (1j * _CS) * X)(Y, Z).imag / _CS
    return dY - dX + gamma(Y, gamma(X, Z)) - gamma(X, gamma(Y, Z))


def check_killing(space: ModelGeometry, grid=(32, 16), seed=0) -> IdentityCheck:
    """The vertical field satisfies nabla_X xi = tau (X ^ xi) for random X."""
    n_u, n_v = _require_grid(grid)
    n = n_u * n_v
    p = sample_points(space, n, seed=seed)
    xi = vertical_field(space, p)
    rng = np.random.default_rng(seed + 1)
    X = rng.normal(size=(n, 3))
    X /= norm(space, p, X)[:, None]
    nabla = connection(space, p)(X, xi)
    resid = norm(space, p, nabla - space.tau * cross(space, p, X, xi))
    return IdentityCheck("killing", (n_u, n_v), _stats(resid))


def _sol_identities(st, seed):
    f = st.f
    _require_umbilic(st.patch, f)
    space, X = st.patch.space, f.X
    n_u, n_v = st.grid
    z = X[..., 2]
    shape = z.shape

    # orthonormal frame E1 = e^{-z} dx, E2 = e^{z} dy, E3 = dz, its
    # z-derivatives dE (the only ones) and its closed covariant-derivative table
    E, dE = np.zeros((2, 3) + shape + (3,))
    E[0, ..., 0], E[1, ..., 1], E[2, ..., 2] = np.exp(-z), np.exp(z), 1.0
    dE[0, ..., 0], dE[1, ..., 1] = -E[0, ..., 0], E[1, ..., 1]
    table = {(0, 0): -E[2], (0, 2): E[0], (1, 1): E[2], (1, 2): -E[1]}
    gamma = connection(space, X)
    frame_resid = []
    for i in range(3):
        for j in range(3):
            # nabla_{E_i} E_j; frame fields depend on z only
            flow = E[i][..., 2:3] * dE[j]
            conn = gamma(E[i], E[j])
            want = table.get((i, j), 0.0)
            frame_resid.append(norm(space, X, flow + conn - want))
    frame = IdentityCheck("sol_frame_table", (n_u, n_v),
                          _stats(np.max(np.stack(frame_resid), axis=0)))

    # curvature tensor against its closed quadratic form in <., dz>
    rng = np.random.default_rng(seed)
    pts = sample_points(space, n_u * n_v, seed=seed)
    W4 = rng.normal(size=(4, n_u * n_v, 3))
    ip = {}
    for a in range(4):
        for b in range(a, 4):
            ip[a, b] = ip[b, a] = inner(space, pts, W4[a], W4[b])
    e3 = np.zeros((n_u * n_v, 3))
    e3[:, 2] = 1.0
    zc = [inner(space, pts, W4[a], e3) for a in range(4)]
    lhs = inner(space, pts, curvature_tensor(space, pts, W4[0], W4[1], W4[2]), W4[3])
    rhs = (ip[0, 2] * ip[1, 3] - ip[0, 3] * ip[1, 2]) + 2.0 * (
        ip[0, 3] * zc[1] * zc[2] + ip[1, 2] * zc[0] * zc[3]
        - ip[0, 2] * zc[1] * zc[3] - ip[1, 3] * zc[0] * zc[2])
    scale = 1.0 + np.abs(lhs)
    curved = IdentityCheck("sol_curvature_formula", (n_u, n_v),
                           _stats(np.abs(lhs - rhs) / scale))

    # [T, JT](lambda) = 8 alpha beta with (alpha, beta) the horizontal frame
    # components of T
    lam_u, lam_v = st.partials("umbilicity_factor")
    b1, b2 = _tangent_components(space, f, _bracket(space, st))
    lie = b1 * lam_u + b2 * lam_v
    alpha = inner(space, X, f.T, E[0])
    beta = inner(space, X, f.T, E[1])
    resid = np.abs(lie - 8.0 * alpha * beta)
    lie_check = IdentityCheck(
        "lie_lambda", (n_u, n_v), _stats(resid, st.ok),
        skipped_points=int(np.sum(~st.ok)),
        extras={"alpha_max": float(np.max(np.abs(alpha[f.included]))),
                "beta_max": float(np.max(np.abs(beta[f.included])))},
    )
    return [frame, curved, lie_check]


class _Stencil:
    """Surface fields of a patch on a grid, and at its four shifts U +- hu, V +- hv.

    The center report ``f`` is evaluated here.  The four shifts are
    evaluated on first use of :meth:`partials` or :attr:`ok`, in one
    :func:`surface_fields` call on a stacked (4, n_u, n_v) grid, of which
    only the fields the checks difference are kept.  The curvature term
    R(X_u, X_v)N is likewise computed once, on first use.  ``run_suite``
    builds one stencil per patch and hands it to every check on that patch.
    """

    SHIFTED_FIELDS = ("umbilicity_factor", "nu", "T", "JT", "included")

    def __init__(self, patch: SurfacePatch, grid):
        self.patch = patch
        self.grid = n_u, n_v = _require_grid(grid)
        self.f = surface_fields(patch, *patch.grid(n_u, n_v))
        self.hu = verify.STENCIL_STEP * (patch.u_range[1] - patch.u_range[0])
        self.hv = verify.STENCIL_STEP * (patch.v_range[1] - patch.v_range[0])

    @cached_property
    def _shifted(self):
        # the fields at U + hu, U - hu, V + hv, V - hv, stacked on axis 0
        U, V, hu, hv = self.f.U, self.f.V, self.hu, self.hv
        rep = surface_fields(self.patch, np.stack([U + hu, U - hu, U, U]),
                             np.stack([V, V, V + hv, V - hv]))
        return {name: getattr(rep, name) for name in self.SHIFTED_FIELDS}

    @cached_property
    def ok(self):
        """Admissible at the center and at every shift."""
        inc = self._shifted["included"]
        return inc[0] & inc[1] & inc[2] & inc[3] & self.f.included

    @cached_property
    def curvature(self):
        """R(X_u, X_v)N at the center."""
        f = self.f
        return curvature_tensor(self.patch.space, f.X, f.Xu, f.Xv, f.N)

    def partials(self, name):
        """Centered differences of the field ``name`` along u and along v."""
        s = self._shifted[name]
        return (s[0] - s[1]) / (2.0 * self.hu), (s[2] - s[3]) / (2.0 * self.hv)


def _solve_first_form(I, b0, b1):
    """(x0, x1) with I x = b at every grid point, by Cramer's rule."""
    i00, i01, i10, i11 = I[..., 0, 0], I[..., 0, 1], I[..., 1, 0], I[..., 1, 1]
    det = i00 * i11 - i01 * i10
    return (i11 * b0 - i01 * b1) / det, (i00 * b1 - i10 * b0) / det


def _tangent_components(space, f, W):
    """Coefficients of a tangent vector in the (X_u, X_v) basis."""
    return _solve_first_form(f.I, inner(space, f.X, W, f.Xu), inner(space, f.X, W, f.Xv))


def _covariant_along(space, st, W, name):
    """nabla_W of the vector field ``name`` along the surface at grid points."""
    f = st.f
    w1, w2 = _tangent_components(space, f, W)
    Au, Av = st.partials(name)
    flow = w1[..., None] * Au + w2[..., None] * Av
    return flow + connection(space, f.X)(W, getattr(f, name))


def _bracket(space, st):
    """[T, JT] = nabla_T JT - nabla_JT T by finite differences."""
    return (_covariant_along(space, st, st.f.T, "JT")
            - _covariant_along(space, st, st.f.JT, "T"))


def _curvature_commutator(st):
    f = st.f
    _require_umbilic(st.patch, f)
    lam_u, lam_v = st.partials("umbilicity_factor")
    rhs = lam_u[..., None] * f.Xv - lam_v[..., None] * f.Xu
    resid = norm(st.patch.space, f.X, st.curvature - rhs)
    return IdentityCheck("curvature_commutator", st.grid,
                         _stats(resid, f.included),
                         skipped_points=int(np.sum(~f.included)))


def _daniel_formula(st):
    f, space = st.f, st.patch.space
    if not np.any(f.included):
        raise ImmersionError(f"patch {st.patch.name!r} is degenerate on the grid")
    X = f.X
    c = space.bundle_discriminant
    rhs = c * f.nu[..., None] * (
        inner(space, X, f.Xv, f.T)[..., None] * f.Xu
        - inner(space, X, f.Xu, f.T)[..., None] * f.Xv)
    resid = norm(space, X, st.curvature - rhs)
    return IdentityCheck("daniel_formula", st.grid,
                         _stats(resid, f.included),
                         skipped_points=int(np.sum(~f.included)))


def _gradient_identity(st):
    f, space = st.f, st.patch.space
    _require_umbilic(st.patch, f)
    lam_u, lam_v = st.partials("umbilicity_factor")
    a, b = _solve_first_form(f.I, lam_u, lam_v)
    grad = a[..., None] * f.Xu + b[..., None] * f.Xv
    c = 2.0 if space.kind == "sol" else space.bundle_discriminant
    resid = norm(space, f.X, grad + c * f.nu[..., None] * f.T)
    name = "gradient_sol" if space.kind == "sol" else "gradient_product"
    return IdentityCheck(name, st.grid, _stats(resid, f.included),
                         skipped_points=int(np.sum(~f.included)))


def _bracket_and_jtnu(st):
    f, space = st.f, st.patch.space
    _require_umbilic(st.patch, f)
    T_norm2 = inner(space, f.X, f.T, f.T)
    active = st.ok & (np.sqrt(np.maximum(T_norm2, 0.0)) >= T_FLOOR)
    skipped = int(np.sum(~active))
    bracket_check = IdentityCheck(
        "bracket_TJT", st.grid,
        _stats(norm(space, f.X, _bracket(space, st)), active), skipped_points=skipped)

    nu_u, nu_v = st.partials("nu")
    jt1, jt2 = _tangent_components(space, f, f.JT)
    jt_nu = jt1 * nu_u + jt2 * nu_v
    resid = np.abs(jt_nu + space.tau * T_norm2)
    jtnu_check = IdentityCheck("jt_nu", st.grid, _stats(resid, active),
                               skipped_points=skipped)
    return bracket_check, jtnu_check


STACKED_CHECKS = {name: globals()[name] for name in (
    "_Stencil", "check_killing", "_sol_identities", "_curvature_commutator",
    "_daniel_formula", "_gradient_identity", "_bracket_and_jtnu")}


# ---------------------------------------------------------------------------
# complex-step geodesic-sphere jets


def _sinc_cos(q):
    """sin(sqrt q)/sqrt q and cos(sqrt q), entire in real or complex q."""
    small = np.abs(q) < 0.25  # a Taylor series there, in place of 0/0
    s = np.sqrt(np.where(small, 1.0, q) + 0j)  # either root: both are even in it
    sinc, cos, qs, ss, sc = np.sin(s) / s, np.cos(s), q[small], 1.0, 1.0
    for k in range(8, 0, -1):
        ss, sc = 1.0 - qs * ss / (2 * k * (2 * k + 1)), 1.0 - qs * sc / (2 * k * (2 * k - 1))
    sinc[small], cos[small] = ss, sc
    return (sinc, cos) if np.iscomplexobj(q) else (sinc.real, cos.real)


def _m3_axis_geodesic(space, height, v):
    """End state (..., 6) at t = 1 of the m3 geodesics from (0, 0, height), velocity v.

    With v = (v0, v1, c), a^2 = v0^2 + v1^2, D = kappa a^2 + 4 tau^2 c^2,
    S = sin(sqrt(D) t)/sqrt(D) and V = (1 - cos(sqrt(D) t))/D, the base curve
    is the circle x + iy = 2 (v0 + i v1)(S + 2i tau c V)/(2 - kappa a^2 V), in
    real components so that a complex step in v carries the Jacobi fields.
    The angular momentum about the axis is zero, so z' = c (1 + tau^2 r^2),
    r^2 = x^2 + y^2, integrated by 20-point Gauss-Legendre.
    """
    k, tau = space.kappa, space.tau
    v0, v1, c = v[..., 0], v[..., 1], v[..., 2]
    a2 = v0 * v0 + v1 * v1
    ka2, D = k * a2, k * a2 + 4.0 * tau * tau * c * c
    # (sin(sqrt(D) t/2)/sqrt(D))^2 = V/2 at t = 1 and at the nodes
    t = np.concatenate([[1.0], _GL_NODES])
    sinc, cos = _sinc_cos(D[..., None] * (0.25 * t * t))
    half2 = (0.5 * t * sinc) ** 2
    r2 = 4.0 * a2[..., None] * half2 / (1.0 - ka2[..., None] * half2)
    S, V = sinc[..., 0] * cos[..., 0], 2.0 * half2[..., 0]
    C, Q, B, dB = 1.0 - D * V, 2.0 - ka2 * V, 2.0 * tau * c * V, 2.0 * tau * c * S
    x, y = 2.0 * (v0 * S - v1 * B) / Q, 2.0 * (v0 * B + v1 * S) / Q
    z = height + c * (1.0 + tau * tau * (r2[..., 1:] @ _GL_WEIGHTS))
    # d/dt: S' = C, V' = S, Q' = -kappa a^2 S
    state = np.stack([x, y, z, (2.0 * (v0 * C - v1 * dB) + x * ka2 * S) / Q,
                      (2.0 * (v0 * dB + v1 * C) + y * ka2 * S) / Q,
                      c * (1.0 + tau * tau * r2[..., 0])], axis=-1)
    _check_domain(space, (x, y, z))
    return state


# complex step of the Jacobi-field jets: its O(step^2) error is far below
# rounding, and products of a few steps stay clear of subnormal numbers
_JACOBI_STEP = 1e-30


def complex_step_sphere_patch(space: ModelGeometry, center_height=0.0, radius=1.0,
                          polar_margin=0.35, name=None) -> SurfacePatch:
    """Geodesic sphere of M^3(kappa, tau) about the axis point (0, 0, center_height).

    (u, v) are the polar and azimuthal angles of the initial velocity.  The
    jet evaluates the closed-form m3 geodesics and their two Jacobi fields,
    the u and v variations of the initial velocity, as one complex-step
    batch, so X, X_u and X_v are exact.  By the Gauss lemma the end velocity
    gamma'(1) is normal to the sphere; with its u and v variations it gives
    the second fundamental form by the Weingarten equation.  ``chart`` is
    the real end point, for forced finite differencing.  ``center_height``
    and ``radius`` of shape (K,) make a batch of K spheres on a grid they
    share.  A space of another kind than m3 raises ValueError.
    """
    if space.kind != "m3":
        raise ValueError(f"geodesic spheres are built in the m3 chart, not {space.kind!r}")
    height, radius = _batch_param(center_height), _batch_param(radius)
    u_range, v_range = (polar_margin, np.pi - polar_margin), (0.0, 2.0 * np.pi)

    def directions(U, V):
        U, V = np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float))
        su, cu, sv, cv = np.sin(U), np.cos(U), np.sin(V), np.cos(V)
        zero = np.zeros_like(U)
        return (np.stack([su * cv, su * sv, cu], axis=-1),
                np.stack([cu * cv, cu * sv, -su], axis=-1),
                np.stack([-su * sv, su * cv, zero], axis=-1))

    def chart(U, V):
        d, _, _ = directions(U, V)
        return _m3_axis_geodesic(space, height, radius[..., None] * d)[..., :3]

    def jet(U, V):
        d, d_u, d_v = directions(U, V)
        v0 = radius[..., None] * (d + 1j * _JACOBI_STEP * np.stack([d_u, d_v]))
        y = np.moveaxis(_m3_axis_geodesic(space, height, v0), -1, 0)
        dy = y.imag / _JACOBI_STEP
        return {"X": tuple(y[:3, 0].real), "Xu": tuple(dy[:3, 0]), "Xv": tuple(dy[:3, 1]),
                "normal": tuple(y[3:, 0].real), "normal_u": tuple(dy[3:, 0]),
                "normal_v": tuple(dy[3:, 1])}

    return SurfacePatch(space, name or "geodesic-sphere", u_range, v_range,
                        jet, chart=chart)


# ---------------------------------------------------------------------------
# orbit-patch orientation on (..., 3) vectors


def stacked_orient(patch, curve):
    """The normal sign that makes the profile convention hold globally.

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
    return float(sign) if sign != 0 else 1.0


# ---------------------------------------------------------------------------
# isometry jets, one point at a time


def point_isometry_jet(space, iso, p):
    """Image point, Jacobian J[k, i] = dq^k/dp^i and Hessian H[k, i, j] at one
    chart point p (3,)."""
    p = np.asarray(p, dtype=float)
    q = np.empty(3)
    J = np.zeros((3, 3))
    H = np.zeros((3, 3, 3))
    if iso.kind == "identity":
        return p.copy(), np.eye(3), H
    if iso.kind in ("rotation", "parabolic", "hyperbolic"):
        if space.kind not in ("s2xr", "h2xr"):
            raise IllFormedIsometryError(f"{iso.kind} isometries require a product space")
        val, d1, d2 = _mobius_jet(_mobius_matrix(space, iso), complex(p[0], p[1]))
        q[:] = (val.real, val.imag, p[2])
        J[0, 0], J[0, 1] = d1.real, -d1.imag
        J[1, 0], J[1, 1] = d1.imag, d1.real
        J[2, 2] = 1.0
        # holomorphic f: f_xx = f'', f_xy = i f'', f_yy = -f''
        H[0, 0, 0], H[1, 0, 0] = d2.real, d2.imag
        H[0, 0, 1] = H[0, 1, 0] = -d2.imag
        H[1, 0, 1] = H[1, 1, 0] = d2.real
        H[0, 1, 1], H[1, 1, 1] = -d2.real, -d2.imag
        return q, J, H
    if iso.kind == "vertical_shift":
        if space.kind not in ("s2xr", "h2xr", "m3"):
            raise IllFormedIsometryError("vertical_shift requires a vertical direction")
        q[:] = (p[0], p[1], p[2] + iso.shift)
        return q, np.eye(3), H
    if iso.kind == "slice_reflection":
        if space.kind not in ("s2xr", "h2xr"):
            raise IllFormedIsometryError("slice_reflection requires a product space")
        q[:] = (p[0], p[1], 2.0 * iso.level - p[2])
        J[:] = np.diag([1.0, 1.0, -1.0])
        return q, J, H
    if iso.kind in ("sol_translation", "sol_swap"):
        if space.kind != "sol":
            raise IllFormedIsometryError(f"{iso.kind} requires sol")
        a, b, c = iso.abc
        s1, s2 = iso.signs
        if iso.kind == "sol_translation":
            q[:] = (s1 * np.exp(-c) * p[0] + a, s2 * np.exp(c) * p[1] + b, p[2] + c)
            J[0, 0], J[1, 1], J[2, 2] = s1 * np.exp(-c), s2 * np.exp(c), 1.0
        else:
            q[:] = (s1 * np.exp(-c) * p[1] + a, s2 * np.exp(c) * p[0] + b, -p[2] + c)
            J[0, 1], J[1, 0], J[2, 2] = s1 * np.exp(-c), s2 * np.exp(c), -1.0
        return q, J, H
    raise IllFormedIsometryError(f"unknown isometry kind {iso.kind!r}")


def pointwise_moved_jet(patch, iso, U, V):
    """The jet of ``transform_patch(patch, iso)`` at (U, V), each point pushed
    through its own ``point_isometry_jet``, as (..., 3) arrays by jet key."""
    j = patch.jet(U, V)
    keys = ("X", "Xu", "Xv", "Xuu", "Xuv", "Xvv")
    flats = {k: np.stack(j[k], axis=-1).reshape(-1, 3) for k in keys}
    res = {k: np.empty_like(flats[k]) for k in keys}
    for n, p in enumerate(flats["X"]):
        q, J, H = point_isometry_jet(patch.space, iso, p)
        a, b = flats["Xu"][n], flats["Xv"][n]
        res["X"][n] = q
        res["Xu"][n] = J @ a
        res["Xv"][n] = J @ b
        res["Xuu"][n] = J @ flats["Xuu"][n] + np.einsum("kij,i,j->k", H, a, a)
        res["Xuv"][n] = J @ flats["Xuv"][n] + np.einsum("kij,i,j->k", H, a, b)
        res["Xvv"][n] = J @ flats["Xvv"][n] + np.einsum("kij,i,j->k", H, b, b)
    shape = np.shape(j["X"][0]) + (3,)
    return {k: res[k].reshape(shape) for k in keys}
