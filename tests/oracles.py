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
is checked against it.

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

``ode_plane_profile`` integrates a plane profile's (rho, t, theta) system
with DOP853 (``_integrate_plane``); the closed-form Jacobi and elementary
profiles of ``umbilic.profiles`` are checked against it.  ``ode_sol_profile``
integrates the Sol graph equation the same way, for the closed-form
lemniscatic Sol profile.
"""

import numpy as np
from scipy.integrate import quad, solve_ivp
from scipy.optimize import brentq

from umbilic.geometry import (
    ModelGeometry,
    _check_domain,
    _dense,
    _inverse_table,
    connection,
    cross,
    lowering,
)
from umbilic.profiles import (
    GeneratingCurve,
    _SHAPE_RATE,
    _build_plane_curve,
    _plane_jet,
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
                              (-smax, smax), 2001, None)


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


def stacked_jet(patch, U, V, h=None):
    """The patch jet with every component triple stacked on a last axis, all
    of them broadcast to one shape."""
    from umbilic.surfaces import fd_jet

    jet = patch.jet if h is None else fd_jet(patch.chart, patch.u_range, patch.v_range, h=h)
    j = jet(U, V)
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


def stacked_surface_fields(patch, U, V, h=None) -> dict:
    """Every ``CurvatureReport`` field of the patch at (U, V), by name."""
    from umbilic.surfaces import AXIS_TUBE, IMMERSION_FLOOR

    space = patch.space
    j = stacked_jet(patch, U, V, h=h)
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
