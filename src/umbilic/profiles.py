"""Generating curves of the rotational / translation-invariant surface families.

Plane profiles are arclength-parametrized curves s -> (rho(s), t(s)) in a
totally geodesic vertical plane, with tangent angle theta:

    rho' = cos(theta),  t' = sin(theta),

and the tangent angle driven by the family's shape equation:

    s2xr family (parameter a > 0):        theta' = a cos(rho)
    h2xr elliptic family (b > 0):         theta' = b cosh(rho)
    h2xr parabolic family:                theta' = sin(theta)
    h2xr hyperbolic family (0 < c < 1):   theta' = c sinh(rho)

Each system conserves a first integral (sin theta = a sin rho, b sinh rho,
c cosh rho respectively), which makes every profile a closed form: a = 1 and
the parabolic family in elementary functions, the other four in Jacobi
elliptic functions of parameter m (sn, cn, dn, am from
:func:`umbilic.elliptic.ellipj`, K = K(m)):

    s2xr, a < 1 (m = a^2, u = s):       rho = am, theta = arcsin(a sn),
        t = log((1 + a) / (dn + a cn));  s1 = 2K
    s2xr, a > 1 (m = 1/a^2, u = a s):   theta = am, rho = arcsin(sn / a),
        t = log((1 + 1/a) / (dn + cn / a));  delta = K / a
    h2xr elliptic (m = -1/b^2, u = b s): theta = am, rho = arcsinh(sn / b),
        t = arcsin(k) - arcsin(k cn), k = (1 + b^2)^{-1/2};  delta = K / b
    h2xr hyperbolic (m = -(1 - c^2)/c^2, u = c s, beta = sqrt(1 - c^2)/c):
        rho = arcsinh(beta sn), t = am, rho' = sqrt(1 - c^2) cn,
        theta = atan2(c cosh rho, rho');  delta = K / c

Turning points sit at u = K, so periods need no event search.

The Sol family is a graph z(y) over the y-axis in the plane {x = 0},

    z'' + 3 z'^2 + 2 e^{-2z} = 0,   z'(0) = 0,  z(0) = (1/4) log a,

with first integral z'^2 = a e^{-6z} - e^{-2z}.  z falls to -infinity at a
finite half-width y_a; integration stops at z = Z_CLIP and y_a is completed
by a quadrature tail.

All curves are normalized to pass through the origin of their plane:
rho(0) = 0, t(0) = 0 (Sol: z'(0) = 0, y = 0 at the crest).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elliptic import ellipj, elliptic_K

PROFILE_RTOL = 1e-10
PROFILE_ATOL = 1e-12
Z_CLIP = -30.0


@dataclass(frozen=True)
class PeriodData:
    """Distinguished parameters of a profile: events and derived periods.

    ``s1``    smallest s > 0 with rho(s1) = pi (winding families).
    ``delta`` smallest s >= 0 with rho'(s) = 0 (bounded-height families).
    ``y_a``   half-width of the Sol graph domain (blow-down abscissa).
    """

    s1: float | None = None
    delta: float | None = None
    y_a: float | None = None


@dataclass
class GeneratingCurve:
    """Profile curve with dense evaluators and sampled columns.

    ``columns`` is ``("s", "rho", "t", "theta")`` for plane profiles and
    ``("y", "z")`` for the Sol graph.  ``jet`` evaluates the curve and its
    derivatives at arbitrary parameters inside ``span``.
    """

    kind: str
    param: float | None
    span: tuple
    columns: tuple
    samples: np.ndarray  # shape (n, len(columns))
    period_data: PeriodData | None
    _jet: callable = field(repr=False)
    _aux: dict | None = field(default=None, repr=False)

    @property
    def s(self):
        return self.samples[:, 0]

    def jet(self, s):
        """Dict of curve data at parameter values s (vectorized).

        Plane profiles: rho, t, theta, rho_s, t_s, theta_s, rho_ss, t_ss.
        Sol: z, z_y, z_yy.
        """
        s = np.asarray(s, dtype=float)
        lo, hi = self.span
        if np.any(s < lo - 1e-12) or np.any(s > hi + 1e-12):
            raise ValueError(f"parameter outside integrated span {self.span}")
        scalar = s.ndim == 0
        out = self._jet(np.atleast_1d(np.clip(s, lo, hi)))
        if scalar:
            out = {k: v[0] for k, v in out.items()}
        return out

    def evaluate(self, s):
        j = self.jet(s)
        if self.kind == "sol":
            return j["z"]
        return j["rho"], j["t"], j["theta"]


_SHAPE_RATE = {
    "s2xr": lambda rho, theta, p: p * np.cos(rho),
    "h2xr-elliptic": lambda rho, theta, p: p * np.cosh(rho),
    "h2xr-parabolic": lambda rho, theta, p: np.sin(theta),
    "h2xr-hyperbolic": lambda rho, theta, p: p * np.sinh(rho),
}

_SHAPE_RATE_DRHO = {
    "s2xr": lambda rho, theta, p: -p * np.sin(rho),
    "h2xr-elliptic": lambda rho, theta, p: p * np.sinh(rho),
    "h2xr-parabolic": lambda rho, theta, p: 0.0 * rho,
    "h2xr-hyperbolic": lambda rho, theta, p: p * np.cosh(rho),
}


def principal_curvature_normal_part(kind, rho, theta, param):
    """The orbit-direction principal curvature lambda_2 in closed form."""
    if kind == "s2xr":
        return np.sin(theta) / np.tan(rho)
    if kind == "h2xr-elliptic":
        return np.sin(theta) / np.tanh(rho)
    if kind == "h2xr-parabolic":
        return np.sin(theta)
    if kind == "h2xr-hyperbolic":
        return np.sin(theta) * np.tanh(rho)
    raise ValueError(kind)


def _plane_jet(kind, param, state):
    """Jet of a plane profile from its (rho, t, theta) evaluator."""

    def jet(s):
        rho, t, theta = state(s)
        rate = _SHAPE_RATE[kind](rho, theta, param)
        drate = _SHAPE_RATE_DRHO[kind](rho, theta, param)
        cos_t, sin_t = np.cos(theta), np.sin(theta)
        if kind == "h2xr-parabolic":
            theta_ss = cos_t * rate  # d/ds sin(theta)
        else:
            theta_ss = drate * cos_t
        return {
            "rho": rho,
            "t": t,
            "theta": theta,
            "rho_s": cos_t,
            "t_s": sin_t,
            "theta_s": rate,
            "rho_ss": -sin_t * rate,
            "t_ss": cos_t * rate,
            "theta_ss": theta_ss,
        }

    return jet


def _closed_jet_s2xr_a1(s):
    s = np.asarray(s, dtype=float)
    # rho = theta = pi/2 - 2 arctan(e^{-s});  t = log cosh s
    rho = np.pi / 2.0 - 2.0 * np.arctan(np.exp(-s))
    sech = 1.0 / np.cosh(s)
    tanh = np.tanh(s)
    return {
        "rho": rho,
        "t": np.logaddexp(s, -s) - np.log(2.0),
        "theta": rho,
        "rho_s": sech,
        "t_s": tanh,
        "theta_s": sech,
        "rho_ss": -sech * tanh,
        "t_ss": sech**2,
        "theta_ss": -sech * tanh,
    }


def _closed_jet_parabolic(s):
    s = np.asarray(s, dtype=float)
    theta = 2.0 * np.arctan(np.exp(s))
    sech = 1.0 / np.cosh(s)
    tanh = np.tanh(s)
    return {
        "rho": -(np.logaddexp(s, -s) - np.log(2.0)),
        "t": theta - np.pi / 2.0,
        "theta": theta,
        "rho_s": -tanh,
        "t_s": sech,
        "theta_s": sech,
        "rho_ss": -(sech**2),
        "t_ss": -sech * tanh,
        "theta_ss": -sech * tanh,
    }


def _build_plane_curve(kind, param, jet, event, s_span, n_samples, period_data):
    """Sample ``jet`` on a symmetric span: ``s_span``, or by default 5.5
    sizing events (at least 10; 12 when the profile has no event)."""
    if s_span is not None:
        smax = 0.5 * (s_span[1] - s_span[0])
    else:
        smax = 12.0 if event is None else max(5.5 * event, 10.0)
    grid = np.linspace(-smax, smax, n_samples)
    j = jet(grid)
    return GeneratingCurve(
        kind=kind,
        param=param,
        span=(-smax, smax),
        columns=("s", "rho", "t", "theta"),
        samples=np.column_stack([grid, j["rho"], j["t"], j["theta"]]),
        period_data=period_data,
        _jet=jet,
    )


def s2xr_profile(a, s_span=None, n_samples=2001) -> GeneratingCurve:
    """Profile of the rotational family in S^2 x R, parameter a > 0.

    a < 1 winds (rho increases by 2 pi per period 2 s1), a = 1 is the
    closed-form borderline profile, a > 1 oscillates with rho amplitude
    arcsin(1/a) (sphere-like surfaces).
    """
    a = float(a)
    if not a > 0:
        raise ValueError("a must be positive")
    if a == 1.0:
        return _build_plane_curve("s2xr", a, _closed_jet_s2xr_a1, None, s_span,
                                  n_samples, None)
    if a < 1:
        m = a * a

        def state(s):
            sn, cn, dn, am = ellipj(s, m)
            return am, np.log((1.0 + a) / (dn + a * cn)), np.arcsin(a * sn)

        s1 = 2.0 * elliptic_K(m)
        return _build_plane_curve("s2xr", a, _plane_jet("s2xr", a, state), s1,
                                  s_span, n_samples, PeriodData(s1=s1))
    m = 1.0 / (a * a)

    def state(s):
        sn, cn, dn, am = ellipj(a * s, m)
        return np.arcsin(sn / a), np.log((1.0 + 1.0 / a) / (dn + cn / a)), am

    delta = elliptic_K(m) / a
    return _build_plane_curve("s2xr", a, _plane_jet("s2xr", a, state), delta,
                              s_span, n_samples, PeriodData(delta=delta))


def h2xr_elliptic_profile(b, s_span=None, n_samples=2001) -> GeneratingCurve:
    """Rotational (elliptic) family in H^2 x R, any b > 0; sphere-like."""
    b = float(b)
    if not b > 0:
        raise ValueError("b must be positive")
    m = -1.0 / (b * b)
    k = 1.0 / np.sqrt(1.0 + b * b)

    def state(s):
        sn, cn, _, am = ellipj(b * s, m)
        return np.arcsinh(sn / b), np.arcsin(k) - np.arcsin(k * cn), am

    delta = elliptic_K(m) / b
    return _build_plane_curve("h2xr-elliptic", b, _plane_jet("h2xr-elliptic", b, state),
                              delta, s_span, n_samples, PeriodData(delta=delta))


def h2xr_parabolic_profile(s_span=None, n_samples=2001) -> GeneratingCurve:
    """Parabolic-invariant family in H^2 x R (no parameter; horocycle levels)."""
    return _build_plane_curve("h2xr-parabolic", None, _closed_jet_parabolic, None,
                              s_span, n_samples, PeriodData(delta=0.0))


def h2xr_hyperbolic_profile(c, s_span=None, n_samples=2001) -> GeneratingCurve:
    """Equidistant-invariant family in H^2 x R, parameter 0 < c < 1."""
    c = float(c)
    if not 0 < c < 1:
        raise ValueError("c must lie in (0,1)")
    m = -(1.0 - c * c) / (c * c)
    beta = np.sqrt(1.0 - c * c) / c

    def state(s):
        sn, cn, _, am = ellipj(c * s, m)
        rho = np.arcsinh(beta * sn)
        return rho, am, np.arctan2(c * np.cosh(rho), np.sqrt(1.0 - c * c) * cn)

    delta = elliptic_K(m) / c
    return _build_plane_curve("h2xr-hyperbolic", c,
                              _plane_jet("h2xr-hyperbolic", c, state), delta,
                              s_span, n_samples, PeriodData(delta=delta))


def sol_profile(a, z_clip=Z_CLIP, n_samples=2001,
                rtol=PROFILE_RTOL, atol=PROFILE_ATOL) -> GeneratingCurve:
    """The translation-invariant Sol graph family, parameter a > 0.

    Crest height z(0) = (1/4) log a; z blows down to -infinity at |y| = y_a.
    Samples stop where z reaches ``z_clip``; ``period_data.y_a`` adds the
    quadrature tail below the clip.

    Past a switch depth 4 below the crest, |z'| grows like e^{-3z} and the
    whole remaining drop to the clip happens within one ulp of y_a, so the
    graph cannot be advanced (or evaluated) in y there.  The tail is instead
    integrated with z as the independent variable in (y, log|z'|) form; the
    ``jet`` evaluator spans the y-parametrized part only, while ``samples``
    and blow-down events cover the full clipped window.
    """
    from scipy.integrate import quad, solve_ivp

    a = float(a)
    if not a > 0:
        raise ValueError("a must be positive")
    z0 = 0.25 * np.log(a)
    z_switch = max(z0 - 4.0, z_clip)

    def rhs(_, y):
        z, w = y
        return [w, -3.0 * w**2 - 2.0 * np.exp(-2.0 * z)]

    def switch_event(_, y):
        return y[0] - z_switch

    switch_event.terminal = True
    switch_event.direction = -1

    legs = []
    for sign in (1.0, -1.0):
        res = solve_ivp(
            rhs,
            (0.0, sign * 1e6),
            [z0, 0.0],
            method="DOP853",
            rtol=rtol,
            atol=atol,
            dense_output=True,
            events=switch_event,
        )
        if res.status != 1:
            raise RuntimeError("sol profile never reached the switch depth")
        legs.append(res)
    fwd, bwd = legs
    y_switch = float(fwd.t_events[0][0])
    z_sw, w_sw = fwd.y_events[0][0]

    if z_switch > z_clip:
        # descend in z: y' = -e^{-L}, L' = -3 - 2 e^{-2z} e^{-2L}, L = log(-z')
        deep = solve_ivp(
            lambda z, s: [-np.exp(-s[1]), -3.0 - 2.0 * np.exp(-2.0 * z - 2.0 * s[1])],
            (z_sw, z_clip),
            [y_switch, np.log(-w_sw)],
            method="DOP853",
            rtol=rtol,
            atol=atol,
            dense_output=True,
        )
        if not deep.success:
            raise RuntimeError("sol tail integration failed")
        y_of_z = lambda z: deep.sol(z)[0]
        y_clip = float(y_of_z(z_clip))
    else:
        y_of_z = lambda z: np.full_like(np.asarray(z, dtype=float), y_switch)
        y_clip = y_switch

    # tail below the clip: dy = dz / |z'|, z' = -e^{-z} sqrt(a e^{-4z} - 1);
    # substituting u = e^z turns it into int_0^{e^{z_clip}} u^2/sqrt(a - u^4) du
    u_clip = np.exp(z_clip)
    tail = quad(lambda u: u**2 / np.sqrt(a - u**4), 0.0, u_clip)[0]
    y_a = y_clip + tail

    def jet(y):
        out = np.empty((2,) + y.shape)
        pos = y >= 0
        if np.any(pos):
            out[:, pos] = fwd.sol(y[pos])
        if np.any(~pos):
            out[:, ~pos] = bwd.sol(y[~pos])
        z, w = out
        return {"z": z, "z_y": w, "z_yy": -3.0 * w**2 - 2.0 * np.exp(-2.0 * z)}

    n_deep = max(n_samples // 8, 16) if z_switch > z_clip else 0
    grid = np.linspace(-y_switch, y_switch, n_samples - 2 * n_deep)
    body = np.column_stack([grid, jet(grid)["z"]])
    if n_deep:
        z_deep = np.linspace(z_switch, z_clip, n_deep + 1)[1:]
        y_deep = np.asarray(y_of_z(z_deep), dtype=float)
        right = np.column_stack([y_deep, z_deep])
        left = np.column_stack([-y_deep[::-1], z_deep[::-1]])
        samples = np.vstack([left, body, right])
    else:
        samples = body
    return GeneratingCurve(
        kind="sol",
        param=a,
        span=(-y_switch, y_switch),
        columns=("y", "z"),
        samples=samples,
        period_data=PeriodData(y_a=y_a),
        _jet=jet,
        _aux={"y_of_z": y_of_z, "z_switch": z_switch, "z_clip": z_clip,
              "y_clip": y_clip},
    )
