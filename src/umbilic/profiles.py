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

with first integral z'^2 = a e^{-6z} - e^{-2z}.  It is lemniscatic: with
c = a^{1/4}/sqrt(2) and z0 = (1/4) log a,

    e^{z - z0} = cn(u | 1/2),   y = c (2 E(am u | 1/2) - u),

so z falls to -infinity at the finite half-width y_a = c (2 E - K) at
m = 1/2.  The evaluator inverts y -> u by Newton's method; samples below
the evaluated span, down to z = Z_CLIP, come from the series of y_a - y.

All curves are normalized to pass through the origin of their plane:
rho(0) = 0, t(0) = 0 (Sol: z'(0) = 0, y = 0 at the crest).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .elliptic import ellipj, ellipj_zeta, elliptic_K

Z_CLIP = -30.0
N_SAMPLES = 2001  # rows of a profile's sample table


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


def _build_plane_curve(kind, param, jet, event, s_span, period_data, n_samples=N_SAMPLES):
    """Sample ``jet`` at ``n_samples`` points of a symmetric span: ``s_span``,
    or by default 5.5 sizing events (at least 10; 12 when the profile has no
    event)."""
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


def s2xr_profile(a, s_span=None) -> GeneratingCurve:
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
                                  None)
    if a < 1:
        m = a * a

        def state(s):
            sn, cn, dn, am = ellipj(s, m)
            return am, np.log((1.0 + a) / (dn + a * cn)), np.arcsin(a * sn)

        s1 = 2.0 * elliptic_K(m)
        return _build_plane_curve("s2xr", a, _plane_jet("s2xr", a, state), s1,
                                  s_span, PeriodData(s1=s1))
    m = 1.0 / (a * a)

    def state(s):
        sn, cn, dn, am = ellipj(a * s, m)
        return np.arcsin(sn / a), np.log((1.0 + 1.0 / a) / (dn + cn / a)), am

    delta = elliptic_K(m) / a
    return _build_plane_curve("s2xr", a, _plane_jet("s2xr", a, state), delta,
                              s_span, PeriodData(delta=delta))


def h2xr_elliptic_profile(b, s_span=None) -> GeneratingCurve:
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
                              delta, s_span, PeriodData(delta=delta))


def h2xr_parabolic_profile(s_span=None) -> GeneratingCurve:
    """Parabolic-invariant family in H^2 x R (no parameter; horocycle levels)."""
    return _build_plane_curve("h2xr-parabolic", None, _closed_jet_parabolic, None,
                              s_span, PeriodData(delta=0.0))


def h2xr_hyperbolic_profile(c, s_span=None) -> GeneratingCurve:
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
                              s_span, PeriodData(delta=delta))


def _lemniscate_series(v, p):
    """sum_k C(2k, k) 4^-k v^(4k + p) / (4k + p), to rounding for 0 <= v <= e^-4.

    It is the integral of t^(p - 1) (1 - t^4)^(-1/2) from 0 to v; term k
    is below v^(4k) <= e^(-16k) of the first, so three terms suffice.
    """
    total, coef, term, v4 = 0.0, 1.0, v**p, v**4
    for k in range(3):
        total = total + coef * term / (4 * k + p)
        coef, term = coef * (2 * k + 1) / (2 * k + 2), term * v4
    return total


# The Sol graph is lemniscatic: e^{z - z0} = cn(u | 1/2) and y = c w(u) with
# w = 2 E(am u | 1/2) - u = (2E/K - 1) u + 2 Z(u), in which nothing cancels,
# and dw/du = cn^2.  At m = 1/2, Legendre's relation gives 2E - K = pi/(2K).
# The evaluated span ends _SOL_DEPTH below the crest, at
# u = K - sqrt(2) * (series in cn = e^{-_SOL_DEPTH}).  w does not depend on
# a, so neither do the nodes that start Newton's method for y -> u; they are
# denser toward the end, where the slope cn^2 falls fastest.
_SOL_M, _SOL_DEPTH = 0.5, 4.0
_SOL_K = elliptic_K(_SOL_M)


def _sol_w(u):
    """w(u) and its slope cn(u | 1/2)^2."""
    _, cn, _, zeta = ellipj_zeta(u, _SOL_M)
    return (0.5 * np.pi / _SOL_K**2) * u + 2.0 * zeta, cn * cn


_SOL_U = ((_SOL_K - np.sqrt(2.0) * _lemniscate_series(np.exp(-_SOL_DEPTH), 1))
          * np.sin(np.linspace(0.0, 0.5 * np.pi, 129)))
_SOL_W = _sol_w(_SOL_U)[0]


def sol_profile(a, z_clip=Z_CLIP) -> GeneratingCurve:
    """The translation-invariant Sol graph family, parameter a > 0.

    Crest height z(0) = z0 = (1/4) log a; with c = a^{1/4}/sqrt(2),

        y = c (2 E(am u | 1/2) - u),  z = z0 + log cn(u | 1/2),
        z_y = -sn dn / (c cn^3),      y_a = c (2 E - K) = c pi / (2 K),

    and z blows down to -infinity at |y| = y_a.  The ``jet`` evaluator spans
    the graph down to 4 below the crest.  Below that depth |z'| grows like
    e^{-3z} and the rest of the drop happens within one ulp of y_a;
    ``samples`` continue down to ``z_clip``, which must lie deeper, with
    y_a - y from its series in v = e^{z - z0}.
    """
    a = float(a)
    if not a > 0:
        raise ValueError("a must be positive")
    z0 = 0.25 * np.log(a)
    z_switch = z0 - _SOL_DEPTH
    if not z_clip < z_switch:
        raise ValueError(f"z_clip must lie below log(a)/4 - {_SOL_DEPTH:g}")
    scale = a**0.25
    c = scale / np.sqrt(2.0)
    y_a = float(c * 0.5 * np.pi / _SOL_K)
    y_switch = float(c * _SOL_W[-1])

    def jet(y):
        w = np.abs(y / c)
        u = np.interp(w, _SOL_W, _SOL_U)
        for _ in range(3):
            value, slope = _sol_w(u)
            u = u - (value - w) / slope
        sn, cn, dn, _ = ellipj_zeta(np.sign(y) * u, _SOL_M)
        z = z0 + np.log(cn)
        z_y = -sn * dn / (c * cn**3)
        return {"z": z, "z_y": z_y, "z_yy": -3.0 * z_y**2 - 2.0 * np.exp(-2.0 * z)}

    n_deep = N_SAMPLES // 8
    grid = np.linspace(-y_switch, y_switch, N_SAMPLES - 2 * n_deep)
    z_deep = np.linspace(z_switch, z_clip, n_deep + 1)[1:]
    y_deep = y_a - scale * _lemniscate_series(np.exp(z_deep - z0), 3)
    samples = np.vstack([np.column_stack([-y_deep[::-1], z_deep[::-1]]),
                         np.column_stack([grid, jet(grid)["z"]]),
                         np.column_stack([y_deep, z_deep])])
    return GeneratingCurve(kind="sol", param=a, span=(-y_switch, y_switch),
                           columns=("y", "z"), samples=samples,
                           period_data=PeriodData(y_a=y_a), _jet=jet)
