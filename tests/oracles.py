"""Test oracles shared by several test files.

``exp_map`` integrates one geodesic with scipy's DOP853 at a tight
tolerance.  The closed-form slab map (``test_conformal``) and the geodesic
fan (``test_geometry``) are checked against it.
"""

import numpy as np
from scipy.integrate import solve_ivp

from umbilic.geometry import ModelGeometry, _check_domain, _geodesic_rhs

GEODESIC_RTOL = 1e-12


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
    _check_domain(space, p)
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
