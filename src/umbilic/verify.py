"""Numeric verification of the structural identities behind the classification.

Every identity the umbilicity analysis rests on is checked here by finite
differences against the closed-form geometry: the Killing property of the
vertical field, the curvature commutator on an umbilic patch, the fibration
curvature formula, the gradient law for the common principal curvature, the
bracket [T, JT], and the Sol frame relations.  A derivative-free search
(`nonexistence_falsifier`) then looks for umbilic surfaces in the fibration
chart and reports the smallest defect it can reach, which stays bounded away
from zero exactly when no umbilic surface exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .geometry import (
    ModelGeometry,
    _geodesic_rhs,
    christoffel_contract,
    christoffels,
    cross,
    curvature_tensor,
    h2xr,
    inner,
    m3,
    norm,
    s2xr,
    sol,
    vertical_field,
)
from .surfaces import (
    CurvatureReport,
    ImmersionError,
    SurfacePatch,
    surface_fields,
)

CHECK_NAMES = frozenset({
    "killing", "curvature_commutator", "daniel_formula", "gradient_product",
    "gradient_sol", "bracket_TJT", "jt_nu", "sol_frame_table",
    "sol_curvature_formula", "lie_lambda",
})

UMBILIC_TOL = 1e-6
T_FLOOR = 1e-6
MIN_CHECK_POINTS = 256


class NonUmbilicPatchError(ValueError):
    """The identity requires an umbilic patch and the input is not one."""


@dataclass
class IdentityCheck:
    """Result of one identity evaluation on a grid of points."""

    name: str
    grid: tuple
    residual_stats: dict
    skipped_points: int = 0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.name not in CHECK_NAMES:
            raise ValueError(f"unknown identity name {self.name!r}")
        stats = self.residual_stats
        if not (stats["max"] >= stats["mean"] >= 0.0):
            raise ValueError("residual stats must satisfy max >= mean >= 0")

    def as_report(self, space: ModelGeometry) -> dict:
        kappa = space.kappa if space.kind != "sol" else None
        tau = space.tau if space.kind != "sol" else None
        return {
            "identity": self.name,
            "space": {"kind": space.kind, "kappa": kappa, "tau": tau},
            "grid": list(self.grid),
            "max_residual": self.residual_stats["max"],
            "mean_residual": self.residual_stats["mean"],
            "skipped_points": self.skipped_points,
        }


def _stats(residual, mask=None):
    if mask is not None:
        residual = residual[mask]
    if residual.size == 0:
        return {"max": 0.0, "mean": 0.0}
    return {"max": float(np.max(residual)), "mean": float(np.mean(residual))}


def _require_grid(grid):
    n_u, n_v = grid
    if n_u * n_v < MIN_CHECK_POINTS:
        raise ValueError(f"grid {grid} has fewer than {MIN_CHECK_POINTS} points")
    return int(n_u), int(n_v)


_SAMPLE_BOX = {
    "s2xr": ((-1.2, 1.2), (-1.2, 1.2), (-1.0, 1.0)),
    "h2xr": ((-0.6, 0.6), (-0.6, 0.6), (-1.0, 1.0)),
    "m3": ((-0.8, 0.8), (-0.8, 0.8), (-1.0, 1.0)),
    "sol": ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
    "h3": ((-1.0, 1.0), (-1.0, 1.0), (0.5, 2.0)),
    "r3": ((-1.0, 1.0), (-1.0, 1.0), (-1.0, 1.0)),
}


def sample_points(space: ModelGeometry, n, seed=0):
    """Uniform random chart points in a box well inside the chart domain."""
    rng = np.random.default_rng(seed)
    cols = [rng.uniform(lo, hi, n) for lo, hi in _SAMPLE_BOX[space.kind]]
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# ambient identities


def check_killing(space: ModelGeometry, grid=(32, 16), seed=0) -> IdentityCheck:
    """The vertical field satisfies nabla_X xi = tau (X ^ xi) for random X."""
    n_u, n_v = _require_grid(grid)
    n = n_u * n_v
    p = sample_points(space, n, seed=seed)
    xi = vertical_field(space, p)
    rng = np.random.default_rng(seed + 1)
    X = rng.normal(size=(n, 3))
    X /= norm(space, p, X)[:, None]
    nabla = christoffel_contract(christoffels(space, p), X, xi)
    resid = norm(space, p, nabla - space.tau * cross(space, p, X, xi))
    return IdentityCheck("killing", (n_u, n_v), _stats(resid))


def check_sol_identities(patch: SurfacePatch, grid=(16, 16), fd_step=None,
                         seed=0) -> list:
    """Frame table, curvature formula, and the [T,JT](lambda) law on Sol."""
    if patch.space.kind != "sol":
        raise ValueError("these identities live in the Sol group")
    n_u, n_v = _require_grid(grid)
    f = surface_fields(patch, *patch.grid(n_u, n_v))
    _require_umbilic(patch, f)
    space, X = patch.space, f.X
    z = X[..., 2]
    shape = z.shape

    # orthonormal frame E1 = e^{-z} dx, E2 = e^{z} dy, E3 = dz and its
    # closed covariant-derivative table
    zero = np.zeros(shape)
    E = np.stack([
        np.stack([np.exp(-z), zero, zero], axis=-1),
        np.stack([zero, np.exp(z), zero], axis=-1),
        np.stack([zero, zero, np.ones(shape)], axis=-1),
    ])
    # dE[i, j, ...] = d/dz of E_j's component i-th... only z-derivatives exist
    dE = np.zeros((3,) + shape + (3,))
    dE[0, ..., 0] = -np.exp(-z)
    dE[1, ..., 1] = np.exp(z)
    table = {(0, 0): -E[2], (0, 2): E[0], (1, 1): E[2], (1, 2): -E[1]}
    G = christoffels(space, X)
    frame_resid = []
    for i in range(3):
        for j in range(3):
            # nabla_{E_i} E_j; frame fields depend on z only
            flow = E[i][..., 2:3] * dE[j]
            conn = christoffel_contract(G, E[i], E[j])
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
    st = _Stencil(patch, f, fd_step)
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


# ---------------------------------------------------------------------------
# surface-level identities


def _steps(patch, fd_step):
    if fd_step is not None:
        return float(fd_step), float(fd_step)
    return (1e-5 * (patch.u_range[1] - patch.u_range[0]),
            1e-5 * (patch.v_range[1] - patch.v_range[0]))


class _Stencil:
    """Surface fields at a grid and at its four shifts U +- hu, V +- hv.

    Built once per check from the center report ``f``; every derivative a
    check takes reads these five evaluations.
    """

    def __init__(self, patch: SurfacePatch, f: CurvatureReport, fd_step=None):
        self.f = f
        self.hu, self.hv = hu, hv = _steps(patch, fd_step)
        U, V = f.U, f.V
        self.up = surface_fields(patch, U + hu, V)
        self.um = surface_fields(patch, U - hu, V)
        self.vp = surface_fields(patch, U, V + hv)
        self.vm = surface_fields(patch, U, V - hv)
        # admissible at the center and at every shift
        self.ok = (self.up.included & self.um.included & self.vp.included
                   & self.vm.included & f.included)

    def partials(self, name):
        """Centered differences of the field ``name`` along u and along v."""
        return ((getattr(self.up, name) - getattr(self.um, name)) / (2.0 * self.hu),
                (getattr(self.vp, name) - getattr(self.vm, name)) / (2.0 * self.hv))


def _tangent_components(space, f, W):
    """Coefficients of a tangent vector in the (X_u, X_v) basis."""
    b = np.stack([inner(space, f.X, W, f.Xu), inner(space, f.X, W, f.Xv)], axis=-1)
    ab = np.linalg.solve(f.I, b[..., None])[..., 0]
    return ab[..., 0], ab[..., 1]


def _covariant_along(space, st, W, name):
    """nabla_W of the vector field ``name`` along the surface at grid points."""
    f = st.f
    w1, w2 = _tangent_components(space, f, W)
    Au, Av = st.partials(name)
    flow = w1[..., None] * Au + w2[..., None] * Av
    G = christoffels(space, f.X)
    return flow + christoffel_contract(G, W, getattr(f, name))


def _bracket(space, st):
    """[T, JT] = nabla_T JT - nabla_JT T by finite differences."""
    return (_covariant_along(space, st, st.f.T, "JT")
            - _covariant_along(space, st, st.f.JT, "T"))


def _require_umbilic(patch, f):
    bad = f.included & (f.defect > UMBILIC_TOL)
    if np.any(bad):
        worst = float(np.max(f.defect[f.included]))
        raise NonUmbilicPatchError(
            f"patch {patch.name!r} has umbilicity defect {worst:.2e} "
            f"(needs < {UMBILIC_TOL:.0e})")


def _check_space(space, patch):
    s = patch.space
    if (space.kind, space.kappa, space.tau) != (s.kind, s.kappa, s.tau):
        raise ValueError("space argument does not match the patch's space")


def check_curvature_commutator(space: ModelGeometry, patch: SurfacePatch,
                               grid=(16, 16), fd_step=None) -> IdentityCheck:
    """R(X_u, X_v)N = lambda_u X_v - lambda_v X_u on an umbilic patch.

    The right-hand side is stated in the package's sign conventions
    (curvature tensor from :func:`umbilic.geometry.curvature_tensor`, second
    form II(X, Y) = <nabla_X Y, N>); both sides flip together under a normal
    flip, so the residual is orientation-independent.
    """
    _check_space(space, patch)
    n_u, n_v = _require_grid(grid)
    f = surface_fields(patch, *patch.grid(n_u, n_v))
    _require_umbilic(patch, f)
    lam_u, lam_v = _Stencil(patch, f, fd_step).partials("umbilicity_factor")
    lhs = curvature_tensor(space, f.X, f.Xu, f.Xv, f.N)
    rhs = lam_u[..., None] * f.Xv - lam_v[..., None] * f.Xu
    resid = norm(space, f.X, lhs - rhs)
    return IdentityCheck("curvature_commutator", (n_u, n_v),
                         _stats(resid, f.included),
                         skipped_points=int(np.sum(~f.included)))


def check_daniel_formula(space: ModelGeometry, patch: SurfacePatch,
                         grid=(16, 16)) -> IdentityCheck:
    """Fibration curvature formula R(X_u,X_v)N = (k-4t^2) nu (<X_v,T>X_u - <X_u,T>X_v)."""
    _check_space(space, patch)
    if not space.has_vertical_field:
        raise ValueError("the formula needs a fibration or product space")
    n_u, n_v = _require_grid(grid)
    f = surface_fields(patch, *patch.grid(n_u, n_v))
    if not np.any(f.included):
        raise ImmersionError(f"patch {patch.name!r} is degenerate on the grid")
    X = f.X
    lhs = curvature_tensor(space, X, f.Xu, f.Xv, f.N)
    c = space.bundle_discriminant
    rhs = c * f.nu[..., None] * (
        inner(space, X, f.Xv, f.T)[..., None] * f.Xu
        - inner(space, X, f.Xu, f.T)[..., None] * f.Xv)
    resid = norm(space, X, lhs - rhs)
    return IdentityCheck("daniel_formula", (n_u, n_v),
                         _stats(resid, f.included),
                         skipped_points=int(np.sum(~f.included)))


def check_gradient_identity(space: ModelGeometry, patch: SurfacePatch,
                            grid=(16, 16), fd_step=None) -> IdentityCheck:
    """Gradient law of the common principal curvature on an umbilic patch.

    In the package's orientation conventions the law reads
    grad lambda = -(kappa - 4 tau^2) nu T on products and fibrations and
    grad lambda = -2 nu T on Sol; lambda is (lambda1 + lambda2)/2 and its
    surface gradient is taken in the dual basis of (X_u, X_v) under I.
    """
    _check_space(space, patch)
    n_u, n_v = _require_grid(grid)
    f = surface_fields(patch, *patch.grid(n_u, n_v))
    _require_umbilic(patch, f)
    lam_u, lam_v = _Stencil(patch, f, fd_step).partials("umbilicity_factor")
    ab = np.linalg.solve(f.I, np.stack([lam_u, lam_v], axis=-1)[..., None])[..., 0]
    grad = ab[..., 0:1] * f.Xu + ab[..., 1:2] * f.Xv
    c = 2.0 if space.kind == "sol" else space.bundle_discriminant
    resid = norm(space, f.X, grad + c * f.nu[..., None] * f.T)
    name = "gradient_sol" if space.kind == "sol" else "gradient_product"
    return IdentityCheck(name, (n_u, n_v), _stats(resid, f.included),
                         skipped_points=int(np.sum(~f.included)))


def check_bracket_and_jtnu(space: ModelGeometry, patch: SurfacePatch,
                           grid=(16, 16), fd_step=None) -> tuple:
    """[T, JT] = 0 and JT.(nu) = -tau |T|^2 on an umbilic product patch."""
    _check_space(space, patch)
    if space.kind not in ("s2xr", "h2xr"):
        raise ValueError("the bracket law is checked on product spaces")
    n_u, n_v = _require_grid(grid)
    f = surface_fields(patch, *patch.grid(n_u, n_v))
    _require_umbilic(patch, f)
    st = _Stencil(patch, f, fd_step)
    T_norm2 = inner(space, f.X, f.T, f.T)
    active = st.ok & (np.sqrt(np.maximum(T_norm2, 0.0)) >= T_FLOOR)
    skipped = int(np.sum(~active))
    bracket_check = IdentityCheck(
        "bracket_TJT", (n_u, n_v),
        _stats(norm(space, f.X, _bracket(space, st)), active), skipped_points=skipped)

    nu_u, nu_v = st.partials("nu")
    jt1, jt2 = _tangent_components(space, f, f.JT)
    jt_nu = jt1 * nu_u + jt2 * nu_v
    resid = np.abs(jt_nu + space.tau * T_norm2)
    jtnu_check = IdentityCheck("jt_nu", (n_u, n_v), _stats(resid, active),
                               skipped_points=skipped)
    return bracket_check, jtnu_check


# ---------------------------------------------------------------------------
# trial surfaces for the falsification search


def _batch_param(a):
    """A trial parameter: a scalar, or a (K,) batch shaped (K, 1, 1).

    The batch shape broadcasts against the (K, n_u, n_v) grids on which a
    batched trial patch is evaluated, and against the axis of a sphere's
    two Jacobi fields stacked in front of them.
    """
    a = np.asarray(a, dtype=float)
    return a[..., None, None] if a.ndim else a


def _polyder(c):
    """Coefficients of d/dw sum_i c[..., i] w^i, computed as np.polynomial does.

    As there, the derivative of a constant is the one coefficient 0.
    """
    n = c.shape[-1]
    if n == 1:
        return c * 0
    return c[..., 1:] * np.arange(1, n)


def _polyval(c, w):
    """sum_i c[..., i] w^i by Horner's rule, in np.polynomial's operation order."""
    val = _batch_param(c[..., -1]) + w * 0
    for i in range(2, c.shape[-1] + 1):
        val = _batch_param(c[..., -i]) + val * w
    return val


def rotational_graph_patch(space: ModelGeometry, coeffs, rho_window=None,
                           name=None) -> SurfacePatch:
    """Rotational graph t = f(rho), f an even polynomial with given coefficients.

    The jet is analytic, so the defect objective is limited only by the
    curvature pipeline, not by chart differencing.  ``coeffs`` of shape
    (K, k) make a batch of K graphs, evaluated on (K, n_u, n_v) grids.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if rho_window is None:
        rho_window = default_rho_window(space)
    dcoeffs = _polyder(coeffs)
    ddcoeffs = _polyder(dcoeffs)

    def jet(U, V):
        U, V = np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float))
        w = U * U
        df = _polyval(dcoeffs, w)
        fp = df * 2.0 * U
        fpp = _polyval(ddcoeffs, w) * 4.0 * w + 2.0 * df
        cv, sv = np.cos(V), np.sin(V)
        zero = np.zeros_like(U)
        return {
            "X": np.stack([U * cv, U * sv, _polyval(coeffs, w)], axis=-1),
            "Xu": np.stack([cv, sv, fp], axis=-1),
            "Xv": np.stack([-U * sv, U * cv, zero], axis=-1),
            "Xuu": np.stack([zero, zero, fpp], axis=-1),
            "Xuv": np.stack([-sv, cv, zero], axis=-1),
            "Xvv": np.stack([-U * cv, -U * sv, zero], axis=-1),
        }

    return SurfacePatch(space, name or "rotational-graph", tuple(rho_window),
                        (0.0, 2.0 * np.pi), jet)


def default_rho_window(space: ModelGeometry):
    hi = 1.2
    if space.kind == "m3" and space.kappa < 0:
        hi = min(hi, 0.6 * 2.0 / np.sqrt(-space.kappa))
    return (0.15, hi)


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


# complex step of the Jacobi-field jets: its O(step^2) error is far below
# rounding, and products of a few steps stay clear of subnormal numbers
_JACOBI_STEP = 1e-30


def geodesic_sphere_patch(space: ModelGeometry, center_height=0.0, radius=1.0,
                          n_steps=192, polar_margin=0.35, name=None) -> SurfacePatch:
    """Geodesic sphere about an axis point, parametrized by shooting direction.

    (u, v) are the polar and azimuthal angles of the initial velocity at the
    center.  The jet integrates each geodesic together with its two Jacobi
    fields, the u and v variations of the initial velocity, as one complex-
    step batch of fixed-step RK4.  X, X_u and X_v are exact for the discrete
    flow.  By the Gauss lemma the end velocity gamma'(1) is normal to the
    sphere; the jet carries it and its u and v variations, from which the
    second fundamental form follows by the Weingarten equation.  ``chart``
    is the real flow, for forced finite differencing.  ``center_height``
    and ``radius`` of shape (K,) make a batch of K spheres, evaluated on
    (K, n_u, n_v) grids.
    """
    height, radius = _batch_param(center_height), _batch_param(radius)
    p0 = np.stack(np.broadcast_arrays(0.0, 0.0, height), axis=-1)
    u_range = (polar_margin, np.pi - polar_margin)
    v_range = (0.0, 2.0 * np.pi)

    def directions(U, V):
        U, V = np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float))
        su, cu, sv, cv = np.sin(U), np.cos(U), np.sin(V), np.cos(V)
        zero = np.zeros_like(U)
        return (np.stack([su * cv, su * sv, cu], axis=-1),
                np.stack([cu * cv, cu * sv, -su], axis=-1),
                np.stack([-su * sv, su * cv, zero], axis=-1))

    def chart(U, V):
        d, _, _ = directions(U, V)
        return _rk4_flow(space, p0, radius[..., None] * d, n_steps)[..., :3]

    def jet(U, V):
        d, d_u, d_v = directions(U, V)
        v0 = radius[..., None] * (d + 1j * _JACOBI_STEP * np.stack([d_u, d_v]))
        y = _rk4_flow(space, p0, v0, n_steps)
        dy = y.imag / _JACOBI_STEP
        return {"X": y[0, ..., :3].real, "Xu": dy[0, ..., :3], "Xv": dy[1, ..., :3],
                "normal": y[0, ..., 3:].real, "normal_u": dy[0, ..., 3:],
                "normal_v": dy[1, ..., 3:]}

    return SurfacePatch(space, name or "geodesic-sphere", u_range, v_range,
                        jet, chart=chart)


_TRIAL_FAMILIES = {
    "graph": {
        "bounds": [(-1.0, 1.0)] + [(-2.0, 2.0)] * 5,
        "first_start": np.zeros(6),
        "options": {"xatol": 1e-6, "fatol": 1e-10},
    },
    "sphere": {
        "bounds": [(-0.5, 0.5), (0.5, 2.2)],
        "first_start": np.array([0.0, 1.0]),
        # at search fidelity the sphere objective carries the truncation
        # error of 12 RK4 steps (4e-7 on the unit sphere of the umbilic
        # control m3(1, 1/2)), which tighter tolerances would only chase
        "options": {"xatol": 1e-4, "fatol": 1e-9},
    },
}
_SPHERE_SEARCH_STEPS = 12
_SPHERE_MAXFEV = 100
_SPHERE_REPORT_STEPS = 96


def trial_patch(space: ModelGeometry, family: str, params,
                high_fidelity=False) -> SurfacePatch:
    """The trial surface of ``family`` with parameters ``params``.

    ``params`` is one parameter vector, or a (K, n) batch of them for a
    batched patch.  Both families are surfaces of rotation about the z axis
    (a graph over the rho axis, a geodesic sphere centered on the axis).
    Rotations about that axis are isometries of every M^3(kappa, tau), so
    the umbilicity defect of a trial surface is constant along its parallels.
    """
    params = np.asarray(params, dtype=float)
    if family == "graph":
        return rotational_graph_patch(space, params)
    if family == "sphere":
        steps = _SPHERE_REPORT_STEPS if high_fidelity else _SPHERE_SEARCH_STEPS
        return geodesic_sphere_patch(space, center_height=params[..., 0],
                                     radius=params[..., 1], n_steps=steps)
    raise ValueError(f"unknown trial family {family!r}")


def trial_defects(space: ModelGeometry, family: str, P, grid=(24, 24),
                  high_fidelity=False) -> np.ndarray:
    """Max normalized umbilicity defect of each trial surface in a batch.

    ``P`` holds one parameter row per trial, shape (K, n).  The K patches go
    through one :func:`surface_fields` call on a (K, n_u, n_v) grid, and each
    row takes its max over its admissible points.  A row with no admissible
    point, or with a non-finite max, scores the penalty 1e3.
    """
    P = np.asarray(P, dtype=float)
    patch = trial_patch(space, family, P, high_fidelity=high_fidelity)
    U, V = patch.grid(*grid)
    shape = (len(P),) + U.shape
    with np.errstate(all="ignore"):
        rep = surface_fields(patch, np.broadcast_to(U, shape),
                             np.broadcast_to(V, shape))
        worst = np.max(np.where(rep.included, rep.defect, -np.inf), axis=(1, 2))
    return np.where(np.isfinite(worst), worst, 1e3)


def trial_defect(space: ModelGeometry, family: str, params, grid=(24, 24),
                 high_fidelity=False) -> float:
    """Max normalized umbilicity defect of one trial surface.

    The one-row case of :func:`trial_defects`.
    """
    P = np.asarray(params, dtype=float)[None]
    return float(trial_defects(space, family, P, grid=grid,
                               high_fidelity=high_fidelity)[0])


def _nelder_mead(x0, bounds, maxfev, xatol, fatol):
    """Bounded Nelder-Mead as a coroutine, step for step as scipy runs it.

    This is scipy's Nelder-Mead with ``bounds`` and the options ``maxfev``,
    ``xatol`` and ``fatol``, with every objective call turned into a yield:
    the generator yields each (m, n) array of points it needs (m = 1 per
    step, the n + 1 initial vertices, or the n vertices of a shrink) and is
    sent their m values.  As in scipy, a request at the evaluation cap ends
    the run, and the pending vertex of that iteration is dropped.  Returns
    ``(x, fun, nfev, success)``.
    """
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    lb = np.array([float(lo) for lo, _ in bounds])
    ub = np.array([float(hi) for _, hi in bounds])
    x0 = np.clip(np.asarray(x0, dtype=float), lb, ub)
    N = len(x0)
    # step each coordinate by 5% (from zero by 0.00025), reflect vertices
    # beyond the upper bound into the interior, then clip
    sim = np.tile(x0, (N + 1, 1))
    sim[1:][np.diag_indices(N)] = np.where(x0 != 0, (1 + 0.05) * x0, 0.00025)
    sim = np.clip(np.where(sim > ub, 2 * ub - sim, sim), lb, ub)
    nfev = 0

    def evaluate(points):
        # the values of the leading points that fit under the cap
        nonlocal nfev
        m = min(len(points), maxfev - nfev)
        nfev += m
        if m == 0:
            return np.empty(0)
        return (yield points[:m])

    def iterate():
        # one Nelder-Mead iteration on the sorted simplex, in place
        xbar = np.add.reduce(sim[:-1], 0) / N
        xr = np.clip((1 + rho) * xbar - rho * sim[-1], lb, ub)
        fxr = (yield from evaluate(xr[None]))[0]
        if fxr < fsim[0]:
            xe = np.clip((1 + rho * chi) * xbar - rho * chi * sim[-1], lb, ub)
            fxe = yield from evaluate(xe[None])
            if len(fxe):
                if fxe[0] < fxr:
                    sim[-1], fsim[-1] = xe, fxe[0]
                else:
                    sim[-1], fsim[-1] = xr, fxr
            return
        if fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
            return
        if fxr < fsim[-1]:
            xc = np.clip((1 + psi * rho) * xbar - psi * rho * sim[-1], lb, ub)
            fxc = yield from evaluate(xc[None])
            if not len(fxc):
                return
            if fxc[0] <= fxr:
                sim[-1], fsim[-1] = xc, fxc[0]
                return
        else:
            xcc = np.clip((1 - psi) * xbar + psi * sim[-1], lb, ub)
            fxcc = yield from evaluate(xcc[None])
            if not len(fxcc):
                return
            if fxcc[0] < fsim[-1]:
                sim[-1], fsim[-1] = xcc, fxcc[0]
                return
        # shrink toward the best vertex; scipy moves each vertex before its
        # call, so the vertex whose call hits the cap moves but keeps its value
        shrunk = np.clip(sim[0] + sigma * (sim[1:] - sim[0]), lb, ub)
        f = yield from evaluate(shrunk)
        m = len(f)
        sim[1:m + 2] = shrunk[:m + 1]
        fsim[1:m + 1] = f

    fsim = np.full(N + 1, np.inf)
    f = yield from evaluate(sim)
    fsim[:len(f)] = f
    # scipy sorts the initial simplex twice
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while nfev < maxfev:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
            break
        yield from iterate()
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return sim[0].copy(), float(np.min(fsim)), nfev, nfev < maxfev


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


_MIN_EVALS_PER_RESTART = 8


def nonexistence_falsifier(kappa, tau, family="auto", n_starts=8, budget=4000,
                           seed=0, grid=(24, 24)) -> dict:
    """Search the trial families for an umbilic surface in M^3(kappa, tau).

    Runs derivative-free minimization of the max-defect objective from
    ``n_starts`` seeds per family and merges results by minimum.  The floor
    found is numerical evidence only: a large floor supports nonexistence, a
    tiny one demonstrates an umbilic surface the search can exhibit.

    The restarts of a family run in lockstep: each round evaluates every
    pending Nelder-Mead point in one batched :func:`trial_defects` call.
    Rotations about the z axis are isometries of M^3(kappa, tau) that map
    each trial surface to itself, so the defect is constant along parallels
    and every trial, searched or rescored, is evaluated on one meridian of
    ``grid[0]`` points.  Sphere jets come from exact Jacobi fields of the
    discrete flow, with no differencing noise to vary along parallels.

    The sphere radius is bounded below (0.5) because small geodesic spheres
    are asymptotically umbilic in any space, so letting the radius shrink
    would drive the defect to zero without exhibiting an actual umbilic
    surface.  ``budget`` is the evaluation budget of each trial family,
    split evenly across its restarts; it must allow at least 8 evaluations
    per restart.  ``partial`` is set when some restart stopped at its
    evaluation cap before meeting the convergence tolerances.
    """
    space = m3(float(kappa), float(tau))
    if family == "auto":
        plans = [("graph", n_starts), ("sphere", max(2, min(3, n_starts)))]
    elif family in _TRIAL_FAMILIES:
        plans = [(family, n_starts)]
    else:
        raise ValueError(f"unknown trial family {family!r}")
    if n_starts < 1:
        raise ValueError("starts must be at least 1")
    min_budget = _MIN_EVALS_PER_RESTART * max(starts for _, starts in plans)
    if budget < min_budget:
        raise ValueError(f"budget must be at least {min_budget} "
                         f"({_MIN_EVALS_PER_RESTART} evaluations per restart)")

    meridian = (grid[0], 1)
    results = []
    for fam, starts in plans:
        fam_spec = _TRIAL_FAMILIES[fam]
        bounds = fam_spec["bounds"]
        maxfev = budget // starts
        if fam == "sphere":
            maxfev = min(maxfev, _SPHERE_MAXFEV)
        runs = []
        for k in range(starts):
            if k == 0:
                x0 = fam_spec["first_start"].copy()
            else:
                fam_id = sorted(_TRIAL_FAMILIES).index(fam)
                rng = np.random.default_rng(
                    np.random.SeedSequence(entropy=seed, spawn_key=(fam_id, k)))
                x0 = np.array([rng.uniform(lo, hi) for lo, hi in bounds])
            runs.append(_nelder_mead(x0, bounds, maxfev, **fam_spec["options"]))
        objective = partial(trial_defects, space, fam, grid=meridian)
        for x, fun, nfev, success in _lockstep(objective, runs):
            results.append((fam, fun, x, nfev, success))

    by_family = {}
    n_evals = 0
    all_converged = True
    for fam, fun, x, nfev, success in results:
        n_evals += nfev
        all_converged &= success
        if fam not in by_family or fun < by_family[fam][0]:
            by_family[fam] = (fun, x)

    # the sphere search objective carries 12-step RK4 truncation error;
    # re-score its best candidate at high step count before comparing families
    floors = {}
    for fam, (raw, x) in by_family.items():
        if fam == "sphere":
            floors[fam] = trial_defect(space, fam, x, grid=meridian,
                                       high_fidelity=True)
        else:
            floors[fam] = raw
    best_family = min(floors, key=floors.get)
    best_x = by_family[best_family][1]
    return {
        "kappa": float(kappa),
        "tau": float(tau),
        "min_defect_found": float(floors[best_family]),
        "best_params": {"family": best_family, "values": [float(v) for v in best_x]},
        "floors_by_family": {f: float(v) for f, v in floors.items()},
        "n_starts": {f: s for f, s in plans},
        "n_evals": n_evals,
        "partial": not all_converged,
        "seed": int(seed),
    }


# ---------------------------------------------------------------------------
# named suites


SUITE_NAMES = ("product-identities", "sol-identities", "killing-grid",
               "daniel-grid")

_PRODUCT_SUITE_CASES = [
    ("S2xR_a_lt_1", 0.6), ("S2xR_a_eq_1", None), ("S2xR_a_gt_1", 1.5),
    ("H2xR_elliptic", 0.8), ("H2xR_parabolic", None), ("H2xR_hyperbolic", 0.5),
]


def run_suite(name: str, grid=(16, 16), seed=0) -> dict:
    """Run a named batch of identity checks and return a JSON-able report."""
    from .families import build_family

    checks = []
    if name == "product-identities":
        for fam, param in _PRODUCT_SUITE_CASES:
            _, patch = build_family(fam, param)
            sp = patch.space
            checks.append((sp, check_daniel_formula(sp, patch, grid)))
            checks.append((sp, check_curvature_commutator(sp, patch, grid)))
            checks.append((sp, check_gradient_identity(sp, patch, grid)))
            checks.extend((sp, c) for c in check_bracket_and_jtnu(sp, patch, grid))
        for sp in (s2xr(), h2xr()):
            checks.append((sp, check_killing(sp, grid, seed=seed)))
    elif name == "killing-grid":
        for kappa in (-1.0, 0.0, 1.0):
            for tau in (0.5, 1.0):
                sp = m3(kappa, tau)
                checks.append((sp, check_killing(sp, grid, seed=seed)))
    elif name == "daniel-grid":
        for kappa in (-1.0, 0.0, 1.0):
            for tau in (0.0, 0.5, 1.0):
                if abs(kappa - 4.0 * tau * tau) < 1e-12:
                    continue
                sp = m3(kappa, tau)
                patch = geodesic_sphere_patch(sp, 0.1, 0.9, n_steps=40)
                checks.append((sp, check_daniel_formula(sp, patch, grid)))
    elif name == "sol-identities":
        sp = sol()
        _, fa = build_family("Sol_Fa", 1.0)
        _, plane = build_family("Sol_geodesic_plane")
        for patch in (fa, plane):
            checks.extend((sp, c) for c in check_sol_identities(patch, grid, seed=seed))
            checks.append((sp, check_gradient_identity(sp, patch, grid)))
    else:
        raise ValueError(f"unknown suite {name!r}; known: {list(SUITE_NAMES)}")

    reports = [c.as_report(sp) for sp, c in checks]
    return {
        "suite": name,
        "grid": list(grid),
        "seed": int(seed),
        "n_checks": len(reports),
        "max_residual": max(r["max_residual"] for r in reports),
        "checks": reports,
    }
