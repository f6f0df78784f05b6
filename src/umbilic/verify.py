"""Numeric verification of the structural identities behind the classification.

Every identity the umbilicity analysis rests on is checked here by finite
differences against the closed-form geometry: the Killing property of the
vertical field, the curvature commutator on an umbilic patch, the fibration
curvature formula, the gradient law for the common principal curvature, the
bracket [T, JT], and the Sol frame relations.  A least-squares search
(`nonexistence_falsifier`, bounded Levenberg-Marquardt on the trace-free
shape operator) then looks for umbilic surfaces in the fibration chart and
reports the smallest defect it can reach, which stays bounded away from
zero exactly when no umbilic surface exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (
    ModelGeometry,
    _m3_axis_geodesic,
    connection,
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
    nabla = connection(space, p)(X, xi)
    resid = norm(space, p, nabla - space.tau * cross(space, p, X, xi))
    return IdentityCheck("killing", (n_u, n_v), _stats(resid))


def check_sol_identities(patch: SurfacePatch, grid=(16, 16), fd_step=None,
                         seed=0) -> list:
    """Frame table, curvature formula, and the [T,JT](lambda) law on Sol."""
    if patch.space.kind != "sol":
        raise ValueError("these identities live in the Sol group")
    return _sol_identities(_Stencil(patch, grid, fd_step), seed)


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


# ---------------------------------------------------------------------------
# surface-level identities


def _steps(patch, fd_step):
    if fd_step is not None:
        return float(fd_step), float(fd_step)
    return (1e-5 * (patch.u_range[1] - patch.u_range[0]),
            1e-5 * (patch.v_range[1] - patch.v_range[0]))


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

    def __init__(self, patch: SurfacePatch, grid, fd_step=None):
        self.patch = patch
        self.grid = n_u, n_v = _require_grid(grid)
        self.f = surface_fields(patch, *patch.grid(n_u, n_v))
        self.hu, self.hv = _steps(patch, fd_step)

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
    return _curvature_commutator(_Stencil(patch, grid, fd_step))


def _curvature_commutator(st):
    f = st.f
    _require_umbilic(st.patch, f)
    lam_u, lam_v = st.partials("umbilicity_factor")
    rhs = lam_u[..., None] * f.Xv - lam_v[..., None] * f.Xu
    resid = norm(st.patch.space, f.X, st.curvature - rhs)
    return IdentityCheck("curvature_commutator", st.grid,
                         _stats(resid, f.included),
                         skipped_points=int(np.sum(~f.included)))


def check_daniel_formula(space: ModelGeometry, patch: SurfacePatch,
                         grid=(16, 16)) -> IdentityCheck:
    """Fibration curvature formula R(X_u,X_v)N = (k-4t^2) nu (<X_v,T>X_u - <X_u,T>X_v)."""
    _check_space(space, patch)
    if not space.has_vertical_field:
        raise ValueError("the formula needs a fibration or product space")
    return _daniel_formula(_Stencil(patch, grid))


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


def check_gradient_identity(space: ModelGeometry, patch: SurfacePatch,
                            grid=(16, 16), fd_step=None) -> IdentityCheck:
    """Gradient law of the common principal curvature on an umbilic patch.

    In the package's orientation conventions the law reads
    grad lambda = -(kappa - 4 tau^2) nu T on products and fibrations and
    grad lambda = -2 nu T on Sol; lambda is (lambda1 + lambda2)/2 and its
    surface gradient is taken in the dual basis of (X_u, X_v) under I.
    """
    _check_space(space, patch)
    return _gradient_identity(_Stencil(patch, grid, fd_step))


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


def check_bracket_and_jtnu(space: ModelGeometry, patch: SurfacePatch,
                           grid=(16, 16), fd_step=None) -> tuple:
    """[T, JT] = 0 and JT.(nu) = -tau |T|^2 on an umbilic product patch."""
    _check_space(space, patch)
    if space.kind not in ("s2xr", "h2xr"):
        raise ValueError("the bracket law is checked on product spaces")
    return _bracket_and_jtnu(_Stencil(patch, grid, fd_step))


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
            "X": (U * cv, U * sv, _polyval(coeffs, w)),
            "Xu": (cv, sv, fp),
            "Xv": (-U * sv, U * cv, zero),
            "Xuu": (zero, zero, fpp),
            "Xuv": (-sv, cv, zero),
            "Xvv": (-U * cv, -U * sv, zero),
        }

    return SurfacePatch(space, name or "rotational-graph", tuple(rho_window),
                        (0.0, 2.0 * np.pi), jet)


def default_rho_window(space: ModelGeometry):
    hi = 1.2
    if space.kind == "m3" and space.kappa < 0:
        hi = min(hi, 0.6 * 2.0 / np.sqrt(-space.kappa))
    return (0.15, hi)


# complex step of the Jacobi-field jets: its O(step^2) error is far below
# rounding, and products of a few steps stay clear of subnormal numbers
_JACOBI_STEP = 1e-30


def geodesic_sphere_patch(space: ModelGeometry, center_height=0.0, radius=1.0,
                          polar_margin=0.35, name=None) -> SurfacePatch:
    """Geodesic sphere of M^3(kappa, tau) about the axis point (0, 0, center_height).

    (u, v) are the polar and azimuthal angles of the initial velocity.  The
    jet evaluates the closed-form m3 geodesics and their two Jacobi fields,
    the u and v variations of the initial velocity, as one complex-step
    batch, so X, X_u and X_v are exact.  By the Gauss lemma the end velocity
    gamma'(1) is normal to the sphere; with its u and v variations it gives
    the second fundamental form by the Weingarten equation.  ``chart`` is
    the real end point, for forced finite differencing.  ``center_height``
    and ``radius`` of shape (K,) make a batch of K spheres on (K, n_u, n_v)
    grids.  A space of another kind than m3 raises ValueError.
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


# z-translations are isometries of every m3 chart, so a sphere's defect
# depends on its radius alone and the trial spheres are centred at height 0
_TRIAL_FAMILIES = {
    "graph": {"bounds": [(-1.0, 1.0)] + [(-2.0, 2.0)] * 5, "first_start": np.zeros(6)},
    "sphere": {"bounds": [(0.5, 2.2)], "first_start": np.array([1.0])},
}


def trial_patch(space: ModelGeometry, family: str, params) -> SurfacePatch:
    """The trial surface of ``family`` with parameters ``params``.

    ``params`` is one parameter vector, or a (K, n) batch of them: the six
    coefficients of a graph in rho^2, or the radius of a geodesic sphere
    about the origin.  Both are surfaces of rotation about the z axis, an
    isometry of every M^3(kappa, tau), so their defect is constant along
    parallels.
    """
    params = np.asarray(params, dtype=float)
    if family == "graph":
        return rotational_graph_patch(space, params)
    if family == "sphere":
        return geodesic_sphere_patch(space, 0.0, params[..., 0])
    raise ValueError(f"unknown trial family {family!r}")


def _trial_fields(space, family, P, grid):
    """Max normalized defect and trace-free residual of each trial in a batch.

    The K trials of the (K, n) parameters ``P`` go through one
    :func:`surface_fields` call on a (K, n_u, n_v) grid.  Row k of the
    residual holds (s0_11, s0_12) at the admissible grid points of trial k
    and 0 elsewhere.  A trial with no admissible point, or with a non-finite
    max, scores the penalty 1e3 and an infinite residual.
    """
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


def trial_defects(space: ModelGeometry, family: str, P, grid=(24, 24)) -> np.ndarray:
    """Max normalized umbilicity defect of each trial surface in a batch.

    ``P`` holds one parameter row per trial, shape (K, n); each row takes its
    max over its admissible points, or the penalty 1e3 (see _trial_fields).
    """
    return _trial_fields(space, family, P, grid)[0]


def trial_defect(space: ModelGeometry, family: str, params, grid=(24, 24)) -> float:
    """Max normalized umbilicity defect of one trial surface (a trial_defects row)."""
    P = np.asarray(params, dtype=float)[None]
    return float(trial_defects(space, family, P, grid=grid)[0])


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


_MIN_EVALS_PER_RESTART = 8


def nonexistence_falsifier(kappa, tau, family="auto", n_starts=8, budget=4000,
                           seed=0, grid=(24, 24)) -> dict:
    """Search the trial families for an umbilic surface in M^3(kappa, tau).

    Runs a bounded Levenberg-Marquardt search from ``n_starts`` seeds per
    family on the trace-free shape operator (s0_11, s0_12) of each trial,
    which vanishes exactly on an umbilic surface, and reports the max
    normalized defect at the best point found.  A large floor is numerical
    evidence for nonexistence; a tiny one exhibits an umbilic surface.

    The restarts of a family run in lockstep: each round is one iteration of
    every restart, its trial point and difference neighbours evaluated in
    one batched :func:`surface_fields` call.  Rotations about the z axis are
    isometries that map each trial to itself, so every trial is evaluated on
    one meridian, ``grid`` in the result, ``[grid[0], 1]``.

    The sphere radius is bounded below (0.5): small geodesic spheres are
    asymptotically umbilic in any space.  ``best_on_bound`` lists the
    coordinates of the best point that lie on a bound.  ``budget`` caps the
    evaluations of each family, split evenly across its restarts, at least
    8 per restart.  ``partial`` is set when some restart stopped at its cap
    before its step, gradient or cost-reduction test passed.
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
    floors, best_x, n_evals, all_converged = {}, {}, 0, True
    for fam, starts in plans:
        spec, fam_id = _TRIAL_FAMILIES[fam], sorted(_TRIAL_FAMILIES).index(fam)
        x0s = [spec["first_start"]] + [
            np.array([rng.uniform(lo, hi) for lo, hi in spec["bounds"]])
            for rng in (np.random.default_rng(np.random.SeedSequence(
                entropy=seed, spawn_key=(fam_id, k))) for k in range(1, starts))]
        runs = [_levenberg_marquardt(x0, spec["bounds"], budget // starts)
                for x0 in x0s]
        seen = []  # the parameters and defects of every round

        def objective(P, fam=fam):
            worst, resid = _trial_fields(space, fam, P, meridian)
            seen.append((P, worst))
            return resid

        results = _lockstep(objective, runs)
        P, worst = (np.concatenate(a) for a in zip(*seen))
        for x, _, nfev, status in results:
            n_evals += nfev
            all_converged &= status != "cap"
            fun = worst[np.all(P == x, axis=1)][0]
            if fam not in floors or fun < floors[fam]:
                floors[fam], best_x[fam] = fun, x

    best_family = min(floors, key=floors.get)
    x = best_x[best_family]
    lb, ub = np.array(_TRIAL_FAMILIES[best_family]["bounds"]).T
    return {
        "kappa": float(kappa),
        "tau": float(tau),
        "min_defect_found": float(floors[best_family]),
        "best_params": {"family": best_family,
                        "values": [float(v) for v in x]},
        "best_on_bound": np.flatnonzero((x <= lb) | (x >= ub)).tolist(),
        "floors_by_family": {f: float(v) for f, v in floors.items()},
        "n_starts": {f: s for f, s in plans},
        "n_evals": n_evals,
        "partial": not all_converged,
        "seed": int(seed),
        "grid": [int(n) for n in meridian],
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
    """Run a named batch of identity checks and return a JSON-able report.

    Every check on a patch reads one :class:`_Stencil`, so the patch's grid
    and its shifts are evaluated once per suite run.
    """
    from .families import build_family

    checks = []
    if name == "product-identities":
        for fam, param in _PRODUCT_SUITE_CASES:
            _, patch = build_family(fam, param)
            sp, st = patch.space, _Stencil(patch, grid)
            checks.extend((sp, c) for c in (
                _daniel_formula(st), _curvature_commutator(st),
                _gradient_identity(st), *_bracket_and_jtnu(st)))
            del st  # freed before the next patch is built
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
                patch = geodesic_sphere_patch(sp, 0.1, 0.9)
                checks.append((sp, check_daniel_formula(sp, patch, grid)))
    elif name == "sol-identities":
        sp = sol()
        _, fa = build_family("Sol_Fa", 1.0)
        _, plane = build_family("Sol_geodesic_plane")
        for patch in (fa, plane):
            st = _Stencil(patch, grid)
            checks.extend((sp, c) for c in (*_sol_identities(st, seed),
                                            _gradient_identity(st)))
            del st  # freed before the next patch is built
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
