"""Numeric verification of the structural identities behind the classification.

Every identity the umbilicity analysis rests on is checked here by finite
differences against the closed-form geometry: the Killing property of the
vertical field, the curvature commutator on an umbilic patch, the fibration
curvature formula, the gradient law for the common principal curvature, the
bracket [T, JT], and the Sol frame relations.  The checks contract component
triples (x, y, z) against the sparse geometry kernels.  A least-squares search
(`nonexistence_falsifier`, bounded Levenberg-Marquardt on the trace-free
shape operator) then looks for umbilic surfaces in the fibration chart and
reports the smallest defect it can reach, which stays bounded away from
zero exactly when no umbilic surface exists.  Its restarts keep their state
in arrays and advance together, one stacked solve and one batched
evaluation per round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (
    ModelGeometry,
    _check_domain,
    _connection,
    _cross,
    _curvature,
    _Dual,
    _dot,
    _lowering,
    _m3_axis_geodesic,
    h2xr,
    m3,
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
# the stencil's centred-difference steps, as a fraction of the u and v ranges
STENCIL_STEP = 1e-5


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
    P = tuple(sample_points(space, n, seed=seed).T)
    xi = tuple(np.full(n, c) for c in vertical_field(space))
    X = tuple(np.random.default_rng(seed + 1).normal(size=(n, 3)).T)
    lower = _lowering(space, _check_domain(space, P))
    size = np.sqrt(_dot(X, lower(X)))
    X = tuple(c / size for c in X)
    W = [a - space.tau * b for a, b in zip(_connection(space, P)(X, xi), _cross(space, P, X, xi))]
    return IdentityCheck("killing", (n_u, n_v), _stats(np.sqrt(_dot(W, lower(W)))))


def check_sol_identities(patch: SurfacePatch, grid=(16, 16), seed=0) -> list:
    """Frame table, curvature formula, and the [T,JT](lambda) law on Sol."""
    if patch.space.kind != "sol":
        raise ValueError("these identities live in the Sol group")
    return _sol_identities(_Stencil(patch, grid), seed)


def _sol_identities(st, seed):
    f = st.f
    _require_umbilic(st.patch, f)
    space, grid = st.space, st.grid
    z = st.X[2]
    zero, one, em, ep = np.zeros_like(z), np.ones_like(z), np.exp(-z), np.exp(z)

    # orthonormal frame E1 = e^{-z} dx, E2 = e^{z} dy, E3 = dz, its
    # z-derivatives dE (the only ones) and its closed covariant-derivative table
    E = (em, zero, zero), (zero, ep, zero), (zero, zero, one)
    dE = (-em, zero, zero), (zero, ep, zero), (zero, zero, zero)
    table = {(0, 0): tuple(-c for c in E[2]), (0, 2): E[0], (1, 1): E[2],
             (1, 2): tuple(-c for c in E[1])}
    frame_resid = []
    for i in range(3):
        for j in range(3):
            # nabla_{E_i} E_j; frame fields depend on z only
            want = table.get((i, j), (0.0,) * 3)
            frame_resid.append(st.norm([E[i][2] * d + g - w for d, g, w in zip(
                dE[j], st.gamma(E[i], E[j]), want)]))
    frame = IdentityCheck("sol_frame_table", grid,
                          _stats(np.max(np.stack(frame_resid), axis=0)))

    # curvature tensor against its closed quadratic form in <., dz>
    rng = np.random.default_rng(seed)
    n = grid[0] * grid[1]
    P = tuple(sample_points(space, n, seed=seed).T)
    W = [tuple(w.T) for w in rng.normal(size=(4, n, 3))]
    lower = _lowering(space, P)
    gW = [lower(w) for w in W]
    ip = {}
    for a in range(4):
        for b in range(a, 4):
            ip[a, b] = ip[b, a] = _dot(W[a], gW[b])
    ge3 = lower((np.zeros(n), np.zeros(n), np.ones(n)))
    zc = [_dot(W[a], ge3) for a in range(4)]
    lhs = _dot(_curvature(space, P, W[0], W[1], W[2]), gW[3])
    rhs = (ip[0, 2] * ip[1, 3] - ip[0, 3] * ip[1, 2]) + 2.0 * (
        ip[0, 3] * zc[1] * zc[2] + ip[1, 2] * zc[0] * zc[3]
        - ip[0, 2] * zc[1] * zc[3] - ip[1, 3] * zc[0] * zc[2])
    scale = 1.0 + np.abs(lhs)
    curved = IdentityCheck("sol_curvature_formula", grid, _stats(np.abs(lhs - rhs) / scale))

    # [T, JT](lambda) = 8 alpha beta with (alpha, beta) the horizontal frame
    # components of T
    lam_u, lam_v = st.partials("umbilicity_factor")
    b1, b2 = st.tangent(_bracket(st))
    lie = b1 * lam_u + b2 * lam_v
    alpha = _dot(st.T, st.lower(E[0]))
    beta = _dot(st.T, st.lower(E[1]))
    resid = np.abs(lie - 8.0 * alpha * beta)
    lie_check = IdentityCheck(
        "lie_lambda", grid, _stats(resid, st.ok),
        skipped_points=int(np.sum(~st.ok)),
        extras={"alpha_max": float(np.max(np.abs(alpha[f.included]))),
                "beta_max": float(np.max(np.abs(beta[f.included])))},
    )
    return [frame, curved, lie_check]


# ---------------------------------------------------------------------------
# surface-level identities


class _Stencil:
    """Surface fields of a patch on a grid, and at its four shifts U +- hu, V +- hv.

    hu and hv are ``STENCIL_STEP`` times the u and v ranges.

    The center report ``f`` is evaluated here, with the component triples
    X, Xu, Xv, N (T and JT on first use) the checks contract, one lowering
    ``lower`` and one connection ``gamma`` at X, and the lowered X_u, X_v.
    The four shifts are evaluated on first use of :meth:`partials` or
    :attr:`ok`, in one :func:`surface_fields` call on a stacked
    (4, n_u, n_v) grid, of which only the fields the checks difference are
    kept.  The curvature term R(X_u, X_v)N is likewise computed once, on
    first use.  ``run_suite`` builds one stencil per patch and hands it to
    every check on that patch.
    """

    SHIFTED_FIELDS = ("umbilicity_factor", "nu", "T", "JT", "included")

    def __init__(self, patch: SurfacePatch, grid):
        self.patch, self.space = patch, patch.space
        self.grid = n_u, n_v = _require_grid(grid)
        self.f = surface_fields(patch, *patch.grid(n_u, n_v))
        self.hu = STENCIL_STEP * (patch.u_range[1] - patch.u_range[0])
        self.hv = STENCIL_STEP * (patch.v_range[1] - patch.v_range[0])
        self.X, self.Xu, self.Xv, self.N = (self.f._triple(k) for k in ("X", "Xu", "Xv", "N"))
        self.lower = _lowering(self.space, self.X)
        self.gamma = _connection(self.space, self.X)
        self.gXu, self.gXv = self.lower(self.Xu), self.lower(self.Xv)

    T = cached_property(lambda self: self.f._triple("T"))
    JT = cached_property(lambda self: self.f._triple("JT"))
    gT = cached_property(lambda self: self.lower(self.T))

    @cached_property
    def _shifted(self):
        # the fields at U + hu, U - hu, V + hv, V - hv, stacked on axis 0
        U, V, hu, hv = self.f.U, self.f.V, self.hu, self.hv
        rep = surface_fields(self.patch, np.stack([U + hu, U - hu, U, U]),
                             np.stack([V, V, V + hv, V - hv]))
        return {name: rep._triple(name) if name in ("T", "JT") else getattr(rep, name)
                for name in self.SHIFTED_FIELDS}

    @cached_property
    def ok(self):
        """Admissible at the center and at every shift."""
        inc = self._shifted["included"]
        return inc[0] & inc[1] & inc[2] & inc[3] & self.f.included

    @cached_property
    def curvature(self):
        """R(X_u, X_v)N at the center."""
        return _curvature(self.space, self.X, self.Xu, self.Xv, self.N)

    def partials(self, name):
        """Centered differences of the field ``name`` along u and along v
        (a pair of component triples for T and JT)."""
        s, hu, hv = self._shifted[name], 2.0 * self.hu, 2.0 * self.hv
        if isinstance(s, tuple):
            return (tuple((c[0] - c[1]) / hu for c in s), tuple((c[2] - c[3]) / hv for c in s))
        return (s[0] - s[1]) / hu, (s[2] - s[3]) / hv

    def norm(self, W):
        """|W| at the center."""
        return np.sqrt(_dot(W, self.lower(W)))

    def tangent(self, W):
        """Coefficients of a tangent vector in the (X_u, X_v) basis."""
        return _solve_first_form(*self.f._forms[:3], _dot(W, self.gXu), _dot(W, self.gXv))


def _solve_first_form(E, F, G, b0, b1):
    """(x0, x1) with [[E, F], [F, G]] x = b at every grid point, by Cramer's rule."""
    det = E * G - F * F
    return (G * b0 - F * b1) / det, (E * b1 - F * b0) / det


def _covariant_along(st, W, name):
    """nabla_W of the vector field ``name`` along the surface at grid points."""
    w1, w2 = st.tangent(W)
    Au, Av = st.partials(name)
    return tuple(w1 * au + w2 * av + g for au, av, g in zip(
        Au, Av, st.gamma(W, getattr(st, name))))


def _bracket(st):
    """[T, JT] = nabla_T JT - nabla_JT T by finite differences."""
    return tuple(a - b for a, b in zip(_covariant_along(st, st.T, "JT"),
                                       _covariant_along(st, st.JT, "T")))


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
                               grid=(16, 16)) -> IdentityCheck:
    """R(X_u, X_v)N = lambda_u X_v - lambda_v X_u on an umbilic patch.

    The right-hand side is stated in the package's sign conventions
    (curvature tensor from :func:`umbilic.geometry.curvature_tensor`, second
    form II(X, Y) = <nabla_X Y, N>); both sides flip together under a normal
    flip, so the residual is orientation-independent.
    """
    _check_space(space, patch)
    return _curvature_commutator(_Stencil(patch, grid))


def _curvature_commutator(st):
    f = st.f
    _require_umbilic(st.patch, f)
    lam_u, lam_v = st.partials("umbilicity_factor")
    resid = st.norm([r - (lam_u * xv - lam_v * xu)
                     for r, xu, xv in zip(st.curvature, st.Xu, st.Xv)])
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
    f = st.f
    if not np.any(f.included):
        raise ImmersionError(f"patch {st.patch.name!r} is degenerate on the grid")
    c_nu = st.space.bundle_discriminant * f.nu
    a, b = _dot(st.Xv, st.gT), _dot(st.Xu, st.gT)
    resid = st.norm([r - c_nu * (a * xu - b * xv)
                     for r, xu, xv in zip(st.curvature, st.Xu, st.Xv)])
    return IdentityCheck("daniel_formula", st.grid,
                         _stats(resid, f.included),
                         skipped_points=int(np.sum(~f.included)))


def check_gradient_identity(space: ModelGeometry, patch: SurfacePatch,
                            grid=(16, 16)) -> IdentityCheck:
    """Gradient law of the common principal curvature on an umbilic patch.

    In the package's orientation conventions the law reads
    grad lambda = -(kappa - 4 tau^2) nu T on products and fibrations and
    grad lambda = -2 nu T on Sol; lambda is (lambda1 + lambda2)/2 and its
    surface gradient is taken in the dual basis of (X_u, X_v) under I.
    """
    _check_space(space, patch)
    return _gradient_identity(_Stencil(patch, grid))


def _gradient_identity(st):
    f, space = st.f, st.space
    _require_umbilic(st.patch, f)
    lam_u, lam_v = st.partials("umbilicity_factor")
    a, b = _solve_first_form(*f._forms[:3], lam_u, lam_v)
    c_nu = (2.0 if space.kind == "sol" else space.bundle_discriminant) * f.nu
    resid = st.norm([a * xu + b * xv + c_nu * t for xu, xv, t in zip(st.Xu, st.Xv, st.T)])
    name = "gradient_sol" if space.kind == "sol" else "gradient_product"
    return IdentityCheck(name, st.grid, _stats(resid, f.included),
                         skipped_points=int(np.sum(~f.included)))


def check_bracket_and_jtnu(space: ModelGeometry, patch: SurfacePatch,
                           grid=(16, 16)) -> tuple:
    """[T, JT] = 0 and JT.(nu) = -tau |T|^2 on an umbilic product patch."""
    _check_space(space, patch)
    if space.kind not in ("s2xr", "h2xr"):
        raise ValueError("the bracket law is checked on product spaces")
    return _bracket_and_jtnu(_Stencil(patch, grid))


def _bracket_and_jtnu(st):
    _require_umbilic(st.patch, st.f)
    T_norm2 = _dot(st.T, st.gT)
    active = st.ok & (np.sqrt(np.maximum(T_norm2, 0.0)) >= T_FLOOR)
    skipped = int(np.sum(~active))
    bracket_check = IdentityCheck(
        "bracket_TJT", st.grid,
        _stats(st.norm(_bracket(st)), active), skipped_points=skipped)

    nu_u, nu_v = st.partials("nu")
    jt1, jt2 = st.tangent(st.JT)
    jt_nu = jt1 * nu_u + jt2 * nu_v
    resid = np.abs(jt_nu + st.space.tau * T_norm2)
    jtnu_check = IdentityCheck("jt_nu", st.grid, _stats(resid, active),
                               skipped_points=skipped)
    return bracket_check, jtnu_check


# ---------------------------------------------------------------------------
# trial surfaces for the falsification search


def _batch_param(a):
    """A trial parameter: a scalar, or a (K,) batch shaped (K, 1, 1).

    The batch shape broadcasts against the (n_u, n_v) or (1, n_u, n_v) grid
    the K trials share, and against a sphere jet's derivative arrays, which
    stack its u and v directions in front of them.
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


def rotational_graph_patch(space: ModelGeometry, coeffs, name=None) -> SurfacePatch:
    """Rotational graph t = f(rho), f an even polynomial with given coefficients.

    The jet is analytic, so the defect objective is limited only by the
    curvature pipeline, not by chart differencing.  ``coeffs`` of shape
    (K, k) make a batch of K graphs on a grid they share: the x, y
    components and X_v, X_uv, X_vv keep the grid's shape.
    """
    coeffs = np.asarray(coeffs, dtype=float)
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

    return SurfacePatch(space, name or "rotational-graph", default_rho_window(space),
                        (0.0, 2.0 * np.pi), jet)


def default_rho_window(space: ModelGeometry):
    hi = 1.2
    if space.kind == "m3" and space.kappa < 0:
        hi = min(hi, 0.6 * 2.0 / np.sqrt(-space.kappa))
    return (0.15, hi)


def geodesic_sphere_patch(space: ModelGeometry, center_height=0.0, radius=1.0,
                          name=None) -> SurfacePatch:
    """Geodesic sphere of M^3(kappa, tau) about the axis point (0, 0, center_height).

    (u, v) are the polar and azimuthal angles of the initial velocity.  The
    jet evaluates the closed-form m3 geodesics in real forward mode: each
    quantity carries its u and v derivatives (:class:`umbilic.geometry._Dual`),
    so X, the two Jacobi fields X_u and X_v, the end velocity and its
    variations are exact to rounding.  By the Gauss lemma the end velocity
    gamma'(1) is normal to the sphere; with its u and v variations it gives
    the second fundamental form by the Weingarten equation.  ``chart`` is
    the same end point without derivatives.  u keeps 0.35 away from the
    poles.  ``center_height``, ``radius`` or both of shape (K,) make a batch
    of K spheres on a grid they share.  Another kind of space than m3 raises
    ValueError.
    """
    if space.kind != "m3":
        raise ValueError(f"geodesic spheres are built in the m3 chart, not {space.kind!r}")
    height, radius = np.broadcast_arrays(_batch_param(center_height), _batch_param(radius))
    u_range, v_range = (0.35, np.pi - 0.35), (0.0, 2.0 * np.pi)

    def directions(U, V):
        # the unit initial velocity and its u and v derivatives, as triples
        U, V = np.broadcast_arrays(np.asarray(U, float), np.asarray(V, float))
        su, cu, sv, cv = np.sin(U), np.cos(U), np.sin(V), np.cos(V)
        return ((su * cv, su * sv, cu), (cu * cv, cu * sv, -su),
                (-su * sv, su * cv, np.zeros_like(U)))

    def chart(U, V):
        d, _, _ = directions(U, V)
        end = _m3_axis_geodesic(space, height, tuple(radius * c for c in d))
        return np.stack(end[:3], axis=-1)

    def jet(U, V):
        v = tuple(_Dual(radius * c, np.stack([radius * c_u, radius * c_v]))
                  for c, c_u, c_v in zip(*directions(U, V)))
        end = _m3_axis_geodesic(space, height, v)
        X, n = end[:3], end[3:]
        return {"X": tuple(w.v for w in X), "Xu": tuple(w.d[0] for w in X),
                "Xv": tuple(w.d[1] for w in X), "normal": tuple(w.v for w in n),
                "normal_u": tuple(w.d[0] for w in n), "normal_v": tuple(w.d[1] for w in n)}

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


def _trial_grid(space, family, grid):
    """The (n_u, n_v) ``grid`` shared by a family's trials, as (1, n_u, n_v) U, V."""
    patch = trial_patch(space, family, _TRIAL_FAMILIES[family]["first_start"])
    return tuple(a[None] for a in patch.grid(*grid))


def _trial_fields(space, family, P, UV):
    """Max normalized defect and trace-free residual of each trial in a batch.

    The K trials of the (K, n) parameters ``P`` go through one
    :func:`surface_fields` call on the (1, n_u, n_v) grid ``UV`` they share,
    so a field that does not vary with the trial is evaluated once.  Row k
    of the residual holds (s0_11, s0_12) at the admissible grid points of
    trial k and 0 elsewhere.  A trial with no admissible point, or with a
    non-finite max, scores the penalty 1e3 and an infinite residual.
    """
    P = np.asarray(P, dtype=float)
    with np.errstate(all="ignore"):
        rep = surface_fields(trial_patch(space, family, P), *UV)
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
    return _trial_fields(space, family, P, _trial_grid(space, family, grid))[0]


def trial_defect(space: ModelGeometry, family: str, params, grid=(24, 24)) -> float:
    """Max normalized umbilicity defect of one trial surface (a trial_defects row)."""
    P = np.asarray(params, dtype=float)[None]
    return float(trial_defects(space, family, P, grid=grid)[0])


# stopping tolerances: relative cost reduction, step over |x|, free gradient
_FTOL, _XTOL, _GTOL = 1e-10, 1e-10, 1e-12


def _diag(v):
    """The diagonal matrix of each row of v, zero off the diagonal (np.diag)."""
    n = v.shape[-1]
    out = np.zeros(v.shape[:-1] + (n * n,))
    out[..., ::n + 1] = v
    return out.reshape(v.shape + (n,))


def _dots(a, b):
    """Dot products of the last axes of a and b, one BLAS dot each."""
    return (a[..., None, :] @ b[..., None])[..., 0, 0]


def _levenberg_marquardt(objective, x0s, bounds, maxfev):
    """Bounded Levenberg-Marquardt (More, LNM 630, 1978) from K starts at once.

    ``objective`` maps an (m, n) array of points to their (m,) scores and
    (m, k) residuals.  Every restart's state lives in (K, ...) arrays, and a
    round is one iteration of each pending restart: one stacked solve of
    their damped systems and one ``objective`` call on their rows, in
    restart order.  An iteration evaluates the trial point and its n
    forward-difference neighbours, whose Jacobian serves the next step if
    the trial lowers the cost |r|^2 / 2.  A step solves (J^T J + lam D) dx =
    -J^T r, D the running max of diag(J^T J), on the coordinates the
    gradient does not hold at a bound, and is clipped into the box.  A
    restart stops on the free gradient ("gradient"), the step ("step"), an
    accepted relative cost reduction ("reduction") or a start with a
    non-finite residual ("penalized").  ``maxfev`` >= n + 1 caps each
    restart's rows: the rows left under it go to trial steps at damping lam,
    4 lam, ... ("cap").  Every pending restart has spent the same rows, so
    they reach the cap in the same round.  Returns ``(x, cost, score, nfev,
    status)``, one row or entry per restart, with the objective's score at x.
    """
    lb, ub = (np.array(b, dtype=float) for b in zip(*bounds))
    x = np.clip(np.asarray(x0s, dtype=float), lb, ub)
    K, n = x.shape

    def probe(x):
        # score, residual, cost and transposed forward-difference Jacobian
        # at each row of x, from the row and its n neighbours
        h = 2.0 ** -26 * np.maximum(1.0, np.abs(x))  # sqrt(eps) max(1, |x|)
        pts = x[:, None].repeat(n + 1, 1)
        pts[:, 1:] += _diag(np.where(x + h > ub, -h, h))
        score, R = objective(pts.reshape(-1, n))
        R = R.reshape(len(x), n + 1, -1)
        cost = 0.5 * (R * R).sum(axis=2)
        Jt = (R[:, 1:] - R[:, :1]) / (pts[:, 1:].diagonal(0, 1, 2) - x)[..., None]
        Jt[~np.isfinite(cost[:, 1:])] = 0.0
        return score[::n + 1], R[:, 0].copy(), Jt, cost[:, 0]

    fx, r, Jt, cost = probe(x)
    spent = n + 1  # the rows each pending restart has evaluated
    out = [x.copy(), cost.copy(), fx.copy(), np.full(K, spent), np.empty(K, "U9")]
    lam, nu, D = np.full(K, 1e-3), np.full(K, 2.0), np.zeros((K, n))
    live = np.arange(K)  # the pending restarts, whose state the arrays hold

    def stop(mask, why, *more):
        # record the restarts in mask as stopped; the state of the others
        for field, v in zip(out, (x, cost, fx, spent, why)):
            field[live[mask]] = v[mask] if np.ndim(v) else v
        return [v[~mask] for v in (live, x, r, Jt, cost, fx, lam, nu, D, *more)]

    live, x, r, Jt, cost, fx, lam, nu, D = stop(~np.isfinite(cost), "penalized")
    while live.size:
        g = (Jt @ r[..., None])[..., 0]
        held = ((x <= lb) & (g > 0)) | ((x >= ub) & (g < 0))
        g[held] = 0.0
        flat = np.abs(g).max(axis=1) <= _GTOL
        if np.count_nonzero(flat):
            live, x, r, Jt, cost, fx, lam, nu, D, g, held = stop(
                flat, "gradient", g, held)
            if not live.size:
                break
        A = Jt @ Jt.transpose(0, 2, 1)
        D = np.maximum(D, A.diagonal(0, 1, 2))
        if np.count_nonzero(held):
            A[held] = 0.0
            A.transpose(0, 2, 1)[held] = 0.0
        left = maxfev - spent
        cap = left < n + 1
        # damping lam, or lam 4^k for each of the rows left under the cap
        damp = np.ldexp(lam[:, None], 2 * np.arange(left)) if cap else lam[:, None]
        scale = _diag(np.where(D > 0, D, 1.0))
        dx = np.linalg.solve(A[:, None] + damp[..., None, None] * scale[:, None],
                             g[:, None, :, None])[..., 0]
        trial = np.clip(x[:, None] - dx, lb, ub)
        if cap:
            if left:
                score, R = objective(trial.reshape(-1, n))
                costs = 0.5 * (R * R).sum(axis=1).reshape(-1, left)
                i, k = np.arange(len(costs)), costs.argmin(axis=1)
                better = costs[i, k] < cost
                x = np.where(better[:, None], trial[i, k], x)
                cost = np.where(better, costs[i, k], cost)
                fx = np.where(better, score.reshape(-1, left)[i, k], fx)
            spent += left
            stop(np.ones(live.size, bool), "cap")
            break
        x_new = trial[:, 0]
        s = x_new - x
        short = np.sqrt(_dots(s, s)) <= _XTOL * (_XTOL + np.sqrt(_dots(x, x)))
        if np.count_nonzero(short):
            live, x, r, Jt, cost, fx, lam, nu, D, g, x_new, s = stop(
                short, "step", g, x_new, s)
            if not live.size:
                break
        f_new, r_new, Jt_new, cost_new = probe(x_new)
        spent += n + 1
        actual = cost - cost_new
        up = actual > 0
        Js = (s[:, None] @ Jt)[:, 0]
        predicted = -_dots(g, s) - 0.5 * _dots(Js, Js)
        ratio = np.divide(actual, predicted, out=np.zeros(len(up)),
                          where=up & (predicted > 0))
        # libm pow through Python floats: numpy's SIMD array power may round
        # the last bit differently
        cube = np.array([t ** 3 for t in (2.0 * ratio - 1.0).tolist()])
        # accepted rows in place: no caller or output shares x, r or Jt
        np.copyto(x, x_new, where=up[:, None])
        np.copyto(r, r_new, where=up[:, None])
        np.copyto(Jt, Jt_new, where=up[:, None, None])
        cost, fx = np.where(up, cost_new, cost), np.where(up, f_new, fx)
        lam = lam * np.where(up, np.maximum(1.0 / 3.0, 1.0 - cube), nu)
        nu = np.where(up, 2.0, 2.0 * nu)
        done = up & (actual <= _FTOL * (cost + actual)) & (ratio > 0.25)
        if np.count_nonzero(done):
            live, x, r, Jt, cost, fx, lam, nu, D = stop(done, "reduction")
    return out


_MIN_EVALS_PER_RESTART = 8


def nonexistence_falsifier(kappa, tau, family="auto", n_starts=8, budget=4000,
                           seed=0, grid=(24, 24)) -> dict:
    """Search the trial families for an umbilic surface in M^3(kappa, tau).

    Runs a bounded Levenberg-Marquardt search from ``n_starts`` seeds per
    family on the trace-free shape operator (s0_11, s0_12) of each trial,
    which vanishes exactly on an umbilic surface, and reports the max
    normalized defect at the best point found.  A large floor is numerical
    evidence for nonexistence; a tiny one exhibits an umbilic surface.

    The restarts of a family run in lockstep, their state held in arrays:
    each round is one iteration of every pending restart, one stacked solve
    of their damped systems, and their trial points and difference
    neighbours evaluated in one batched :func:`surface_fields` call.  The
    defect reported for a restart is the one evaluated at its final point.
    Rotations about the z axis are isometries that map each trial to itself,
    so every trial is evaluated on one meridian, ``grid`` in the result,
    ``[grid[0], 1]``, built once per family and shared by its trials.  The
    m3 metric and Christoffel tables depend on (x, y) alone, as do a graph's
    x, y and X_v, so they are evaluated once per point, not once per trial.

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
        UV = _trial_grid(space, fam, meridian)
        x, _, fun, nfev, status = _levenberg_marquardt(
            lambda P, fam=fam, UV=UV: _trial_fields(space, fam, P, UV),
            x0s, spec["bounds"], budget // starts)
        k = int(np.argmin(fun))
        floors[fam], best_x[fam] = fun[k], x[k]
        n_evals += int(nfev.sum())
        all_converged &= not (status == "cap").any()

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
