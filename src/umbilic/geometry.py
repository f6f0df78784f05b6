"""Model geometries: charts, metrics, connections, curvature, isometries.

Six homogeneous 3-manifolds are supported, each in a single global chart:

``r3``      Euclidean space, coordinates (x, y, z).
``h3``      Hyperbolic space, upper half-space {z > 0}, metric (dx^2+dy^2+dz^2)/z^2.
``s2xr``    S^2(kappa) x R, stereographic base chart, metric F^2(dx^2+dy^2)+dt^2
            with F = (2/sqrt(kappa))/(1 + x^2 + y^2).
``h2xr``    H^2(kappa) x R, unit-disk base chart, F = (2/sqrt(-kappa))/(1 - x^2 - y^2).
``sol``     Sol, metric e^{2z}dx^2 + e^{-2z}dy^2 + dz^2.
``m3``      The fibration chart with 4-point isotropy data (kappa, tau):
            lam = 1/(1 + kappa(x^2+y^2)/4),
            metric lam^2(dx^2+dy^2) + (dz + tau*lam*(y dx - x dy))^2.
            tau = 0 gives the product over the curvature-kappa base.

Conventions fixed here and relied on throughout the package:

* Curvature tensor sign: R(X,Y)Z = nab_Y nab_X Z - nab_X nab_Y Z - nab_{[Y,X]} Z.
  With this sign <R(X,Y)Y, X> = +1 for orthonormal X, Y in h3.
* Cross product: <X ^ Y, Z> = sqrt(det g) * det[X, Y, Z] (right-handed in
  chart coordinates).

Each kind gives its metric, inverse metric, volume factor sqrt(det g) and
Christoffel symbols in closed form, analytic in the point; the curvature
tensor follows from the symbols and their complex-step derivatives.

All tensor-valued functions broadcast over leading point axes: points have
shape (..., 3), metrics (..., 3, 3), Christoffel symbols (..., 3, 3, 3) with
``gamma[..., l, i, j]`` the coefficient of d_l in nab_{d_i} d_j.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KINDS = ("r3", "h3", "s2xr", "h2xr", "sol", "m3")

# complex-step size for derivatives of the Christoffel symbols
_CS = 1e-100


class ChartDomainError(ValueError):
    """A point lies outside the model chart."""


class IllFormedIsometryError(ValueError):
    """An isometry spec does not apply to the given space."""


@dataclass(frozen=True)
class ModelGeometry:
    """A model space: chart + metric, identified by kind and (kappa, tau).

    ``kappa`` is the base curvature for the product kinds and the fibration
    kind; ``tau`` the bundle curvature (0 for products).  ``m3`` with
    kappa = 4 tau^2 is a space form; it is permitted but flagged through
    :attr:`is_space_form` so callers can special-case the degeneracy.
    """

    kind: str
    kappa: float = 0.0
    tau: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown geometry kind {self.kind!r}")
        if self.kind == "s2xr" and not self.kappa > 0:
            raise ValueError("s2xr requires kappa > 0")
        if self.kind == "h2xr" and not self.kappa < 0:
            raise ValueError("h2xr requires kappa < 0")
        if self.kind in ("s2xr", "h2xr") and self.tau != 0.0:
            raise ValueError("product spaces require tau = 0")

    @property
    def is_space_form(self) -> bool:
        return self.kind == "m3" and self.kappa == 4.0 * self.tau**2

    @property
    def bundle_discriminant(self) -> float:
        """kappa - 4 tau^2 where that quantity is meaningful."""
        if self.kind in ("s2xr", "h2xr", "m3"):
            return self.kappa - 4.0 * self.tau**2
        raise ValueError(f"no (kappa, tau) data for kind {self.kind!r}")

    @property
    def has_vertical_field(self) -> bool:
        return self.kind in ("s2xr", "h2xr", "m3")


def r3() -> ModelGeometry:
    return ModelGeometry("r3")


def h3() -> ModelGeometry:
    return ModelGeometry("h3")


def sol() -> ModelGeometry:
    return ModelGeometry("sol")


def s2xr(kappa: float = 1.0) -> ModelGeometry:
    return ModelGeometry("s2xr", kappa=kappa)


def h2xr(kappa: float = -1.0) -> ModelGeometry:
    return ModelGeometry("h2xr", kappa=kappa)


def m3(kappa: float, tau: float) -> ModelGeometry:
    return ModelGeometry("m3", kappa=kappa, tau=tau)


# ---------------------------------------------------------------------------
# chart domains


def chart_contains(space: ModelGeometry, p) -> np.ndarray:
    """Boolean mask of points lying inside the chart."""
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    if space.kind == "h3":
        return z > 0
    if space.kind == "h2xr":
        return x**2 + y**2 < 1.0
    if space.kind == "m3" and space.kappa < 0:
        return x**2 + y**2 < 4.0 / (-space.kappa)
    return np.ones(np.shape(x), dtype=bool)


def _check_domain(space, p):
    # a complex-step point is checked by its real part
    if not np.all(chart_contains(space, np.real(p))):
        raise ChartDomainError(f"point outside the {space.kind} chart")


# ---------------------------------------------------------------------------
# metric, inverse metric and volume factor (closed form, complex-safe)


def _zeros(p, tail):
    return np.zeros(p.shape[:-1] + tail, dtype=p.dtype if np.iscomplexobj(p) else float)


def _m3_lambda(space, x, y):
    return 1.0 / (1.0 + space.kappa * (x**2 + y**2) / 4.0)


def metric_at(space: ModelGeometry, p) -> np.ndarray:
    """Metric matrix g_ij at p; broadcasts, symmetric positive definite."""
    p = np.asarray(p)
    _check_domain(space, p)
    x, y = p[..., 0], p[..., 1]
    z = p[..., 2]
    g = _zeros(p, (3, 3))
    if space.kind == "r3":
        g[..., 0, 0] = g[..., 1, 1] = g[..., 2, 2] = 1.0
    elif space.kind == "h3":
        iz2 = 1.0 / z**2
        g[..., 0, 0] = g[..., 1, 1] = g[..., 2, 2] = iz2
    elif space.kind == "sol":
        g[..., 0, 0] = np.exp(2.0 * z)
        g[..., 1, 1] = np.exp(-2.0 * z)
        g[..., 2, 2] = 1.0
    elif space.kind in ("s2xr", "h2xr"):
        F = _conformal_factor(space, x, y)
        g[..., 0, 0] = g[..., 1, 1] = F**2
        g[..., 2, 2] = 1.0
    else:  # m3
        tau = space.tau
        lam = _m3_lambda(space, x, y)
        wx = tau * lam * y
        wy = -tau * lam * x
        g[..., 0, 0] = lam**2 + wx**2
        g[..., 1, 1] = lam**2 + wy**2
        g[..., 2, 2] = 1.0
        g[..., 0, 1] = g[..., 1, 0] = wx * wy
        g[..., 0, 2] = g[..., 2, 0] = wx
        g[..., 1, 2] = g[..., 2, 1] = wy
    return g


def _conformal_factor(space, x, y):
    if space.kind == "s2xr":
        return (2.0 / np.sqrt(space.kappa)) / (1.0 + x**2 + y**2)
    return (2.0 / np.sqrt(-space.kappa)) / (1.0 - x**2 - y**2)


def _log_conformal_grad(space, x, y):
    """(d_x, d_y) log F for the product base factor F = c / (1 + s(x^2 + y^2))."""
    s = 1.0 if space.kind == "s2xr" else -1.0
    w = -2.0 * s / (1.0 + s * (x**2 + y**2))
    return w * x, w * y


def inverse_metric(space: ModelGeometry, p) -> np.ndarray:
    """Inverse metric g^ij at p in closed form; broadcasts like :func:`metric_at`.

    For ``m3`` it is E1 E1 + E2 E2 + E3 E3 in the orthonormal frame
    E1 = d_x/lam - tau y d_z, E2 = d_y/lam + tau x d_z, E3 = d_z dual to the
    coframe (lam dx, lam dy, dz + tau lam (y dx - x dy)).
    """
    p = np.asarray(p)
    _check_domain(space, p)
    x, y = p[..., 0], p[..., 1]
    z = p[..., 2]
    h = _zeros(p, (3, 3))
    if space.kind == "r3":
        h[..., 0, 0] = h[..., 1, 1] = h[..., 2, 2] = 1.0
    elif space.kind == "h3":
        h[..., 0, 0] = h[..., 1, 1] = h[..., 2, 2] = z**2
    elif space.kind == "sol":
        h[..., 0, 0] = np.exp(-2.0 * z)
        h[..., 1, 1] = np.exp(2.0 * z)
        h[..., 2, 2] = 1.0
    elif space.kind in ("s2xr", "h2xr"):
        h[..., 0, 0] = h[..., 1, 1] = _conformal_factor(space, x, y) ** -2
        h[..., 2, 2] = 1.0
    else:  # m3
        tau = space.tau
        ilam = 1.0 / _m3_lambda(space, x, y)
        h[..., 0, 0] = h[..., 1, 1] = ilam**2
        h[..., 0, 2] = h[..., 2, 0] = -tau * y * ilam
        h[..., 1, 2] = h[..., 2, 1] = tau * x * ilam
        h[..., 2, 2] = 1.0 + tau**2 * (x**2 + y**2)
    return h


def volume_factor(space: ModelGeometry, p) -> np.ndarray:
    """sqrt(det g) at p in closed form (the chart keeps every factor positive)."""
    p = np.asarray(p)
    _check_domain(space, p)
    x, y = p[..., 0], p[..., 1]
    z = p[..., 2]
    if space.kind in ("r3", "sol"):
        return np.ones(p.shape[:-1], dtype=p.dtype if np.iscomplexobj(p) else float)
    if space.kind == "h3":
        return z**-3
    if space.kind in ("s2xr", "h2xr"):
        return _conformal_factor(space, x, y) ** 2
    return _m3_lambda(space, x, y) ** 2


# ---------------------------------------------------------------------------
# connection and curvature


def _set_symmetric(G, l, i, j, value):
    G[..., l, i, j] = value
    G[..., l, j, i] = value


def christoffels(space: ModelGeometry, p) -> np.ndarray:
    """Christoffel symbols gamma[..., l, i, j] in closed form for each kind.

    Only the nonzero symbols are filled.  Every expression is analytic in
    the point, so complex-step differentiation (:func:`christoffel_deriv`)
    goes through unchanged.
    """
    p = np.asarray(p)
    _check_domain(space, p)
    x, y = p[..., 0], p[..., 1]
    z = p[..., 2]
    G = _zeros(p, (3, 3, 3))
    if space.kind == "r3":
        return G
    if space.kind == "h3":
        # conformally flat with log factor -log z
        iz = 1.0 / z
        _set_symmetric(G, 0, 0, 2, -iz)
        _set_symmetric(G, 1, 1, 2, -iz)
        G[..., 2, 2, 2] = -iz
        G[..., 2, 0, 0] = G[..., 2, 1, 1] = iz
        return G
    if space.kind == "sol":
        _set_symmetric(G, 0, 0, 2, 1.0)
        _set_symmetric(G, 1, 1, 2, -1.0)
        G[..., 2, 0, 0] = -np.exp(2.0 * z)
        G[..., 2, 1, 1] = np.exp(-2.0 * z)
        return G
    if space.kind in ("s2xr", "h2xr"):
        # conformal base F^2 (dx^2 + dy^2) with phi = log F; the fiber is flat
        px, py = _log_conformal_grad(space, x, y)
        G[..., 0, 0, 0] = px
        G[..., 1, 1, 1] = py
        _set_symmetric(G, 0, 0, 1, py)
        _set_symmetric(G, 1, 0, 1, px)
        G[..., 0, 1, 1] = -px
        G[..., 1, 0, 0] = -py
        return G
    # m3 with d = 1/(4 + kappa r^2), c = kappa - 4 tau^2, e = kappa - 2 tau^2
    k, tau = space.kappa, space.tau
    d = 1.0 / (4.0 + k * (x**2 + y**2))
    c = k - 4.0 * tau**2
    e = k - 2.0 * tau**2
    G[..., 0, 0, 0] = -2.0 * k * x * d
    _set_symmetric(G, 0, 0, 1, -2.0 * e * y * d)
    G[..., 0, 1, 1] = 2.0 * c * x * d
    _set_symmetric(G, 0, 1, 2, tau)
    G[..., 1, 0, 0] = 2.0 * c * y * d
    _set_symmetric(G, 1, 0, 1, -2.0 * e * x * d)
    _set_symmetric(G, 1, 0, 2, -tau)
    G[..., 1, 1, 1] = -2.0 * k * y * d
    tcd2 = 4.0 * tau * c * d**2
    G[..., 2, 0, 0] = 2.0 * tcd2 * x * y
    _set_symmetric(G, 2, 0, 1, -tcd2 * (x**2 - y**2))
    _set_symmetric(G, 2, 0, 2, -4.0 * tau**2 * x * d)
    G[..., 2, 1, 1] = -2.0 * tcd2 * x * y
    _set_symmetric(G, 2, 1, 2, -4.0 * tau**2 * y * d)
    return G


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


def christoffel_deriv(space: ModelGeometry, p) -> np.ndarray:
    """dgamma[..., m, l, i, j] = d_m gamma^l_ij via complex step (machine precision)."""
    p = np.asarray(p, dtype=float)
    out = np.empty(p.shape[:-1] + (3, 3, 3, 3))
    for mth in range(3):
        pc = p.astype(complex)
        pc[..., mth] += 1j * _CS
        out[..., mth, :, :, :] = christoffels(space, pc).imag / _CS
    return out


def riemann(space: ModelGeometry, p) -> np.ndarray:
    """Curvature tensor components R[..., l, i, j, k] = (R(d_i, d_j) d_k)^l.

    Sign convention: R(X,Y)Z = nab_Y nab_X Z - nab_X nab_Y Z - nab_{[Y,X]} Z.
    """
    G = christoffels(space, p)
    dG = christoffel_deriv(space, p)
    # d_j gamma^l_ik - d_i gamma^l_jk
    term = np.einsum("...jlik->...lijk", dG) - np.einsum("...iljk->...lijk", dG)
    quad = np.einsum("...ljm,...mik->...lijk", G, G) - np.einsum(
        "...lim,...mjk->...lijk", G, G
    )
    return term + quad


def curvature_tensor(space: ModelGeometry, p, X, Y, Z) -> np.ndarray:
    """R(X, Y)Z at p (chart components), in the package sign convention."""
    R = riemann(space, p)
    return np.einsum("...lijk,...i,...j,...k->...l", R, X, Y, Z)


def inner(space: ModelGeometry, p, X, Y) -> np.ndarray:
    return np.sum(np.asarray(X) * _matvec(metric_at(space, p), Y), axis=-1)


def norm(space: ModelGeometry, p, X) -> np.ndarray:
    return np.sqrt(inner(space, p, X, X))


def cross(space: ModelGeometry, p, X, Y) -> np.ndarray:
    """Riemannian cross product, <X ^ Y, Z> = sqrt(det g) det[X, Y, Z]."""
    X, Y = np.asarray(X), np.asarray(Y)
    x0, x1, x2 = X[..., 0], X[..., 1], X[..., 2]
    y0, y1, y2 = Y[..., 0], Y[..., 1], Y[..., 2]
    euclid = np.stack([x1 * y2 - x2 * y1, x2 * y0 - x0 * y2, x0 * y1 - x1 * y0], axis=-1)
    return _matvec(inverse_metric(space, p), volume_factor(space, p)[..., None] * euclid)


def vertical_field(space: ModelGeometry, p=None) -> np.ndarray:
    """Chart components of the unit vertical Killing field (products, m3)."""
    if not space.has_vertical_field:
        raise ValueError(f"kind {space.kind!r} has no distinguished vertical field")
    xi = np.zeros(3)
    xi[2] = 1.0
    if p is not None:
        xi = np.broadcast_to(xi, np.shape(p)).copy()
    return xi


# ---------------------------------------------------------------------------
# geodesics


def _geodesic_rhs(space, state):
    """state (..., 6) -> derivative; velocity transport by the connection."""
    q = state[..., :3]
    v = state[..., 3:]
    acc = -christoffel_contract(christoffels(space, q), v, v)
    return np.concatenate([v, acc], axis=-1)


# ---------------------------------------------------------------------------
# isometries


@dataclass(frozen=True)
class IsometrySpec:
    """Declarative description of a model-space isometry.

    Product-space kinds (s2xr, h2xr):

    * ``rotation``: angle about the vertical axis through ``center`` (base
      chart coordinates).
    * ``parabolic`` (h2xr only): boundary point at angle ``ideal``, parameter
      ``mu``.
    * ``hyperbolic`` (h2xr only): translation by ``distance`` along the
      geodesic with boundary endpoints at angles ``endpoints``.
    * ``vertical_shift``: t -> t + shift.
    * ``slice_reflection``: t -> 2*level - t.

    Sol kinds:

    * ``sol_translation``: (x,y,z) -> (s1 e^{-c} x + a, s2 e^{c} y + b, z + c).
    * ``sol_swap``:        (x,y,z) -> (s1 e^{-c} y + a, s2 e^{c} x + b, -z + c).

    with ``abc = (a, b, c)`` and ``signs = (s1, s2)``.
    """

    kind: str = "identity"
    angle: float = 0.0
    center: tuple = (0.0, 0.0)
    ideal: float = np.pi
    mu: float = 0.0
    endpoints: tuple = (np.pi, 0.0)
    distance: float = 0.0
    shift: float = 0.0
    level: float = 0.0
    abc: tuple = (0.0, 0.0, 0.0)
    signs: tuple = (1, 1)


def identity_isometry() -> IsometrySpec:
    return IsometrySpec("identity")


def rotation(angle, center=(0.0, 0.0)) -> IsometrySpec:
    return IsometrySpec("rotation", angle=float(angle), center=tuple(center))


def parabolic(ideal, mu) -> IsometrySpec:
    return IsometrySpec("parabolic", ideal=float(ideal), mu=float(mu))


def hyperbolic_translation(endpoints, distance) -> IsometrySpec:
    return IsometrySpec("hyperbolic", endpoints=tuple(endpoints), distance=float(distance))


def vertical_shift(shift) -> IsometrySpec:
    return IsometrySpec("vertical_shift", shift=float(shift))


def slice_reflection(level) -> IsometrySpec:
    return IsometrySpec("slice_reflection", level=float(level))


def sol_translation(a, b, c, signs=(1, 1)) -> IsometrySpec:
    return IsometrySpec("sol_translation", abc=(float(a), float(b), float(c)), signs=tuple(signs))


def sol_swap(a, b, c, signs=(1, 1)) -> IsometrySpec:
    return IsometrySpec("sol_swap", abc=(float(a), float(b), float(c)), signs=tuple(signs))


def _mobius_matrix(space, iso) -> np.ndarray:
    """2x2 complex matrix of the base Moebius action, for product spaces."""
    if iso.kind == "rotation":
        w0 = complex(iso.center[0], iso.center[1])
        conj_sign = -1.0 if space.kind == "h2xr" else 1.0
        # disk: w -> (w - w0)/(1 - conj(w0) w); sphere: w -> (w - w0)/(1 + conj(w0) w)
        C = np.array([[1.0, -w0], [conj_sign * np.conj(w0), 1.0]])
        E = np.array([[np.exp(1j * iso.angle), 0.0], [0.0, 1.0]])
        return np.linalg.inv(C) @ E @ C
    if space.kind != "h2xr":
        raise IllFormedIsometryError(f"{iso.kind} isometries require h2xr")
    if iso.kind == "parabolic":
        zeta = np.exp(1j * iso.ideal)
        Rm = np.array([[-1.0 / zeta, 0.0], [0.0, 1.0]])  # rotate zeta to -1
        C = np.array([[-1.0, 1.0], [1.0, 1.0]])  # (1 - w)/(1 + w): disk -> RHP, -1 -> inf
        S = np.array([[1.0, 1j * iso.mu], [0.0, 1.0]])
        return np.linalg.inv(Rm) @ np.linalg.inv(C) @ S @ C @ Rm
    if iso.kind == "hyperbolic":
        # map the disk to the upper half plane, the axis endpoints to (0, inf),
        # translate z -> e^d z, and pull everything back
        U = np.array([[1j, 1j], [-1.0, 1.0]])  # w -> i(w+1)/(1-w)
        rows = []
        for ang in iso.endpoints:
            zeta = np.exp(1j * ang)
            a_, b_ = U @ np.array([zeta, 1.0])  # projective image [a : b]
            rows.append((a_, b_))
        (a1, b1), (a2, b2) = rows
        V = np.array([[b1, -a1], [b2, -a2]])  # sends endpoint1 -> 0, endpoint2 -> inf
        d = iso.distance
        D = np.array([[np.exp(d / 2.0), 0.0], [0.0, np.exp(-d / 2.0)]])
        return np.linalg.inv(U) @ np.linalg.inv(V) @ D @ V @ U
    raise IllFormedIsometryError(f"unknown isometry kind {iso.kind!r}")


def _mobius_jet(M, w):
    """Value, first and second complex derivative of w -> (aw+b)/(cw+d)."""
    a, b = M[0]
    c, d = M[1]
    den = c * w + d
    det = a * d - b * c
    val = (a * w + b) / den
    d1 = det / den**2
    d2 = -2.0 * c * det / den**3
    return val, d1, d2


def isometry_jet(space: ModelGeometry, iso: IsometrySpec, p):
    """Image point, Jacobian J[k, i] = dq^k/dp^i and Hessian H[k, i, j].

    All supported isometries have closed-form jets: the base actions are
    Moebius (holomorphic) or affine, the fiber actions affine.
    """
    p = np.asarray(p, dtype=float)
    q = np.empty(3)
    J = np.zeros((3, 3))
    H = np.zeros((3, 3, 3))
    if iso.kind == "identity":
        return p.copy(), np.eye(3), H
    if iso.kind in ("rotation", "parabolic", "hyperbolic"):
        if space.kind not in ("s2xr", "h2xr"):
            raise IllFormedIsometryError(f"{iso.kind} isometries require a product space")
        M = _mobius_matrix(space, iso)
        w = complex(p[0], p[1])
        val, d1, d2 = _mobius_jet(M, w)
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
            J[0, 0] = s1 * np.exp(-c)
            J[1, 1] = s2 * np.exp(c)
            J[2, 2] = 1.0
        else:
            q[:] = (s1 * np.exp(-c) * p[1] + a, s2 * np.exp(c) * p[0] + b, -p[2] + c)
            J[0, 1] = s1 * np.exp(-c)
            J[1, 0] = s2 * np.exp(c)
            J[2, 2] = -1.0
        return q, J, H
    raise IllFormedIsometryError(f"unknown isometry kind {iso.kind!r}")


def apply_isometry(space: ModelGeometry, iso: IsometrySpec, p) -> np.ndarray:
    """Image of p under the isometry (broadcasts over leading axes)."""
    p = np.asarray(p, dtype=float)
    if p.ndim == 1:
        return isometry_jet(space, iso, p)[0]
    flat = p.reshape(-1, 3)
    out = np.stack([isometry_jet(space, iso, q)[0] for q in flat])
    return out.reshape(p.shape)
