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
Christoffel symbols in closed form, analytic in the point, as tables of
their nonzero components; vectors are contracted against the tables by
kernels on component triples (:func:`lowering`, :func:`cross`,
:func:`connection` adapt them to a last axis), and so is R(X, Y)Z
(:func:`curvature_tensor`); the dense arrays (:func:`metric_at`,
:func:`christoffels`, :func:`riemann`) remain for other callers.

All tensor-valued functions broadcast over leading point axes: points have
shape (..., 3), metrics (..., 3, 3), Christoffel symbols (..., 3, 3, 3) with
``gamma[..., l, i, j]`` the coefficient of d_l in nab_{d_i} d_j.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
        if not (np.isfinite(self.kappa) and np.isfinite(self.tau)):
            raise ValueError(f"kappa and tau must be finite, got ({self.kappa}, {self.tau})")
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
    return _contains(space, p[..., 0], p[..., 1], p[..., 2])


def chart_radius(space: ModelGeometry, fraction) -> float:
    """``fraction`` of the radius of the chart's horizontal disk, rounded once:
    1 for h2xr, 2/sqrt(-kappa) for m3 with kappa < 0, inf for the rest."""
    if space.kind == "h2xr":
        return fraction
    if space.kind == "m3" and space.kappa < 0:
        return 2.0 * fraction / np.sqrt(-space.kappa)
    return np.inf


def _contains(space, x, y, z):
    if space.kind == "h3":
        return z > 0
    if space.kind == "h2xr":
        return x**2 + y**2 < 1.0
    if space.kind == "m3" and space.kappa < 0:
        return x**2 + y**2 < 4.0 / (-space.kappa)
    return np.ones(np.shape(x), dtype=bool)


def _check_domain(space, P):
    # returns the components P once every point lies in the chart, a complex
    # step by its real part; the r3, sol, s2xr and m3 (kappa >= 0) charts hold all
    bounded = space.kind in ("h3", "h2xr") or (space.kind == "m3" and space.kappa < 0)
    if bounded and not np.all(_contains(space, *(np.real(c) for c in P))):
        raise ChartDomainError(f"point outside the {space.kind} chart")
    return P


# ---------------------------------------------------------------------------
# closed-form components
#
# Each kind lists the nonzero components of its metric, inverse metric and
# Christoffel symbols at the points P = (x, y, z), keyed by index with the
# last two indices sorted (all three are symmetric in them).  The dense
# tensors are filled from these tables; vectors are contracted against them
# directly, as row sums in index order with the zero terms dropped, so a
# contraction rounds exactly like the dense product it replaces.


def _m3_lambda(space, x, y):
    return 1.0 / (1.0 + space.kappa * (x**2 + y**2) / 4.0)


def _conformal_factor(space, x, y):
    if space.kind == "s2xr":
        return (2.0 / np.sqrt(space.kappa)) / (1.0 + x**2 + y**2)
    return (2.0 / np.sqrt(-space.kappa)) / (1.0 - x**2 - y**2)


def _log_conformal_grad(space, x, y):
    """(d_x, d_y) log F for the product base factor F = c / (1 + s(x^2 + y^2))."""
    s = 1.0 if space.kind == "s2xr" else -1.0
    w = -2.0 * s / (1.0 + s * (x**2 + y**2))
    return w * x, w * y


def _metric_table(space, P) -> dict:
    """Nonzero g_kj, k <= j."""
    x, y, z = P
    if space.kind == "r3":
        return {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0}
    if space.kind == "h3":
        iz2 = 1.0 / z**2
        return {(0, 0): iz2, (1, 1): iz2, (2, 2): iz2}
    if space.kind == "sol":
        return {(0, 0): np.exp(2.0 * z), (1, 1): np.exp(-2.0 * z), (2, 2): 1.0}
    if space.kind in ("s2xr", "h2xr"):
        F2 = _conformal_factor(space, x, y) ** 2
        return {(0, 0): F2, (1, 1): F2, (2, 2): 1.0}
    tau = space.tau
    lam = _m3_lambda(space, x, y)
    wx = tau * lam * y
    wy = -tau * lam * x
    return {(0, 0): lam**2 + wx**2, (0, 1): wx * wy, (0, 2): wx,
            (1, 1): lam**2 + wy**2, (1, 2): wy, (2, 2): 1.0}


def _inverse_table(space, P) -> dict:
    """Nonzero g^kj, k <= j.

    For ``m3`` it is E1 E1 + E2 E2 + E3 E3 in the orthonormal frame
    E1 = d_x/lam - tau y d_z, E2 = d_y/lam + tau x d_z, E3 = d_z dual to the
    coframe (lam dx, lam dy, dz + tau lam (y dx - x dy)).
    """
    x, y, z = P
    if space.kind == "r3":
        return {(0, 0): 1.0, (1, 1): 1.0, (2, 2): 1.0}
    if space.kind == "h3":
        z2 = z**2
        return {(0, 0): z2, (1, 1): z2, (2, 2): z2}
    if space.kind == "sol":
        return {(0, 0): np.exp(-2.0 * z), (1, 1): np.exp(2.0 * z), (2, 2): 1.0}
    if space.kind in ("s2xr", "h2xr"):
        iF2 = _conformal_factor(space, x, y) ** -2
        return {(0, 0): iF2, (1, 1): iF2, (2, 2): 1.0}
    tau = space.tau
    ilam = 1.0 / _m3_lambda(space, x, y)
    ilam2 = ilam**2
    return {(0, 0): ilam2, (0, 2): -tau * y * ilam, (1, 1): ilam2,
            (1, 2): tau * x * ilam, (2, 2): 1.0 + tau**2 * (x**2 + y**2)}


@lru_cache(maxsize=None)
def _m3_coefficients(k, tau, ndim):
    """Coefficients of the eight m3 symbols (coefficient * x or y) * d, with
    c = kappa - 4 tau^2 and e = kappa - 2 tau^2, shaped to broadcast."""
    c, e = k - 4.0 * tau**2, k - 2.0 * tau**2
    coef = np.array([-2.0 * k, -2.0 * e, 2.0 * c, 2.0 * c, -2.0 * e, -2.0 * k,
                     -4.0 * tau**2, -4.0 * tau**2]).reshape((8,) + (1,) * ndim)
    coef.flags.writeable = False
    return coef


def _symbol_table(space, P) -> dict:
    """Nonzero Christoffel symbols gamma^l_ij, i <= j."""
    x, y, z = P
    if space.kind == "r3":
        return {}
    if space.kind == "h3":
        # conformally flat with log factor -log z
        iz = 1.0 / z
        m = -iz
        return {(0, 0, 2): m, (1, 1, 2): m, (2, 0, 0): iz, (2, 1, 1): iz, (2, 2, 2): m}
    if space.kind == "sol":
        return {(0, 0, 2): 1.0, (1, 1, 2): -1.0,
                (2, 0, 0): -np.exp(2.0 * z), (2, 1, 1): np.exp(-2.0 * z)}
    if space.kind in ("s2xr", "h2xr"):
        # conformal base F^2 (dx^2 + dy^2) with phi = log F; the fiber is flat
        px, py = _log_conformal_grad(space, x, y)
        return {(0, 0, 0): px, (0, 0, 1): py, (0, 1, 1): -px,
                (1, 0, 0): -py, (1, 0, 1): px, (1, 1, 1): py}
    # m3 with d = 1/(4 + kappa r^2); eight symbols are (coefficient * x or y)
    # * d, taken as one batch
    k, tau = space.kappa, space.tau
    x2, y2 = x**2, y**2
    d = 1.0 / (4.0 + k * (x2 + y2))
    tcd2 = 4.0 * tau * (k - 4.0 * tau**2) * d**2
    linear = _m3_coefficients(k, tau, np.ndim(x)) * np.stack((x, y) * 4) * d
    txy = 2.0 * tcd2 * x * y
    table = dict(zip([(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 0, 1), (1, 1, 1),
                      (2, 0, 2), (2, 1, 2)], linear))
    table.update({(0, 1, 2): tau, (1, 0, 2): -tau, (2, 0, 0): txy,
                  (2, 0, 1): -tcd2 * (x2 - y2), (2, 1, 1): -txy})
    return table


def _dense(p, table, tail):
    """The dense tensor of a table (symmetric in its last two indices)."""
    A = np.zeros(p.shape[:-1] + tail, dtype=p.dtype if np.iscomplexobj(p) else float)
    for key, value in table.items():
        A[(Ellipsis,) + key] = A[(Ellipsis,) + key[:-2] + (key[-1], key[-2])] = value
    return A


@lru_cache(maxsize=None)
def _plan(keys, rank):
    """Summation plan for a table with these keys (last two indices sorted).

    Rank 2, a symmetric matrix A: for each row k the terms (n, j) of
    sum_j A_kj v^j, n the position of A_kj among the keys.  Rank 3, the
    symbols: for each l the rows (i, terms) of sum_i a^i (sum_j gamma^l_ij b^j).
    Indices run in increasing order, and a zero entry has no key, so it gives
    no term and an all-zero row no row.
    """
    def row(*lead):
        *lead, k = lead
        return tuple((keys.index(key), j) for j in range(3)
                     if (key := (*lead, min(k, j), max(k, j))) in keys)

    if rank == 2:
        return tuple(row(k) for k in range(3))
    return tuple(tuple((i, r) for i in range(3) if (r := row(l, i))) for l in range(3))


def _components(v):
    """The components of v along its last axis, each one contiguous."""
    v = np.asarray(v)
    return v.reshape(-1, 3).T.copy().reshape((3,) + v.shape[:-1])


def _full(comps, P, *vectors):
    """Three components of one shape; a None component is zero.

    The points P and the vectors' components give the shape and dtype of
    that zero, and components of differing shapes (constant entries) are
    broadcast.
    """
    c0, c1, c2 = comps
    if c0 is None or c1 is None or c2 is None or not c0.shape == c1.shape == c2.shape:
        shape = np.broadcast_shapes(np.shape(P[0]), *(np.shape(v[0]) for v in vectors))
        zero = np.zeros(shape, np.result_type(*P, *(v[0] for v in vectors)))
        comps = np.broadcast_arrays(*(zero if c is None else c for c in comps))
    return tuple(comps)


def _join(comps):
    """Stack three components of one shape on a last axis."""
    out = np.empty(comps[0].shape + (3,), np.result_type(*comps))
    out[..., 0], out[..., 1], out[..., 2] = comps
    return out


def _dot(a, b):
    """sum_k a^k b^k of component triples, left to right as np.sum adds 3 terms."""
    return (a[0] * b[0] + a[1] * b[1]) + a[2] * b[2]


def _row_sums(table, plan, c, P):
    """(A v)^k = A_k0 v^0 + A_k1 v^1 + A_k2 v^2 from the components c of v,
    over the nonzero entries of a rank-2 table at the points P."""
    values = tuple(table.values())
    out = []
    for row in plan:
        acc = None
        for n, j in row:
            term = values[n] * c[j]
            acc = term if acc is None else acc + term
        out.append(acc)
    return _full(out, P, c)


def metric_at(space: ModelGeometry, p) -> np.ndarray:
    """Metric matrix g_ij at p; broadcasts, symmetric positive definite."""
    p = np.asarray(p)
    return _dense(p, _metric_table(space, _check_domain(space, _components(p))), (3, 3))


def _volume(space, P):
    x, y, z = P
    if space.kind in ("r3", "sol"):
        return np.ones(np.shape(x), np.result_type(x) if np.iscomplexobj(x) else float)
    if space.kind == "h3":
        return z**-3
    if space.kind in ("s2xr", "h2xr"):
        return _conformal_factor(space, x, y) ** 2
    return _m3_lambda(space, x, y) ** 2


def volume_factor(space: ModelGeometry, p) -> np.ndarray:
    """sqrt(det g) at p in closed form (the chart keeps every factor positive)."""
    return _volume(space, _check_domain(space, _components(p)))


def _lowering(space, P, table=_metric_table):
    """v -> g v at the points P, on component triples; with ``table`` =
    :func:`_inverse_table` it raises covectors, w -> g^-1 w."""
    table = table(space, P)
    plan = _plan(tuple(table), 2)
    return lambda c: _row_sums(table, plan, c, P)


def lowering(space: ModelGeometry, p):
    """The map v -> g v at p, for vectors v at the points of p.

    Each component is the row sum g_k0 v^0 + g_k1 v^1 + g_k2 v^2 over the
    nonzero closed-form g_kj, evaluated once for every vector lowered.
    """
    lower = _lowering(space, _check_domain(space, _components(p)))
    return lambda v: _join(lower(_components(v)))


# ---------------------------------------------------------------------------
# connection and curvature


def christoffels(space: ModelGeometry, p) -> np.ndarray:
    """Christoffel symbols gamma[..., l, i, j] in closed form for each kind.

    Only the nonzero symbols are filled.  Every expression is analytic in
    the point, so complex-step differentiation (:func:`christoffel_deriv`)
    goes through unchanged.
    """
    p = np.asarray(p)
    return _dense(p, _symbol_table(space, _check_domain(space, _components(p))), (3, 3, 3))


def connection(space: ModelGeometry, p):
    """The bilinear map (a, b) -> Gamma(a, b), Gamma(a, b)^l = gamma^l_ij a^i b^j.

    The symbols are evaluated once at p; each call sums
    sum_i a^i (sum_j gamma^l_ij b^j) in index order over the nonzero
    symbols only, for vectors a, b at the points of p.
    """
    gamma = _connection(space, _check_domain(space, _components(p)))

    def adapter(a, b):
        a_ = _components(a)
        return _join(gamma(a_, a_ if b is a else _components(b)))

    return adapter


def _connection(space, P, table=None):
    """(a, b) -> Gamma(a, b) at the points P, on component triples, from the
    symbol table at P or the given one."""
    table = _symbol_table(space, P) if table is None else table
    plan = _plan(tuple(table), 3)
    values = tuple(table.values())

    def gamma(a, b):
        out = []
        for rows in plan:
            acc = None
            for i, row in rows:
                gb = None
                for n, j in row:
                    term = values[n] * b[j]
                    gb = term if gb is None else gb + term
                term = gb * a[i]
                acc = term if acc is None else acc + term
            out.append(acc)
        return _full(out, P, a, b)

    return gamma


def christoffel_deriv(space: ModelGeometry, p) -> np.ndarray:
    """dgamma[..., m, l, i, j] = d_m gamma^l_ij via complex step (machine precision)."""
    p = np.asarray(p, dtype=float)
    return np.stack([christoffels(space, p + (1j * _CS) * e).imag / _CS
                     for e in np.eye(3)], axis=-4)


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
    """R(X, Y)Z at p (chart components), in the package sign convention.

    With Gamma the connection at p and d_Y the derivative along Y, it is
    d_Y Gamma(X, Z) - d_X Gamma(Y, Z) + Gamma(Y, Gamma(X, Z)) - Gamma(X, Gamma(Y, Z)),
    both derivatives by a complex step of the point, so no dense tensor
    is formed.
    """
    P = _check_domain(space, _components(np.asarray(p, dtype=float)))
    return _join(_curvature(space, P, *(_components(V) for V in (X, Y, Z))))


def _curvature(space, P, X, Y, Z):
    """R(X, Y)Z at the points P, on component triples."""
    gamma = _connection(space, P)

    def d(W, A):
        # _CS d_W Gamma(A, Z), the imaginary part of Gamma(A, Z) at the points
        # stepped by i _CS W: the symbols' imaginary parts contracted in reals
        table = _symbol_table(space, tuple(p + (1j * _CS) * w for p, w in zip(P, W)))
        return _connection(space, P, {k: np.imag(v) for k, v in table.items()})(A, Z)

    return tuple(a / _CS - b / _CS + g - h for a, b, g, h in zip(
        d(Y, X), d(X, Y), gamma(Y, gamma(X, Z)), gamma(X, gamma(Y, Z))))


def inner(space: ModelGeometry, p, X, Y) -> np.ndarray:
    lower = _lowering(space, _check_domain(space, _components(p)))
    return _dot(_components(X), lower(_components(Y)))


def norm(space: ModelGeometry, p, X) -> np.ndarray:
    return np.sqrt(inner(space, p, X, X))


def cross(space: ModelGeometry, p, X, Y) -> np.ndarray:
    """Riemannian cross product, <X ^ Y, Z> = sqrt(det g) det[X, Y, Z].

    The covector sqrt(det g) (X x Y) is raised by row sums over the nonzero
    g^kj, like :func:`lowering`.
    """
    P = _check_domain(space, _components(p))
    return _join(_cross(space, P, _components(X), _components(Y)))


def _cross(space, P, X, Y):
    """X ^ Y at the points P, on component triples."""
    (x0, x1, x2), (y0, y1, y2) = X, Y
    vol = _volume(space, P)
    return _lowering(space, P, _inverse_table)(
        (vol * (x1 * y2 - x2 * y1), vol * (x2 * y0 - x0 * y2), vol * (x0 * y1 - x1 * y0)))


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


def _gauss_legendre(n):
    """Gauss-Legendre nodes and weights on [0, 1], by Newton's method on P_n."""
    x = np.cos(np.pi * (np.arange(n) + 0.75) / (n + 0.5))
    for _ in range(8):
        p0, p1 = np.ones(n), x
        for k in range(2, n + 1):
            p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
        dp = n * (x * p1 - p0) / (x * x - 1.0)
        x = x - p1 / dp
    return 0.5 - 0.5 * x, 1.0 / ((1.0 - x * x) * dp * dp)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(20)


class _Dual:
    """Values v with derivatives d along m directions, d[i] shaped like v: forward
    mode (Griewank and Walther, Evaluating Derivatives, SIAM 2008) through +, -,
    *, / and @, indexing and :func:`_sinc_cos`, on real arrays."""

    __array_ufunc__ = None  # numpy operands defer to the reflected methods

    def __init__(self, v, d):
        self.v, self.d = v, d

    def __getitem__(self, key):
        return _Dual(self.v[key], self.d[(slice(None),) + (key if type(key) is tuple else (key,))])

    def __add__(self, o):
        return _Dual(self.v + o.v, self.d + o.d) if type(o) is _Dual else _Dual(self.v + o, self.d)

    def __sub__(self, o):  # x - y is x + (-y) in IEEE arithmetic
        return self + -1.0 * o

    def __rsub__(self, o):
        return -1.0 * self + o

    def __mul__(self, o):
        if type(o) is _Dual:
            return _Dual(self.v * o.v, self.v * o.d + self.d * o.v)
        return _Dual(self.v * o, self.d * o)

    def __truediv__(self, o):
        q = self.v / o.v
        return _Dual(q, (self.d - q * o.d) / o.v)

    def __matmul__(self, w):
        return _Dual(self.v @ w, self.d @ w)

    __radd__, __rmul__ = __add__, __mul__


def _sinc_cos(q):
    """sin(sqrt q)/sqrt q and cos(sqrt q), entire in real q; duals for a dual q, with
    d cos/dq = -sinc/2 and d sinc/dq = (cos - sinc)/(2q), or the series' derivative."""
    x = q.v if type(q) is _Dual else q
    small = np.abs(x) < 0.25  # a Taylor series there, in place of 0/0
    x1 = np.where(small, 1.0, x)
    s = np.sqrt(np.abs(x1))  # sinh and cosh of sqrt(-q) for q < 0
    sin, cos = np.sin(s), np.cos(s)
    if (neg := x1 < 0.0).any():
        sin[neg], cos[neg] = np.sinh(s[neg]), np.cosh(s[neg])
    sinc = sin / s
    dsinc, qs, ss, ds, sc = (cos - sinc) / (2.0 * x1), x[small], 1.0, 0.0, 1.0
    for k in range(8, 0, -1):
        ss, ds = 1.0 - qs * ss / (2 * k * (2 * k + 1)), -(ss + qs * ds) / (2 * k * (2 * k + 1))
        sc = 1.0 - qs * sc / (2 * k * (2 * k - 1))
    sinc[small], cos[small], dsinc[small] = ss, sc, ds
    if type(q) is not _Dual:
        return sinc, cos
    return _Dual(sinc, dsinc * q.d), _Dual(cos, -0.5 * sinc * q.d)


def _m3_axis_geodesic(space, height, v):
    """End state (x, y, z, x', y', z') at t = 1 of the m3 geodesics from (0, 0, height).

    ``v`` is the component triple of the initial velocity, arrays or
    :class:`_Dual` values whose derivatives carry the state's (the Jacobi
    fields).  With v = (v0, v1, c), a^2 = v0^2 + v1^2, D = kappa a^2 + 4 tau^2 c^2,
    S = sin(sqrt(D) t)/sqrt(D) and V = (1 - cos(sqrt(D) t))/D, the base curve
    is the circle x + iy = 2 (v0 + i v1)(S + 2i tau c V)/(2 - kappa a^2 V).
    The angular momentum about the axis is zero, so z' = c (1 + tau^2 r^2),
    r^2 = x^2 + y^2, integrated by 20-point Gauss-Legendre.
    """
    k, tau = space.kappa, space.tau
    v0, v1, c = v
    a2 = v0 * v0 + v1 * v1
    ka2, D = k * a2, k * a2 + 4.0 * tau * tau * c * c
    # (sin(sqrt(D) t/2)/sqrt(D))^2 = V/2 at t = 1 and at the nodes
    t = np.concatenate([[1.0], _GL_NODES])
    sinc, cos = _sinc_cos(D[..., None] * (0.25 * t * t))
    half = 0.5 * t * sinc
    half2 = half * half
    r2 = 4.0 * a2[..., None] * half2 / (1.0 - ka2[..., None] * half2)
    S, V = sinc[..., 0] * cos[..., 0], 2.0 * half2[..., 0]
    C, Q, B, dB = 1.0 - D * V, 2.0 - ka2 * V, 2.0 * tau * c * V, 2.0 * tau * c * S
    x, y = 2.0 * (v0 * S - v1 * B) / Q, 2.0 * (v0 * B + v1 * S) / Q
    z = height + c * (1.0 + tau * tau * (r2[..., 1:] @ _GL_WEIGHTS))
    _check_domain(space, [w.v if type(w) is _Dual else w for w in (x, y, z)])
    # d/dt: S' = C, V' = S, Q' = -kappa a^2 S
    return (x, y, z, (2.0 * (v0 * C - v1 * dB) + x * ka2 * S) / Q,
            (2.0 * (v0 * dB + v1 * C) + y * ka2 * S) / Q, c * (1.0 + tau * tau * r2[..., 0]))


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
    """Image points q, Jacobians J[..., k, i] = dq^k/dp^i and Hessians
    H[..., k, i, j] at the chart points p (..., 3).

    All supported isometries have closed-form jets: the base actions are
    Moebius (holomorphic) or affine, the fiber actions affine.
    """
    p = np.asarray(p, dtype=float)
    x, y, z = p[..., 0], p[..., 1], p[..., 2]
    J = np.zeros(p.shape + (3,))
    H = np.zeros(p.shape + (3, 3))
    if iso.kind in ("rotation", "parabolic", "hyperbolic"):
        if space.kind not in ("s2xr", "h2xr"):
            raise IllFormedIsometryError(f"{iso.kind} isometries require a product space")
        val, d1, d2 = _mobius_jet(_mobius_matrix(space, iso), x + 1j * y)
        J[..., 0, 0], J[..., 0, 1] = d1.real, -d1.imag
        J[..., 1, 0], J[..., 1, 1] = d1.imag, d1.real
        J[..., 2, 2] = 1.0
        # holomorphic f: f_xx = f'', f_xy = i f'', f_yy = -f''
        H[..., 0, 0, 0], H[..., 1, 0, 0] = d2.real, d2.imag
        H[..., 0, 0, 1] = H[..., 0, 1, 0] = -d2.imag
        H[..., 1, 0, 1] = H[..., 1, 1, 0] = d2.real
        H[..., 0, 1, 1], H[..., 1, 1, 1] = -d2.real, -d2.imag
        return np.stack([val.real, val.imag, z], axis=-1), J, H
    # the rest are affine: q^k is entries[k] times p^cols[k] plus a constant
    cols = [0, 1, 2]
    if iso.kind == "identity":
        q, entries = (x, y, z), (1.0, 1.0, 1.0)
    elif iso.kind == "vertical_shift":
        if space.kind not in ("s2xr", "h2xr", "m3"):
            raise IllFormedIsometryError("vertical_shift requires a vertical direction")
        q, entries = (x, y, z + iso.shift), (1.0, 1.0, 1.0)
    elif iso.kind == "slice_reflection":
        if space.kind not in ("s2xr", "h2xr"):
            raise IllFormedIsometryError("slice_reflection requires a product space")
        q, entries = (x, y, 2.0 * iso.level - z), (1.0, 1.0, -1.0)
    elif iso.kind in ("sol_translation", "sol_swap"):
        if space.kind != "sol":
            raise IllFormedIsometryError(f"{iso.kind} requires sol")
        a, b, c = iso.abc
        e1, e2 = iso.signs[0] * np.exp(-c), iso.signs[1] * np.exp(c)
        if iso.kind == "sol_translation":
            q, entries = (e1 * x + a, e2 * y + b, z + c), (e1, e2, 1.0)
        else:
            q, entries, cols = (e1 * y + a, e2 * x + b, -z + c), (e1, e2, -1.0), [1, 0, 2]
    else:
        raise IllFormedIsometryError(f"unknown isometry kind {iso.kind!r}")
    J[..., [0, 1, 2], cols] = entries
    return np.stack(q, axis=-1), J, H


def apply_isometry(space: ModelGeometry, iso: IsometrySpec, p) -> np.ndarray:
    """Image of the chart points p (..., 3) under the isometry."""
    return isometry_jet(space, iso, p)[0]
