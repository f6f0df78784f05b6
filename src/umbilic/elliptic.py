"""Complete elliptic integrals and Jacobi elliptic functions.

Everything uses the *parameter* convention: ``m`` is the square of the
modulus, so K(m) = int_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt.

K is computed by arithmetic-geometric mean iteration.  The amplitude
``am(u, m)`` and the functions sn = sin(am), cn = cos(am) come from the
descending Landen (Gauss) transformation: with the AGM scales a_n and
c_n = (a_{n-1} - b_{n-1})/2, set phi_N = 2^N a_N u and recurse

    phi_{n-1} = ( phi_n + arcsin( (c_n / a_n) sin phi_n ) ) / 2,

then am = phi_0.  Arguments are first reduced by the quasi-period
(am(u + 2K) = am(u) + pi), so the recursion only ever sees |u| <= K.
The same pass gives the Jacobi zeta function Z(u) = sum_n c_n sin phi_n,
with E(am u | m) = u E/K + Z(u) (Abramowitz-Stegun 17.6).

Parameter ranges outside [0, 1) are reduced to it by the standard
transformations: the imaginary-modulus identity for m < 0 and the
reciprocal-modulus identity for m > 1 (where the amplitude oscillates
instead of winding).  The reductions hold at every |m|; the tests check
them against mpmath up to |m| = 1e6.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# two ulps: the AGM stagnates at machine epsilon, so demand no more
AGM_TOL = 4.5e-16


@lru_cache(maxsize=64)
def elliptic_K(m: float) -> float:
    """Complete elliptic integral of the first kind, parameter m < 1."""
    m = float(m)
    if m >= 1.0:
        raise ValueError("elliptic_K requires parameter m < 1")
    a, b = 1.0, np.sqrt(1.0 - m)
    for _ in range(64):
        if abs(a - b) <= AGM_TOL * a:
            break
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return float(np.pi / (2.0 * a))


@lru_cache(maxsize=64)
def _agm_scales(m):
    """AGM ladder (a_n, c_n) for parameter m in [0, 1), as a tuple."""
    a, b = 1.0, np.sqrt(1.0 - m)
    ladder = []
    # c_0 = sqrt(m) is not used by the phase recursion, which starts at n = 1
    while True:
        a1, b1, c1 = 0.5 * (a + b), np.sqrt(a * b), 0.5 * (a - b)
        ladder.append((a1, c1))
        a, b = a1, b1
        if abs(c1) <= AGM_TOL * a1:
            break
        if len(ladder) > 64:  # pragma: no cover
            raise RuntimeError("AGM ladder failed to converge")
    return tuple(ladder)


def _am_core(u, m):
    """Amplitude and Jacobi zeta function (am, Z) for m in [0, 1), |u| <= K(m),
    by the descending Landen recursion."""
    u = np.asarray(u, dtype=float)
    if m == 0.0:
        return u.copy(), np.zeros_like(u)
    ladder = _agm_scales(m)
    n = len(ladder)
    phi = (2.0**n) * ladder[-1][0] * u
    zeta = 0.0
    for a_k, c_k in reversed(ladder):
        # c_k < a_k, so the arcsine's argument never leaves [-1, 1]
        s = np.sin(phi)
        zeta = zeta + c_k * s
        phi = 0.5 * (phi + np.arcsin(c_k / a_k * s))
    return phi, zeta


def _reduce(u, K):
    """u = 2nK + w with |w| <= K; returns (n, w)."""
    n = np.round(u / (2.0 * K))
    return n, u - 2.0 * n * K


def _jacobi(u, m):
    """(sn, cn, dn, am) for real u and any real m, via reductions."""
    if m == 1.0:
        sech = 1.0 / np.cosh(u)
        return np.tanh(u), sech, sech, 2.0 * np.arctan(np.exp(u)) - np.pi / 2.0
    if m > 1.0:
        # reciprocal modulus: the amplitude oscillates, |sn| <= 1/sqrt(m),
        # and cn, dn trade places
        rm = np.sqrt(m)
        sn_r, cn_r, dn_r, _ = _jacobi(u * rm, 1.0 / m)
        sn = sn_r / rm
        return sn, dn_r, cn_r, np.arcsin(sn)
    n, w = _reduce(u, elliptic_K(m))
    if m < 0.0:
        # imaginary modulus: at v = w sqrt(1 - m) and parameter -m / (1 - m),
        # sn = sd / sqrt(1 - m), cn = cd, dn = nd; the amplitude is read off
        # (sn, cn) by atan2, which stays exact where |sn| -> 1
        r, sign = np.sqrt(1.0 - m), 1.0 - 2.0 * np.mod(n, 2.0)
        sn_v, cn_v, dn_v, _ = _jacobi(w * r, -m / (1.0 - m))
        return (sign * sn_v / (r * dn_v), sign * cn_v / dn_v, 1.0 / dn_v,
                n * np.pi + np.arctan2(sn_v / r, cn_v))
    return _landen(n, w, m)[:4]


def _landen(n, w, m):
    """(sn, cn, dn, am, Z) at u = 2nK + w, |w| <= K, for m in [0, 1): the
    shift adds n pi to am and leaves Z alone; dn^2 = cn^2 + (1 - m) sn^2
    does not cancel as m -> 1."""
    phi, zeta = _am_core(w, m)
    sign = 1.0 - 2.0 * np.mod(n, 2.0)
    sn_w, cn_w = np.sin(phi), np.cos(phi)
    return (sign * sn_w, sign * cn_w, np.sqrt(cn_w**2 + (1.0 - m) * sn_w**2),
            n * np.pi + phi, zeta)


def ellipj(u, m: float):
    """(sn, cn, dn, am) at real u, any real parameter m, from one pass.

    The order is that of ``scipy.special.ellipj``.  For m > 1, dn changes
    sign with cn(u sqrt(m) | 1/m) and the amplitude oscillates.
    """
    u = np.asarray(u, dtype=float)
    out = _jacobi(u, float(m))
    return out if u.ndim else tuple(float(v) for v in out)


def ellipj_zeta(u, m: float):
    """(sn, cn, dn, Z(u | m)) at real u for 0 <= m < 1, from one pass.

    Z is the Jacobi zeta function, 2K-periodic and odd, with
    E(am u | m) = u E/K + Z(u) for |u| <= K.
    """
    m = float(m)
    if not 0.0 <= m < 1.0:
        raise ValueError("ellipj_zeta requires parameter 0 <= m < 1")
    sn, cn, dn, _, zeta = _landen(*_reduce(np.asarray(u, dtype=float), elliptic_K(m)), m)
    return sn, cn, dn, zeta


def jacobi_am(u, m: float):
    """Jacobi amplitude am(u, m), real u, any real parameter m.

    Satisfies am' = dn(u, m) with am(0) = 0; for m < 1 it winds
    (am(u + 2K) = am(u) + pi), for m > 1 it oscillates with amplitude
    arcsin(1/sqrt(m)).
    """
    return ellipj(u, m)[3]


def jacobi_sn(u, m: float):
    return ellipj(u, m)[0]


def jacobi_cn(u, m: float):
    return ellipj(u, m)[1]


def jacobi_dn(u, m: float):
    return ellipj(u, m)[2]
