"""AGM / Landen elliptic functions against frozen quadrature and ODE oracles.

The frozen constants were produced by two independent routes: adaptive
quadrature of the defining integral for K, and high-accuracy integration of
the coupled sn/cn/dn/am system for the amplitude values.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.special import ellipj, ellipkinc

from umbilic.elliptic import (
    ellipj_zeta,
    elliptic_K,
    jacobi_am,
    jacobi_cn,
    jacobi_dn,
    jacobi_sn,
)
from umbilic.elliptic import ellipj as umbilic_ellipj

# quadrature oracle: int_0^{pi/2} (1 - m sin^2 t)^{-1/2} dt
K_TABLE = {
    0.0: np.pi / 2.0,
    0.09: 1.608048619930512,
    0.5: 1.85407467730137,
    0.81: 2.280549138422767,
    -2.0: 1.17142008414677,
}

# independent ODE oracle (DOP853, rtol 1e-13) for the amplitude
AM_TABLE = [
    (2.0, 0.36, 1.770931430141273),
    (1.3, -1.5, 1.676590554196257),
    (0.7, 4.0, 0.505981120004274),
    (5.0, 0.81, 3.569584225329134),
    (-2.4, 0.5, -1.966190374024911),
]


def test_complete_integral_against_quadrature():
    for m, expected in K_TABLE.items():
        assert_allclose(elliptic_K(m), expected, rtol=0, atol=2e-13)


def test_complete_integral_rejects_m_ge_one():
    with pytest.raises(ValueError):
        elliptic_K(1.0)
    with pytest.raises(ValueError):
        elliptic_K(1.5)


@pytest.mark.parametrize("u,m,expected", AM_TABLE)
def test_amplitude_against_ode_oracle(u, m, expected):
    assert_allclose(jacobi_am(u, m), expected, rtol=0, atol=1e-10)


def test_amplitude_closed_form_at_m_one():
    u = np.linspace(-3.0, 3.0, 7)
    assert_allclose(jacobi_am(u, 1.0), 2.0 * np.arctan(np.exp(u)) - np.pi / 2.0, atol=1e-14)
    assert_allclose(jacobi_sn(u, 1.0), np.tanh(u), atol=1e-14)


def test_amplitude_at_quarter_period():
    for m in (0.2, 0.5, 0.95):
        assert_allclose(jacobi_am(elliptic_K(m), m), np.pi / 2.0, atol=1e-12)


def test_quasi_periodicity():
    for m in (0.3, 0.8):
        K = elliptic_K(m)
        u = np.linspace(-4.0, 4.0, 41)
        assert_allclose(jacobi_am(u + 2 * K, m), jacobi_am(u, m) + np.pi, atol=5e-13)


def test_matches_scipy_on_standard_parameter_range():
    u = np.linspace(-8.0, 8.0, 201)
    for m in (0.12, 0.5, 0.93):
        sn, cn, dn, ph = ellipj(u, m)
        assert_allclose(jacobi_sn(u, m), sn, atol=5e-13)
        assert_allclose(jacobi_cn(u, m), cn, atol=5e-13)
        assert_allclose(jacobi_dn(u, m), dn, atol=5e-13)
        assert_allclose(jacobi_am(u, m), ph, atol=5e-13)


@pytest.mark.parametrize("m", [0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6])
def test_all_four_functions_match_scipy_across_the_unit_interval(m):
    u = np.linspace(-8.0, 8.0, 2001)
    for ours, ref in zip(umbilic_ellipj(u, m), ellipj(u, m)):
        assert np.max(np.abs(ours - ref)) <= 1e-13


@pytest.mark.parametrize("m", [-1.0, -4.0, -15.0])
def test_amplitude_inverts_at_odd_quarter_periods_for_negative_parameter(m):
    # am = n pi + arcsin(x) lost ~2e-8 here, where x -> +-1
    K = elliptic_K(m)
    u = np.concatenate([[K, -K], 3.0 * K + np.array([0.0, 1e-9, -1e-9, 1e-8, -1e-8])])
    assert np.max(np.abs(ellipkinc(jacobi_am(u, m), m) - u)) <= 1e-13


@pytest.mark.parametrize("m", [2.0, 9.0])
def test_reciprocal_modulus_above_one(m):
    # sn(u|m) = sn(v|1/m)/sqrt(m), cn(u|m) = dn(v|1/m), dn(u|m) = cn(v|1/m),
    # v = u sqrt(m): dn changes sign, cn does not
    u = np.linspace(-3.0, 3.0, 61)
    sn, cn, dn, _ = ellipj(u * np.sqrt(m), 1.0 / m)
    assert_allclose(jacobi_sn(u, m), sn / np.sqrt(m), atol=1e-14)
    assert_allclose(jacobi_cn(u, m), dn, atol=1e-14)
    assert_allclose(jacobi_dn(u, m), cn, atol=1e-14)


def test_large_parameters_match_mpmath():
    # |m| > 1e3 takes the same reductions as every other m; H2xR b = 0.01
    # is m = -1e4
    for m, u_max in ((2500.0, 0.5), (-2500.0, 3.0), (-1e4, 3.0), (1e6, 0.05)):
        u = np.linspace(-u_max, u_max, 13)
        s, c, d, am = umbilic_ellipj(u, m)
        for name, got in (("sn", s), ("cn", c), ("dn", d)):
            want = [float(mpmath.re(mpmath.ellipfun(name, x, m=m))) for x in u]
            assert_allclose(got, want, rtol=1e-11, atol=1e-13)
        assert_allclose(np.sin(am), s, atol=1e-12)
        assert_allclose(s**2 + c**2, 1.0, atol=1e-12)
        assert_allclose(d**2 + m * s**2, 1.0, atol=1e-12 * abs(m))


@pytest.mark.parametrize("m", [0.0, 1e-3, 0.3, 0.5, 0.9, 0.999])
def test_zeta_matches_mpmath(m):
    # the Jacobi zeta function is theta_4'/theta_4 at v = pi u/(2K), times pi/(2K)
    u = np.linspace(-9.0, 9.0, 25)
    sn, cn, dn, zeta = ellipj_zeta(u, m)
    k = mpmath.pi / (2 * mpmath.ellipk(m))
    q = mpmath.qfrom(m=m)
    want = [float(k * mpmath.jtheta(4, k * x, q, 1) / mpmath.jtheta(4, k * x, q)) for x in u]
    assert_allclose(zeta, want, rtol=0, atol=2e-15)
    ref = umbilic_ellipj(u, m)
    assert_allclose(np.stack([sn, cn, dn]), np.stack(ref[:3]), rtol=0, atol=0)
    for bad in (-0.5, 1.0):
        with pytest.raises(ValueError):
            ellipj_zeta(u, bad)


@given(
    st.floats(min_value=-6.0, max_value=6.0),
    st.floats(min_value=1e-3, max_value=0.999),
)
@settings(max_examples=200, deadline=None)
def test_pythagorean_identities(u, m):
    s, c, d = jacobi_sn(u, m), jacobi_cn(u, m), jacobi_dn(u, m)
    assert abs(s * s + c * c - 1.0) < 1e-12
    assert abs(d * d + m * s * s - 1.0) < 1e-12
    assert abs(s) <= 1.0 + 1e-12
    assert d > 0.0


@given(
    st.floats(min_value=-6.0, max_value=6.0),
    st.floats(min_value=-3.0, max_value=0.999),
)
@settings(max_examples=200, deadline=None)
def test_amplitude_is_odd(u, m):
    assert abs(jacobi_am(u, m) + jacobi_am(-u, m)) < 1e-12


@given(st.floats(min_value=0.01, max_value=0.99))
@settings(max_examples=100, deadline=None)
def test_derivative_of_amplitude_is_dn(m):
    # centered difference of am against dn
    u, h = 0.7, 1e-6
    fd = (jacobi_am(u + h, m) - jacobi_am(u - h, m)) / (2 * h)
    assert abs(fd - jacobi_dn(u, m)) < 1e-8
