"""Profile-curve integration against quadrature oracles and closed forms."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import quad

from oracles import (
    EventNotFoundError,
    find_event,
    find_event_all_roots,
    ode_plane_profile,
    ode_sol_profile,
    principal_curvature_normal_part,
)
from umbilic.elliptic import elliptic_K, jacobi_am
from umbilic.profiles import (
    _lemniscate_series,
    h2xr_elliptic_profile,
    h2xr_hyperbolic_profile,
    h2xr_parabolic_profile,
    s2xr_profile,
    sol_profile,
)

# closed form for the Sol half-width: y_a = a^{1/4} sqrt(pi) G(3/4)/(4 G(5/4))
SOL_HALF_WIDTH_1 = 0.5990701173677959


# --- arclength, parity, first integrals --------------------------------------


CURVES = [
    ("s2xr", 0.6, lambda: s2xr_profile(0.6)),
    ("s2xr", 1.0, lambda: s2xr_profile(1.0)),
    ("s2xr", 2.0, lambda: s2xr_profile(2.0)),
    ("h2xr-elliptic", 0.8, lambda: h2xr_elliptic_profile(0.8)),
    ("h2xr-parabolic", None, lambda: h2xr_parabolic_profile()),
    ("h2xr-hyperbolic", 0.5, lambda: h2xr_hyperbolic_profile(0.5)),
]


@pytest.mark.parametrize("kind,param,build", CURVES)
def test_arclength_and_angle_consistency(kind, param, build):
    curve = build()
    j = curve.jet(curve.s)
    assert np.max(np.abs(j["rho_s"] ** 2 + j["t_s"] ** 2 - 1.0)) < 1e-8
    assert np.max(np.abs(np.cos(j["theta"]) - j["rho_s"])) < 1e-8
    assert np.max(np.abs(np.sin(j["theta"]) - j["t_s"])) < 1e-8


@pytest.mark.parametrize("kind,param,build", CURVES)
def test_dense_jet_matches_centered_differences(kind, param, build):
    curve = build()
    h = 1e-5
    s = np.linspace(-1.5, 1.5, 11)
    for name, deriv in (("rho", "rho_s"), ("t", "t_s"), ("theta", "theta_s")):
        fd = (curve.jet(s + h)[name] - curve.jet(s - h)[name]) / (2 * h)
        assert np.max(np.abs(fd - curve.jet(s)[deriv])) < 1e-7


def test_parity_by_family():
    s = np.linspace(0.0, 2.5, 41)
    for build, rho_sign, t_sign in [
        (lambda: s2xr_profile(0.7), -1.0, 1.0),
        (lambda: s2xr_profile(1.0), -1.0, 1.0),
        (lambda: h2xr_elliptic_profile(1.2), -1.0, 1.0),
        (lambda: h2xr_parabolic_profile(), 1.0, -1.0),
        (lambda: h2xr_hyperbolic_profile(0.4), -1.0, -1.0),
    ]:
        c = build()
        jp, jm = c.jet(s), c.jet(-s)
        assert np.max(np.abs(jm["rho"] - rho_sign * jp["rho"])) < 1e-8
        assert np.max(np.abs(jm["t"] - t_sign * jp["t"])) < 1e-8


def test_first_integrals_are_conserved():
    c = s2xr_profile(0.45)
    j = c.jet(c.s)
    assert np.max(np.abs(np.sin(j["theta"]) - 0.45 * np.sin(j["rho"]))) < 1e-8
    c = h2xr_elliptic_profile(1.5)
    j = c.jet(c.s)
    assert np.max(np.abs(np.sin(j["theta"]) - 1.5 * np.sinh(j["rho"]))) < 1e-8
    c = h2xr_hyperbolic_profile(0.7)
    j = c.jet(c.s)
    assert np.max(np.abs(np.sin(j["theta"]) - 0.7 * np.cosh(j["rho"]))) < 1e-8


# --- periods and events -------------------------------------------------------


@pytest.mark.parametrize("a", [0.3, 0.6, 0.9])
def test_winding_period_matches_quadrature(a):
    curve = s2xr_profile(a)
    oracle = quad(lambda r: 1.0 / np.sqrt(1.0 - a * a * np.sin(r) ** 2), 0.0, np.pi,
                  epsabs=1e-12, epsrel=1e-12)[0]
    assert abs(curve.period_data.s1 - oracle) < 1e-8
    assert abs(curve.period_data.s1 - 2.0 * elliptic_K(a * a)) < 1e-8


@pytest.mark.parametrize("a", [0.4, 0.75])
def test_winding_closure_and_vertical_periodicity(a):
    curve = s2xr_profile(a)
    s1 = curve.period_data.s1
    s = np.linspace(-s1, s1, 101)
    ja, jb = curve.jet(s), curve.jet(s + 2 * s1)
    assert np.max(np.abs(jb["rho"] - ja["rho"] - 2 * np.pi)) < 1e-8
    assert np.max(np.abs(jb["t"] - ja["t"])) < 1e-8


@pytest.mark.parametrize("a", [1.5, 3.0])
def test_sphere_turning_point(a):
    curve = s2xr_profile(a)
    delta = curve.period_data.delta
    # substituting sin rho = sin(phi)/a makes the turning point regular
    oracle = quad(lambda p: 1.0 / np.sqrt(a * a - np.sin(p) ** 2), 0.0, np.pi / 2,
                  epsabs=1e-12, epsrel=1e-12)[0]
    assert abs(delta - oracle) < 1e-8
    assert abs(delta - elliptic_K(1.0 / a**2) / a) < 1e-8
    assert abs(curve.jet(delta)["rho"] - np.arcsin(1.0 / a)) < 1e-8
    # the profile closes up: period 4 delta in both coordinates
    s = np.linspace(-delta, delta, 41)
    ja, jb = curve.jet(s), curve.jet(s + 4 * delta)
    assert np.max(np.abs(jb["rho"] - ja["rho"])) < 1e-8
    assert np.max(np.abs(jb["t"] - ja["t"])) < 1e-8


def test_sphere_profile_agrees_with_amplitude_function():
    a = 0.6
    curve = s2xr_profile(a)
    s1 = curve.period_data.s1
    s = np.linspace(-2 * s1, 2 * s1, 401)
    assert np.max(np.abs(curve.jet(s)["rho"] - jacobi_am(s, a * a))) < 1e-8


@pytest.mark.parametrize("b", [0.5, 1.0, 2.0])
def test_elliptic_turning_point(b):
    curve = h2xr_elliptic_profile(b)
    delta = curve.period_data.delta
    oracle = quad(lambda p: 1.0 / np.sqrt(b * b + np.sin(p) ** 2), 0.0, np.pi / 2,
                  epsabs=1e-12, epsrel=1e-12)[0]
    assert abs(delta - oracle) < 1e-8
    assert abs(curve.jet(delta)["rho"] - np.arcsinh(1.0 / b)) < 1e-8
    s = np.linspace(-delta, delta, 41)
    ja, jb = curve.jet(s), curve.jet(s + 4 * delta)
    assert np.max(np.abs(jb["rho"] - ja["rho"])) < 1e-8
    assert np.max(np.abs(jb["t"] - ja["t"])) < 1e-8


@pytest.mark.parametrize("c", [0.2, 0.5, 0.9])
def test_hyperbolic_amplitude_and_shift(c):
    curve = h2xr_hyperbolic_profile(c)
    delta = curve.period_data.delta
    assert abs(curve.jet(delta)["rho"] - np.arccosh(1.0 / c)) < 1e-8
    assert abs(curve.jet(0.0)["rho_s"] - np.sqrt(1.0 - c * c)) < 1e-12
    # rho is 4 delta periodic while t gains a fixed vertical shift
    s = np.linspace(-delta, delta, 41)
    ja, jb = curve.jet(s), curve.jet(s + 4 * delta)
    t_step = 4.0 * curve.jet(delta)["t"]
    assert np.max(np.abs(jb["rho"] - ja["rho"])) < 1e-8
    assert np.max(np.abs(jb["t"] - ja["t"] - t_step)) < 1e-8


JACOBI_CASES = (
    [("s2xr", a, s2xr_profile) for a in (0.3, 0.6, 0.9, 1.5, 3.0)]
    + [("h2xr-elliptic", b, h2xr_elliptic_profile) for b in (0.5, 0.8, 1.0, 2.0)]
    + [("h2xr-hyperbolic", c, h2xr_hyperbolic_profile) for c in (0.25, 0.5, 0.75)]
)


@pytest.mark.parametrize("kind,param,build", JACOBI_CASES,
                         ids=[f"{c[0]}-{c[1]}" for c in JACOBI_CASES])
def test_jacobi_profiles_match_the_ode_oracle(kind, param, build):
    curve = build(param)
    ode = ode_plane_profile(kind, param, rtol=1e-13, atol=1e-14)
    assert ode.span == pytest.approx(curve.span, abs=1e-10)
    s = np.linspace(curve.span[0], curve.span[1], 4097)
    jc, jo = curve.jet(s), ode.jet(np.clip(s, ode.span[0], ode.span[1]))
    assert set(jc) == set(jo)
    for key in jc:
        assert np.max(np.abs(jc[key] - jo[key])) <= 1e-10, key


def test_periods_are_positive_and_closed_form():
    for c in np.arange(1, 20) * 0.05:
        curve = h2xr_hyperbolic_profile(c)
        m = -(1.0 - c * c) / (c * c)
        delta = curve.period_data.delta
        assert delta > 0 and delta == pytest.approx(elliptic_K(m) / c, rel=1e-14)
        assert abs(curve.jet(delta)["rho"] - np.arccosh(1.0 / c)) <= 1e-12
    for b in (0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0):
        curve = h2xr_elliptic_profile(b)
        delta = curve.period_data.delta
        assert delta > 0 and delta == pytest.approx(elliptic_K(-1.0 / b**2) / b, rel=1e-14)
        assert abs(curve.jet(delta)["rho"] - np.arcsinh(1.0 / b)) <= 1e-12
    for a in (0.3, 0.6, 0.9, 1.2, 1.5, 2.0, 3.0, 5.0):
        curve = s2xr_profile(a)
        if a < 1:
            s1 = curve.period_data.s1
            assert s1 > 0 and s1 == pytest.approx(2.0 * elliptic_K(a * a), rel=1e-14)
            assert abs(curve.jet(s1)["rho"] - np.pi) <= 1e-12
        else:
            delta = curve.period_data.delta
            assert delta > 0 and delta == pytest.approx(elliptic_K(1.0 / a**2) / a, rel=1e-14)
            assert abs(curve.jet(delta)["rho"] - np.arcsin(1.0 / a)) <= 1e-12


def test_borderline_closed_form_and_ode_agree():
    span = (-8.0, 8.0)
    cf = s2xr_profile(1.0, s_span=span)
    ode = ode_plane_profile("s2xr", 1.0, s_span=span)
    s = np.linspace(-8.0, 8.0, 321)
    for key in ("rho", "t", "theta", "rho_s", "t_s", "theta_s"):
        assert np.max(np.abs(cf.jet(s)[key] - ode.jet(s)[key])) < 1e-8


def test_borderline_closed_form_values():
    curve = s2xr_profile(1.0)
    s = np.linspace(-6.0, 6.0, 121)
    j = curve.jet(s)
    assert np.max(np.abs(j["rho"] - (np.pi / 2 - 2 * np.arctan(np.exp(-s))))) < 1e-12
    assert np.max(np.abs(j["t"] - np.log(np.cosh(s)))) < 1e-12
    assert np.max(np.abs(j["theta"] - j["rho"])) < 1e-15


def test_parabolic_closed_form_values():
    curve = h2xr_parabolic_profile()
    s = np.linspace(-6.0, 6.0, 121)
    j = curve.jet(s)
    assert np.max(np.abs(j["t"] - (2 * np.arctan(np.exp(s)) - np.pi / 2))) < 1e-12
    assert np.max(np.abs(j["rho"] + np.log(np.cosh(s)))) < 1e-12
    assert np.max(np.abs(j["rho_s"] + np.tanh(s))) < 1e-12
    ode = ode_plane_profile("h2xr-parabolic", None, s_span=(-8.0, 8.0))
    sg = np.linspace(-7.5, 7.5, 301)
    assert np.max(np.abs(curve_eval(ode, sg) - curve_eval(curve, sg))) < 1e-8


def curve_eval(curve, s):
    j = curve.jet(np.clip(s, curve.span[0], curve.span[1]))
    return np.stack([j["rho"], j["t"], j["theta"]])


def test_find_event_examples():
    # turning point of the a=2 sphere profile against direct quadrature
    curve = s2xr_profile(2.0)
    s_star = find_event(curve, "rho_prime_zero")
    # int_0^{pi/6} (1 - 4 sin^2 r)^{-1/2} dr, regularized by sin r = sin(phi)/2
    oracle = quad(lambda p: 0.5 / np.sqrt(1.0 - 0.25 * np.sin(p) ** 2), 0.0, np.pi / 2,
                  epsabs=1e-12, epsrel=1e-12)[0]
    assert abs(s_star - oracle) < 1e-9

    # inverting the borderline closed form: rho(1) is hit exactly at s = 1
    curve = s2xr_profile(1.0)
    target = np.pi / 2 - 2 * np.arctan(np.exp(-1.0))
    assert abs(find_event(curve, "rho_hits", target) - 1.0) < 1e-10

    # the parabolic profile turns at s = 0
    assert abs(find_event(h2xr_parabolic_profile(), "rho_prime_zero")) < 1e-12


# the C03/C04 profiles and the C10 classifier parameters, each with the
# events its period data or slice levels come from
EVENT_CASES = (
    [(f"s2xr({a})", lambda a=a: s2xr_profile(a), "rho_hits", np.pi)
     for a in (0.3, 0.6, 0.9)]
    + [(f"s2xr({a})", lambda a=a: s2xr_profile(a), kind, value)
       for a in (1.5, 3.0) for kind, value in (("rho_prime_zero", None), ("rho_hits", 0.2))]
    + [(f"elliptic({b})", lambda b=b: h2xr_elliptic_profile(b), kind, value)
       for b in (0.5, 1.0, 2.0)
       for kind, value in (("rho_prime_zero", None), ("rho_hits", 0.3))]
    + [("parabolic", h2xr_parabolic_profile, "rho_prime_zero", None)]
    + [(f"hyperbolic({c})", lambda c=c: h2xr_hyperbolic_profile(c), kind, value)
       for c in (0.25, 0.5, 0.75)
       for kind, value in (("rho_prime_zero", None), ("rho_hits", -0.2))]
    + [("sol(1)", lambda: sol_profile(1.0), "rho_prime_zero", None)]
)


@pytest.mark.parametrize("name, build, kind, value", EVENT_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in EVENT_CASES])
def test_find_event_matches_the_all_roots_oracle(name, build, kind, value):
    curve = build()
    assert find_event(curve, kind, value) == find_event_all_roots(curve, kind, value)


def test_find_event_error_paths():
    curve = s2xr_profile(1.0)
    with pytest.raises(EventNotFoundError):
        find_event(curve, "rho_hits", 5.0)  # rho is bounded by pi/2
    with pytest.raises(ValueError):
        find_event(curve, "blow_down")
    with pytest.raises(ValueError):
        find_event(curve, "no_such_event")


# --- Sol graphs ---------------------------------------------------------------


def test_sol_crest_values_are_exact():
    assert sol_profile(1.0).jet(0.0)["z"] == 0.0
    assert abs(sol_profile(np.exp(4.0)).jet(0.0)["z"] - 1.0) < 1e-14


@pytest.mark.parametrize("a", [0.5, 1.0, 4.0])
def test_sol_half_width_against_closed_form(a):
    curve = sol_profile(a)
    assert abs(curve.period_data.y_a - SOL_HALF_WIDTH_1 * a**0.25) < 1e-14


def test_sol_half_width_against_quadrature():
    a = 2.0
    curve = sol_profile(a)
    # u^2 (a - u^4)^{-1/2} du over (0, a^{1/4}); u^4 = a sin^2(t^2) is smooth
    oracle = quad(lambda t: a**0.25 * t * np.sqrt(np.sin(t * t)), 0.0, np.sqrt(np.pi / 2),
                  epsabs=0.0, epsrel=1e-13)[0]
    assert abs(curve.period_data.y_a - oracle) < 1e-14


@pytest.mark.parametrize("p", [1, 3])
def test_lemniscate_series_matches_its_integral(p):
    # the integral of t^(p - 1) (1 - t^4)^(-1/2) from 0 to v, for v <= e^-4,
    # taken over t = v s so that mpmath's absolute tolerance is relative
    for v in (np.exp(-4.0), np.exp(-4.5), 1e-3, 1e-12):
        with mpmath.workdps(30):
            v4 = mpmath.mpf(v) ** 4
            want = mpmath.mpf(v) ** p * mpmath.quad(
                lambda s: s ** (p - 1) / mpmath.sqrt(1 - v4 * s**4), [0, 1])
        assert abs(_lemniscate_series(v, p) - float(want)) <= 4e-16 * float(want)


def _sol_oracle(a, y, u0):
    """z and z_y at y on the Sol graph of parameter a, by mpmath: the root u
    of y = c (2 E(am u | 1/2) - u) nearest u0, then e^{z - z0} = cn(u | 1/2)."""
    c, z0 = mpmath.mpf(a) ** 0.25 / mpmath.sqrt(2), mpmath.log(a) / 4

    def w(u):
        return 2 * mpmath.ellipe(mpmath.asin(mpmath.ellipfun("sn", u, m=0.5)), 0.5) - u

    u = mpmath.findroot(lambda u: w(u) - mpmath.mpf(y) / c, u0)
    sn, cn, dn = (mpmath.ellipfun(f, u, m=0.5) for f in ("sn", "cn", "dn"))
    return float(z0 + mpmath.log(cn)), float(-sn * dn / (c * cn**3))


@pytest.mark.parametrize("a", [0.5, 1.0, float(np.exp(4.0))])
def test_sol_closed_form_matches_mpmath(a):
    # at the end of the span z_y reaches 2e5; z(y) is conditioned by it, so
    # each bound also carries an error of 4 ulps in y through the slope
    curve = sol_profile(a)
    y = np.concatenate([np.linspace(curve.span[0], curve.span[1], 11),
                        curve.span[1] * (1.0 - np.geomspace(1e-12, 1e-3, 4))])
    j = curve.jet(y)
    slop = 4.0 * np.spacing(np.abs(y))
    # each root search starts at u = F(arccos(e^{z - z0}) | 1/2) of the tested z
    u0 = [float(mpmath.ellipf(np.arccos(np.exp(z - 0.25 * np.log(a))), 0.5)) * np.sign(yy)
          for yy, z in zip(y, j["z"])]
    with mpmath.workdps(25):
        want = np.array([_sol_oracle(a, yy, uu) for yy, uu in zip(y, u0)])
    assert np.all(np.abs(j["z"] - want[:, 0]) <= 1e-10 + slop * np.abs(j["z_y"]))
    assert np.all(np.abs(j["z_y"] - want[:, 1])
                  <= 1e-10 * np.maximum(1.0, np.abs(want[:, 1])) + slop * np.abs(j["z_yy"]))


@pytest.mark.parametrize("a", [0.5, 1.0, float(np.exp(4.0))])
def test_sol_closed_form_matches_the_ode_oracle(a):
    curve, ode = sol_profile(a), ode_sol_profile(a, rtol=1e-12, atol=1e-14)
    # both spans end 4 below the crest
    assert abs(curve.span[1] - ode.span[1]) < 1e-13
    y = np.linspace(-0.999, 0.999, 401) * curve.span[1]
    j, o = curve.jet(y), ode.jet(y)
    assert np.max(np.abs(j["z"] - o["z"])) < 1e-10
    assert np.max(np.abs(j["z_y"] - o["z_y"]) / np.maximum(1.0, np.abs(o["z_y"]))) < 1e-10


def test_sol_graph_equation_and_first_integral():
    a = 1.3
    curve = sol_profile(a)
    y = np.linspace(-0.9 * curve.span[1], 0.9 * curve.span[1], 201)
    j = curve.jet(y)
    # graph equation via centered differences of the dense slope
    h = 1e-6
    fd = (curve.jet(y + h)["z_y"] - curve.jet(y - h)["z_y"]) / (2 * h)
    assert np.max(np.abs(fd + 3.0 * j["z_y"] ** 2 + 2.0 * np.exp(-2.0 * j["z"]))) < 1e-6
    first = j["z_y"] ** 2 - (a * np.exp(-6.0 * j["z"]) - np.exp(-2.0 * j["z"]))
    assert np.max(np.abs(first)) < 1e-12
    assert np.max(np.abs(curve.jet(-y)["z"] - j["z"])) < 1e-15


def test_sol_scaling_between_parameters():
    # (x, y, z) -> (e^{-c} x, e^c y, z + c) maps the a = 1 graph to a = e^{4c}
    c = 1.0
    base = sol_profile(1.0)
    big = sol_profile(np.exp(4.0))
    y = np.linspace(-0.8 * base.span[1], 0.8 * base.span[1], 101)
    mapped = base.jet(y)["z"] + c
    assert np.max(np.abs(big.jet(np.exp(c) * y)["z"] - mapped)) < 1e-14
    assert abs(big.period_data.y_a - np.exp(c) * base.period_data.y_a) < 1e-14


def test_sol_samples_cover_the_clipped_window():
    curve = sol_profile(1.0, z_clip=-30.0)
    assert curve.samples[:, 1].min() < -29.0
    assert abs(curve.samples[0, 0] + curve.samples[-1, 0]) < 1e-12
    y_star = find_event(curve, "blow_down", -30.0)
    assert abs(y_star - curve.period_data.y_a) < 1e-14
    shallow = find_event(curve, "blow_down", -1.0)
    assert abs(curve.jet(shallow)["z"] + 1.0) < 1e-11
    # the samples below the span lie on the graph: y_a - y from the series
    # against the quadrature of dz / |z'|
    span_end = curve.jet(curve.span[1])["z"]
    for y, z in curve.samples[curve.samples[:, 1] < span_end]:
        assert abs(abs(y) - find_event(curve, "blow_down", z)) < 1e-14


def test_sol_blow_down_below_clip_raises():
    curve = sol_profile(1.0, z_clip=-10.0)
    with pytest.raises(EventNotFoundError):
        find_event(curve, "blow_down", -11.0)


# --- parameter validation -------------------------------------------------------


def test_parameter_domains():
    for bad_call in (
        lambda: s2xr_profile(0.0),
        lambda: s2xr_profile(-0.5),
        lambda: h2xr_elliptic_profile(0.0),
        lambda: h2xr_hyperbolic_profile(0.0),
        lambda: h2xr_hyperbolic_profile(1.0),
        lambda: sol_profile(-2.0),
        lambda: sol_profile(1.0, z_clip=-3.0),  # the clip must lie below the span
    ):
        with pytest.raises(ValueError):
            bad_call()


def test_jet_outside_span_raises():
    curve = s2xr_profile(1.0, s_span=(-2.0, 2.0))
    with pytest.raises(ValueError):
        curve.jet(3.0)


def test_lambda2_closed_forms():
    j = s2xr_profile(0.7).jet(1.3)
    v = principal_curvature_normal_part("s2xr", j["rho"], j["theta"], 0.7)
    assert_allclose(v, np.sin(j["theta"]) / np.tan(j["rho"]), rtol=1e-12)
    j = h2xr_parabolic_profile().jet(0.4)
    v = principal_curvature_normal_part("h2xr-parabolic", j["rho"], j["theta"], None)
    assert_allclose(v, np.sin(j["theta"]), rtol=1e-12)


@given(st.floats(min_value=0.1, max_value=0.95))
@settings(max_examples=8, deadline=None)
def test_winding_period_property(a):
    curve = s2xr_profile(a)
    assert abs(curve.period_data.s1 - 2.0 * elliptic_K(a * a)) < 1e-6


@given(st.floats(min_value=0.15, max_value=0.85))
@settings(max_examples=8, deadline=None)
def test_hyperbolic_first_integral_property(c):
    curve = h2xr_hyperbolic_profile(c)
    s = np.linspace(curve.span[0], curve.span[1], 101)
    j = curve.jet(s)
    assert np.max(np.abs(np.sin(j["theta"]) - c * np.cosh(j["rho"]))) < 1e-7
