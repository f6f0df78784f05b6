"""Identity checks, their FD convergence, and the umbilic falsification search."""

import copy

import numpy as np
import pytest

from umbilic.families import build_family
from umbilic.geometry import h2xr, m3, s2xr, sol
from umbilic.surfaces import patch_from_chart
from umbilic.verify import (
    IdentityCheck,
    NonUmbilicPatchError,
    SUITE_NAMES,
    check_bracket_and_jtnu,
    check_curvature_commutator,
    check_daniel_formula,
    check_gradient_identity,
    check_killing,
    check_sol_identities,
    geodesic_sphere_patch,
    nonexistence_falsifier,
    rotational_graph_patch,
    run_suite,
    trial_defect,
)


@pytest.fixture(scope="module")
def patches():
    built = {
        "a_lt": build_family("S2xR_a_lt_1", 0.6),
        "a_eq": build_family("S2xR_a_eq_1"),
        "b": build_family("H2xR_elliptic", 0.8),
        "p": build_family("H2xR_parabolic"),
        "c": build_family("H2xR_hyperbolic", 0.5),
        "slice_s2": build_family("S2xR_slice"),
        "fa": build_family("Sol_Fa", 1.0),
    }
    out = {k: v[1] for k, v in built.items()}
    out["plane_y0"] = patch_from_chart(sol(), "sol-y0", lambda U, V: np.stack(
        [U, np.zeros_like(U), V], axis=-1), (-1.0, 1.0), (-1.0, 1.0))
    return out


# --- vertical Killing field ----------------------------------------------------


@pytest.mark.parametrize("kappa,tau", [(0.0, 0.5), (-1.0, 1.0), (1.0, 1.0)])
def test_killing_identity_on_fibrations(kappa, tau):
    c = check_killing(m3(kappa, tau), seed=3)
    assert c.residual_stats["max"] < 1e-8


def test_killing_field_is_parallel_on_products():
    for sp in (s2xr(), h2xr()):
        c = check_killing(sp, seed=3)
        assert c.residual_stats["max"] < 1e-14


def test_killing_grid_suite():
    rep = run_suite("killing-grid", seed=0)
    assert rep["n_checks"] == 6
    assert rep["max_residual"] < 1e-8


# --- curvature commutator and fibration curvature formula ----------------------


@pytest.mark.parametrize("key,space", [
    ("a_lt", s2xr()), ("a_eq", s2xr()), ("b", h2xr()), ("c", h2xr()),
])
def test_commutator_identity_on_umbilic_patches(patches, key, space):
    c = check_curvature_commutator(space, patches[key])
    assert c.residual_stats["max"] < 1e-5


def test_commutator_requires_umbilic_patch():
    sp = m3(0.0, 0.5)
    graph = rotational_graph_patch(sp, [0.1, 0.3, -0.2])
    with pytest.raises(NonUmbilicPatchError):
        check_curvature_commutator(sp, graph)


def test_daniel_formula_on_rotational_patch(patches):
    c = check_daniel_formula(s2xr(), patches["a_lt"])
    assert c.residual_stats["max"] < 1e-6


def test_daniel_formula_holds_off_umbilic_surfaces():
    sp = m3(0.0, 0.5)
    graph = rotational_graph_patch(sp, [0.1, 0.3, -0.2])
    c = check_daniel_formula(sp, graph)
    assert c.residual_stats["max"] < 1e-6


def test_daniel_formula_slice_both_sides_vanish(patches):
    c = check_daniel_formula(s2xr(), patches["slice_s2"])
    assert c.residual_stats["max"] < 1e-12


def test_daniel_formula_space_form_right_side_vanishes():
    # kappa = 4 tau^2: the factor is zero and the residual reduces to
    # |R(X_u, X_v)N|, which vanishes in constant curvature
    sp = m3(1.0, 0.5)
    assert sp.is_space_form
    graph = rotational_graph_patch(sp, [0.1, 0.3])
    c = check_daniel_formula(sp, graph)
    assert c.residual_stats["max"] < 1e-6


def test_daniel_formula_needs_a_vertical_field(patches):
    with pytest.raises(ValueError):
        check_daniel_formula(sol(), patches["fa"])


def test_daniel_grid_on_geodesic_spheres():
    rep = run_suite("daniel-grid", seed=0)
    assert rep["n_checks"] == 7
    assert rep["max_residual"] < 1e-6


# --- gradient law ---------------------------------------------------------------


def test_gradient_identity_a1_surface(patches):
    c = check_gradient_identity(s2xr(), patches["a_eq"])
    assert c.name == "gradient_product"
    assert c.residual_stats["max"] < 1e-5


def test_gradient_identity_slice_trivial(patches):
    c = check_gradient_identity(s2xr(), patches["slice_s2"])
    assert c.residual_stats["max"] < 1e-12


def test_gradient_identity_sol_graph(patches):
    c = check_gradient_identity(sol(), patches["fa"])
    assert c.name == "gradient_sol"
    assert c.residual_stats["max"] < 1e-5


def test_gradient_identity_rejects_non_umbilic():
    sp = m3(0.0, 0.5)
    graph = rotational_graph_patch(sp, [0.1, 0.3, -0.2])
    with pytest.raises(NonUmbilicPatchError, match="defect"):
        check_gradient_identity(sp, graph)


def test_gradient_identity_space_mismatch(patches):
    with pytest.raises(ValueError, match="does not match"):
        check_gradient_identity(h2xr(), patches["a_eq"])


# --- bracket of T and JT --------------------------------------------------------


def test_bracket_and_jtnu_on_hyperbolic_family(patches):
    br, jn = check_bracket_and_jtnu(h2xr(), patches["c"])
    assert br.residual_stats["max"] < 1e-5
    assert jn.residual_stats["max"] < 1e-5


def test_bracket_slice_is_vacuous(patches):
    br, jn = check_bracket_and_jtnu(s2xr(), patches["slice_s2"])
    assert br.skipped_points == 16 * 16
    assert br.residual_stats["max"] == 0.0
    assert jn.residual_stats["max"] == 0.0


def test_jtnu_on_small_sphere_family(patches):
    _, jn = check_bracket_and_jtnu(s2xr(), patches["a_lt"])
    assert jn.residual_stats["max"] < 1e-5


def test_bracket_rejects_fibration_spaces():
    sp = m3(0.0, 0.5)
    graph = rotational_graph_patch(sp, [0.0])
    with pytest.raises(ValueError, match="product"):
        check_bracket_and_jtnu(sp, graph)


# --- Sol identities --------------------------------------------------------------


def test_sol_identities_on_fa(patches):
    frame, curved, lie = check_sol_identities(patches["fa"])
    assert frame.name == "sol_frame_table"
    assert frame.residual_stats["max"] < 1e-12
    assert curved.name == "sol_curvature_formula"
    assert curved.residual_stats["max"] < 1e-12
    assert lie.name == "lie_lambda"
    assert lie.residual_stats["max"] < 1e-5
    assert lie.extras["alpha_max"] < 1e-8
    assert lie.extras["beta_max"] > 0.1


def test_sol_identities_geodesic_plane_vacuous(patches):
    frame, curved, lie = check_sol_identities(patches["plane_y0"])
    assert frame.residual_stats["max"] < 1e-12
    assert curved.residual_stats["max"] < 1e-12
    assert lie.residual_stats["max"] < 1e-9
    assert lie.extras["alpha_max"] < 1e-9
    assert lie.extras["beta_max"] < 1e-9


def test_sol_identities_reject_other_spaces(patches):
    with pytest.raises(ValueError, match="Sol"):
        check_sol_identities(patches["a_eq"])


# --- FD machinery sanity ----------------------------------------------------------


@pytest.mark.parametrize("key,check", [
    ("c", lambda patch: check_bracket_and_jtnu(h2xr(), patch)),
    ("fa", check_sol_identities),
])
def test_stencil_checks_evaluate_five_jets(patches, key, check):
    # the center and its four shifts, each evaluated once per check
    patch = copy.copy(patches[key])
    calls = []

    def counted(U, V):
        calls.append(np.shape(U))
        return patches[key].jet(U, V)

    patch.jet = counted
    check(patch)
    assert len(calls) == 5



@pytest.mark.parametrize("check,args", [
    (check_gradient_identity, ("a_lt", s2xr())),
    (check_curvature_commutator, ("a_lt", s2xr())),
])
def test_residual_at_least_halves_with_the_step(patches, check, args):
    key, sp = args
    r1 = check(sp, patches[key], fd_step=2e-2).residual_stats["max"]
    r2 = check(sp, patches[key], fd_step=1e-2).residual_stats["max"]
    assert r2 <= 0.6 * r1


def test_bracket_residual_at_least_halves_with_the_step(patches):
    b1, _ = check_bracket_and_jtnu(s2xr(), patches["a_lt"], fd_step=2e-2)
    b2, _ = check_bracket_and_jtnu(s2xr(), patches["a_lt"], fd_step=1e-2)
    assert b2.residual_stats["max"] <= 0.6 * b1.residual_stats["max"]


def test_identity_check_validates_inputs():
    with pytest.raises(ValueError, match="unknown identity"):
        IdentityCheck("bogus", (16, 16), {"max": 0.0, "mean": 0.0})
    with pytest.raises(ValueError, match="max >= mean"):
        IdentityCheck("killing", (16, 16), {"max": 1.0, "mean": 2.0})


def test_checks_demand_enough_points():
    with pytest.raises(ValueError, match="256"):
        check_killing(m3(0.0, 0.5), grid=(8, 8))


def test_report_serialization_shape(patches):
    c = check_gradient_identity(sol(), patches["fa"])
    rep = c.as_report(sol())
    assert set(rep) == {"identity", "space", "grid", "max_residual",
                        "mean_residual", "skipped_points"}
    assert rep["space"] == {"kind": "sol", "kappa": None, "tau": None}
    rep2 = check_killing(m3(-1.0, 1.0)).as_report(m3(-1.0, 1.0))
    assert rep2["space"] == {"kind": "m3", "kappa": -1.0, "tau": 1.0}


# --- trial families ---------------------------------------------------------------


def test_rotational_graph_jet_matches_differenced_chart():
    p = rotational_graph_patch(m3(0.0, 0.5), [0.3, -0.4, 0.05])
    U, V = p.grid(8, 8)
    j = p.jet(U, V)
    h = 1e-6

    def X(u, v):
        return p.jet(u, v)["X"]

    du = (X(U + h, V) - X(U - h, V)) / (2 * h)
    dv = (X(U, V + h) - X(U, V - h)) / (2 * h)
    # larger step for the second difference: its rounding error grows as 1/h^2
    h2 = 1e-4
    duu = (X(U + h2, V) - 2 * j["X"] + X(U - h2, V)) / h2**2
    assert np.max(np.abs(du - j["Xu"])) < 1e-8
    assert np.max(np.abs(dv - j["Xv"])) < 1e-8
    assert np.max(np.abs(duu - j["Xuu"])) < 1e-6


def test_geodesic_sphere_has_the_right_radius_in_flat_chart():
    # m3(0, 0) is the Euclidean space in this chart, so geodesic spheres
    # are round spheres about the center
    patch = geodesic_sphere_patch(m3(0.0, 0.0), center_height=0.3,
                                  radius=1.2, n_steps=32)
    U, V = patch.grid(8, 8)
    X = patch.chart(U, V)
    r = np.linalg.norm(X - np.array([0.0, 0.0, 0.3]), axis=-1)
    assert np.max(np.abs(r - 1.2)) < 1e-10


# --- falsification search ----------------------------------------------------------


def test_falsifier_space_form_control_finds_spheres():
    r = nonexistence_falsifier(1.0, 0.5, family="sphere", n_starts=2,
                               budget=300, seed=1)
    assert r["min_defect_found"] < 1e-6
    assert r["best_params"]["family"] == "sphere"


def test_falsifier_product_control_finds_slices():
    r = nonexistence_falsifier(-1.0, 0.0, family="graph", n_starts=2,
                               budget=400, seed=1)
    assert r["min_defect_found"] < 1e-6


def test_falsifier_small_run_stays_off_the_floor():
    # measured floor for (0, 1/2) with converged budgets: 3.23e-2
    r = nonexistence_falsifier(0.0, 0.5, family="graph", n_starts=3,
                               budget=900, seed=0)
    assert r["min_defect_found"] > 1e-2


def test_falsifier_flags_exhausted_budget():
    r = nonexistence_falsifier(0.0, 0.5, family="auto", n_starts=3,
                               budget=24, seed=0)
    assert r["partial"] is True
    assert r["min_defect_found"] > 0.0


def test_falsifier_is_deterministic():
    r1 = nonexistence_falsifier(0.0, 0.5, family="graph", n_starts=2,
                                budget=200, seed=5)
    r2 = nonexistence_falsifier(0.0, 0.5, family="graph", n_starts=2,
                                budget=200, seed=5)
    assert r1 == r2


def test_falsifier_reports_composition():
    r = nonexistence_falsifier(0.0, 0.5, family="auto", n_starts=3,
                               budget=60, seed=0)
    assert set(r["floors_by_family"]) == {"graph", "sphere"}
    assert r["n_starts"] == {"graph": 3, "sphere": 3}


def test_falsifier_rejects_unknown_family():
    with pytest.raises(ValueError, match="family"):
        nonexistence_falsifier(0.0, 0.5, family="bogus")


def test_trial_defect_penalizes_degenerate_params():
    assert trial_defect(m3(0.0, 0.5), "sphere", [0.0, 1e-12]) == 1e3


# --- suites ------------------------------------------------------------------------


def test_product_identities_suite():
    rep = run_suite("product-identities", seed=0)
    assert rep["n_checks"] == 32
    assert rep["max_residual"] < 1e-5
    names = {c["identity"] for c in rep["checks"]}
    assert {"daniel_formula", "curvature_commutator", "gradient_product",
            "bracket_TJT", "jt_nu", "killing"} <= names


def test_sol_identities_suite():
    rep = run_suite("sol-identities", seed=0)
    assert rep["max_residual"] < 1e-5
    names = [c["identity"] for c in rep["checks"]]
    assert names.count("gradient_sol") == 2


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite("bogus")
    assert len(SUITE_NAMES) == 4
