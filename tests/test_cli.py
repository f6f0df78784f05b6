import json
import sys

import numpy as np
import pytest

import umbilic.surfaces
from umbilic.cli import main
from umbilic.meshes import read_ply


def _run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


# --- catalog --------------------------------------------------------------------


def test_catalog_lists_twelve_families(capsys):
    rc, out, err = _run(capsys, ["catalog"])
    assert rc == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == 13  # header + 12 families
    assert lines[0].split()[:3] == ["family", "space", "cli_key"]
    assert any(row.split()[:2] == ["S2xR_a_lt_1", "s2xr"] for row in lines)
    assert any(row.split()[:2] == ["Sol_Fa", "sol"] for row in lines)


def test_catalog_json_report(capsys):
    rc, out, err = _run(capsys, ["catalog", "--json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["result"]["count"] == 12
    keys = {(r["space"], r["cli_key"]) for r in doc["result"]["families"]}
    assert ("h2xr", "parabolic") in keys and ("sol", "fa") in keys


# --- gen ------------------------------------------------------------------------


def test_gen_obj_end_to_end(capsys, tmp_path):
    out = tmp_path / "s.obj"
    rc, text, err = _run(capsys, [
        "gen", "--space", "s2xr", "--family", "a-lt-1", "--param", "0.5",
        "--grid", "32x32", "--out", str(out)])
    assert rc == 0 and err == ""
    assert "defect max" in text and str(out) in text
    lines = out.read_text().splitlines()
    assert lines[0] == "# a<1 sphere (a=0.5): 32 x 32 grid"
    assert sum(1 for ln in lines if ln.startswith("v ")) == 32 * 32
    assert sum(1 for ln in lines if ln.startswith("f ")) == 31 * 31
    assert float(text.split("defect max ")[1].split(" ")[0]) < 1e-6


def test_gen_csv_profile(capsys, tmp_path):
    out = tmp_path / "sp.csv"
    rc, text, err = _run(capsys, [
        "gen", "--space", "h2xr", "--family", "parabolic", "--out", str(out)])
    assert rc == 0
    rows = out.read_text().splitlines()
    assert rows[0] == "s,rho,t,theta"
    assert len(rows) > 100


def test_gen_ply_carries_defect_quality(capsys, tmp_path):
    out = tmp_path / "p.ply"
    rc, _, _ = _run(capsys, [
        "gen", "--space", "h2xr", "--family", "elliptic", "--param", "1.0",
        "--grid", "16x16", "--out", str(out)])
    assert rc == 0
    ply = read_ply(out)
    assert ply["columns"] == ["x", "y", "z", "quality"]
    assert ply["vertices"].shape == (256, 4)
    assert np.max(ply["vertices"][:, 3]) < 1e-6  # umbilic family


def test_gen_ply_builds_one_curvature_report(capsys, tmp_path, monkeypatch):
    # the defect summary and the PLY quality property share one report
    original = umbilic.surfaces.curvature_report
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0].name)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("umbilic")
                and getattr(mod, "curvature_report", None) is original):
            monkeypatch.setattr(mod, "curvature_report", counted)
    rc, _, _ = _run(capsys, [
        "gen", "--space", "h2xr", "--family", "elliptic", "--param", "1.0",
        "--grid", "16x16", "--out", str(tmp_path / "x.ply")])
    assert rc == 0
    assert len(calls) == 1


def test_gen_json_stdout(capsys):
    rc, out, _ = _run(capsys, [
        "gen", "--space", "s2xr", "--family", "a-eq-1", "--format", "json"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["command"] == "gen"
    assert doc["result"]["defect"]["max"] < 1e-6
    assert doc["result"]["curve_columns"] == ["s", "rho", "t", "theta"]


def test_gen_invalid_param_exits_2(capsys):
    rc, out, err = _run(capsys, [
        "gen", "--space", "s2xr", "--family", "a-lt-1", "--param", "1.5"])
    assert rc == 2
    assert err == "error: a must lie in (0,1)\n"


def test_gen_missing_param_exits_2(capsys):
    rc, _, err = _run(capsys, ["gen", "--space", "h2xr", "--family", "elliptic"])
    assert rc == 2
    assert "b must lie in (0,inf)" in err


def test_gen_unknown_family_exits_2(capsys):
    rc, _, err = _run(capsys, ["gen", "--space", "sol", "--family", "nope"])
    assert rc == 2
    assert "choices" in err and err.count("\n") == 1


def test_gen_bad_grid_exits_2(capsys):
    rc, _, err = _run(capsys, [
        "gen", "--space", "s2xr", "--family", "slice", "--grid", "12y7"])
    assert rc == 2
    assert "grid" in err


def test_gen_csv_needs_a_curve(capsys, tmp_path):
    rc, _, err = _run(capsys, [
        "gen", "--space", "sol", "--family", "geodesic-plane",
        "--out", str(tmp_path / "x.csv")])
    assert rc == 2
    assert "no generating curve" in err


def test_gen_mesh_needs_out_path(capsys):
    rc, _, err = _run(capsys, [
        "gen", "--space", "s2xr", "--family", "slice", "--format", "obj"])
    assert rc == 2
    assert "--out" in err


def test_unknown_subcommand_is_a_single_line_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("samples", ["-4", "0", "1"])
def test_conformal_sol_flattening_needs_two_samples(capsys, samples):
    rc, out, err = _run(capsys, [
        "conformal", "--map", "sol-flat", "--samples", samples])
    assert rc == 2 and out == ""
    assert err == "error: --samples must be at least 2\n"


@pytest.mark.parametrize("samples", ["2", "128"])
def test_conformal_sol_flattening_needs_odd_samples(capsys, samples):
    rc, out, err = _run(capsys, [
        "conformal", "--map", "sol-flat", "--samples", samples])
    assert rc == 2 and out == ""
    assert err == "error: --samples must be odd for sol-flat\n"


def test_conformal_sol_flattening_reports_the_requested_samples(capsys):
    rc, out, _ = _run(capsys, ["conformal", "--map", "sol-flat", "--samples", "7"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["config"]["samples"] == doc["result"]["samples"] == 7


# --- verify ---------------------------------------------------------------------


def test_verify_suite_json(capsys):
    rc, out, _ = _run(capsys, ["verify", "--suite", "killing-grid"])
    assert rc == 0
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["config"] == {
        "command": "verify", "suite": "killing-grid",
        "grid": [16, 16], "seed": 0}
    assert doc["result"]["n_checks"] == 6
    assert doc["result"]["max_residual"] < 1e-8
    for check in doc["result"]["checks"]:
        assert set(check) >= {"identity", "space", "max_residual"}


def test_verify_report_bytes_do_not_depend_on_destination(capsys, tmp_path):
    rc, out, _ = _run(capsys, ["verify", "--suite", "killing-grid"])
    assert rc == 0
    path = tmp_path / "r.json"
    rc2, _, _ = _run(capsys, [
        "verify", "--suite", "killing-grid", "--out", str(path)])
    assert rc2 == 0
    assert path.read_text() == out


# --- falsify --------------------------------------------------------------------


def test_falsify_converged_run_exits_zero(capsys):
    rc, out, err = _run(capsys, [
        "falsify", "--kappa", "0", "--tau", "0.5", "--family", "graph",
        "--starts", "1", "--budget", "3000", "--seed", "7"])
    assert rc == 0 and err == ""
    doc = json.loads(out)
    assert doc["result"]["partial"] is False
    assert doc["result"]["min_defect_found"] > 1e-2


def test_falsify_budget_exhaustion_exits_one(capsys):
    rc, out, err = _run(capsys, [
        "falsify", "--kappa", "0", "--tau", "0.5", "--family", "graph",
        "--starts", "2", "--budget", "24"])
    assert rc == 1
    assert json.loads(out)["result"]["partial"] is True
    assert "partial" in err and err.count("\n") == 1


def test_falsify_budget_below_eight_per_restart_exits_2(capsys):
    rc, out, err = _run(capsys, [
        "falsify", "--kappa", "0", "--tau", "0.5", "--family", "graph",
        "--starts", "50", "--budget", "100"])
    assert rc == 2 and out == ""
    assert err == "error: budget must be at least 400 (8 evaluations per restart)\n"


def test_falsify_reports_are_byte_identical(capsys):
    argv = ["falsify", "--kappa", "0", "--tau", "0.5", "--family", "graph",
            "--starts", "2", "--budget", "200", "--seed", "5"]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["config"]["seed"] == 5


# --- conformal ------------------------------------------------------------------


def test_conformal_exponential_height_map(capsys):
    rc, out, _ = _run(capsys, ["conformal", "--map", "s2xr-r3"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["max_off_proportionality"] < 1e-12
    assert res["singular_points"] == 0
    # factor e^t over t in [-1, 1]
    assert abs(res["phi_max"] - np.e) < 1e-12
    assert abs(res["phi_min"] - 1.0 / np.e) < 1e-12


def test_conformal_slab_map(capsys):
    rc, out, _ = _run(capsys, ["conformal", "--map", "h2xi-h3"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["max_off_proportionality"] < 1e-8


def test_conformal_sol_flattening(capsys):
    rc, out, _ = _run(capsys, ["conformal", "--map", "sol-flat", "--param", "2"])
    assert rc == 0
    res = json.loads(out)["result"]
    assert res["xi_strictly_increasing"] is True
    assert res["conformal_residual"] < 1e-8
    assert abs(res["g_yy_exponent"] + 6.0) < 1e-4
    assert abs(res["conformal_scale"] - 2.0) < 1e-6
