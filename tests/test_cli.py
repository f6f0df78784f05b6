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


GEN_PARAMS = {"a-lt-1": 0.6, "a-gt-1": 1.5, "elliptic": 1.0, "hyperbolic": 0.5,
              "fa": 1.0}


@pytest.mark.parametrize("fmt", ["obj", "ply"])
def test_gen_mesh_takes_its_vertices_from_the_report(capsys, tmp_path, monkeypatch, fmt):
    # the mesh vertices are the report's X, so the patch chart is never
    # called; the files match a mesh built through the chart byte for byte
    from umbilic.families import FamilyDefinition, catalog_rows
    from umbilic.meshes import defect_quality, write_obj, write_ply

    built = []
    original = FamilyDefinition.build

    def build(self, param=None):
        curve, patch = original(self, param)
        built.append((patch, patch.chart))

        def blocked(U, V):
            raise AssertionError(f"{patch.name}: chart evaluated for the mesh")

        patch.chart = blocked
        return curve, patch

    monkeypatch.setattr(FamilyDefinition, "build", build)
    for row in catalog_rows():
        key = row["cli_key"]
        param = ["--param", str(GEN_PARAMS[key])] if key in GEN_PARAMS else []
        out = tmp_path / f"{row['space']}-{key}.{fmt}"
        rc, _, err = _run(capsys, ["gen", "--space", row["space"], "--family", key,
                                   *param, "--grid", "16x12", "--out", str(out)])
        assert rc == 0, err
        patch, chart = built[-1]
        patch.chart = chart
        ref = tmp_path / f"ref.{fmt}"
        if fmt == "obj":
            write_obj(ref, patch, 16, 12)
        else:
            write_ply(ref, patch, 16, 12, quality=defect_quality(patch, 16, 12))
        assert out.read_bytes() == ref.read_bytes(), row["family"]
    assert len(built) == 12


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


@pytest.mark.parametrize("argv,message", [
    (["falsify", "--kappa", "nan", "--tau", "0.5", "--starts", "2", "--budget", "100"],
     "kappa and tau must be finite"),
    (["falsify", "--kappa", "0", "--tau", "inf", "--starts", "2", "--budget", "100"],
     "kappa and tau must be finite"),
    (["gen", "--space", "s2xr", "--family", "a-gt-1", "--param", "inf"],
     "a must lie in (1,inf)"),
    (["conformal", "--map", "sol-flat", "--param", "inf"], "a must lie in (0,inf)"),
], ids=["falsify-kappa-nan", "falsify-tau-inf", "gen-param-inf", "conformal-param-inf"])
def test_non_finite_input_exits_2_without_a_report(capsys, tmp_path, argv, message):
    out = tmp_path / "report.json"
    rc, _, err = _run(capsys, argv + ["--out", str(out)])
    assert rc == 2
    assert err.startswith("error: ") and message in err and err.count("\n") == 1
    assert not out.exists()


def test_main_builds_one_parser_and_dispatches_at_call_time(capsys, monkeypatch):
    import umbilic.cli as cli

    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli._parser.cache_clear()
    ran = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: ran.append(args.suite) or 0)
    assert main(["verify", "--suite", "killing-grid"]) == 0
    assert main(["catalog"]) == 0
    assert built.count("umbilic") == 1
    assert ran == ["killing-grid"]


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


def test_falsify_reports_the_meridian_it_evaluated(capsys):
    argv = ["falsify", "--kappa", "0", "--tau", "0.5", "--family", "graph",
            "--starts", "2", "--budget", "200", "--seed", "5"]
    docs = [json.loads(_run(capsys, argv + ["--grid", grid])[1])
            for grid in ("24x2", "24x24")]
    assert docs[0]["result"] == docs[1]["result"]
    assert docs[0]["result"]["grid"] == [24, 1]
    assert [d["config"]["grid"] for d in docs] == [[24, 2], [24, 24]]


def test_falsify_reports_the_best_point_on_the_radius_bound(capsys):
    # the README search: a sphere's defect in m3(0, 1/2) grows with its
    # radius, so the best trial is the sphere on the radius bound 0.5
    argv = ["falsify", "--kappa", "0", "--tau", "0.5", "--starts", "50",
            "--seed", "7"]
    rc1, out1, _ = _run(capsys, argv)
    rc2, out2, _ = _run(capsys, argv)
    assert rc1 == rc2 and out1 == out2
    res = json.loads(out1)["result"]
    assert res["best_params"] == {"family": "sphere", "values": [0.5]}
    assert res["best_on_bound"] == [0]
    assert res["min_defect_found"] > 1e-2


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
