"""The package runs without scipy: no command or library call imports it.

Each case runs in a fresh interpreter, because this test session has
imported scipy already.  The sphere commands also load no
``numpy.polynomial``, which would add about 1 MB to their peak memory.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# runs the CLI with the given argv (none: import only) and prints the exit
# code, every loaded scipy module, every loaded numpy.polynomial module and
# whether the mesh text tables were built after the import and after the
# run as the last stdout line
_PROBE = """
import contextlib, io, json, sys
import umbilic, umbilic.cli
tables = [umbilic.meshes._tables.cache_info().currsize]
rc = 0
if len(sys.argv) > 1:
    with contextlib.redirect_stdout(io.StringIO()):
        rc = umbilic.cli.main(sys.argv[1:])
tables.append(umbilic.meshes._tables.cache_info().currsize)
print(json.dumps({"rc": rc, "scipy": sorted(
    m for m in sys.modules if m.partition(".")[0] == "scipy"), "polynomial": sorted(
    m for m in sys.modules if m.startswith("numpy.polynomial")), "tables": tables}))
"""


# the slice classifier on one C10 level, its bracketing root solves included
_CLASSIFY = """
import json, sys
from umbilic.families import build_family
from umbilic.surfaces import classify_slice_structure
curve, patch = build_family("H2xR_hyperbolic", 0.5)
entry = classify_slice_structure(patch, [float(curve.jet(0.8)["t"])])[0]
print(json.dumps({"tag": entry["tag"], "scipy": sorted(
    m for m in sys.modules if m.partition(".")[0] == "scipy")}))
"""


def _probe(argv, cwd=None, code=_PROBE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


# (argv, exit code): the small graph budget ends partial, so exit 1; both
# sphere restarts converge on the radius bound within theirs, so exit 0
SCIPY_FREE = {
    "import": ([], 0),
    "falsify-graph": (["falsify", "--kappa", "0", "--tau", "0.5", "--family",
                       "graph", "--starts", "2", "--budget", "40"], 1),
    "falsify-sphere": (["falsify", "--kappa", "0", "--tau", "0.5", "--family",
                        "sphere", "--starts", "2", "--budget", "40"], 0),
    "killing-grid": (["verify", "--suite", "killing-grid", "--grid", "16x16"], 0),
    "daniel-grid": (["verify", "--suite", "daniel-grid", "--grid", "16x16"], 0),
    "gen-a-eq-1": (["gen", "--space", "s2xr", "--family", "a-eq-1",
                    "--grid", "16x16"], 0),
    "gen-slice": (["gen", "--space", "s2xr", "--family", "slice",
                   "--grid", "16x16"], 0),
    "gen-a-lt-1": (["gen", "--space", "s2xr", "--family", "a-lt-1",
                    "--param", "0.5", "--grid", "16x16"], 0),
    "gen-a-gt-1": (["gen", "--space", "s2xr", "--family", "a-gt-1",
                    "--param", "2", "--grid", "16x16"], 0),
    "gen-elliptic": (["gen", "--space", "h2xr", "--family", "elliptic",
                      "--param", "1", "--grid", "16x16"], 0),
    # b = 0.01 is the Jacobi parameter m = -1e4
    "gen-elliptic-b-0.01": (["gen", "--space", "h2xr", "--family", "elliptic",
                             "--param", "0.01", "--grid", "16x16"], 0),
    "gen-hyperbolic": (["gen", "--space", "h2xr", "--family", "hyperbolic",
                        "--param", "0.5", "--grid", "16x16"], 0),
    "product-identities": (["verify", "--suite", "product-identities",
                            "--grid", "16x16"], 0),
    "conformal-s2xr-r3": (["conformal", "--map", "s2xr-r3"], 0),
    # the Sol graph is a closed form, like the plane profiles
    "gen-sol-fa": (["gen", "--space", "sol", "--family", "fa",
                    "--param", "1", "--grid", "16x16"], 0),
    "sol-identities": (["verify", "--suite", "sol-identities", "--grid", "16x16"], 0),
    "conformal-sol-flat": (["conformal", "--map", "sol-flat"], 0),
    # mesh and profile text, written into the working directory
    "gen-obj": (["gen", "--space", "h2xr", "--family", "elliptic", "--param",
                 "1", "--grid", "16x16", "--out", "x.obj"], 0),
    "gen-csv": (["gen", "--space", "h2xr", "--family", "parabolic",
                 "--out", "x.csv"], 0),
}


@pytest.mark.parametrize("case", SCIPY_FREE)
def test_command_loads_no_scipy(case, tmp_path):
    argv, rc = SCIPY_FREE[case]
    run = _probe(argv, cwd=tmp_path)
    assert run["rc"] == rc
    assert run["scipy"] == []
    # the import builds no digit tables; only a text export does
    assert run["tables"] == [0, int(case in ("gen-obj", "gen-csv"))]


def test_slice_classifier_loads_no_scipy():
    run = _probe([], code=_CLASSIFY)
    assert run == {"tag": "hyperbolic", "scipy": []}


@pytest.mark.parametrize("case", ["falsify-sphere", "daniel-grid"])
def test_sphere_command_loads_no_numpy_polynomial(case):
    # the geodesic spheres take their Gauss-Legendre rule from a Newton
    # solve, not from numpy.polynomial
    argv, rc = SCIPY_FREE[case]
    run = _probe(argv)
    assert run["rc"] == rc
    assert run["polynomial"] == []
