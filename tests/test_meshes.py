"""Round-trip checks for the OBJ / PLY / CSV exporters."""

import numpy as np
import pytest

from umbilic.geometry import rotation
from umbilic.meshes import (
    defect_quality,
    grid_mesh,
    read_ply,
    write_curve_csv,
    write_obj,
    write_ply,
)
from umbilic.profiles import s2xr_profile, sol_profile
from umbilic.surfaces import curvature_report, orbit_surface


@pytest.fixture(scope="module")
def patch():
    curve = s2xr_profile(0.6)
    s1 = curve.period_data.s1
    return orbit_surface(curve, rotation(1.0), s_range=(0.05, 0.97 * s1), name="a<1")


def test_grid_mesh_indices_are_consistent(patch):
    n_u, n_v = 7, 5
    vertices, quads = grid_mesh(patch, n_u, n_v)
    assert vertices.shape == (n_u * n_v, 3)
    assert quads.shape == ((n_u - 1) * (n_v - 1), 4)
    assert quads.min() == 0 and quads.max() == n_u * n_v - 1
    # each quad joins two adjacent u-rows at adjacent v-columns
    i, j = quads[:, 0] // n_v, quads[:, 0] % n_v
    assert np.array_equal(quads[:, 1], (i + 1) * n_v + j)
    assert np.array_equal(quads[:, 2], (i + 1) * n_v + j + 1)
    assert np.array_equal(quads[:, 3], i * n_v + j + 1)
    with pytest.raises(ValueError):
        grid_mesh(patch, 1, 5)


def test_obj_round_trip(tmp_path, patch):
    path = tmp_path / "s.obj"
    info = write_obj(path, patch, n_u=12, n_v=9)
    assert info == {"vertices": 108, "faces": 88}
    lines = path.read_text().splitlines()
    v_lines = [l for l in lines if l.startswith("v ")]
    f_lines = [l for l in lines if l.startswith("f ")]
    assert len(v_lines) == 108 and len(f_lines) == 88
    vertices, quads = grid_mesh(patch, 12, 9)
    parsed = np.array([[float(x) for x in l.split()[1:]] for l in v_lines])
    # 17 significant digits round-trip doubles exactly
    assert np.array_equal(parsed, vertices)
    faces = np.array([[int(x) for x in l.split()[1:]] for l in f_lines])
    assert faces.min() == 1 and faces.max() == 108
    assert np.array_equal(faces - 1, quads)


def test_obj_matches_per_line_format(tmp_path, patch):
    path = tmp_path / "s.obj"
    write_obj(path, patch, n_u=6, n_v=5)
    vertices, quads = grid_mesh(patch, 6, 5)
    lines = ["# %s: %d x %d grid\n" % (patch.name, 6, 5)]
    lines.extend("v %.17g %.17g %.17g\n" % tuple(v) for v in vertices)
    lines.extend("f %d %d %d %d\n" % tuple(q + 1) for q in quads)
    assert path.read_bytes() == "".join(lines).encode()


def test_ply_round_trip_with_quality(tmp_path, patch):
    path = tmp_path / "s.ply"
    info = write_ply(path, patch, n_u=12, n_v=9, quality="defect")
    assert info["with_quality"]
    back = read_ply(str(path))
    assert back["columns"] == ["x", "y", "z", "quality"]
    vertices, quads = grid_mesh(patch, 12, 9)
    assert np.array_equal(back["vertices"][:, :3], vertices)
    assert np.array_equal(back["faces"], quads)
    rep = curvature_report(patch, n_u=12, n_v=9)
    assert np.array_equal(back["vertices"][:, 3],
                          np.where(rep.included, rep.defect, np.nan).ravel())


def test_ply_without_quality_and_bad_inputs(tmp_path, patch):
    path = tmp_path / "bare.ply"
    write_ply(path, patch, n_u=6, n_v=6)
    back = read_ply(str(path))
    assert back["columns"] == ["x", "y", "z"]
    assert back["vertices"].shape == (36, 3)
    with pytest.raises(ValueError):
        write_ply(path, patch, n_u=6, n_v=6, quality="curvature")
    with pytest.raises(ValueError):
        write_ply(path, patch, n_u=6, n_v=6, quality=np.zeros(7))


def test_defect_quality_masks_axis_tube():
    curve = s2xr_profile(1.5)
    delta = curve.period_data.delta
    # the symmetric sphere touches the axis at both ends of the s-range
    p = orbit_surface(curve, rotation(1.0), s_range=(-2 * delta, 2 * delta))
    q = defect_quality(p, n_u=24, n_v=8)
    assert np.isnan(q).any()
    assert np.nanmax(q) < 1e-5


def test_curve_csv_round_trip(tmp_path):
    curve = s2xr_profile(0.6)
    path = tmp_path / "profile.csv"
    info = write_curve_csv(path, curve)
    assert info == {"rows": curve.samples.shape[0],
                    "columns": ("s", "rho", "t", "theta")}
    table = np.genfromtxt(path, delimiter=",", names=True)
    assert table.dtype.names == ("s", "rho", "t", "theta")
    parsed = np.column_stack([table[n] for n in table.dtype.names])
    assert np.array_equal(parsed, curve.samples)


def test_sol_curve_csv_uses_graph_columns(tmp_path):
    curve = sol_profile(1.0)
    path = tmp_path / "sol.csv"
    info = write_curve_csv(path, curve)
    assert info["columns"] == ("y", "z")
    first = path.read_text().splitlines()[0]
    assert first == "y,z"
