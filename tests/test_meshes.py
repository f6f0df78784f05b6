"""Round-trip checks for the OBJ / PLY / CSV exporters."""

from decimal import Decimal

import numpy as np
import pytest

from umbilic.geometry import rotation
from umbilic.meshes import (
    _text_rows,
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
    info = write_ply(path, patch, n_u=12, n_v=9, quality=defect_quality(patch, 12, 9))
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


def test_curve_csv_matches_savetxt(tmp_path):
    for curve in (s2xr_profile(0.6), sol_profile(1.0)):
        path, ref = tmp_path / "profile.csv", tmp_path / "savetxt.csv"
        write_curve_csv(path, curve)
        np.savetxt(ref, curve.samples, fmt="%.17g", delimiter=",",
                   header=",".join(curve.columns), comments="")
        assert path.read_bytes() == ref.read_bytes()


# ---------------------------------------------------------------------------
# the numpy text formatter against Python's own "%.17g" and "%d"


def _assert_formats_like_percent(values, fmt="%.17g"):
    values = np.asarray(values).ravel()
    got = b"".join(_text_rows(values.reshape(-1, 1), b"", " ")).split(b"\n")
    want = [(fmt % v).encode() for v in values.tolist()]
    assert got[-1] == b"" and len(got) == len(want) + 1
    bad = [(v, g, w) for v, g, w in zip(values.tolist(), got, want) if g != w]
    assert not bad, bad[:5]


def test_doubles_match_percent_over_every_exponent():
    rng = np.random.default_rng(20)
    # random sign and mantissa bits under each of the 2048 exponent fields
    exponent = np.repeat(np.arange(2048, dtype=np.uint64), 24)
    mantissa = rng.integers(0, 2**52, exponent.size, dtype=np.uint64)
    sign = rng.integers(0, 2, exponent.size, dtype=np.uint64)
    bits = (sign << np.uint64(63)) | (exponent << np.uint64(52)) | mantissa
    _assert_formats_like_percent(bits.view(np.float64))


def test_doubles_match_percent_over_the_fixed_notation_range():
    rng = np.random.default_rng(21)
    x = 10.0 ** rng.uniform(-7.0, 17.0, 60000)
    _assert_formats_like_percent(x * rng.choice([-1.0, 1.0], x.size))


def test_doubles_round_exact_ties_half_to_even():
    rng = np.random.default_rng(22)
    # n + j / 2^q on [2^48, 2^51) is exact; its 18-digit decimal often ends
    # in a lone 5, so the 17-digit cut is a tie, and powers of two keep some
    values = []
    for q in (2, 3, 4):
        n = rng.integers(2**48, 2**51 - 1, 400).astype(float)
        j = rng.integers(1, 2**q, n.size) * 2.0 ** -q
        values.append(n + j)
    x = np.concatenate(values)
    x = np.concatenate([x * 2.0 ** p for p in range(-40, 10)])
    digits = (Decimal(v).as_tuple().digits for v in x.tolist())
    ties = sum(len(d) == 18 and d[-1] == 5 for d in digits)
    assert ties > 1000  # the set holds many exact ties
    _assert_formats_like_percent(np.concatenate([x, -x]))


def test_doubles_match_percent_at_powers_of_ten():
    # both notation switches: 1e-5 / 1e-4 and 1e16 / 1e17
    p = np.array([float(f"1e{k}") for k in range(-10, 20)])
    x = np.concatenate([p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)])
    _assert_formats_like_percent(np.concatenate([x, -x]))


def test_doubles_match_percent_at_special_values():
    tiny = np.finfo(float).smallest_subnormal
    x = np.array([0.0, -0.0, tiny, -tiny, 3 * tiny, np.finfo(float).tiny,
                  np.nextafter(np.finfo(float).tiny, 0.0), np.finfo(float).max,
                  -np.finfo(float).max, np.nan, -np.nan, np.inf, -np.inf,
                  1e-4, 9.9999999999999991e-05, 1e16, 9999999999999998.0])
    _assert_formats_like_percent(x)


def test_signed_zeros_match_percent_in_mixed_rows():
    # exact zeros take the vectorized path; the sign comes from the sign bit
    rng = np.random.default_rng(25)
    x = rng.normal(size=(5000, 3))
    x[rng.random(x.shape) < 0.4] = 0.0
    x[rng.random(x.shape) < 0.2] = -0.0
    x[:4] = [[0.0, -0.0, 0.0], [-0.0, -0.0, -0.0], [0.0, 1.5, -0.0], [-0.0, 0.0, 1e300]]
    assert np.signbit(x[x == 0]).any() and not np.signbit(x[x == 0]).all()
    _assert_formats_like_percent(x)
    text = b"".join(_text_rows(x, b"v ", " "))
    assert text == ("v %.17g %.17g %.17g\n" * len(x) % tuple(x.ravel())).encode()


@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_ints_match_percent_across_digit_counts(dtype):
    top = 10 if dtype == np.int32 else 19
    edges = [0, 1, 2] + [m for k in range(1, top) for m in
                         (10**k - 1, 10**k, 10**k + 1)]
    x = np.array([v for v in edges if v <= np.iinfo(dtype).max], dtype=dtype)
    _assert_formats_like_percent(x, "%d")
    # a face block mixing digit counts within each row
    rows = np.random.default_rng(23).permutation(np.resize(x, 4 * len(x)))
    rows = rows.reshape(-1, 4)
    text = b"".join(_text_rows(rows, b"f ", " "))
    assert text == "".join("f %d %d %d %d\n" % tuple(r) for r in rows.tolist()).encode()


def test_rows_split_into_blocks():
    # more rows than one block, with a partial last block
    x = np.random.default_rng(24).normal(size=(4096 * 2 + 17, 3))
    text = b"".join(_text_rows(x, b"v ", " "))
    assert text == ("v %.17g %.17g %.17g\n" * len(x) % tuple(x.ravel())).encode()
