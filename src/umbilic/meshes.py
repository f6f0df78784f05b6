"""Export helpers: OBJ / binary PLY meshes for surface patches, CSV for profiles.

OBJ carries the structured (u, v) grid as quad faces.  PLY is binary
little-endian with float64 positions and an optional per-vertex scalar
property ``quality`` holding the normalized umbilicity defect.  Curve tables
are comma-separated with a header row and 17 significant digits, enough to
round-trip IEEE doubles exactly.

The OBJ and CSV text is numpy's, byte for byte that of ``%.17g`` and ``%d``:
for 1e-4 <= |x| < 1e16 the digits are D = |x| 10^(16 - e) rounded half to
even, and Dekker's two-product (Numer. Math. 18, 1971) gives that product
exactly as hi + lo, hi an integer.  Python formats every other value.
"""

from __future__ import annotations

import functools

import numpy as np

from .surfaces import GRID_MARGIN, SurfacePatch, curvature_report

_W = 24  # widest %.17g token, "-4.9406564584124654e-324"
_ROWS = 4096  # rows formatted per block
_INT_POW10 = 10 ** np.arange(1, 19)

_PLY_HEADER = """\
ply
format binary_little_endian 1.0
comment structured {n_u} x {n_v} parameter grid
element vertex {n_vertex}
{vertex_props}element face {n_face}
property list uchar int vertex_indices
end_header
"""


def _split(a):  # Dekker: a == hi + lo, each with at most 26 bits
    c = 134217729.0 * a  # 2^27 + 1
    return c - (c - a), a - (c - (c - a))


@functools.cache
def _tables():
    """ASCII 4-digit groups, powers of ten and token layouts, on first use.

    A token is its layout's fixed bytes (sign, "0.000", ".") plus digit j of
    D masked in column 6 + j, or shifted to 7 + j after the point.
    """
    pow10 = np.array([float(f"1e{k}") for k in range(-4, 23)])
    d = np.arange(10000)
    groups = (np.stack([d // 1000, d // 100 % 10, d // 10 % 10, d % 10], axis=1)
              + ord("0")).astype(np.uint8).view("<u4").ravel()
    # layouts by (e + 4, significant digits)
    fixed, keep, shift = np.zeros((3, 20, 18, _W), np.uint8)
    for e in range(-4, 16):
        for nd in range(1, 18):
            if e < 0:
                fixed[e + 4, nd, 1:2 - e] = list(b"0." + b"0" * (-e - 1))
                keep[e + 4, nd, 6:6 + nd] = 1
            else:
                keep[e + 4, nd, 6:7 + e] = 1
                if nd > e + 1:
                    fixed[e + 4, nd, 7 + e] = ord(".")
                    shift[e + 4, nd, 8 + e:7 + nd] = 1
    return (groups, pow10, *_split(pow10),
            *(t.reshape(-1, _W) for t in (fixed, keep, shift)))


def _ascii(n, words, groups):
    """Write the last 4 k digits of each n >= 0 into its k words."""
    for i in range(words.shape[1] - 1, -1, -1):
        n, part = np.divmod(n, 10 ** 4)
        words[:, i] = groups.take(part)


def _double_tokens(x):
    """``"%.17g"`` of each double of a 1-D array, as NUL-padded tokens."""
    groups, pow10, pow10_hi, pow10_lo, fixed, keep, shift = _tables()
    ax = np.abs(x)
    fast = (ax >= 1e-4) & (ax < 1e16)
    a = np.where(fast, ax, 1.0)
    # 10^e <= a < 10^(e + 1) exactly: where 10^e (e < 0) is not a double,
    # the nearest double lies above it, with no double in between
    e = np.searchsorted(pow10[:20], a, side="right") - 5
    k = 20 - e  # pow10[k] is 10^(16 - e)
    ah, al = _split(a)
    hi = a * pow10[k]
    lo = ((ah * pow10_hi[k] - hi) + ah * pow10_lo[k] + al * pow10_hi[k]
          + al * pow10_lo[k])  # a 10^(16 - e) == hi + lo
    floor = np.floor(lo)
    D = hi.astype(np.int64) + floor.astype(np.int64)
    frac = lo - floor
    # half to even; D < 10^17, since only a within 5e-18 of 10^(e + 1)
    # would round up to it, and no double lies that close below one
    D += (frac > 0.5) | ((frac == 0.5) & (D & 1 == 1))
    words = np.zeros((x.size, 8), np.uint32)  # digit j of D in byte 7 + j
    _ascii(D, words[:, 1:6], groups)
    digits = words.view(np.uint8)
    layout = (e + 4) * 18 + 17 - (digits[:, 23:6:-1] == ord("0")).argmin(axis=1)
    out = fixed.take(layout, axis=0)
    out += keep.take(layout, axis=0) * digits[:, 1:25]
    out += shift.take(layout, axis=0) * digits[:, :24]
    out[:, 0] = np.signbit(x) * ord("-")  # -0.0 < 0 is false
    zero = ax == 0.0
    out[zero, 6] = ord("0")  # a zero took the layout of 1.0, "1" in column 6
    slow = ~(fast | zero)
    if slow.any():
        text = ("%.17g " * slow.sum()) % tuple(x[slow].tolist())
        out[slow] = np.array(text.split(), dtype=f"S{_W}").view(np.uint8).reshape(-1, _W)
    return out


def _int_tokens(n):
    """``"%d"`` of each i >= 0 of a 1-D integer array, as NUL-padded tokens."""
    count = np.searchsorted(_INT_POW10, n, side="right") + 1
    width = 4 * -(-int(count.max()) // 4)
    words = np.empty((n.size, width // 4), np.uint32)
    _ascii(n.astype(np.int64), words, _tables()[0])
    keep = np.arange(width) >= width - np.arange(width + 1)[:, None]  # row c: last c
    return keep.astype(np.uint8).take(count, axis=0) * words.view(np.uint8)


def _text_rows(table, prefix, sep):
    """Yield ``prefix + sep.join(tokens) + "\\n"`` of each row, block by block.

    Floats print as ``"%.17g"``, integers as ``"%d"``: each block is laid
    out as NUL-padded tokens, and the NULs are dropped at once.
    """
    table = np.asarray(table)
    tokens = _int_tokens if table.dtype.kind in "iu" else _double_tokens
    n_col = table.shape[1]
    for start in range(0, len(table), _ROWS):
        block = tokens(table[start:start + _ROWS].ravel())
        n_row, width = len(block) // n_col, block.shape[1]
        out = np.empty((n_row, len(prefix) + n_col * (width + 1)), np.uint8)
        out[:, :len(prefix)] = np.frombuffer(prefix, np.uint8)
        cells = out[:, len(prefix):].reshape(n_row, n_col, width + 1)
        cells[:, :, :width] = block.reshape(n_row, n_col, width)
        cells[:, :, width] = ord(sep)
        cells[:, -1, width] = ord("\n")
        yield out.tobytes().translate(None, b"\0")


def grid_mesh(patch: SurfacePatch, n_u=48, n_v=48, margin=GRID_MARGIN,
              vertices=None):
    """Vertices and 0-based quad indices of the structured parameter grid.

    Vertex (i, j) of the grid sits at flat index ``i * n_v + j``; quads wind
    counterclockwise in the (u, v) parameter square.  ``vertices`` may hold
    the chart points of that grid already (a curvature report's ``X``), so
    the chart is not evaluated again.
    """
    if n_u < 2 or n_v < 2:
        raise ValueError("a quad mesh needs at least a 2 x 2 grid")
    if vertices is None:
        vertices = patch.chart(*patch.grid(n_u, n_v, margin=margin))
    vertices = np.asarray(vertices, dtype=float).reshape(-1, 3)
    if len(vertices) != n_u * n_v:
        raise ValueError("vertex array does not match the grid")
    i, j = np.meshgrid(np.arange(n_u - 1), np.arange(n_v - 1), indexing="ij")
    base = (i * n_v + j).ravel()
    quads = np.stack([base, base + n_v, base + n_v + 1, base + 1], axis=-1)
    return vertices, quads.astype(np.int32)


def defect_quality(patch: SurfacePatch, n_u=48, n_v=48, margin=GRID_MARGIN,
                   h=None) -> np.ndarray:
    """Per-vertex umbilicity defect on the same grid ``grid_mesh`` uses.

    Points inside the axis tube or with a degenerate first fundamental form
    carry NaN rather than a misleading number.
    """
    return curvature_report(patch, n_u=n_u, n_v=n_v, margin=margin,
                            h=h).defect_quality()


def write_obj(path, patch: SurfacePatch, n_u=48, n_v=48, margin=GRID_MARGIN,
              vertices=None):
    """Write the patch grid as a Wavefront OBJ with quad faces (1-based).

    ``vertices`` is passed on to :func:`grid_mesh`.
    """
    vertices, quads = grid_mesh(patch, n_u, n_v, margin=margin, vertices=vertices)
    with open(path, "wb") as fh:
        fh.write(("# %s: %d x %d grid\n" % (patch.name, n_u, n_v)).encode())
        fh.writelines(_text_rows(vertices, b"v ", " "))
        fh.writelines(_text_rows(quads + 1, b"f ", " "))
    return {"vertices": len(vertices), "faces": len(quads)}


def write_ply(path, patch: SurfacePatch, n_u=48, n_v=48, margin=GRID_MARGIN,
              quality=None, vertices=None):
    """Write a binary little-endian PLY with float64 positions.

    ``quality`` may be None, an array of per-vertex scalars, or the string
    ``"defect"`` to compute the umbilicity defect on the export grid.
    ``vertices`` is passed on to :func:`grid_mesh`.
    """
    vertices, quads = grid_mesh(patch, n_u, n_v, margin=margin, vertices=vertices)
    if isinstance(quality, str):
        if quality != "defect":
            raise ValueError(f"unknown quality field {quality!r}")
        quality = defect_quality(patch, n_u, n_v, margin=margin)
    props = ["property double x\n", "property double y\n", "property double z\n"]
    if quality is not None:
        quality = np.asarray(quality, dtype=float).ravel()
        if quality.shape[0] != vertices.shape[0]:
            raise ValueError("quality array does not match the vertex count")
        props.append("property double quality\n")
        vertex_block = np.column_stack([vertices, quality])
    else:
        vertex_block = vertices
    header = _PLY_HEADER.format(
        n_u=n_u, n_v=n_v,
        n_vertex=vertices.shape[0], n_face=quads.shape[0],
        vertex_props="".join(props),
    )
    face_dtype = np.dtype([("count", "u1"), ("idx", "<i4", (4,))])
    faces = np.empty(quads.shape[0], dtype=face_dtype)
    faces["count"] = 4
    faces["idx"] = quads
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(np.ascontiguousarray(vertex_block, dtype="<f8").tobytes())
        fh.write(faces.tobytes())
    return {"vertices": vertices.shape[0], "faces": quads.shape[0],
            "with_quality": quality is not None}


def write_curve_csv(path, curve):
    """Write a profile's sample table as CSV with a header row.

    Columns are those of the curve (``s,rho,t,theta`` for plane profiles,
    ``y,z`` for the Sol graph) at 17 significant digits.
    """
    with open(path, "wb") as fh:
        fh.write((",".join(curve.columns) + "\n").encode())
        fh.writelines(_text_rows(curve.samples, b"", ","))
    return {"rows": curve.samples.shape[0], "columns": tuple(curve.columns)}


def read_ply(path):
    """Minimal reader for the PLY files this module writes (round-trip aid)."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.index(b"end_header\n") + len(b"end_header\n")
    header = data[:end].decode("ascii").splitlines()
    if header[1] != "format binary_little_endian 1.0":
        raise ValueError("unsupported PLY flavor")
    n_vertex = n_face = 0
    vertex_props = []
    current = None
    for line in header[2:]:
        parts = line.split()
        if parts[0] == "element":
            current = parts[1]
            if current == "vertex":
                n_vertex = int(parts[2])
            else:
                n_face = int(parts[2])
        elif parts[0] == "property" and current == "vertex" and parts[1] == "double":
            vertex_props.append(parts[2])
    width = len(vertex_props)
    body = data[end:]
    vertex_bytes = n_vertex * width * 8
    table = np.frombuffer(body[:vertex_bytes], dtype="<f8").reshape(n_vertex, width)
    face_dtype = np.dtype([("count", "u1"), ("idx", "<i4", (4,))])
    faces = np.frombuffer(body[vertex_bytes:], dtype=face_dtype)
    if faces.shape[0] != n_face or not np.all(faces["count"] == 4):
        raise ValueError("face block does not match the header")
    return {"columns": vertex_props, "vertices": table,
            "faces": np.array(faces["idx"])}
