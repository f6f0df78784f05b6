"""Export helpers: OBJ / binary PLY meshes for surface patches, CSV for profiles.

OBJ carries the structured (u, v) grid as quad faces.  PLY is binary
little-endian with float64 positions and an optional per-vertex scalar
property ``quality`` holding the normalized umbilicity defect.  Curve tables
are comma-separated with a header row and 17 significant digits, enough to
round-trip IEEE doubles exactly.
"""

from __future__ import annotations

import numpy as np

from .surfaces import GRID_MARGIN, SurfacePatch, curvature_report

CSV_FORMAT = "%.17g"

_PLY_HEADER = """\
ply
format binary_little_endian 1.0
comment structured {n_u} x {n_v} parameter grid
element vertex {n_vertex}
{vertex_props}element face {n_face}
property list uchar int vertex_indices
end_header
"""


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
    # one %-format per block: per-line formatting dominated export time
    with open(path, "w") as fh:
        fh.write("# %s: %d x %d grid\n" % (patch.name, n_u, n_v))
        fh.write(("v %.17g %.17g %.17g\n" * len(vertices))
                 % tuple(vertices.ravel().tolist()))
        fh.write(("f %d %d %d %d\n" * len(quads))
                 % tuple((quads + 1).ravel().tolist()))
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
    np.savetxt(path, curve.samples, fmt=CSV_FORMAT, delimiter=",",
               header=",".join(curve.columns), comments="")
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
