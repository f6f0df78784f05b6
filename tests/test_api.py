"""The public functions take no step, margin or sample-count options.

Each option listed here had one value in use; the value is now a constant
of the package (``surfaces.GRID_MARGIN``, ``verify.STENCIL_STEP``,
``profiles.N_SAMPLES``, ``surfaces.CLASSIFY_BAND``, ...).  A finite-difference
jet with a chosen step is built with ``surfaces.fd_jet``.  Arguments listed
in ``REQUIRED`` lost their default: a ``ConformalMap`` carries its Jacobian,
with no finite-difference fallback.
"""

import inspect

import numpy as np
import pytest

from umbilic import conformal, meshes, profiles, surfaces, verify
from umbilic.geometry import sol

REMOVED = [
    *((fn, "h") for fn in (
        surfaces.fundamental_forms, surfaces.principal_curvatures,
        surfaces.surface_fields, surfaces.curvature_report,
        surfaces.umbilicity_defect, surfaces.mean_curvature_stats,
        surfaces.patch_from_chart, meshes.defect_quality,
        conformal.conformality_check)),
    *((fn, "fd_step") for fn in (
        verify.check_sol_identities, verify.check_curvature_commutator,
        verify.check_gradient_identity, verify.check_bracket_and_jtnu)),
    *((fn, "margin") for fn in (
        surfaces.SurfacePatch.grid, surfaces.curvature_report, meshes.grid_mesh,
        meshes.defect_quality, meshes.write_obj, meshes.write_ply,
        conformal.sol_flattening)),
    *((fn, "n_samples") for fn in (
        profiles.s2xr_profile, profiles.h2xr_elliptic_profile,
        profiles.h2xr_parabolic_profile, profiles.h2xr_hyperbolic_profile,
        profiles.sol_profile)),
    (surfaces.classify_slice_structure, "band"),
    (surfaces.classify_slice_structure, "constancy_tol"),
    (verify.rotational_graph_patch, "rho_window"),
    (verify.geodesic_sphere_patch, "polar_margin"),
]


@pytest.mark.parametrize("fn,option", REMOVED,
                         ids=[f"{fn.__qualname__}-{opt}" for fn, opt in REMOVED])
def test_public_signature_takes_no_removed_option(fn, option):
    params = inspect.signature(fn).parameters
    assert option not in params
    assert not any(p.kind is p.VAR_KEYWORD for p in params.values())


REQUIRED = [(conformal.ConformalMap, "jacobian")]


@pytest.mark.parametrize("fn,arg", REQUIRED,
                         ids=[f"{fn.__qualname__}-{arg}" for fn, arg in REQUIRED])
def test_public_signature_has_no_default_for_required_argument(fn, arg):
    assert inspect.signature(fn).parameters[arg].default is inspect.Parameter.empty


def test_write_ply_quality_is_an_array(tmp_path):
    # the string mode quality="defect" is gone: callers pass defect_quality(...)
    patch = surfaces.patch_from_chart(
        sol(), "plane", lambda U, V: np.stack([U, V, 0 * U], axis=-1),
        (-1.0, 1.0), (-1.0, 1.0))
    with pytest.raises(ValueError):
        meshes.write_ply(tmp_path / "p.ply", patch, 4, 4, quality="defect")
