"""Totally umbilic invariant surfaces in product and Sol geometries.

The package builds the invariant surface families of the three-dimensional
product spaces S^2 x R and H^2 x R and of the Sol group, exposes their
generating profiles and closed forms, verifies the structural identities the
classification rests on, and runs a multistart search for low-defect trial
surfaces in the remaining homogeneous spaces.
"""

from types import ModuleType as _ModuleType

from .conformal import (
    ConformalMap,
    conformality_check,
    h2xi_to_h3_map,
    pushforward,
    s2xr_to_r3_map,
    sol_flattening,
)
from .elliptic import elliptic_K, jacobi_am, jacobi_cn, jacobi_dn, jacobi_sn
from .families import (
    FamilyDefinition,
    build_family,
    catalog_rows,
    family_names,
    resolve_cli_family,
)
from .geometry import ModelGeometry, christoffels, curvature_tensor, h2xr, m3, r3, s2xr, sol
from .meshes import grid_mesh, read_ply, write_curve_csv, write_obj, write_ply
from .profiles import (
    GeneratingCurve,
    PeriodData,
    h2xr_elliptic_profile,
    h2xr_hyperbolic_profile,
    h2xr_parabolic_profile,
    s2xr_profile,
    sol_profile,
)
from .surfaces import (
    ImmersionError,
    SurfacePatch,
    TransversalityError,
    classify_slice_structure,
    curvature_report,
    fundamental_forms,
    mean_curvature_stats,
    orbit_surface,
    patch_from_chart,
    umbilicity_defect,
)
from .verify import (
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
    trial_defects,
    trial_patch,
)

__version__ = "0.1.0"

# the public names are those imported above
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
