"""Registry of the invariant surface families, keyed for programmatic and CLI use.

Each entry knows its ambient space, its parameter (name, legal range, and a
validation message), and how to build the generating curve and a default
surface patch.  The twelve families are the complete classification: slices,
the vertical cylinder / plane, the three rotational families in S2xR, the
elliptic / parabolic / hyperbolic families in H2xR, and the Sol geodesic
planes and F_a graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import hyperbolic_translation, parabolic, rotation, sol, sol_translation
from .profiles import (
    GeneratingCurve,
    h2xr_elliptic_profile,
    h2xr_hyperbolic_profile,
    h2xr_parabolic_profile,
    s2xr_profile,
    sol_profile,
)
from .surfaces import SurfacePatch, orbit_surface, patch_from_chart, synthetic_profile


@dataclass(frozen=True)
class FamilyDefinition:
    """Registry row: naming, parameter contract, and patch builder."""

    name: str
    space: str
    cli_key: str
    param_name: str | None
    param_range: str | None
    _check: callable = None
    _build: callable = None

    def validate(self, param):
        if self.param_name is None:
            if param is not None:
                raise ValueError(f"{self.name} takes no parameter")
            return None
        if param is None:
            raise ValueError(
                f"{self.name} needs parameter {self.param_name} "
                f"({self.param_name} must lie in {self.param_range})")
        param = float(param)
        if not self._check(param):
            raise ValueError(
                f"{self.param_name} must lie in {self.param_range}")
        return param

    def build(self, param=None):
        """Generating curve (None for the bare planes) and a default patch."""
        param = self.validate(param)
        return self._build(param)


def _rotational(curve, s_range, name):
    return curve, orbit_surface(curve, rotation(1.0), s_range=s_range, name=name)


def _build_s2xr_slice(_):
    curve = synthetic_profile("s2xr", "horizontal", 0.0)
    return _rotational(curve, (0.05, np.pi - 0.08), "slice S2x{0}")


def _build_s2xr_cylinder(_):
    curve = synthetic_profile("s2xr", "vertical", np.pi / 2)
    return _rotational(curve, (-2.0, 2.0), "equatorial cylinder")


def _build_a_lt(a):
    curve = s2xr_profile(a)
    s1 = curve.period_data.s1
    return _rotational(curve, (0.05, 0.97 * s1), f"a<1 sphere (a={a:g})")


def _build_a_eq(_):
    curve = s2xr_profile(1.0)
    return _rotational(curve, (0.05, 6.0), "a=1 limit surface")


def _build_a_gt(a):
    curve = s2xr_profile(a)
    d = curve.period_data.delta
    return _rotational(curve, (-1.9 * d, 1.9 * d), f"a>1 onduloid (a={a:g})")


def _build_h2xr_slice(_):
    curve = synthetic_profile("h2xr-elliptic", "horizontal", 0.0)
    return _rotational(curve, (0.05, 3.0), "slice H2x{0}")


def _build_h2xr_vplane(_):
    curve = synthetic_profile("h2xr-hyperbolic", "vertical", 0.0)
    patch = orbit_surface(curve, hyperbolic_translation((np.pi, 0.0), 1.0),
                          s_range=(-2.0, 2.0), v_range=(-2.0, 2.0),
                          name="vertical geodesic plane")
    return curve, patch


def _build_elliptic(b):
    curve = h2xr_elliptic_profile(b)
    d = curve.period_data.delta
    return _rotational(curve, (-1.9 * d, 1.9 * d), f"elliptic sphere (b={b:g})")


def _build_parabolic(_):
    curve = h2xr_parabolic_profile()
    patch = orbit_surface(curve, parabolic(np.pi, 1.0), s_range=(-4.0, 4.0),
                          name="parabolic surface")
    return curve, patch


def _build_hyperbolic(c):
    curve = h2xr_hyperbolic_profile(c)
    patch = orbit_surface(curve, hyperbolic_translation((np.pi, 0.0), 1.0),
                          s_range=(0.9 * curve.span[0], 0.9 * curve.span[1]),
                          name=f"hyperbolic family (c={c:g})")
    return curve, patch


def _build_sol_plane(_):
    def chart(U, V):
        return np.stack([np.zeros_like(U), U, V], axis=-1)

    patch = patch_from_chart(sol(), "sol geodesic plane {x=0}", chart,
                             (-1.0, 1.0), (-1.0, 1.0))
    return None, patch


def _build_sol_fa(a):
    curve = sol_profile(a)
    patch = orbit_surface(curve, sol_translation(1.0, 0.0, 0.0),
                          s_range=(0.9 * curve.span[0], 0.9 * curve.span[1]),
                          name=f"F_a graph (a={a:g})")
    return curve, patch


_DEFINITIONS = [
    FamilyDefinition("S2xR_slice", "s2xr", "slice", None, None,
                     None, _build_s2xr_slice),
    FamilyDefinition("S2xR_cylinder", "s2xr", "cylinder", None, None,
                     None, _build_s2xr_cylinder),
    FamilyDefinition("S2xR_a_lt_1", "s2xr", "a-lt-1", "a", "(0,1)",
                     lambda a: 0.0 < a < 1.0, _build_a_lt),
    FamilyDefinition("S2xR_a_eq_1", "s2xr", "a-eq-1", None, None,
                     None, _build_a_eq),
    FamilyDefinition("S2xR_a_gt_1", "s2xr", "a-gt-1", "a", "(1,inf)",
                     lambda a: a > 1.0, _build_a_gt),
    FamilyDefinition("H2xR_slice", "h2xr", "slice", None, None,
                     None, _build_h2xr_slice),
    FamilyDefinition("H2xR_vertical_plane", "h2xr", "vertical-plane", None,
                     None, None, _build_h2xr_vplane),
    FamilyDefinition("H2xR_elliptic", "h2xr", "elliptic", "b", "(0,inf)",
                     lambda b: b > 0.0, _build_elliptic),
    FamilyDefinition("H2xR_parabolic", "h2xr", "parabolic", None, None,
                     None, _build_parabolic),
    FamilyDefinition("H2xR_hyperbolic", "h2xr", "hyperbolic", "c", "(0,1)",
                     lambda c: 0.0 < c < 1.0, _build_hyperbolic),
    FamilyDefinition("Sol_geodesic_plane", "sol", "geodesic-plane", None,
                     None, None, _build_sol_plane),
    FamilyDefinition("Sol_Fa", "sol", "fa", "a", "(0,inf)",
                     lambda a: a > 0.0, _build_sol_fa),
]

REGISTRY = {d.name: d for d in _DEFINITIONS}


def family_names() -> list:
    return [d.name for d in _DEFINITIONS]


def definition(name: str) -> FamilyDefinition:
    try:
        return REGISTRY[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}; known: {family_names()}")


def build_family(name: str, param=None):
    """Build (curve, patch) for a family; curve is None for the bare planes."""
    return definition(name).build(param)


def resolve_cli_family(space: str, key: str) -> FamilyDefinition:
    """Look up a family by space kind and CLI key."""
    for d in _DEFINITIONS:
        if d.space == space and d.cli_key == key:
            return d
    keys = [d.cli_key for d in _DEFINITIONS if d.space == space]
    raise ValueError(
        f"no family {key!r} in space {space!r}; choices: {keys}")


def catalog_rows() -> list:
    """One dict per family: name, space, CLI key, and parameter contract."""
    return [
        {
            "family": d.name,
            "space": d.space,
            "cli_key": d.cli_key,
            "parameter": d.param_name or "-",
            "range": d.param_range or "-",
        }
        for d in _DEFINITIONS
    ]
