"""Command-line front door for the package.

Subcommands
-----------
gen        build a named invariant family and export a mesh (OBJ/PLY), the
           generating profile as CSV, or a JSON defect summary
verify     run one of the residual suites and emit a JSON report
falsify    multistart defect-floor search over the trial families
conformal  conformality / flattening reports for the model maps
catalog    list every registered family with its parameter contract

All JSON reports carry ``schema_version`` and the resolved configuration,
are emitted with sorted keys, and are byte-identical for the same
configuration and seed.  Every error path exits nonzero after writing a
single-line reason to stderr: exit 2 for invalid parameters or usage, exit 1
for runtime failures (including a falsifier run that exhausted its budget,
which is flagged ``partial`` in the report).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from .conformal import (
    conformality_check,
    h2xi_to_h3_map,
    s2xr_to_r3_map,
    sol_flattening,
)
from .families import build_family, catalog_rows, resolve_cli_family
from .meshes import write_curve_csv, write_obj, write_ply
from .surfaces import curvature_report
from .verify import SUITE_NAMES, nonexistence_falsifier, run_suite

SCHEMA_VERSION = 1

_SPACES = ("s2xr", "h2xr", "sol")
_FORMATS = ("obj", "ply", "csv", "json")
_MAPS = ("s2xr-r3", "h2xi-h3", "sol-flat")


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors are a single stderr line."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _parse_grid(text: str):
    parts = str(text).lower().split("x")
    try:
        n_u, n_v = (int(p) for p in parts)
    except ValueError:
        raise ValueError(f"grid must look like 48x48, got {text!r}")
    if n_u < 2 or n_v < 2:
        raise ValueError("grid sides must be at least 2")
    return n_u, n_v


def _plain(value):
    """Recursively reduce numpy scalars/arrays and tuples to JSON types."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return [_plain(v) for v in value.tolist()]
    return value


def _emit(config: dict, result: dict, out=None) -> None:
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": _plain(config),
        "result": _plain(result),
    }
    text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _gen_format(args) -> str | None:
    if args.format is not None:
        return args.format
    if args.out is None:
        return None
    ext = os.path.splitext(args.out)[1].lstrip(".").lower()
    if ext not in _FORMATS:
        raise ValueError(
            f"cannot infer format from {args.out!r}; pass --format")
    return ext


def cmd_gen(args) -> int:
    d = resolve_cli_family(args.space, args.family)
    curve, patch = d.build(args.param)
    n_u, n_v = _parse_grid(args.grid)
    fmt = _gen_format(args)
    if fmt in ("obj", "ply", "csv") and args.out is None:
        raise ValueError("--out is required for obj, ply, or csv output")

    # one report feeds both the summary and the PLY quality property
    rep = curvature_report(patch, n_u, n_v)
    defect = rep.defect_summary()
    if fmt == "obj":
        write_obj(args.out, patch, n_u, n_v)
    elif fmt == "ply":
        write_ply(args.out, patch, n_u, n_v, quality=rep.defect_quality())
    elif fmt == "csv":
        if curve is None:
            raise ValueError(
                f"{d.name} has no generating curve; export obj or ply instead")
        write_curve_csv(args.out, curve)
    elif fmt == "json":
        config = {
            "command": "gen", "space": args.space, "family": args.family,
            "param": args.param, "grid": [n_u, n_v], "format": fmt,
        }
        result = {
            "family": d.name,
            "patch": patch.name,
            "defect": defect,
            "curve_columns": list(curve.columns) if curve is not None else None,
        }
        _emit(config, result, args.out)
        if args.out is None:
            return 0  # the JSON document is the stdout artifact

    summary = f"{d.name}: defect max {defect['max']:.6e} on {n_u}x{n_v} grid"
    if args.out is not None:
        summary += f", wrote {args.out}"
    print(summary)
    return 0


def cmd_verify(args) -> int:
    grid = _parse_grid(args.grid)
    report = run_suite(args.suite, grid=grid, seed=args.seed)
    config = {
        "command": "verify", "suite": args.suite, "grid": list(grid),
        "seed": args.seed,
    }
    _emit(config, report, args.out)
    if args.out is not None:
        print(f"{args.suite}: max residual {report['max_residual']:.6e} "
              f"over {report['n_checks']} checks, wrote {args.out}")
    return 0


def cmd_falsify(args) -> int:
    grid = _parse_grid(args.grid)
    result = nonexistence_falsifier(
        args.kappa, args.tau, family=args.family, n_starts=args.starts,
        budget=args.budget, seed=args.seed, grid=grid)
    config = {
        "command": "falsify", "kappa": args.kappa, "tau": args.tau,
        "family": args.family, "starts": args.starts, "budget": args.budget,
        "seed": args.seed, "grid": list(grid),
    }
    _emit(config, result, args.out)
    if args.out is not None:
        print(f"defect floor {result['min_defect_found']:.6e} "
              f"({result['best_params']['family']}), wrote {args.out}")
    if result["partial"]:
        print("error: search budget exhausted before every restart "
              "converged; result flagged partial", file=sys.stderr)
        return 1
    return 0


def _map_points(name: str, m: int) -> np.ndarray:
    if name == "s2xr-r3":
        xs = np.linspace(-1.2, 1.2, m)
        ts = np.linspace(-1.0, 1.0, 5)
    else:
        xs = np.linspace(-0.45, 0.45, m)
        ts = np.pi / 2 + np.linspace(-1.0, 1.0, 5)
    X, Y, T = np.meshgrid(xs, xs, ts, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel(), T.ravel()])


def cmd_conformal(args) -> int:
    samples = args.samples
    if samples is None:
        samples = 129 if args.map == "sol-flat" else 9
    if samples < 2:
        raise ValueError("--samples must be at least 2")
    if args.map == "sol-flat":
        if samples % 2 == 0:
            raise ValueError("--samples must be odd for sol-flat")
        a = 1.0 if args.param is None else float(args.param)
        if a <= 0.0:
            raise ValueError("a must lie in (0,inf)")
        curve, _ = build_family("Sol_Fa", a)
        fl = sol_flattening(curve, n=samples)
        result = {k: fl[k] for k in (
            "xi_strictly_increasing", "xi_range", "z_sup",
            "conformal_scale", "conformal_residual", "g_yy_exponent",
            "g_yy_vs_scale_e_minus_6z", "g_yy_vs_e_minus_z")}
        result["samples"] = int(len(fl["y"]))
    else:
        pts = _map_points(args.map, samples)
        cmap = s2xr_to_r3_map() if args.map == "s2xr-r3" else h2xi_to_h3_map()
        res = conformality_check(cmap, pts)
        result = {
            "n_points": int(pts.shape[0]),
            "max_off_proportionality": res["max_off_proportionality"],
            "phi_min": float(np.min(res["phi"])),
            "phi_max": float(np.max(res["phi"])),
            "singular_points": int(np.count_nonzero(res["singular"])),
        }
    config = {
        "command": "conformal", "map": args.map, "param": args.param,
        "samples": samples,
    }
    _emit(config, result, args.out)
    if args.out is not None:
        print(f"{args.map}: wrote {args.out}")
    return 0


def cmd_catalog(args) -> int:
    rows = catalog_rows()
    if args.json:
        config = {"command": "catalog"}
        _emit(config, {"count": len(rows), "families": rows}, args.out)
        return 0
    cols = ("family", "space", "cli_key", "parameter", "range")
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    print("  ".join(c.ljust(widths[c]) for c in cols))
    for r in rows:
        print("  ".join(str(r[c]).ljust(widths[c]) for c in cols))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="umbilic",
        description="Invariant surface families in product and Sol "
                    "geometries: generation, residual checks, and the "
                    "defect-floor search.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "gen", help="build a family patch and export mesh, profile, or JSON")
    gen.add_argument("--space", required=True, choices=_SPACES)
    gen.add_argument("--family", required=True,
                     help="family key within the space (see `umbilic catalog`)")
    gen.add_argument("--param", type=float, default=None,
                     help="family parameter, where the catalog lists one")
    gen.add_argument("--grid", default="48x48", help="export grid, e.g. 128x128")
    gen.add_argument("--out", default=None, help="output path (.obj/.ply/.csv/.json)")
    gen.add_argument("--format", choices=_FORMATS, default=None,
                     help="override the format inferred from --out")
    gen.set_defaults(func=cmd_gen)

    ver = sub.add_parser("verify", help="run a residual suite, emit JSON")
    ver.add_argument("--suite", required=True, choices=SUITE_NAMES)
    ver.add_argument("--grid", default="16x16")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--out", default=None, help="write the JSON report here")
    ver.set_defaults(func=cmd_verify)

    fal = sub.add_parser(
        "falsify", help="search the trial families for a low-defect surface")
    fal.add_argument("--kappa", type=float, required=True)
    fal.add_argument("--tau", type=float, required=True)
    fal.add_argument("--family", default="auto",
                     choices=("auto", "graph", "sphere"))
    fal.add_argument("--starts", type=int, default=8)
    fal.add_argument("--budget", type=int, default=4000,
                     help="objective-evaluation budget per trial family, "
                          "shared by its restarts (at least 8 per restart); "
                          "exhausting it flags the result partial and exits 1")
    fal.add_argument("--seed", type=int, default=0)
    fal.add_argument("--grid", default="24x24",
                     help="n_u x n_v evaluation grid: every trial is "
                          "scored on n_u points of one meridian, so n_v "
                          "does not change the search")
    fal.add_argument("--out", default=None)
    fal.set_defaults(func=cmd_falsify)

    con = sub.add_parser(
        "conformal", help="conformality and flattening reports for the model maps")
    con.add_argument("--map", required=True, choices=_MAPS)
    con.add_argument("--param", type=float, default=None,
                     help="graph parameter a for sol-flat (default 1)")
    con.add_argument("--samples", type=int, default=None,
                     help="per-axis sample count (sol-flat: profile samples, odd)")
    con.add_argument("--out", default=None)
    con.set_defaults(func=cmd_conformal)

    cat = sub.add_parser("catalog", help="list the registered families")
    cat.add_argument("--json", action="store_true")
    cat.add_argument("--out", default=None, help="with --json, write the report here")
    cat.set_defaults(func=cmd_catalog)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # every failure path must exit nonzero with one line
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
