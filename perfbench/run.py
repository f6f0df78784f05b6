"""Benchmark of the umbilic package: one workload per run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload falsify --seed 0 --seconds 28 --trace 0

Workloads (see ``workloads.py``): ``falsify`` (the defect-floor searches),
``identities`` (the four ``verify`` suites) and ``families`` (the twelve
families exported as meshes, the conformal reports and the slice
classifier).  Each is a closed loop with one client: a single fresh
interpreter issues the ops back to back, with ``UMBILIC_THREADS`` unset.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s``
(fresh interpreter until ``umbilic.cli`` is imported, median of several
starts), ``wall_s`` (median time of one pass over the ops), ``evals_per_s``
(evaluations the op outputs report, per second of a pass) and
``peak_rss_mb``.  With ``--trace 1`` it runs untraced passes, then traced
passes with every layer wrapped, and reports the per-layer metrics.

Details (per-op times, digests, checks, run metadata) go to
``perfbench/out/``; the last line of stdout is the JSON summary.  Its
``correct`` is false if an op output misses its bound or is unreadable, a
digest is unstable, or a wrapper was not removed.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 5
WORKER_TIMEOUT_S = 165
THREAD_ENV = ("UMBILIC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
              "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END = {"setup_s": "s", "wall_s": "s", "evals_per_s": "1/s",
              "peak_rss_mb": "MB"}

# per-layer metrics: span totals (span name, fields), tracer counters, and
# the traced-run checks computed in summarize
_SPAN_FIELDS = {"calls": "count", "points": "count", "self_s": "s",
                "wall_s": "s"}
LAYER_SPANS = [
    ("geometry.christoffels", ("calls", "points", "self_s")),
    ("geometry.riemann", ("calls", "points", "self_s")),
    ("geometry.metric_at", ("calls", "self_s")),
    ("geometry.cross", ("calls", "self_s")),
    ("geometry.inner", ("calls", "self_s")),
    ("surfaces.curvature_report", ("calls", "points", "self_s")),
    ("surfaces.classify_slice_structure", ("calls", "self_s")),
    ("profiles.build", ("calls", "self_s")),
    ("profiles.curve_jet", ("calls", "points", "self_s")),
    ("families.build_family", ("calls", "wall_s")),
    ("verify.trial_defect.graph", ("calls", "wall_s")),
    ("verify.trial_defect.sphere", ("calls", "wall_s")),
    ("verify.nonexistence_falsifier", ("self_s",)),
    ("verify.run_suite.product-identities", ("wall_s",)),
    ("verify.run_suite.sol-identities", ("wall_s",)),
    ("verify.run_suite.killing-grid", ("wall_s",)),
    ("verify.run_suite.daniel-grid", ("wall_s",)),
    ("conformal.conformality_check", ("self_s",)),
    ("conformal.sol_flattening", ("self_s",)),
    ("meshes.write", ("calls", "self_s")),
    ("meshes.defect_quality", ("calls",)),
    ("cli.main", ("self_s",)),
]
LAYER_COUNTERS = {
    "verify.trial_defect.penalized": "count",
    "verify.falsifier.n_evals": "count",
    "verify.falsifier.partial": "count",
    "meshes.write.bytes": "B",
}
TRACE_CHECKS = {
    "verify.trial_defect.penalized_share": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "ratio",
    "trace.span_cost_est_s": "s",
    "trace.layer_share_min": "ratio",
    "trace.unrestored": "count",
    "trace.digest_mismatch": "count",
}


def per_layer_units():
    units = {}
    for span, fields in LAYER_SPANS:
        for f in fields:
            units[f"{span}.{f}"] = _SPAN_FIELDS[f]
    units.update(LAYER_COUNTERS)
    units.update(TRACE_CHECKS)
    return units


# ---------------------------------------------------------------------------
# set-up and metadata


def _child_env():
    env = dict(os.environ)
    env.pop("UMBILIC_THREADS", None)  # one client, one thread
    return env


def measure_setup(root, samples):
    """Seconds from starting a fresh interpreter until umbilic.cli is imported."""
    code = ("import sys, time; sys.path.insert(0, 'src'); import umbilic.cli; "
            "print(time.monotonic())")
    times = []
    for _ in range(samples):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", code], cwd=root,
                              env=_child_env(), capture_output=True, text=True,
                              timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]) - start)
    return times


def _src_files(root):
    return sorted(glob.glob(os.path.join(root, "src", "umbilic", "**", "*.py"),
                            recursive=True))


def src_digest(root):
    digest = hashlib.sha256()
    for path in _src_files(root):
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def metadata(root):
    import numpy
    import scipy

    sha = None
    if os.path.isdir(os.path.join(root, ".git")):
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                              capture_output=True, text=True, timeout=30)
        sha = done.stdout.strip() or None
    lines = 0
    for path in _src_files(root):
        with open(path, "rb") as fh:
            lines += sum(1 for _ in fh)
    return {
        "git_sha": sha,
        "src_sha256": src_digest(root),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        # the worker runs with UMBILIC_THREADS removed from this environment
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
    }


# ---------------------------------------------------------------------------
# summary


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _pass_wall(records):
    return sum(r["wall_s"] for r in records)


def _digest_failures(passes, stored):
    """Mark records whose digests differ from the first pass or a stored run."""
    reference = {r["op"]: r.get("digests") for r in passes[0]}
    for i, records in enumerate(passes):
        for r in records:
            want = stored.get(r["op"]) if stored else None
            if want is not None and r.get("digests") != want:
                r["digest_mismatch"] = "differs from an earlier run of this code"
            elif i and r.get("digests") != reference[r["op"]]:
                r["digest_mismatch"] = "differs from the first pass"
    return reference


def _failed(r):
    return bool(r["error"] or not r.get("check_ok") or r.get("rc", 0) != 0
                or r.get("digest_mismatch"))


def _incorrect(r):
    # a nonzero exit the op's check accepts (a partial falsify report) is a
    # failed op with a correct output
    return bool(r["error"] or not r.get("check_ok") or r.get("digest_mismatch"))


def summarize(result, setup_times, trace, stored):
    passes = result["passes"]
    traced = result.get("traced_passes", [])
    all_passes = passes + traced
    reference = _digest_failures(all_passes, stored)
    records = [r for p in all_passes for r in p]

    walls = [_pass_wall(p) for p in passes]
    rates = [sum(r.get("evals", 0) for r in p) / _pass_wall(p) for p in passes]
    q1, q3 = _quartiles(walls)
    stats = {"wall_s_samples": walls, "wall_s_q1": q1, "wall_s_q3": q3,
             "setup_s_samples": setup_times, "worker_import_s": result["import_s"],
             "evals_per_pass": sum(r.get("evals", 0) for r in passes[0])}

    if not trace:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": statistics.median(walls),
            "evals_per_s": statistics.median(rates),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END
    else:
        n = len(traced)
        totals, counters = result["totals"], result["counters"]
        metrics = {}
        for span, fields in LAYER_SPANS:
            for f in fields:
                metrics[f"{span}.{f}"] = totals.get(span, {}).get(f, 0) / n
        for name in LAYER_COUNTERS:
            metrics[name] = counters.get(name, 0.0) / n
        trials = sum(totals.get(f"verify.trial_defect.{fam}", {}).get("calls", 0)
                     for fam in ("graph", "sphere"))
        traced_wall = statistics.median(_pass_wall(p) for p in traced)
        untraced_wall = statistics.median(walls)
        metrics.update({
            "verify.trial_defect.penalized_share":
                counters.get("verify.trial_defect.penalized", 0.0) / trials
                if trials else 0.0,
            "trace.wall_s": traced_wall,
            "trace.overhead_s": traced_wall - untraced_wall,
            "trace.overhead_share": (traced_wall - untraced_wall) / untraced_wall,
            "trace.span_cost_est_s": result["n_spans"] / n * result["span_cost_s"],
            "trace.layer_share_min": min(r["layer_share"] for p in traced for r in p),
            "trace.unrestored": result["unrestored_bindings"],
            "trace.digest_mismatch": sum(1 for p in traced for r in p
                                         if r.get("digest_mismatch")),
        })
        units = per_layer_units()
        stats["layer_share_by_op"] = {r["op"]: r["layer_share"] for r in traced[0]}
        stats["wrapped_bindings"] = result["wrapped_bindings"]
        stats["n_spans"] = result["n_spans"]

    correct = not any(_incorrect(r) for r in records)
    if trace and result["unrestored_bindings"]:
        correct = False
    summary = {
        "correct": correct,
        "attempted": len(records),
        "failed": sum(1 for r in records if _failed(r)),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return summary, stats, reference


# ---------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0,
                        help="workload seed; 0 reproduces the README and C06 "
                             "seeds, any other value offsets them")
    parser.add_argument("--seconds", type=float, default=28.0,
                        help="measurement budget (at least one pass runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "umbilic", "cli.py")):
        print("error: run from the root of an umbilic checkout "
              "(src/umbilic/cli.py not found)", file=sys.stderr)
        return 2

    out_dir = os.path.join(HERE, "out")
    ops_dir = os.path.join(out_dir, args.workload)
    os.makedirs(ops_dir, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result_path = os.path.join(out_dir, f"worker-{tag}.json")

    setup_times = measure_setup(root, SETUP_SAMPLES)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--root", root,
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--out-dir", ops_dir, "--result", result_path],
        cwd=root, env=_child_env(), timeout=WORKER_TIMEOUT_S, check=True)
    with open(result_path) as fh:
        result = json.load(fh)

    # digests of an earlier run of the same code and seed, in this checkout
    meta = metadata(root)
    digest_path = os.path.join(out_dir, f"digests-{args.workload}-seed{args.seed}.json")
    stored = None
    if os.path.exists(digest_path):
        with open(digest_path) as fh:
            saved = json.load(fh)
        if saved["src_sha256"] == meta["src_sha256"]:
            stored = saved["digests"]

    summary, stats, reference = summarize(result, setup_times, args.trace, stored)
    if stored is None:
        with open(digest_path, "w") as fh:
            json.dump({"src_sha256": meta["src_sha256"], "digests": reference},
                      fh, indent=1, sort_keys=True)

    with open(os.path.join(out_dir, f"result-{tag}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "metadata": meta, "summary": summary, "stats": stats,
                   "digests": reference, "passes": result["passes"],
                   "traced_passes": result.get("traced_passes", [])},
                  fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"passes {len(result['passes'])}  src lines {meta['src_lines']}  "
          f"python {meta['python']}  numpy {meta['numpy']}  scipy {meta['scipy']}")
    print(f"wall_s per pass: median {statistics.median(stats['wall_s_samples']):.4f}"
          f"  q1 {stats['wall_s_q1']:.4f}  q3 {stats['wall_s_q3']:.4f}"
          f"  n {len(stats['wall_s_samples'])}")
    for r in result["passes"][0] + result.get("traced_passes", [[]])[0]:
        status = "FAILED" if _failed(r) else "ok"
        print(f"  {r['op']:<28} {r['wall_s']:9.4f} s  {status}"
              + (f"  ({r['error'] or r.get('digest_mismatch') or r['stderr']})"
                 if _failed(r) else ""))
    for name, m in summary["metrics"].items():
        print(f"  {name:<44} {m['value']:.6g} {m['unit']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
