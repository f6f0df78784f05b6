"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload falsify --seeds 1 10

For each end-to-end metric it prints the median of the runs and the
distance between the first and third quartile (``statistics.quantiles``
with n=4) as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  It also checks that each run printed exactly the
metrics ``BENCHMARK.json`` lists for its trace mode.  Values are appended to
``perfbench/out/spread-<workload>-trace<n>.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs=2, default=(1, 10),
                        metavar=("FIRST", "LAST"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    want = {m["name"] for m in listed}

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    log = os.path.join(HERE, "out", f"spread-{args.workload}-trace{args.trace}.jsonl")
    values = {name: [] for name in want}
    ok = True
    for seed in range(args.seeds[0], args.seeds[1] + 1):
        done = subprocess.run(
            bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                "--seconds", str(bench["run_seconds"]),
                                "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=180)
        summary = json.loads(done.stdout.strip().splitlines()[-1])
        got = set(summary["metrics"])
        if got != want or done.returncode != 0 or not summary["correct"]:
            ok = False
            print(f"seed {seed}: rc {done.returncode} correct {summary['correct']} "
                  f"missing {sorted(want - got)} extra {sorted(got - want)}")
        for name in want & got:
            values[name].append(summary["metrics"][name]["value"])
        with open(log, "a") as fh:
            fh.write(json.dumps({"seed": seed, **summary}) + "\n")
        print(f"seed {seed}: attempted {summary['attempted']} failed "
              f"{summary['failed']} " + " ".join(
                  f"{m['name']}={summary['metrics'][m['name']]['value']:.4g}"
                  for m in listed[:8] if m["name"] in got), flush=True)

    if not args.trace:
        for m in listed:
            vals = values[m["name"]]
            if len(vals) < 2:
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / statistics.median(vals)
            print(f"{m['name']:<14} median {statistics.median(vals):.6g} "
                  f"spread {spread:.4f} bound {m['bound']} "
                  f"({'ok' if spread < m['bound'] / 3 else 'WIDE'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
