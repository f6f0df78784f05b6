"""One workload in a fresh interpreter: timed passes, checks and digests.

Started by ``run.py`` with the checkout root; writes one JSON result file.
Untraced passes repeat until the next one would overrun the time budget by
more than 10% (at least one pass runs).  With ``--trace 1`` untraced and traced passes alternate within the
same budget; the ``tracer`` wrappers are installed for each traced pass and
removed after it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def run_op(op, tracer=None):
    """Run one op; returns its record (time, exit code, check, digests)."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    value = None
    if tracer is not None:
        tracer.open("op")
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            value = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crash
        error = f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - start
    span = tracer.close() if tracer is not None else None

    record = {"op": op.name, "wall_s": wall, "stderr": err.getvalue().strip()}
    if error is None:
        op.stdout = out.getvalue()
        try:
            ok, info = op.check(op, value)
            record["evals"] = int(op.evals(op, value))
            if op.cli:
                record["rc"] = value
                record["digests"] = {os.path.basename(p): _sha256(p)
                                     for p in op.outputs}
            else:
                text = json.dumps(value, sort_keys=True, default=repr)
                record["digests"] = {
                    "result": hashlib.sha256(text.encode()).hexdigest()}
        except Exception as exc:  # unreadable or missing output
            ok, info = False, {}
            error = f"check: {type(exc).__name__}: {exc}"
        record.update(check_ok=bool(ok), info=info)
    record["error"] = error
    if span is not None:
        record["layer_share"] = tracer.op_attribution(span)
    return record


# a further pass starts only if, at the mean pass time so far, it would end
# within this multiple of the budget
BUDGET_SLACK = 1.1


def repeat(one_pass, budget_s):
    """Call one_pass until the next call would overrun the budget (at least once)."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > BUDGET_SLACK * budget_s:
            return results


def span_cost_s(tracer_cls, calls=20000):
    """Seconds one traced call adds, timed on a wrapped no-op in a scratch tracer."""
    tr = tracer_cls()

    def noop(p):
        return p

    traced = tr.wrap(noop, "calibration", None, None)
    start = time.perf_counter()
    for _ in range(calls):
        noop(None)
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced(None)
    return (time.perf_counter() - start - plain) / calls


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.join(args.root, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    start = time.perf_counter()
    import umbilic.cli  # noqa: F401  (the front door every op goes through)
    import_s = time.perf_counter() - start

    import workloads

    os.makedirs(args.out_dir, exist_ok=True)
    ops = workloads.build_ops(args.workload, umbilic, args.seed, args.out_dir)

    result = {"import_s": import_s}
    if not args.trace:
        def one_pass():
            records = [run_op(op) for op in ops]
            # peak of the first pass, so it does not depend on the pass count
            result.setdefault("peak_rss_mb", resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0)
            return records

        result["passes"] = repeat(one_pass, args.seconds)
    else:
        # untraced and traced passes alternate, so both see the same warm-up
        # and host load; the wrappers are installed only for the traced pass
        import tracer as tracing

        tr = tracing.Tracer()
        wrapped, unrestored = [], []

        def pair():
            untraced = [run_op(op) for op in ops]
            wrapped.append(tr.install())
            try:
                traced = [run_op(op, tr) for op in ops]
            finally:
                unrestored.append(tr.restore())
            return untraced, traced

        pairs = repeat(pair, args.seconds)
        result.update(
            passes=[u for u, _ in pairs], traced_passes=[t for _, t in pairs],
            wrapped_bindings=wrapped[0], unrestored_bindings=sum(unrestored),
            totals=dict(tr.totals), counters=dict(tr.counters),
            n_spans=len(tr.spans), span_cost_s=span_cost_s(tracing.Tracer))
        tr.write_spans(os.path.join(
            args.out_dir, f"spans-{args.workload}-seed{args.seed}.jsonl"))

    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
