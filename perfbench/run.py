"""Benchmark command for shiftpose.

Usage, from the repository root:

    python3 perfbench/run.py --workload toy-train --seed 1 --seconds 30 --trace 0

Workloads: toy-train, mid-train, paper-infer (see NOTES.md). With
``--trace 0`` the run measures for ``--seconds`` with tracing off and
reports the end-to-end metrics. With ``--trace 1`` it measures half the
time untraced and half traced, and reports the per-layer metrics plus
the tracing overhead; the spans are written to ``.perfbench_out/``.

Standard output ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``; the line before it carries the machine facts,
sample counts, digests and every check. The exit code is 0 when every
operation and check passed, 1 when one failed and 2 when the program
cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cores():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count()


def cap_blas_threads():
    """Pin the BLAS and OpenMP thread counts: one unless set, and never
    above the core count. The workloads have one caller; one thread keeps
    the calibration kernel representative of them.

    Must run before numpy is imported."""
    n = cores()
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, 1))
        except ValueError:
            want = 1
        os.environ[var] = str(max(1, min(want, n)))


def machine_facts(seed):
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": cores(), "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}, "seed": seed}


def percentile(values, q):
    """Nearest-rank percentile, or None when fewer than ten samples lie
    beyond it."""
    s = sorted(values)
    rank = max(1, -(-len(s) * q // 100))
    return s[int(rank) - 1] if len(s) - rank >= 10 else None


def end_to_end(session, batch, adjust=True):
    op, setup = session.times(adjust)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "step_ms_p50": (1e3 * statistics.median(op), "ms"),
        "samples_per_s": (batch * len(op) / sum(op), "1/s"),
        "loss": (session.losses[0], "mse"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def named(workload, session, batch, errors, adjust=True):
    """The figures under the names a reader of each workload expects."""
    m = end_to_end(session, batch, adjust)
    out = {"setup_s": m["setup_s"], "peak_rss_mb": m["peak_rss_mb"],
           "error_rate": (errors, "ratio")}
    if workload == "paper-infer":
        out["infer_ms_p50"] = m["step_ms_p50"]
    else:
        out["train_samples_per_s"] = m["samples_per_s"]
        out["step_ms_p50"] = m["step_ms_p50"]
        out["eval_loss" if workload == "toy-train" else "train_loss"] = m["loss"]
        p90 = percentile(session.times(adjust)[0], 90)
        if p90 is not None:
            out["step_ms_p90"] = (1e3 * p90, "ms")
    out["samples"] = (len(session.op_s), "count")
    return {k: {"value": v, "unit": u} for k, (v, u) in out.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("toy-train", "mid-train", "paper-infer"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    cap_blas_threads()
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "shiftpose", "__init__.py")):
        print(f"error: no program at {src}/shiftpose", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    try:
        import shiftpose  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    import tracer as tr
    from workloads import WORKLOADS, Session

    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, out_dir)
    sessions = []
    fault = None
    layer, tracer = None, None
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        sessions.append(Session(workload))
        sessions[-1].run(seconds)
        if args.trace:
            tracer = tr.Tracer()
            tracer.install()
            try:
                sessions.append(Session(workload, tracer))
                sessions[-1].run(seconds)
            finally:
                tracer.uninstall()
            sessions[-1].check("counts repeat exactly within each phase",
                               tracer.check_counts() and not tracer.problems,
                               "; ".join(tracer.problems))
            layer = tracer.layer_metrics(sessions[-1].checkpoint_bytes)
            layer["trace.overhead_ms"] = 1e3 * (
                statistics.median(sessions[1].times()[0])
                - statistics.median(sessions[0].times()[0]))
            tracer.write_spans(os.path.join(
                out_dir, f"spans-{args.workload}-{args.seed}.tsv"))
    except Exception:  # the run's boundary: report the failure, keep the result line
        fault = traceback.format_exc()
        print(fault, file=sys.stderr)

    with open(os.path.join(out_dir, f"samples-{args.workload}-{args.seed}.json"), "w") as fh:
        json.dump([{"op_s": s.op_s, "op_kernel_s": s.op_kernel_s, "setup_s": s.setup_s,
                    "setup_kernel_s": s.setup_kernel_s} for s in sessions], fh)
    checks = [c for s in sessions for c in s.checks]
    ops = sum(len(s.op_s) for s in sessions)
    attempted = ops + len(checks) + (1 if fault else 0)
    failed = sum(1 for _, ok, _ in checks if not ok) + (1 if fault else 0)
    first = sessions[0] if sessions else None
    complete = fault is None and first is not None and first.losses
    metrics = end_to_end(first, workload.batch) if complete else {}
    if args.trace and layer is not None:
        units = tr.per_layer_units()
        report = {k: (layer[k], units[k]) for k in units}
    else:
        report = metrics

    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_facts(args.seed),
        "operations": [len(s.op_s) for s in sessions],
        "setups": [len(s.setup_s) for s in sessions],
        "digest": first.digest if first else None,
        "failed_checks": [(n, d) for n, ok, d in checks if not ok],
        "checks": sorted({n for n, _, _ in checks}),
    }
    if metrics:
        errors = failed / attempted
        detail["named"] = named(args.workload, first, workload.batch, errors)
        detail["wall"] = named(args.workload, first, workload.batch, errors, False)
        detail["kernel_ms_p50"] = 1e3 * statistics.median(first.op_kernel_s)
        for k, d in detail["named"].items():
            wall = detail["wall"][k]["value"]
            print(f"{args.workload:12s} {k:20s} {d['value']:10.6g} {d['unit']:6s}"
                  f" (wall {wall:.6g})")
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and bool(report),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }))
    return 0 if failed == 0 and report else 1


if __name__ == "__main__":
    sys.exit(main())
