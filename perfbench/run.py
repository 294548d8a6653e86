"""bevmap benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a bevmap checkout; bevmap is imported from its `src/`.
The workload runs in this process with the BLAS thread count fixed to
BLAS_THREADS before numpy loads.  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics with `--trace 0`, the per-layer metrics of the traced run
with `--trace 1`.  The line before it holds the details: the machine, the
op count, the tail percentile, the set-up repeats, the input and output
digests and any failed check.  Both are also written, with the spans of a
traced run, under `.bench_out/` in the checkout.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BLAS_THREADS = 1  # at or below nproc; on 2 cores, 2 threads made vanilla attention slower
SETUP_REPS = 3
MIN_OPS = 4
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("peak_rss_mb", "MB"),
]


def tail(latencies: list[float]) -> tuple[float, str]:
    """The highest order statistic with at least ten samples beyond it, and
    its percentile; below 20 samples that would not reach the median, so the
    maximum is reported instead."""
    xs = sorted(latencies)
    n = len(xs)
    if n < 20:
        return xs[-1], "max"
    k = n - 11
    return xs[k], f"p{100.0 * (k + 1) / n:.0f}"


def _commit(root: str) -> str:
    head_path = os.path.join(root, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown: not a git checkout"
    with open(head_path) as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(root, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    packed = os.path.join(root, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown: {ref}"


def machine() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_ENV},
        "commit": _commit(ROOT),
    }


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, size=None,
                  setup_reps: int = SETUP_REPS, out_dir: str | None = None) -> tuple[dict, dict]:
    """Set up, run the timed loop, check; return (result line, details)."""
    import bench_trace
    import bench_workloads

    cls = bench_workloads.WORKLOADS[name]
    workload = cls(seed) if size is None else cls(seed, size)
    tracer = bench_trace.Tracer() if trace else None
    setup_s = []
    with bench_trace.instrument(tracer) if trace else nullcontext():
        for _ in range(1 if trace else setup_reps):
            t0 = time.perf_counter()
            with tracer.phase("setup") if trace else nullcontext():
                workload.setup()
            setup_s.append(time.perf_counter() - t0)
        clock = bench_workloads.OpClock(tracer)
        t0 = time.perf_counter()
        workload.run(clock, t0 + seconds, MIN_OPS)
        run_s = time.perf_counter() - t0
    failures = workload.check()

    latencies = clock.latencies
    tail_s, tail_label = tail(latencies)
    guards = workload.guards() if hasattr(workload, "guards") else {}
    if trace:
        # each traced op against the untraced op just before it, so drift and
        # the slower first steps of training cancel
        pairs = [latencies[i] / latencies[i - 1] for i in range(1, clock.ops)
                 if clock.traced[i] and not clock.traced[i - 1]]
        extra = dict(guards)
        if pairs:
            extra["overhead"] = statistics.median(pairs) - 1.0
        values = bench_trace.layer_metrics(tracer.spans, clock.ops, extra)
        units = {m[0]: m[1] for m in bench_trace.PER_LAYER}
    else:
        values = {
            "setup_s": statistics.median(setup_s),
            "ops_per_s": clock.ops / run_s,
            "op_ms_p50": statistics.median(latencies) * 1000.0,
            "op_ms_tail": tail_s * 1000.0,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
    failed = clock.failed + len(failures)
    result = {
        "correct": failed == 0,
        "attempted": clock.ops,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }
    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "ops": clock.ops,
        "failed_ops": clock.failed,
        "failed_checks": failures,
        "run_s": run_s,
        "op_ms_tail_percentile": tail_label,
        "setup_s_reps": setup_s,
        "guards": guards,
        "input_digest": workload.input_digest(),
        "output_digest": workload.output_digest(),
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        doc = dict(details, result=result, op_ms=[t * 1000.0 for t in latencies])
        if trace:
            doc["spans"] = tracer.spans
        path = os.path.join(out_dir, f"{name}-seed{seed}-trace{int(trace)}.json")
        with open(path, "w") as f:
            json.dump(doc, f)
    return result, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "eval", "attn"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "bevmap", "__init__.py")):
        print(f"perfbench: no bevmap sources under {src}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy loads its BLAS
        os.environ[var] = str(BLAS_THREADS)
    sys.path[:0] = [src, HERE]

    result, details = run_benchmark(
        args.workload, args.seed, args.seconds, bool(args.trace),
        out_dir=os.path.join(ROOT, ".bench_out"),
    )
    print(json.dumps(details))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
