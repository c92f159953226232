"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 steadybench/run.py --workload infer-plans --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics from a run with benchmark-owned
spans and writes them as a Chrome trace.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run record (host fingerprint, steal share, set-up times, checks, span
table) is written under ``steadybench/out/``.  See ``steadybench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import sys
from pathlib import Path

# One BLAS thread: on a two-vCPU host, OpenBLAS helper threads spin-wait
# beside the worker and event-loop threads and make CPU times noisy.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

#: Workload name → module in this directory.
WORKLOADS = {"infer-plans": "plans", "serve-closed": "serving",
             "sim-sweep": "sweep"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        print("steadybench: run from a checkout holding src/repro and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))

    from common import host_fingerprint, median, new_tracer, peak_rss_mb, span_table

    tracer = new_tracer() if args.trace else None
    module = importlib.import_module(WORKLOADS[args.workload])
    outcome = module.run(args.seed, args.seconds, tracer)

    if args.trace:
        wanted = spec["per_layer"]
        measured = dict(outcome.per_layer, **{
            "host.steal_share": outcome.steal_share,
            "host.speed_factor": outcome.speed_factor,
            "wall.setup_s": median(outcome.setup_wall_s),
            "wall.ops_per_s": outcome.wall_ops_per_s,
            "wall.p50_ms": outcome.wall_p50_ms})
        unknown = sorted(set(measured) - {m["name"] for m in wanted})
        if unknown:
            raise KeyError(f"metrics missing from BENCHMARK.json: {unknown}")
    else:
        wanted = spec["end_to_end"]
        measured = {"setup_s": median(outcome.setup_s),
                    "peak_rss_mb": peak_rss_mb(),
                    "ops_per_s_norm": outcome.ops_per_s_norm,
                    "p50_ms_norm": outcome.p50_ms_norm}
    # A per-layer metric of a layer this workload does not call reads 0.
    metrics = {m["name"]: {"value": float(measured.get(m["name"], 0.0)),
                           "unit": m["unit"]} for m in wanted}
    correct = all(outcome.checks.values()) and outcome.failed == 0

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "host": host_fingerprint(ROOT),
        "host.steal_share": outcome.steal_share,
        "host.speed_factor": outcome.speed_factor,
        "setup_norm_s": outcome.setup_s, "setup_wall_s": outcome.setup_wall_s,
        "wall": {"ops_per_s": outcome.wall_ops_per_s,
                 "p50_ms": outcome.wall_p50_ms},
        "metrics": metrics,
        "correct": correct, "attempted": outcome.attempted,
        "failed": outcome.failed, "checks": outcome.checks,
        "detail": outcome.record,
    }
    if tracer is not None:
        record["spans"] = span_table(tracer.events())
        record["spans_dropped"] = tracer.dropped
        trace_path = OUT_DIR / f"{stem}.trace.json"
        trace_path.write_text(json.dumps(tracer.to_chrome()))
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for name, metric in metrics.items():
        print(f"{args.workload:13s} {name:40s} {metric['value']:14.4f} "
              f"{metric['unit']}")
    print(json.dumps({"correct": correct, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
