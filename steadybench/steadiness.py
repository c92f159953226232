"""Steadiness runs: one workload, several seeds, quartile spread per metric.

Usage, from the repository root::

    python3 steadybench/steadiness.py --workload sim-sweep --seeds 1-10

Runs ``steadybench/run.py --trace 0`` once per seed, one run at a time,
for ``run_seconds`` from ``BENCHMARK.json``.  For every end-to-end
metric it records the median, the quartiles (``statistics.quantiles``,
n=4) and their distance as a share of the median, next to the metric's
bound, plus each run's ``host.steal_share`` and the host fingerprint
that run recorded (git state, BLAS threads as that process set them).
The result replaces that workload's entry in
``steadybench/STEADINESS.json`` (``--set`` names the entry, so a second
set of runs can sit beside the first).
``--summarize`` runs nothing and recomputes every recorded set's summary
and the agreement between sets against the bounds now in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

from common import quartile_spread  # noqa: E402  (imports repro)

RECORD = BENCH_DIR / "STEADINESS.json"


def parse_seeds(text: str) -> list:
    if "-" in text:
        low, high = (int(v) for v in text.split("-"))
        return list(range(low, high + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, "steadybench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:"
                           f"\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((BENCH_DIR / "out" /
                         f"{workload}-seed{seed}-trace0.json").read_text())
    return {"seed": seed, "wall_s": round(wall, 2),
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "host.steal_share": record["host.steal_share"],
            "host.speed_factor": record["host.speed_factor"],
            "host": record["host"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summarize(runs: list, end_to_end: list) -> dict:
    """Median, quartiles and spread of each end-to-end metric over runs,
    next to the metric's bound."""
    summary = {}
    for metric in end_to_end:
        stats = quartile_spread([r["metrics"][metric["name"]] for r in runs])
        stats["bound"] = metric["bound"]
        stats["within_bound"] = stats["spread"] <= metric["bound"]
        stats["within_third_of_bound"] = stats["spread"] <= metric["bound"] / 3
        summary[metric["name"]] = stats
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--set", default="first")
    parser.add_argument("--summarize", action="store_true",
                        help="run nothing; recompute every recorded set's "
                             "summary against the bounds in BENCHMARK.json")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(RECORD.read_text()) if RECORD.exists() else {}
    if not args.summarize:
        if args.workload is None:
            parser.error("--workload is required unless --summarize")
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(args.workload, seed, spec["run_seconds"])
            runs.append(run)
            print(f"{args.workload} seed {seed}: " + " ".join(
                f"{k}={v:.4g}" for k, v in run["metrics"].items())
                + f" steal={run['host.steal_share']:.3f} "
                f"wall={run['wall_s']}s", file=sys.stderr)
        record["run_seconds"] = spec["run_seconds"]
        record.setdefault("sets", {}).setdefault(args.set, {})[
            args.workload] = {"runs": runs}

    for set_name, workloads in record.get("sets", {}).items():
        for workload, entry in workloads.items():
            runs = entry["runs"]
            entry["metrics"] = summarize(runs, spec["end_to_end"])
            entry["all_correct"] = all(r["correct"] and r["failed"] == 0
                                       for r in runs)
            for name, stats in entry["metrics"].items():
                print(f"{set_name:7s} {workload:13s} {name:15s} "
                      f"median={stats['median']:.4g} "
                      f"spread={stats['spread']:.4f} bound={stats['bound']}",
                      file=sys.stderr)
    record["agreement"] = agreement(record.get("sets", {}), spec["end_to_end"])
    RECORD.write_text(json.dumps(record, indent=1) + "\n")
    return 0


def agreement(sets: dict, end_to_end: list) -> dict:
    """How far each later set's medians moved from the ``first`` set's,
    as a share of the first median, next to the metric's bound."""
    out = {}
    first = sets.get("first", {})
    for name, later in sets.items():
        if name == "first":
            continue
        for workload, entry in later.items():
            if workload not in first:
                continue
            for metric in end_to_end:
                base = first[workload]["metrics"][metric["name"]]["median"]
                new = entry["metrics"][metric["name"]]["median"]
                out[f"{name}/{workload}/{metric['name']}"] = {
                    "change": (new - base) / base, "bound": metric["bound"],
                    "within_bound": abs(new - base) / base <= metric["bound"]}
    return out


if __name__ == "__main__":
    sys.exit(main())
