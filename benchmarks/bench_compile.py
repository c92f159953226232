"""Compiled inference runtime vs eager graph execution (pytest-benchmark).

Measures the headline claim of the compiled runtime (docs/runtime.md):
MobileNet-V3-Small at batch 8 / resolution 32 runs >=2x faster through a
folded :class:`~repro.nn.compile.InferencePlan` than through the eager
:class:`~repro.nn.graph.GraphExecutor`, while the exact (no-fold) plan
stays bit-identical and the folded plan stays within 1e-4.  The folded
and int8 plans of the FuSe-Full and FuSe-Half variants are timed beside
the baseline's (the int8 accuracy gate lives in ``bench_quantize.py``,
which needs a trained model).  Every plan is timed round-robin over the
same repeats and reported as the median with its p10/p90 spread, next
to the host it ran on.

Also runnable directly as the ``make compile-smoke`` gate::

    python benchmarks/bench_compile.py --smoke

which writes ``benchmarks/results/BENCH_compile.json`` (or ``--out``)
and exits non-zero if the exact plan is not bit-identical, the folded
error exceeds 1e-4, or the speedup falls under ``--min-speedup``.
"""

import argparse
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.core import FuSeVariant, to_fuseconv
from repro.models import build_model
from repro.nn import CompileConfig, GraphExecutor, Tensor, compile_executor
from repro.obs import run_header

RESULTS_DIR = Path(__file__).parent / "results"
FOLD_TOLERANCE = 1e-4
REPEATS = 15
VARIANTS = {"baseline": None, "full": FuSeVariant.FULL,
            "half": FuSeVariant.HALF}


def _host() -> dict:
    """The repro run header (sha, Python, platform) plus cores, CPU, numpy."""
    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return run_header(extra={"cores": os.cpu_count(), "cpu_model": cpu,
                             "numpy": np.__version__})


def _timings(fns: dict, repeats: int) -> dict:
    """Median and p10/p90 wall ms per callable, timed round-robin."""
    times = {name: [] for name in fns}
    for fn in fns.values():
        fn()  # warm-up
    for _ in range(repeats):
        for name, fn in fns.items():
            start = time.perf_counter()
            fn()
            times[name].append((time.perf_counter() - start) * 1000.0)
    out = {}
    for name, ts in times.items():
        p10, p50, p90 = np.percentile(ts, [10, 50, 90])
        out[name] = {"median": float(p50), "p10": float(p10),
                     "p90": float(p90)}
    return out


def run_compile_benchmark(network: str = "mobilenet_v3_small", batch: int = 8,
                          resolution: int = 32, repeats: int = REPEATS,
                          seed: int = 0) -> dict:
    """Eager vs the exact/folded/int8 plans of every variant; the record."""
    base = build_model(network, num_classes=10, resolution=resolution)
    shape = (batch,) + tuple(base.input_shape)
    x = np.random.default_rng(seed + 1).standard_normal(shape).astype(np.float32)

    fns, errors, plans = {}, {}, {}
    for variant, fuse in VARIANTS.items():
        net = base if fuse is None else to_fuseconv(base, fuse)
        executor = GraphExecutor(net, seed=seed)
        executor.eval()
        ref = executor(Tensor(x)).data
        folded = compile_executor(executor, shape)
        int8 = compile_executor(executor, shape, CompileConfig.int8())
        errors[variant] = float(np.max(np.abs(
            folded.run(x).astype(np.float64) - ref.astype(np.float64))))
        if fuse is None:
            eager_executor, eager_ref = executor, ref
            exact = compile_executor(executor, shape, CompileConfig.exact())
            fns["eager"] = lambda: eager_executor(Tensor(x))
            fns["baseline.exact"] = lambda: exact.run(x)
        plans[variant] = (folded, int8)
        fns[f"{variant}.folded"] = lambda p=folded: p.run(x)
        fns[f"{variant}.int8"] = lambda p=int8: p.run(x)
    timings = _timings(fns, repeats)
    ms = {name: t["median"] for name, t in timings.items()}

    folded, int8 = plans["baseline"]
    s = folded.stats
    return {
        "network": network,
        "batch": batch,
        "resolution": resolution,
        "repeats": repeats,
        "statistic": "median",
        "host": _host(),
        "timings_ms": timings,
        "variants": {
            variant: {
                "folded_ms": ms[f"{variant}.folded"],
                "int8_ms": ms[f"{variant}.int8"],
                "folded_vs_eager": ms["eager"] / ms[f"{variant}.folded"],
                "int8_vs_folded":
                    ms[f"{variant}.folded"] / ms[f"{variant}.int8"],
                "folded_max_abs_err": errors[variant],
            }
            for variant in VARIANTS
        },
        "eager_ms": ms["eager"],
        "plan_ms": ms["baseline.folded"],
        "exact_plan_ms": ms["baseline.exact"],
        "int8_plan_ms": ms["baseline.int8"],
        "speedup": ms["eager"] / ms["baseline.folded"],
        "exact_speedup": ms["eager"] / ms["baseline.exact"],
        "int8_speedup": ms["eager"] / ms["baseline.int8"],
        "int8_vs_folded": ms["baseline.folded"] / ms["baseline.int8"],
        "int8_ops": int8.stats.int8_ops,
        "int8_fallbacks": int8.stats.int8_fallbacks,
        "exact_bit_identical": bool(
            exact.run(x).tobytes() == eager_ref.tobytes()),
        "folded_max_abs_err": errors["baseline"],
        "nodes": s.nodes,
        "ops": s.ops,
        "folded_bn": s.folded_bn,
        "fused_activations": s.fused_activations,
        "arena_bytes": s.arena_bytes,
        "naive_bytes": s.naive_bytes,
        "arena_saving": s.arena_saving,
        "compile_ms": s.compile_ms,
    }


def render(result: dict) -> str:
    t = result["timings_ms"]
    host = result["host"]

    def cell(name):
        m = t[name]
        return f"{m['median']:7.2f} ms [{m['p10']:.2f}-{m['p90']:.2f}]"

    lines = [
        f"compiled runtime: {result['network']} "
        f"(batch {result['batch']}, res {result['resolution']}, "
        f"median [p10-p90] of {result['repeats']}; "
        f"{host['cores']} cores, {host['cpu_model']})",
        f"  eager                : {cell('eager')}",
        f"  baseline exact plan  : {cell('baseline.exact')}  "
        f"({result['exact_speedup']:.2f}x eager, bit-identical="
        f"{result['exact_bit_identical']})",
    ]
    for variant, v in result["variants"].items():
        lines += [
            f"  {variant + ' folded plan':<21}: {cell(variant + '.folded')}  "
            f"({v['folded_vs_eager']:.2f}x eager, "
            f"max|err|={v['folded_max_abs_err']:.2e})",
            f"  {variant + ' int8 plan':<21}: {cell(variant + '.int8')}  "
            f"({v['int8_vs_folded']:.2f}x folded)",
        ]
    lines += [
        f"  int8 (baseline)      : {result['int8_ops']} int8 ops, "
        f"{result['int8_fallbacks']} fallbacks — accuracy gated by "
        f"bench_quantize.py",
        f"  fusion (baseline)    : {result['nodes']} nodes -> "
        f"{result['ops']} ops ({result['folded_bn']} BN folded, "
        f"{result['fused_activations']} activations fused)",
        f"  arena (baseline)     : {result['arena_bytes'] / 1024:.0f} KiB vs "
        f"{result['naive_bytes'] / 1024:.0f} KiB naive "
        f"({result['arena_saving'] * 100:.1f}% saved); "
        f"compile {result['compile_ms']:.1f} ms",
    ]
    return "\n".join(lines)


def write_json(result: dict) -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / "BENCH_compile.json"
    path.write_text(json.dumps(result, indent=2) + "\n")
    return path


# ------------------------------------------------------------------ pytest

def test_compiled_runtime_speedup(benchmark, save):
    """The acceptance benchmark: >=2x over eager on V3-Small batch 8."""
    net = build_model("mobilenet_v3_small", num_classes=10, resolution=32)
    executor = GraphExecutor(net, seed=0)
    executor.eval()
    shape = (8,) + tuple(net.input_shape)
    x = np.random.default_rng(1).standard_normal(shape).astype(np.float32)
    plan = compile_executor(executor, shape)

    out = benchmark(plan.run, x)
    assert out.shape == (8, 10)

    result = run_compile_benchmark()
    write_json(result)
    save("BENCH_compile", render(result))
    assert result["exact_bit_identical"]
    assert result["folded_max_abs_err"] <= FOLD_TOLERANCE
    assert result["speedup"] >= 2.0
    benchmark.extra_info.update(
        speedup=result["speedup"], eager_ms=result["eager_ms"],
        plan_ms=result["plan_ms"],
    )


def test_eager_forward_baseline(benchmark):
    """The eager number the speedup is measured against."""
    net = build_model("mobilenet_v3_small", num_classes=10, resolution=32)
    executor = GraphExecutor(net, seed=0)
    executor.eval()
    x = Tensor(np.random.default_rng(1).standard_normal(
        (8,) + tuple(net.input_shape)).astype(np.float32))
    out = benchmark(executor, x)
    assert out.shape == (8, 10)


# ------------------------------------------------------------------- smoke

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="compiled-runtime benchmark / smoke gate")
    parser.add_argument("--network", default="mobilenet_v3_small")
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--resolution", type=int, default=32)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="gate with the relaxed speedup floor")
    parser.add_argument("--min-speedup", type=float, default=None,
                        help="fail under this folded-plan speedup "
                             "(default: 2.0, or 1.0 with --smoke)")
    parser.add_argument("--out", default=None,
                        help="JSON output path "
                             "(default benchmarks/results/BENCH_compile.json)")
    args = parser.parse_args(argv)
    min_speedup = args.min_speedup
    if min_speedup is None:
        min_speedup = 1.0 if args.smoke else 2.0
    if args.repeats < REPEATS:
        parser.error(f"--repeats must be at least {REPEATS}")

    result = run_compile_benchmark(args.network, args.batch, args.resolution,
                                   args.repeats, args.seed)
    print(render(result))
    if args.out:
        path = Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
    else:
        path = write_json(result)
    print(f"wrote {path}")

    problems = []
    if not result["exact_bit_identical"]:
        problems.append("exact plan is not bit-identical to eager")
    if result["folded_max_abs_err"] > FOLD_TOLERANCE:
        problems.append(
            f"folded error {result['folded_max_abs_err']:.2e} > {FOLD_TOLERANCE}")
    if result["speedup"] < min_speedup:
        problems.append(
            f"speedup {result['speedup']:.2f}x < required {min_speedup:.2f}x")
    if problems:
        print("compile benchmark FAILED: " + "; ".join(problems),
              file=sys.stderr)
        return 1
    print(f"compile benchmark ok: {result['speedup']:.2f}x folded, "
          f"{result['exact_speedup']:.2f}x exact, bit-identical exact plan")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
