"""``infer-plans``: a one-thread closed loop over nine compiled plans.

MobileNet-V3-Small (10 classes, resolution 32) as baseline, FuSe-Full
and FuSe-Half; each compiled as ``folded`` and ``int8`` at batch 8 and
``exact`` at batch 1.  Almost all time is in ``InferencePlan.run``:
batch 8 is bound by kernel compute, batch-1 ``exact`` (the default
``bitexact`` serving path) by per-step overhead, so a fusion that helps
one and costs the other shows on one of the two metrics.
"""

from __future__ import annotations

import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from common import (
    HostSpeed,
    Outcome,
    StealMeter,
    clocks,
    durations_ms,
    median,
    no_span,
    percentile,
    repeat_setup,
    span_opener,
)

from repro.core import FuSeVariant, to_fuseconv
from repro.models import build_model
from repro.nn import CompileConfig, GraphExecutor, Tensor, compile_executor
from repro.obs.tracing import Tracer

NETWORK = "mobilenet_v3_small"
RESOLUTION = 32
VARIANTS = {"baseline": None, "full": FuSeVariant.FULL, "half": FuSeVariant.HALF}
FLAVORS = {"folded": (CompileConfig, 8), "int8": (CompileConfig.int8, 8),
           "exact": (CompileConfig.exact, 1)}
BATCHED = [(v, f) for v in VARIANTS for f in ("folded", "int8")]
SETUPS = 21          # set-ups per run; setup_s is their median
POOL = 8            # seeded inputs per batch size
FOLD_TOLERANCE = 1e-4


def setup(seed: int, span=no_span) -> Tuple[Dict[str, GraphExecutor], Dict]:
    """Build the three networks and compile all nine plans."""
    with span("build_model", network=NETWORK):
        base = build_model(NETWORK, num_classes=10, resolution=RESOLUTION)
    executors, plans = {}, {}
    for variant, fuse in VARIANTS.items():
        net = base
        if fuse is not None:
            with span("to_fuseconv", variant=variant):
                net = to_fuseconv(base, fuse)
        executor = GraphExecutor(net, seed=seed)
        executor.eval()
        executors[variant] = executor
        for flavor, (config, batch) in FLAVORS.items():
            shape = (batch,) + tuple(net.input_shape)
            with span("compile_executor", flavor=flavor, variant=variant):
                plans[variant, flavor] = compile_executor(executor, shape,
                                                          config())
    return executors, plans


class _Window:
    """Timings of one measured window, on both clocks."""

    def __init__(self) -> None:
        self.b8_images = 0
        self.b8_wall_s = 0.0
        self.b8_norm_s = 0.0       # batch-8 CPU seconds at nominal speed
        self.rotations_wall_ms: List[float] = []
        self.rotations_norm_ms: List[float] = []
        self.speed_factor = 1.0


def _window(plans, pool8, pool1, seconds: float, out: Outcome,
            speed: HostSpeed, py_speed: HostSpeed, span=no_span) -> _Window:
    """Rotate the six batch-8 plans, then the three batch-1 plans.

    Each half-rotation follows its own probe and is normalized by it, so
    the host state it ran in is the one it is corrected for.  Batch 8
    spends its time in numpy and takes the whole probe's factor; batch-1
    ``exact`` is bound by per-step Python overhead and takes the factor
    of the probe's Python part (``py_speed``).
    """
    stats = _Window()
    mark = speed.mark()
    deadline = time.perf_counter() + seconds
    i = 0
    while time.perf_counter() < deadline:
        x8, x1 = pool8[i % POOL], pool1[i % POOL]
        i += 1
        factor = speed.probe()
        for variant, flavor in BATCHED:
            out.attempted += 1
            wall, cpu = clocks()
            try:
                with span("InferencePlan.run", variant=variant, flavor=flavor,
                          batch=8):
                    plans[variant, flavor].run(x8)
            except Exception as exc:  # count it, keep measuring
                out.failed += 1
                print(f"plan {variant}/{flavor} failed: {exc!r}",
                      file=sys.stderr)
                continue
            stats.b8_wall_s += time.perf_counter() - wall
            stats.b8_norm_s += (time.process_time() - cpu) / factor
            stats.b8_images += 8
        factor = py_speed.probe()
        wall, cpu = clocks()
        ok = True
        for variant in VARIANTS:
            out.attempted += 1
            try:
                with span("InferencePlan.run", variant=variant, flavor="exact",
                          batch=1):
                    plans[variant, "exact"].run(x1)
            except Exception as exc:
                out.failed += 1
                ok = False
                print(f"plan {variant}/exact failed: {exc!r}", file=sys.stderr)
        if ok:
            stats.rotations_wall_ms.append((time.perf_counter() - wall) * 1e3)
            stats.rotations_norm_ms.append(
                (time.process_time() - cpu) * 1e3 / factor)
    stats.speed_factor = speed.factor(mark)
    return stats


def _outputs(plans, x8, x1) -> Dict:
    return {key: plan.run(x1 if key[1] == "exact" else x8)
            for key, plan in plans.items()}


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    rng = np.random.default_rng(seed)
    pool8 = [rng.standard_normal((8, 3, RESOLUTION, RESOLUTION))
             .astype(np.float32) for _ in range(POOL)]
    pool1 = [rng.standard_normal((1, 3, RESOLUTION, RESOLUTION))
             .astype(np.float32) for _ in range(POOL)]
    span = span_opener(tracer)
    speed = HostSpeed()
    py_speed = HostSpeed(python_only=True)

    (executors, plans), norm_s, wall_s = repeat_setup(
        lambda: setup(seed, span), SETUPS, speed)
    out = Outcome(setup_s=norm_s, setup_wall_s=wall_s)

    before = _outputs(plans, pool8[0], pool1[0])
    for variant, executor in executors.items():
        eager = executor(Tensor(pool8[0])).data
        err = float(np.max(np.abs(before[variant, "folded"].astype(np.float64)
                                  - eager.astype(np.float64))))
        out.check(f"folded_within_1e-4_of_eager.{variant}",
                  err <= FOLD_TOLERANCE)
        eager1 = executor(Tensor(pool1[0])).data
        out.check(f"exact_bit_identical_to_eager.{variant}",
                  before[variant, "exact"].tobytes() == eager1.tobytes())

    meter = StealMeter()
    meter.start()
    if tracer is None:
        window = _window(plans, pool8, pool1, seconds, out, speed, py_speed)
    else:
        plain = _window(plans, pool8, pool1, seconds / 2, out, speed,
                        py_speed)
        window = _window(plans, pool8, pool1, seconds / 2, out, speed,
                         py_speed, span)
    meter.stop()
    out.steal_share = meter.share

    after = _outputs(plans, pool8[0], pool1[0])
    for key, value in before.items():
        out.check("output_unchanged_over_window." + ".".join(key),
                  np.array_equal(value, after[key]))

    out.speed_factor = window.speed_factor
    out.ops_per_s_norm = window.b8_images / window.b8_norm_s
    out.p50_ms_norm = median(window.rotations_norm_ms)
    out.wall_ops_per_s = window.b8_images / window.b8_wall_s
    out.wall_p50_ms = median(window.rotations_wall_ms)
    out.record = {"b8_images": window.b8_images,
                  "b1_rotations": len(window.rotations_norm_ms)}
    if tracer is not None:
        out.per_layer = _per_layer(tracer, plans, plain, window)
    return out


def _per_layer(tracer: Tracer, plans, plain: _Window,
               traced: _Window) -> Dict[str, float]:
    m: Dict[str, float] = {
        "models.build_ms": median(durations_ms(tracer, "build_model")),
        "core.to_fuseconv_ms": median(durations_ms(tracer, "to_fuseconv")),
    }
    for flavor in FLAVORS:
        m[f"nn.compile_ms.{flavor}"] = median(
            durations_ms(tracer, "compile_executor", flavor=flavor))
    for (variant, flavor), plan in plans.items():
        batch = FLAVORS[flavor][1]
        m[f"nn.plan_ms.{variant}.{flavor}.b{batch}"] = median(
            durations_ms(tracer, "InferencePlan.run", variant=variant,
                         flavor=flavor))
        m[f"nn.plan_steps.{variant}.{flavor}"] = plan.stats.ops
        m[f"nn.arena_kib.{variant}.{flavor}"] = plan.stats.arena_bytes / 1024
    for variant in VARIANTS:
        folded = plans[variant, "folded"]
        m[f"nn.folded_bn.{variant}"] = folded.stats.folded_bn
        m[f"nn.concat_steps.{variant}"] = folded.labels.count("Concat")
    b8 = durations_ms(tracer, "InferencePlan.run", batch=8)
    m["nn.plan_p99_ms.b8"] = percentile(b8, 99)[0]
    m["nn.plan_samples"] = len(durations_ms(tracer, "InferencePlan.run"))
    # Traced ÷ untraced normalized CPU time per batch-8 image.
    m["obs.trace_overhead"] = ((traced.b8_norm_s / traced.b8_images)
                               / (plain.b8_norm_s / plain.b8_images))
    return m
