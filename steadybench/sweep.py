"""``sim-sweep``: the paper's design-space sweep on the systolic models.

Each pass clears the mapping memo — a real sweep runs once, so a warm
memo would only time dict lookups — and makes 300 ``estimate_network``
calls: the five paper networks × {baseline + four FuSe variants} ×
arrays {16, 32, 64, 128} × dataflows {os, ws, is}.  It then runs one
seeded image through ``ArrayNetworkExecutor`` (vector engine, one
process) for V3-Small r32 baseline and FuSe-Full on a 32×32 array.  All
host time is in ``repro.systolic``; simulated cycles must not change.

Run this file directly to rewrite ``sweep_reference.json``, the
committed analytical totals every pass is checked against.
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from common import (
    Outcome,
    HostSpeed,
    StealMeter,
    clocks,
    durations_ms,
    median,
    no_span,
    repeat_setup,
    span_opener,
)

from repro.core import FuSeVariant, to_fuseconv
from repro.models import PAPER_NETWORKS, build_model
from repro.nn import GraphExecutor, Tensor
from repro.obs import get_registry
from repro.obs.tracing import Tracer
from repro.systolic import (
    ArrayConfig,
    ArrayNetworkExecutor,
    clear_mapping_cache,
    estimate_network,
)

REFERENCE = Path(__file__).resolve().parent / "sweep_reference.json"
SIZES = (16, 32, 64, 128)
DATAFLOWS = ("os", "ws", "is")
VECTOR_NETWORK = "mobilenet_v3_small"
VECTOR_RESOLUTION = 32
VECTOR_ARRAY = ArrayConfig(32, 32)
VECTOR_VARIANTS = {"baseline": None, "full": FuSeVariant.FULL}
SETUPS = 25          # set-ups per run; setup_s is their median
VALUE_TOLERANCE = 1e-5


def sweep_networks(span=no_span) -> Dict[str, object]:
    """``"<network>|<variant>"`` → IR network, for every sweep network."""
    nets = {}
    for name in PAPER_NETWORKS:
        with span("build_model", network=name):
            base = build_model(name)
        nets[f"{name}|baseline"] = base
        for variant in FuSeVariant:
            with span("to_fuseconv", variant=variant.value):
                nets[f"{name}|{variant.value}"] = to_fuseconv(base, variant)
    return nets


def sweep_arrays() -> Dict[str, ArrayConfig]:
    return {f"{size}|{flow}": ArrayConfig(size, size, dataflow=flow)
            for size in SIZES for flow in DATAFLOWS}


def _setup(seed: int, span):
    nets = sweep_networks(span)
    with span("build_model", network=VECTOR_NETWORK):
        base = build_model(VECTOR_NETWORK, resolution=VECTOR_RESOLUTION)
    vectors = {}
    image = np.random.default_rng(seed).standard_normal(
        base.input_shape).astype(np.float32)
    for variant, fuse in VECTOR_VARIANTS.items():
        net = base
        if fuse is not None:
            with span("to_fuseconv", variant=variant):
                net = to_fuseconv(base, fuse)
        model = GraphExecutor(net, seed=seed)
        model.eval()
        executor = ArrayNetworkExecutor(net, model=model, array=VECTOR_ARRAY,
                                        engine="vector", jobs=1)
        eager = model(Tensor(image[None])).data[0]
        vectors[variant] = (executor, eager)
    return nets, vectors, image


@dataclass
class _Pass:
    estimates: int
    estimate_wall_s: float = 0.0
    estimate_cpu_s: float = 0.0
    vector_wall_s: float = 0.0
    vector_cpu_s: float = 0.0
    vector_cycles: int = 0
    estimate_factor: float = 1.0      # HostSpeed.factor over the estimates
    vector_factor: float = 1.0        # ... and around the vector runs

    def estimates_per_norm_s(self) -> float:
        return self.estimates * self.estimate_factor / self.estimate_cpu_s

    def vector_norm_ms(self) -> float:
        return self.vector_cpu_s * 1e3 / self.vector_factor


def _passes(nets, vectors, image, reference, seconds: float, out: Outcome,
            speed: HostSpeed, span=no_span) -> List[_Pass]:
    arrays = sweep_arrays()
    passes = []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        clear_mapping_cache()
        this = _Pass(estimates=len(nets) * len(arrays))
        mark = speed.mark()
        for net_key, net in nets.items():
            speed.probe()
            for array_key, array in arrays.items():
                out.attempted += 1
                wall, cpu = clocks()
                with span("estimate_network", network=net_key):
                    total = estimate_network(net, array).total_cycles
                this.estimate_wall_s += time.perf_counter() - wall
                this.estimate_cpu_s += time.process_time() - cpu
                if total != reference[f"{net_key}|{array_key}"]:
                    out.failed += 1
                    out.checks["analytical_totals_match_reference"] = False
        this.estimate_factor = speed.factor(mark)
        mark = speed.mark()
        for variant, (executor, eager) in vectors.items():
            speed.probe()
            out.attempted += 1
            wall, cpu = clocks()
            with span("ArrayNetworkExecutor.run", variant=variant):
                result = executor.run(image)
            this.vector_wall_s += time.perf_counter() - wall
            this.vector_cpu_s += time.process_time() - cpu
            this.vector_cycles += result.cycles
            values_ok = np.max(np.abs(result.values.reshape(-1)
                                      - eager.reshape(-1))) <= VALUE_TOLERANCE
            if not (result.all_cycles_consistent and values_ok):
                out.failed += 1
                out.checks[f"vector_matches.{variant}"] = False
        speed.probe()
        this.vector_factor = speed.factor(mark)
        passes.append(this)
    return passes


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    span = span_opener(tracer)
    reference = json.loads(REFERENCE.read_text())
    speed = HostSpeed(python_only=True)  # the work is pure Python
    (nets, vectors, image), norm_s, wall_s = repeat_setup(
        lambda: _setup(seed, span), SETUPS, speed)
    out = Outcome(setup_s=norm_s, setup_wall_s=wall_s)
    out.check("reference_covers_sweep",
              len(reference) == len(nets) * len(sweep_arrays()))

    meter = StealMeter()
    meter.start()
    if tracer is None:
        passes = _passes(nets, vectors, image, reference, seconds, out, speed)
    else:
        plain = _passes(nets, vectors, image, reference, seconds / 2, out,
                        speed)
        hits_before = _counter("latency.cache.hit")
        misses_before = _counter("latency.cache.miss")
        passes = _passes(nets, vectors, image, reference, seconds / 2, out,
                         speed, span)
        hits = _counter("latency.cache.hit") - hits_before
        misses = _counter("latency.cache.miss") - misses_before
    meter.stop()
    out.steal_share = meter.share

    # A failed comparison already set these False; record the passes.
    out.checks.setdefault("analytical_totals_match_reference", True)
    for variant in VECTOR_VARIANTS:
        out.checks.setdefault(f"vector_matches.{variant}", True)

    out.ops_per_s_norm = median([p.estimates_per_norm_s() for p in passes])
    out.p50_ms_norm = median([p.vector_norm_ms() for p in passes])
    out.speed_factor = median([p.estimate_factor for p in passes])
    out.wall_ops_per_s = median([p.estimates / p.estimate_wall_s
                                 for p in passes])
    out.wall_p50_ms = median([p.vector_wall_s * 1e3 for p in passes])
    out.record["passes"] = len(passes)
    if tracer is not None:
        m = {
            "models.build_ms": median(durations_ms(tracer, "build_model")),
            "core.to_fuseconv_ms": median(durations_ms(tracer, "to_fuseconv")),
            "systolic.estimate_ms.p50": median(
                durations_ms(tracer, "estimate_network")),
            "systolic.estimates": len(durations_ms(tracer, "estimate_network")),
            "systolic.memo_hit_ratio": hits / (hits + misses),
            "systolic.vector_cycles_per_host_s": sum(
                p.vector_cycles for p in passes)
            / sum(p.vector_cpu_s for p in passes),
            # Traced ÷ untraced normalized CPU time per estimate.
            "obs.trace_overhead": median([p.estimates_per_norm_s()
                                          for p in plain])
            / median([p.estimates_per_norm_s() for p in passes]),
        }
        for variant in VECTOR_VARIANTS:
            m[f"systolic.vector_ms.{variant}"] = median(
                durations_ms(tracer, "ArrayNetworkExecutor.run",
                             variant=variant))
        out.per_layer = m
    return out


def _counter(name: str) -> float:
    metric = get_registry().get(name)
    return metric.value if metric is not None else 0.0


def write_reference() -> None:
    """Recompute the analytical totals of the sweep into ``REFERENCE``."""
    clear_mapping_cache()
    totals = {f"{net_key}|{array_key}": estimate_network(net, array).total_cycles
              for net_key, net in sweep_networks().items()
              for array_key, array in sweep_arrays().items()}
    REFERENCE.write_text(json.dumps(totals, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(totals)} totals to {REFERENCE}", file=sys.stderr)


if __name__ == "__main__":  # PYTHONPATH=src python3 steadybench/sweep.py
    write_reference()
