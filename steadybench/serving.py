"""``serve-closed``: 16 closed-loop clients on an in-process server.

``engine=graph``, ``bitexact=False``, ``workers=1``, ``max_batch=8`` and
a 1 s SLO, so nothing expires.  Three lanes — V3-Small r32 baseline
folded, FuSe-Full folded and FuSe-Full int8 — picked round-robin by each
client with seeded inputs attached.  Time goes to scheduler batching,
the worker hand-off, the registry plan cache, cost-model calibration and
response building around ``InferencePlan.run``.

A closed loop, because its throughput scales linearly with machine
speed while open-loop latency amplifies host noise; ``workers=1`` keeps
the event loop plus worker at the host's two cores; telemetry is off so
no sampling thread competes for them either.

The window is timed on the wall clock, so time the serving path spends
waiting (the scheduler's batch linger, lock and condition waits, the
worker hand-off) counts.  The figures are rescaled to nominal host speed
by the interleaved :class:`common.HostSpeed` probe and to a host without
steal by the share of runnable time the hypervisor took in the window.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from common import (
    HostSpeed,
    Outcome,
    StealMeter,
    durations_ms,
    median,
    no_span,
    patched,
    percentile,
    read_cpu_times,
    runnable_steal_share,
    span_opener,
    wrap,
)

import repro.nn.compile as nn_compile
import repro.serve.registry as serve_registry
from repro.obs import get_registry
from repro.obs.tracing import Tracer
from repro.serve import InferenceRequest, InferenceServer, ModelKey, ServeConfig, Status

NETWORK = "mobilenet_v3_small"
RESOLUTION = 32
#: (FuSe variant, int8 flavor): baseline folded, Full folded, Full int8
LANES = ((None, False), ("full", False), ("full", True))
CLIENTS = 16
MAX_BATCH = 8
SETUPS = 15          # set-ups per run; setup_s is their median
WARMUP_S = 1.0       # untimed closed loop before the window (calibration)
POOL = 32            # seeded inputs per lane
SAMPLE_RATE = 0.02   # share of OK responses re-checked against the plan
MAX_SAMPLES = 64
MATCH_TOLERANCE = 1e-4
PROBE_EVERY_S = 0.1   # host-speed probe cadence on the event loop


@dataclass
class _Reply:
    lane: int
    latency_ms: float      # client-observed wall time: submit → response
    response: object


@dataclass
class _Loop:
    replies: List[_Reply]  # replies that arrived inside the window
    seconds: float         # wall seconds the window took
    speed_factor: float    # HostSpeed.factor over the window
    steal: float           # runnable_steal_share over the window

    def ok(self) -> List[_Reply]:
        return [r for r in self.replies if r.response.status is Status.OK]

    def ok_per_norm_s(self) -> float:
        """OK replies per unstolen wall second at nominal host speed."""
        return (len(self.ok()) * self.speed_factor
                / (self.seconds * (1.0 - self.steal)))

    def p50_norm_ms(self) -> float:
        """Median client latency, unstolen, at nominal host speed."""
        return (median([r.latency_ms for r in self.ok()])
                * (1.0 - self.steal) / self.speed_factor)


def _keys(seed: int) -> Dict[Optional[str], ModelKey]:
    return {variant: ModelKey(NETWORK, variant, RESOLUTION, seed)
            for variant, _ in LANES}


def _flavor(int8: bool) -> str:
    return "int8" if int8 else "folded"


async def _setup(seed: int, span) -> InferenceServer:
    """Start a server and compile every (batch 1-8, lane flavor) plan."""
    keys = _keys(seed)
    config = ServeConfig(engine="graph", bitexact=False, workers=1,
                         max_batch=MAX_BATCH, slo_ms=1000.0, telemetry=False,
                         preload=list(keys.values()))
    server = InferenceServer(config)
    await server.start()
    for variant, int8 in LANES:
        model = server.registry.get(keys[variant])
        for batch in range(1, MAX_BATCH + 1):
            with span("plan_for", batch=batch, flavor=_flavor(int8)):
                model.plan_for(batch, flavor=_flavor(int8))
            server.cost_model.simulated_ms(model, batch)
    return server


async def _closed_loop(server, keys, pools, seconds: float, out: Outcome,
                       speed: HostSpeed, rng: Optional[np.random.Generator],
                       span=no_span, samples: Optional[list] = None) -> _Loop:
    """Run the clients until ``seconds`` pass; replies finished in time."""
    replies: List[_Reply] = []
    cpu_before = read_cpu_times()
    deadline = time.perf_counter() + seconds
    mark = speed.mark()

    async def prober() -> None:
        while time.perf_counter() < deadline:
            speed.probe()
            await asyncio.sleep(PROBE_EVERY_S)

    async def client(cid: int) -> None:
        j = 0
        while time.perf_counter() < deadline:
            lane = (cid + j) % len(LANES)
            idx = (cid * 7 + j) % POOL
            j += 1
            variant, int8 = LANES[lane]
            request = InferenceRequest(key=keys[variant], input=pools[lane][idx],
                                       int8=int8, slo_ms=1000.0)
            out.attempted += 1
            start = time.perf_counter()
            with span("InferenceServer.submit", lane=lane):
                response = await server.submit(request)
            done = time.perf_counter()
            if response.status is not Status.OK:
                out.failed += 1
            if done <= deadline:
                replies.append(_Reply(lane, (done - start) * 1e3, response))
            if (samples is not None and response.status is Status.OK
                    and len(samples) < MAX_SAMPLES
                    and rng.random() < SAMPLE_RATE):
                samples.append((lane, idx, response))

    await asyncio.gather(prober(), *(client(c) for c in range(CLIENTS)))
    cpu_after = read_cpu_times()
    steal = (runnable_steal_share(cpu_before, cpu_after)
             if cpu_before is not None and cpu_after is not None else 0.0)
    return _Loop(replies, seconds, speed.factor(mark), steal)


def _plans_compiled() -> float:
    metric = get_registry().get("runtime.plans")
    return metric.value if metric is not None else 0.0


def _traced_compile(span, compile_executor):
    """``compile_executor`` recording a span tagged with the plan flavor."""
    def traced(executor, input_shape, config=None):
        flavor = ("int8" if config.quantize
                  else "folded" if config.fold_bn else "exact")
        with span("compile_executor", flavor=flavor):
            return compile_executor(executor, input_shape, config)
    return traced


def _instrument(server, keys, span) -> List[object]:
    """Span every plan_for and InferencePlan.run the worker makes."""
    undo = []
    for variant, int8 in LANES:
        model = server.registry.get(keys[variant])
        flavor = _flavor(int8)
        for batch in range(1, MAX_BATCH + 1):
            plan = model.plan_for(batch, flavor=flavor)
            plan.run = wrap(span, plan.run, "InferencePlan.run",
                            variant=variant or "baseline", flavor=flavor,
                            batch=batch)
            undo.append(plan)
        if "plan_for" not in vars(model):
            model.plan_for = wrap(span, model.plan_for, "plan_for")
            undo.append(model)
    return undo


def _uninstrument(undo: List[object]) -> None:
    for obj in undo:
        vars(obj).pop("run", None)
        vars(obj).pop("plan_for", None)


async def _run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    rng = np.random.default_rng(seed)
    pools = [[rng.standard_normal((3, RESOLUTION, RESOLUTION))
              .astype(np.float32) for _ in range(POOL)] for _ in LANES]
    keys = _keys(seed)
    span = span_opener(tracer)

    speed = HostSpeed()
    norm_s, wall_s = [], []
    server = None
    for _ in range(SETUPS):
        if server is not None:
            await server.stop()
        with speed.measure(norm_s, wall_s):
            if tracer is None:
                server = await _setup(seed, span)
            else:
                with patched(serve_registry, "build_model", wrap(
                        span, serve_registry.build_model, "build_model")), \
                     patched(serve_registry, "to_fuseconv", wrap(
                        span, serve_registry.to_fuseconv, "to_fuseconv")), \
                     patched(nn_compile, "compile_executor", _traced_compile(
                        span, nn_compile.compile_executor)):
                    server = await _setup(seed, span)
    out = Outcome(setup_s=norm_s, setup_wall_s=wall_s)

    try:
        scratch = Outcome(setup_s=[], setup_wall_s=[])
        await _closed_loop(server, keys, pools, WARMUP_S, scratch, speed,
                           None)
        compiled_before = _plans_compiled()
        samples: list = []
        meter = StealMeter()
        meter.start()
        if tracer is None:
            loop = await _closed_loop(server, keys, pools, seconds, out,
                                      speed, rng, samples=samples)
        else:
            plain = await _closed_loop(server, keys, pools, seconds / 2, out,
                                       speed, rng, samples=samples)
            undo = _instrument(server, keys, span)
            try:
                loop = await _closed_loop(server, keys, pools, seconds / 2,
                                          out, speed, rng, span, samples)
            finally:
                _uninstrument(undo)
        meter.stop()
        out.steal_share = meter.share
        compiled = _plans_compiled() - compiled_before

        replies = loop.replies
        ok = loop.ok()
        out.speed_factor = loop.speed_factor
        out.ops_per_s_norm = loop.ok_per_norm_s()
        out.p50_ms_norm = loop.p50_norm_ms()
        out.wall_ops_per_s = len(ok) / loop.seconds
        out.wall_p50_ms = median([r.latency_ms for r in ok])
        degraded = sum(1 for r in replies if r.response.degraded)
        out.check("no_degraded_responses", degraded == 0)
        out.check("no_plan_compiled_in_window", compiled == 0)
        for n, (lane, idx, response) in enumerate(samples):
            out.check(f"response_matches_plan.{n}",
                      _matches_plan(server, keys, pools, lane, idx, response))
        out.record = {"ok_responses": len(ok), "samples_checked": len(samples),
                      "runnable_steal_share": loop.steal,
                      "mean_batch": float(np.mean(
                          [r.response.batch_size for r in ok]))}
        if tracer is not None:
            out.per_layer = _per_layer(tracer, loop, plain, compiled)
    finally:
        await server.stop()
    return out


def _matches_plan(server, keys, pools, lane, idx, response) -> bool:
    """Does a served output equal the lane's plan run directly?"""
    variant, int8 = LANES[lane]
    model = server.registry.get(keys[variant])
    plan = model.plan_for(response.batch_size, flavor=_flavor(int8))
    batch = np.stack([pools[lane][idx]] * response.batch_size)
    direct = plan.run(batch)[0]
    return bool(np.max(np.abs(direct - response.output)) <= MATCH_TOLERANCE)


def _per_layer(tracer: Tracer, loop: _Loop, plain: _Loop,
               compiled: float) -> Dict[str, float]:
    def pct(values, q):
        return percentile(values, q)[0] if values else 0.0

    replies = loop.replies
    ok = loop.ok()
    responses = [r.response for r in ok]
    queue = [x.queue_ms for x in responses]
    execute = [x.execute_ms for x in responses]
    m: Dict[str, float] = {
        "models.build_ms": median(durations_ms(tracer, "build_model")),
        "core.to_fuseconv_ms": median(durations_ms(tracer, "to_fuseconv")),
        "serve.queue_ms.p50": pct(queue, 50),
        "serve.queue_ms.p99": pct(queue, 99),
        "serve.execute_ms.p50": pct(execute, 50),
        "serve.execute_ms.p99": pct(execute, 99),
        "serve.batch_size.mean": float(np.mean(
            [x.batch_size for x in responses])) if responses else 0.0,
        "serve.p99_ms": pct([r.latency_ms for r in ok], 99),
        "serve.samples": len(ok),
        "serve.client_hop_ms.p50": median(
            [r.latency_ms - r.response.total_ms for r in ok]),
        "serve.plans_compiled": compiled,
        "serve.degraded": sum(1 for x in responses if x.degraded),
        "serve.shed": sum(1 for r in replies
                          if r.response.status is Status.SHED),
    }
    for flavor in ("folded", "int8"):
        m[f"nn.compile_ms.{flavor}"] = median(
            durations_ms(tracer, "compile_executor", flavor=flavor))
    for variant, int8 in LANES:
        label = variant or "baseline"
        m[f"nn.plan_ms.{label}.{_flavor(int8)}.b8"] = median(
            durations_ms(tracer, "InferencePlan.run", variant=label,
                         flavor=_flavor(int8), batch=8))
    m["nn.plan_samples"] = len(durations_ms(tracer, "InferencePlan.run"))
    m["nn.plan_p99_ms.b8"] = pct(
        durations_ms(tracer, "InferencePlan.run", batch=8), 99)

    # Time outside plan.run: batch-8 execute_ms of the baseline lane minus
    # that lane's batch-8 plan.run spans, both from the traced window (a
    # direct timing after the window meets another host state; see README).
    executes = [r.response.execute_ms for r in ok
                if r.lane == 0 and r.response.batch_size == MAX_BATCH]
    runs = durations_ms(tracer, "InferencePlan.run", variant="baseline",
                        flavor="folded", batch=MAX_BATCH)
    if executes and runs:
        m["serve.outside_plan_ms"] = median(executes) - median(runs)
    # Traced ÷ untraced normalized time per OK response.
    m["obs.trace_overhead"] = plain.ok_per_norm_s() / loop.ok_per_norm_s()
    return m


def run(seed: int, seconds: float, tracer: Optional[Tracer]) -> Outcome:
    return asyncio.run(_run(seed, seconds, tracer))
