# Convenience targets; everything is plain pip + pytest underneath.

.PHONY: install dev test trace-smoke bench-smoke serve-smoke compile-smoke quantize-smoke sparsity-smoke chaos-smoke telemetry-smoke fleet-smoke gray-smoke bench results examples clean

install:
	pip install -e .

dev:
	pip install -e .[dev]

test: trace-smoke bench-smoke serve-smoke compile-smoke quantize-smoke sparsity-smoke chaos-smoke telemetry-smoke fleet-smoke gray-smoke
	pytest tests/
	PYTHONPATH=src python -m pytest steadybench

# Capture one trace + metrics sidecar and validate both against their
# schemas (docs/observability.md) — cheap end-to-end observability check.
trace-smoke:
	python -m repro latency mobilenet_v3_small --resolution 96 --array 32 \
		--quiet --trace-out .smoke-trace.json --metrics-out .smoke-metrics.json
	python -m repro.obs.validate .smoke-trace.json .smoke-metrics.json
	rm -f .smoke-trace.json .smoke-metrics.json

# Performance smoke (each step under a hard time budget):
#  1. regression guard — the vectorized wavefront engine must stay >=5x
#     the reference stepper on every dataflow (and bit-exact);
#  2. a tiny sweep through the process pool (--jobs 2) with a cold then
#     warm analytical disk cache (--cache-dir).
bench-smoke:
	timeout 180 python -m repro.systolic.bench --size 32 --repeats 2 \
		--min-speedup 5
	rm -rf .smoke-cache
	timeout 180 python -m repro latency mobilenet_v3_small --resolution 96 \
		--array 32 --jobs 2 --cache-dir .smoke-cache --quiet
	timeout 60 python -m repro latency mobilenet_v3_small --resolution 96 \
		--array 32 --jobs 2 --cache-dir .smoke-cache --quiet
	rm -rf .smoke-cache

# Serving smoke (docs/serving.md): an in-process server takes 50
# closed-loop requests across two models; --check fails the target on any
# errored request or missing SLO accounting, and the metrics sidecar must
# validate and carry the serve.loadgen.* report gauges.
serve-smoke:
	timeout 180 python -m repro loadgen mobilenet_v3_small mobilenet_v1 \
		--resolution 32 --requests 50 --clients 4 --max-batch 8 \
		--slo-ms 1000 --check --quiet --metrics-out .smoke-serve.json
	python -m repro.obs.validate .smoke-serve.json
	python -c "import json,sys; names={m['name'] for m in json.load(open('.smoke-serve.json'))['metrics']}; missing=[n for n in ('serve.loadgen.throughput_rps','serve.loadgen.p99_ms','serve.loadgen.shed_rate','serve.loadgen.slo_violation_rate') if n not in names]; sys.exit('missing gauges: %s' % missing if missing else 0)"
	rm -f .smoke-serve.json

# Chaos smoke (docs/robustness.md): a seeded fault schedule — engine
# errors and latency spikes, a worker crash, a plan-compile failure,
# garbage frames and a client disconnect — drives the full TCP serving
# path; --check fails the target unless every resilience bound held
# (zero unhandled exceptions, >=99% of non-shed requests answered OK,
# server healthy afterwards, p99 under the degradation bound).  The same
# seed replays the same fault schedule and request stream; the metrics
# sidecar (faults.injected.*, resilience.*, serve.chaos.*) is validated
# and removed; benchmarks/results/BENCH_chaos.json is the committed
# reference run (regenerate it with --metrics-out pointing there).
chaos-smoke:
	timeout 300 python -m repro loadgen mobilenet_v3_small:full \
		--resolution 32 --requests 120 --clients 6 --workers 2 \
		--slo-ms 400 --chaos --check --quiet \
		--metrics-out .smoke-chaos.json
	python -m repro.obs.validate .smoke-chaos.json
	python -c "import json,sys; names={m['name'] for m in json.load(open('.smoke-chaos.json'))['metrics']}; missing=[n for n in ('serve.chaos.answered_rate','serve.chaos.faults_fired','serve.chaos.unhandled_failures','resilience.degraded_responses') if n not in names]; sys.exit('missing gauges: %s' % missing if missing else 0)"
	rm -f .smoke-chaos.json

# Telemetry smoke (docs/observability.md): a short traced loadgen run
# must leave (1) a metrics sidecar that renders to parseable Prometheus
# exposition with the snapshot loop advanced past its start/stop samples
# and every burn-rate alert evaluated, and (2) a trace sidecar whose
# request spans form linked admit->queue->request chains in Perfetto.
telemetry-smoke:
	timeout 180 python -m repro loadgen mobilenet_v3_small --resolution 32 \
		--requests 40 --clients 4 --slo-ms 1000 --snapshot-interval 0.1 \
		--check --quiet --trace-out .smoke-telemetry-trace.json \
		--metrics-out .smoke-telemetry-metrics.json
	python -m repro.obs.validate .smoke-telemetry-trace.json .smoke-telemetry-metrics.json
	python -c "import json; from repro.obs.expose import render_exposition_dict, parse_exposition; p=parse_exposition(render_exposition_dict(json.load(open('.smoke-telemetry-metrics.json')))); taken=p.value('repro_obs_snapshots_taken'); assert taken is not None and taken > 2, 'snapshot loop did not advance: %r' % taken; ok=p.value('repro_serve_loadgen_ok'); assert ok and ok >= 40, 'exposition missing ok requests: %r' % ok; assert p.value('repro_serve_loadgen_alert_firing', rule='shed-burn') is not None, 'burn-rate alerts were not evaluated'"
	python -c "import json; from repro.obs.tracing import span_topology; topo=span_topology(json.load(open('.smoke-telemetry-trace.json'))['traceEvents']); assert topo, 'no linked request traces recorded'; names={n for shape in topo for n, _ in shape}; assert {'serve.admit', 'serve.queue', 'serve.request'} <= names, 'incomplete request chains: %s' % sorted(names)"
	rm -f .smoke-telemetry-trace.json .smoke-telemetry-metrics.json

# Fleet smoke (docs/fleet.md): four replicas behind the consistent-hash
# router take a seeded workload while one replica is killed mid-run;
# --check fails the target unless every fleet bound held (zero unhandled
# errors, >=99% of non-shed requests answered, only the victim's lanes
# moved, same-seed replay fingerprint identical) and the metrics sidecar
# must carry the fleet.chaos.* / fleet.router.* series.  The scaling
# comparison (single node vs 4 replicas, core-count-honest gates) runs
# through bench_fleet.py into a scratch record; the committed reference
# is benchmarks/results/BENCH_fleet.json (bench_fleet.py --smoke writes it).
fleet-smoke:
	timeout 300 python -m repro loadgen mobilenet_v3_small --resolution 32 \
		--requests 120 --clients 6 --workers 2 --engine analytical \
		--slo-ms 1000 --chaos --fleet 4 --check --quiet \
		--metrics-out .smoke-fleet.json
	python -m repro.obs.validate .smoke-fleet.json
	python -c "import json,sys; names={m['name'] for m in json.load(open('.smoke-fleet.json'))['metrics']}; missing=[n for n in ('fleet.chaos.answered_rate','fleet.chaos.reroutes','fleet.chaos.unhandled_failures','fleet.router.requests') if n not in names]; sys.exit('missing gauges: %s' % missing if missing else 0)"
	rm -f .smoke-fleet.json
	timeout 300 python benchmarks/bench_fleet.py --smoke \
		--out .smoke-fleet-bench.json
	python -c "import json,sys; r=json.load(open('.smoke-fleet-bench.json')); sys.exit(0 if r['ok'] else 'fleet bench gates failed: %s' % r['gates'])"
	rm -f .smoke-fleet-bench.json

# Gray-failure smoke (docs/robustness.md): the gray drill — one replica's
# forward hop stalled ~20x its healthy p50 under live traffic — must hold
# every resilience bound (client-wall p99 within 1.5x of the healthy
# baseline, zero duplicate responses, zero unhandled errors, the victim
# detected SLOW, hedges == wins + losses, identical same-seed fingerprint)
# and the warm-gated scale-up must serve nothing cold and compile nothing
# after its gate opens.  The hedging on/off ablation goes to a scratch
# record; the committed reference is benchmarks/results/BENCH_gray.json
# (bench_hedging.py --smoke writes it).
gray-smoke:
	timeout 300 python benchmarks/bench_hedging.py --smoke \
		--out .smoke-gray.json
	python -c "import json,sys; r=json.load(open('.smoke-gray.json')); sys.exit(0 if r['ok'] else 'gray bench gates failed: %s' % r['gates'])"
	rm -f .smoke-gray.json
	timeout 300 python -m repro loadgen mobilenet_v3_small --resolution 32 \
		--requests 120 --clients 4 --engine analytical --slo-ms 30000 \
		--gray --check --quiet

# Compiled-runtime smoke (docs/runtime.md): the exact plan must stay
# bit-identical to eager, the folded plan within 1e-4, and faster than
# eager (the full >=2x claim is asserted by bench_compile.py under
# pytest-benchmark; the smoke floor tolerates loaded CI hosts).  The
# record goes to a scratch file; bench_compile.py without --out writes
# the committed benchmarks/results/BENCH_compile.json.
compile-smoke:
	timeout 180 python benchmarks/bench_compile.py --smoke \
		--out .smoke-compile.json
	python -c "import json,sys; r=json.load(open('.smoke-compile.json')); sys.exit(0 if r['exact_bit_identical'] and r['folded_max_abs_err'] <= 1e-4 else 'bad compile record')"
	rm -f .smoke-compile.json

# Int8 quantization smoke (docs/runtime.md): trains V3-Small on the
# synthetic task (~1 min), calibrates the int8 plan on the training
# batches, and gates the acceptance claims — >=1.3x over the folded
# float plan at batch 8 with <=1pp top-1 drop on the held-out split.
# The record goes to a scratch file; bench_quantize.py without --out
# writes the committed benchmarks/results/BENCH_quantize.json.
quantize-smoke:
	timeout 300 python benchmarks/bench_quantize.py --smoke \
		--out .smoke-quantize.json
	python -c "import json,sys; sys.path.insert(0,'benchmarks'); from bench_quantize import check; sys.exit('; '.join(check(json.load(open('.smoke-quantize.json')))) or 0)"
	rm -f .smoke-quantize.json

# Sparsity + column-combining smoke (docs/performance.md): trains
# V3-Small, prunes to 75% with the pass pipeline, fine-tunes under the
# masks, and gates the acceptance claims — >=1.5x analytical packed
# speedup at γ=8 on a 32x32 array, <=1pp top-1 drop after fine-tune,
# and the γ=1 identity packing within 1% of the dense schedule.
# The record goes to a scratch file; bench_sparsity.py without --out
# writes the committed benchmarks/results/BENCH_sparsity.json.
sparsity-smoke:
	timeout 900 python benchmarks/bench_sparsity.py --smoke \
		--out .smoke-sparsity.json
	python -c "import json,sys; sys.path.insert(0,'benchmarks'); from bench_sparsity import check; sys.exit('; '.join(check(json.load(open('.smoke-sparsity.json')))) or 0)"
	rm -f .smoke-sparsity.json

bench:
	pytest benchmarks/ --benchmark-only

# Regenerate every paper table/figure from scratch (benchmarks/results/).
results:
	rm -rf benchmarks/results
	pytest benchmarks/ --benchmark-only

examples:
	python examples/quickstart.py
	python examples/ria_synthesis.py
	python examples/visualize_dataflow.py
	python examples/transform_mobilenet.py
	python examples/design_space.py
	python examples/nos_search.py
	python examples/train_fuse_classifier.py --quick
	python examples/deploy_pipeline.py

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
