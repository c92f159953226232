"""The int8 compiled plan: correctness envelope, coverage, calibration.

The int8 plan is *not* bit-exact to float — what the contract guarantees
(docs/runtime.md) is a bounded quantization envelope on standard-normal
inputs, genuine integer coverage of the conv stack (with per-op float
fallback, counted), and strict validation of user-supplied calibration
batches.
"""

import numpy as np
import pytest

from repro.core import FuSeVariant, to_fuseconv
from repro.models import build_model
from repro.nn import CompileConfig, GraphExecutor, Tensor, compile_executor
from repro.obs import get_registry

from .test_graph import full_vocabulary_net


def _networks():
    yield "vocab", full_vocabulary_net()
    yield "v3s", build_model("mobilenet_v3_small", num_classes=10, resolution=32)
    yield "v3s_fuse", to_fuseconv(
        build_model("mobilenet_v3_small", num_classes=10, resolution=32),
        FuSeVariant.FULL,
    )


def _compile_pair(net, batch=2, config=None, seed=0):
    executor = GraphExecutor(net, seed=seed)
    executor.eval()
    shape = (batch,) + tuple(net.input_shape)
    plan = compile_executor(executor, shape, config or CompileConfig.int8())
    return executor, plan, shape


class TestInt8PlanCorrectness:
    @pytest.mark.parametrize("name,net", list(_networks()),
                             ids=[n for n, _ in _networks()])
    def test_close_to_eager_on_calibration_distribution(self, name, net):
        executor, plan, shape = _compile_pair(net)
        x = np.random.default_rng(3).standard_normal(shape).astype(np.float32)
        ref = executor(Tensor(x)).data
        got = plan.run(x)
        assert got.shape == ref.shape
        assert got.dtype == np.float32
        # The quantization envelope: logits land near float but not on it.
        err = float(np.max(np.abs(got - ref)))
        assert err < 0.1, f"{name}: int8 error {err} out of envelope"
        assert np.all(np.isfinite(got))

    def test_deterministic_across_runs(self):
        net = build_model("mobilenet_v3_small", num_classes=10, resolution=32)
        _, plan, shape = _compile_pair(net)
        x = np.random.default_rng(4).standard_normal(shape).astype(np.float32)
        first = plan.run(x).copy()
        second = plan.run(x)
        assert np.array_equal(first, second)

    def test_plan_isolated_between_inputs(self):
        """Arena reuse must not leak one input's codes into the next."""
        net = build_model("mobilenet_v3_small", num_classes=10, resolution=32)
        _, plan, shape = _compile_pair(net)
        rng = np.random.default_rng(5)
        a = rng.standard_normal(shape).astype(np.float32)
        b = rng.standard_normal(shape).astype(np.float32)
        out_a_fresh = plan.run(a).copy()
        plan.run(b)
        assert np.array_equal(plan.run(a), out_a_fresh)


class TestInt8Coverage:
    def test_conv_stack_runs_integer(self):
        net = build_model("mobilenet_v3_small", num_classes=10, resolution=32)
        _, plan, _ = _compile_pair(net)
        s = plan.stats
        assert s.int8_ops > 10
        # The classifier Linears deliberately stay float (they get no
        # speedup from int8) — so fallbacks are nonzero but small.
        assert 0 < s.int8_fallbacks <= 5

    def test_fallback_gauge_exported(self):
        net = build_model("mobilenet_v3_small", num_classes=10, resolution=32)
        _, plan, _ = _compile_pair(net)
        metric = get_registry().get("runtime.int8_fallbacks")
        assert metric is not None
        assert metric.value == float(plan.stats.int8_fallbacks)


class TestCalibrationData:
    def _input_shape(self, net, batch=2):
        return (batch,) + tuple(net.input_shape)

    def test_real_batches_accepted_and_used(self):
        net = build_model("mobilenet_v3_small", num_classes=10, resolution=32)
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        shape = self._input_shape(net)
        rng = np.random.default_rng(6)
        batches = [rng.standard_normal(shape).astype(np.float32) * 0.5
                   for _ in range(3)]
        plan = compile_executor(executor, shape,
                                CompileConfig.int8(calibration_data=batches))
        x = (batches[0]).astype(np.float32)
        ref = executor(Tensor(x)).data
        assert float(np.max(np.abs(plan.run(x) - ref))) < 0.1

    def test_rejects_non_4d_batches(self):
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        shape = self._input_shape(net)
        bad = [np.zeros((3, 8, 8), np.float32)]
        with pytest.raises(ValueError, match=r"\(N, C, H, W\)"):
            compile_executor(executor, shape,
                             CompileConfig.int8(calibration_data=bad))

    def test_rejects_mismatched_batch_shapes(self):
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        shape = self._input_shape(net)
        bad = [np.zeros(shape, np.float32),
               np.zeros((shape[0] + 1,) + shape[1:], np.float32)]
        with pytest.raises(ValueError, match="shape"):
            compile_executor(executor, shape,
                             CompileConfig.int8(calibration_data=bad))

    def test_rejects_wrong_chw(self):
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        shape = self._input_shape(net)
        bad = [np.zeros((2, shape[1], shape[2] + 1, shape[3]), np.float32)]
        with pytest.raises(ValueError, match="input"):
            compile_executor(executor, shape,
                             CompileConfig.int8(calibration_data=bad))

    def test_rejects_empty_calibration(self):
        net = full_vocabulary_net()
        executor = GraphExecutor(net, seed=0)
        executor.eval()
        shape = self._input_shape(net)
        with pytest.raises(ValueError, match="calibration"):
            compile_executor(executor, shape,
                             CompileConfig.int8(calibration_data=[]))
