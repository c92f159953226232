"""Float fallbacks inside the int8 plan.

The zoo networks reach the int8 plan's float path only through the
2-d ``Flatten`` and the ``Linear`` heads.  These small graphs feed float
(or dequantized codes) into every op kind that has no integer kernel, or
whose integer kernel needs int8 inputs, so each per-op fallback compiles
and runs: its ``:float`` label appears and the plan output stays within
the int8 envelope of the folded float plan (docs/runtime.md).
"""

from collections import Counter

import numpy as np
import pytest

from repro.ir import (
    Activation,
    Add,
    BatchNorm,
    ChannelSplit,
    Concat,
    Conv2D,
    Flatten,
    GlobalAvgPool,
    Linear,
    Network,
    PointwiseConv2D,
    Pool2D,
    SqueezeExcite,
)
from repro.nn import CompileConfig, GraphExecutor, compile_executor

BATCH = 2


def chain_net() -> Network:
    """One float chain through every NHWC fallback, ending in a Linear."""
    net = Network("fallback_chain", input_shape=(4, 8, 8))
    net.add(Conv2D(8, kernel=3, padding="same"), name="conv")
    net.add(Conv2D(8, kernel=3, padding="same", groups=2), name="gconv")
    net.add(SqueezeExcite(se_channels=4), name="se")
    net.add(Pool2D("avg", kernel=2), name="avg")
    net.add(ChannelSplit(0, 4), name="lo")
    net.add(ChannelSplit(4, 8), name="hi", inputs=["avg"])
    net.add(Concat(), name="cat", inputs=["hi", "lo"])
    net.add(Activation("hswish"), name="act")
    net.add(Add(), name="fadd", inputs=["act", "avg"])
    net.add(BatchNorm(), name="bn")
    net.add(Activation("relu"), name="bn_act")
    net.add(Pool2D("max", kernel=3, stride=1, padding=1), name="maxp")
    net.add(PointwiseConv2D(8), name="pw")
    net.add(Add(), name="madd", inputs=["pw", "maxp"])
    net.add(Flatten(), name="flat")
    net.add(Linear(5), name="fc")
    return net


def conv_tail_net() -> Network:
    """A float op feeding a final conv: the ``Dequantize`` epilogue runs."""
    net = Network("fallback_conv_tail", input_shape=(4, 8, 8))
    net.add(Conv2D(8, kernel=3, padding="same", groups=2), name="gconv")
    net.add(PointwiseConv2D(6), name="pw")
    return net


def gap_head_net() -> Network:
    """Global average pooling over a float map."""
    net = Network("fallback_gap", input_shape=(4, 8, 8))
    net.add(Conv2D(8, kernel=3, padding="same", groups=2), name="gconv")
    net.add(GlobalAvgPool(), name="gap")
    net.add(Linear(5), name="fc")
    return net


#: case -> (network factory, labels the int8 plan must contain, with
#: multiplicity: the chain has an all-float and a mixed i8+f32 Add, and
#: an average and a padded max pool).
CASES = {
    "chain": (chain_net, [
        "Conv2D:float", "SqueezeExcite:float", "Pool2D:float",
        "Pool2D:float", "ChannelSplit:float", "ChannelSplit:float",
        "Concat:float", "Activation:float", "Add:float", "Add:float",
        "BatchNorm+relu:float", "Flatten:float", "Linear:float",
    ]),
    "conv_tail": (conv_tail_net, [
        "Conv2D:float", "PointwiseConv2D:int8", "Dequantize",
    ]),
    "gap_head": (gap_head_net, [
        "Conv2D:float", "GlobalAvgPool:float", "Linear:float",
    ]),
}


def _plans(factory, x):
    """Folded and int8 plans; int8 is calibrated on ``x`` itself so the
    comparison measures rounding, not clipping outside the calibrated
    range (a lone 4-d conv output has no head to average it away)."""
    net = factory()
    executor = GraphExecutor(net, seed=0)
    executor.eval()
    folded = compile_executor(executor, x.shape, CompileConfig())
    int8 = compile_executor(executor, x.shape,
                            CompileConfig.int8(calibration_data=[x]))
    return folded, int8


def _input(factory):
    shape = (BATCH,) + tuple(factory().input_shape)
    return np.random.default_rng(3).standard_normal(shape).astype(np.float32)


@pytest.mark.parametrize("case", sorted(CASES))
def test_fallbacks_compile_and_match_folded(case):
    factory, expected = CASES[case]
    x = _input(factory)
    folded, int8 = _plans(factory, x)
    missing = Counter(expected) - Counter(int8.labels)
    assert not missing, f"{case}: labels {int8.labels} lack {dict(missing)}"
    assert int8.stats.int8_fallbacks == sum(
        lbl.endswith(":float") for lbl in int8.labels)
    want = folded.run(x)
    got = int8.run(x)
    assert got.shape == want.shape and got.dtype == np.float32
    err = float(np.max(np.abs(got - want)))
    assert err < 0.1, f"{case}: int8 error {err} out of envelope"

