"""Channelwise convs on small maps: every plan flavor against eager.

Depthwise k×k and FuSe-1D 1×k / k×1 stages that run on maps no larger
than their kernel read mostly zero padding.  These small graphs — a stem
conv, then a depthwise stage or a FuSe row/col pair — put the channelwise
stage on 1×1, 2×2, 3×3 and 5×5 maps for K ∈ {3, 5, 7}, stride 1 and 2
and every padding form ``_pad_amounts`` accepts (``"same"``, an int, an
``(h, w)`` pair).  Each graph must keep the plan contracts of
docs/runtime.md: the exact plan bit-identical to eager, the folded plan
within 1e-4 of eager, and the int8 plan within the int8 envelope of the
folded plan (calibrated on its input, as a plan with a feature-map
output should be).

The float-close and int8 plans drop the taps that read only padding
(``_tap_crop`` in ``repro.nn.compile``).  Two more checks pin that
mechanism down: the live-tap helper against a brute-force scan of which
taps read an input pixel, and the int8 depthwise kernel on the cropped
taps and cropped buffer against the integer reference on all taps.
"""

import itertools

import numpy as np
import pytest

from repro.ir import (
    Activation,
    BatchNorm,
    ChannelSplit,
    Concat,
    Conv2D,
    DepthwiseConv2D,
    FuSeConv1D,
    Network,
)
from repro.ir.layer import ShapeError
from repro.nn import CompileConfig, GraphExecutor, Tensor, compile_executor
from repro.nn import functional as F
from repro.nn.compile import _live_taps, _tap_crop
from repro.nn.functional import _pad_amounts

BATCH = 2
CHANNELS = 4
FOLD_TOLERANCE = 1e-4
INT8_ENVELOPE = 0.1

MAPS = (1, 2, 3, 5)
KERNELS = (3, 5, 7)
STRIDES = (1, 2)
KINDS = ("depthwise", "fuse")


def _paddings(k):
    """One of each padding form: TF "same", ints (none, half, full), a pair."""
    return ("same", 0, k // 2, k - 1, (k // 2, 1))


def channelwise_net(kind, size, k, stride, padding) -> Network:
    """Stem conv + BN + relu, then the channelwise stage + BN + hswish."""
    net = Network(f"{kind}_{size}_{k}", input_shape=(3, size, size))
    net.add(Conv2D(CHANNELS, kernel=3, padding="same"), name="stem")
    net.add(BatchNorm(), name="stem_bn")
    net.add(Activation("relu"), name="stem_act")
    if kind == "depthwise":
        net.add(DepthwiseConv2D(kernel=k, stride=stride, padding=padding),
                name="dw")
    else:
        half = CHANNELS // 2
        net.add(ChannelSplit(0, half), name="lo")
        net.add(ChannelSplit(half, CHANNELS), name="hi", inputs=["stem_act"])
        net.add(FuSeConv1D(axis="row", kernel=k, stride=stride,
                           padding=padding), name="row", inputs=["lo"])
        net.add(FuSeConv1D(axis="col", kernel=k, stride=stride,
                           padding=padding), name="col", inputs=["hi"])
        net.add(Concat(), name="cat", inputs=["row", "col"])
    net.add(BatchNorm(), name="bn")
    net.add(Activation("hswish"), name="act")
    return net


def _cases():
    for kind, size, k, stride in itertools.product(
            KINDS, MAPS, KERNELS, STRIDES):
        for padding in _paddings(k):
            try:
                channelwise_net(kind, size, k, stride, padding).out_shape
            except ShapeError:
                continue  # the padding collapses the output on this map
            yield kind, size, k, stride, padding


CASES = list(_cases())


def _id(case):
    kind, size, k, stride, padding = case
    pad = "x".join(map(str, padding)) if isinstance(padding, tuple) \
        else str(padding)
    return f"{kind}-{size}x{size}-k{k}-s{stride}-p{pad}"


@pytest.mark.parametrize("case", CASES, ids=[_id(c) for c in CASES])
def test_plans_match_eager(case):
    net = channelwise_net(*case)
    executor = GraphExecutor(net, seed=0)
    executor.eval()
    shape = (BATCH,) + tuple(net.input_shape)
    x = np.random.default_rng(7).standard_normal(shape).astype(np.float32)
    ref = executor(Tensor(x)).data

    exact = compile_executor(executor, shape, CompileConfig.exact()).run(x)
    assert exact.tobytes() == ref.tobytes(), "exact plan is not bit-identical"

    folded = compile_executor(executor, shape, CompileConfig()).run(x)
    err = float(np.max(np.abs(folded.astype(np.float64) - ref)))
    assert err <= FOLD_TOLERANCE, f"folded error {err:.2e}"

    int8 = compile_executor(
        executor, shape, CompileConfig.int8(calibration_data=[x])).run(x)
    err = float(np.max(np.abs(int8 - folded)))
    assert err < INT8_ENVELOPE, f"int8 error {err} out of envelope"


def _brute_live(kernel, pad, size, stride, out):
    """Every tap that reads an input pixel for at least one output."""
    return {t for t in range(kernel) for o in range(out)
            if pad <= o * stride + t < pad + size}


def _axis_geometries():
    """(kernel, pad, size, stride, out) over symmetric and "same" pads."""
    for k, size, s in itertools.product(range(1, 8), range(1, 9),
                                        range(1, 4)):
        for pad in range(0, 8):
            out = (size + 2 * pad - k) // s + 1
            if out > 0:
                yield k, pad, size, s, out
        top, bottom, _, _ = _pad_amounts(size, 1, k, 1, s, 1, "same")
        yield k, top, size, s, (size + top + bottom - k) // s + 1


def test_live_taps_match_brute_force():
    checked = 0
    for k, pad, size, s, out in _axis_geometries():
        live = _brute_live(k, pad, size, s, out)
        want = (min(live), max(live) + 1) if live else (0, 0)
        assert _live_taps(k, pad, size, s, out) == want, (k, pad, size, s)
        checked += 1
    assert checked > 1000


def _int8_depthwise(x, wq, stride, pads, out_hw):
    """The int8 plan's depthwise step: crop, pad, per-tap kernel."""
    size = x.shape[1:3]
    crop = _tap_crop(size, wq.shape[:2], (stride, stride), pads, out_hw)
    if crop is not None:
        ((k0, k1), (l0, l1)), size, pads = crop
        x = x[:, :size[0], :size[1]]
        wq = wq[k0:k1, l0:l1]
    top, bottom, left, right = pads
    xp = np.zeros((x.shape[0], size[0] + top + bottom,
                   size[1] + left + right, x.shape[3]), np.int8)
    xp[:, top:top + size[0], left:left + size[1]] = x
    out = np.empty((x.shape[0],) + tuple(out_hw) + (x.shape[3],), np.float32)
    return F.depthwise_int8_nhwc(xp, wq.astype(np.float32), (stride, stride),
                                 out=out, scratch=np.empty_like(out))


@pytest.mark.parametrize("case", CASES, ids=[_id(c) for c in CASES])
def test_int8_depthwise_on_cropped_taps_is_bit_identical(case):
    kind, size, k, stride, padding = case
    rng = np.random.default_rng(k * 100 + size)
    x = rng.integers(-127, 128, (BATCH, size, size, CHANNELS)).astype(np.int8)
    for kh, kw in [(k, k)] if kind == "depthwise" else [(1, k), (k, 1)]:
        wq = rng.integers(-127, 128, (kh, kw, CHANNELS)).astype(np.int8)
        pads = top, bottom, left, right = _pad_amounts(
            size, size, kh, kw, stride, stride, padding)
        oh = (size + top + bottom - kh) // stride + 1
        ow = (size + left + right - kw) // stride + 1
        xp = np.zeros((BATCH, size + top + bottom, size + left + right,
                       CHANNELS), np.int8)
        xp[:, top:top + size, left:left + size] = x
        ref = F.depthwise_int8_ref_nhwc(xp, wq, (stride, stride), oh, ow)
        got = _int8_depthwise(x, wq, stride, pads, (oh, ow))
        assert got.astype(np.int32).tobytes() == ref.tobytes(), (kh, kw)
