"""Deterministic model-transform pass pipeline for compiled inference.

PR 4 grew ``repro.nn.compile`` around ad-hoc folding machinery (a fuse
walk plus inline BN folds at every weight-sourcing site).  This module
generalizes that into an explicit pipeline of **passes** over an IR
network + executor pair:

``fold_bn`` → ``fuse_activations`` → ``constant_fold`` →
``magnitude_prune`` → ``column_combine`` → ``quantize_int8``

Each pass mutates one :class:`Transform` (the fuse decisions, weight
overrides, prune masks, packing metadata and calibration ranges) and
records a timed :class:`PassResult`.  ``CompileConfig`` presets are just
pipeline specs (:meth:`Pipeline.from_config`): ``exact`` runs no passes,
``folded`` runs the first three, ``int8`` appends quantization, and the
new ``sparse`` / ``sparse_int8`` presets insert pruning + column
combining (Kung et al., see :mod:`repro.ir.packing`) between folding and
quantization.

The refactor contract is bit-level: the ``fold_bn`` pass computes folded
weights with the *same* :func:`_fold_bn_into` arithmetic the plan
builders used to apply inline, and the fuse decisions reproduce the old
single-walk ``_fuse_pass`` exactly, so pre-existing presets compile to
byte-identical plans (``tests/nn/test_golden_plans.py``).

Both the compiler (:func:`repro.nn.compile.compile_executor`) and the
systolic mapper (:func:`repro.systolic.latency.estimate_network` with a
``packing=``, :class:`repro.systolic.executor.ArrayNetworkExecutor`)
consume the same transform products.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..ir import layer as ir
from ..ir.network import Network, Node
from ..ir.packing import (
    CONFLICT_POLICIES,
    NetworkPacking,
    PackedMapping,
    magnitude_mask,
    pack_depthwise,
    pack_fuse1d,
    pack_gemm_columns,
)
from ..obs import get_logger, get_tracer
from .functional import _pair
from .layers import BatchNorm2d, DepthwiseConv2d, FuSeConv1d

__all__ = [
    "PassResult",
    "Pipeline",
    "Transform",
    "apply_pruning",
]

_log = get_logger("nn.passes")

#: IR kinds whose weights a trailing BatchNorm can fold into.
_FOLDABLE = (
    ir.Conv2D,
    ir.DepthwiseConv2D,
    ir.PointwiseConv2D,
    ir.FuSeConv1D,
    ir.Linear,
)

#: IR kinds that accept a fused in-place activation post-op.
_ACT_HOSTS = _FOLDABLE + (ir.BatchNorm, ir.Add)

#: IR kinds magnitude pruning targets by default.  Linear layers are
#: excluded (the classifier head is where pruning hurts accuracy most) —
#: name them in ``CompileConfig.layer_sparsity`` to opt in.
_PRUNABLE = (
    ir.Conv2D,
    ir.DepthwiseConv2D,
    ir.PointwiseConv2D,
    ir.FuSeConv1D,
)


@dataclass
class _PlanNode:
    """One plan step: a primary IR node plus what was folded into it."""

    node: Node
    bn: Optional[Node] = None
    act: Optional[Node] = None

    @property
    def out_name(self) -> str:
        return (self.act or self.bn or self.node).name

    @property
    def label(self) -> str:
        parts = [self.node.kind]
        if self.bn is not None:
            parts.append("BN")
        if self.act is not None:
            parts.append(self.act.layer.fn)
        return "+".join(parts)


def _sole_consumer(network: Network, name: str) -> Optional[Node]:
    consumers = network.consumers(name)
    if len(consumers) == 1 and consumers[0].inputs == [name]:
        return consumers[0]
    return None


def _conv_geometry(module, node: Node):
    """(weight4d, bias, stride_hw, padding, groups) of any conv-like module."""
    if isinstance(module, FuSeConv1d):
        c, k = module.weight.shape
        if module.axis == "row":
            w4 = module.weight.data.reshape(c, 1, 1, k)
        else:
            w4 = module.weight.data.reshape(c, 1, k, 1)
        groups = c
    else:
        w4 = module.weight.data
        groups = getattr(module, "groups", None)
        if groups is None:  # DepthwiseConv2d stores no explicit groups
            groups = w4.shape[0] if isinstance(module, DepthwiseConv2d) else 1
    bias = module.bias.data if module.bias is not None else None
    return w4, bias, _pair(module.stride), module.padding, groups


def _fold_bn_into(w4: np.ndarray, bias: Optional[np.ndarray], bn: BatchNorm2d):
    """Fold an eval-mode BatchNorm into conv/linear weights (constant fold)."""
    scale, shift = bn.inference_scale_shift()
    view = (-1,) + (1,) * (w4.ndim - 1)
    w_f = (w4 * scale.reshape(view)).astype(w4.dtype)
    b0 = bias if bias is not None else 0.0
    b_f = (shift + scale * b0).astype(scale.dtype)
    return w_f, b_f


# --------------------------------------------------------------- results

@dataclass
class PassResult:
    """What one pass did — surfaced by ``repro compile-stats --passes``."""

    name: str
    ms: float = 0.0
    params_removed: int = 0      #: weights zeroed (prune + conflict drops)
    columns_combined: int = 0    #: original columns absorbed into shared ones
    details: Dict[str, object] = field(default_factory=dict)


class Transform:
    """Mutable pipeline state for one ``(executor, input_shape, config)``.

    Products the plan builder and the systolic mapper consume:

    * ``plan_nodes`` — fuse decisions (which BN / activation nodes
      disappear into their producers);
    * ``weights`` — per-node ``(weight, bias)`` overrides in builder
      form (``_conv_geometry``'s 4-d view for conv-like layers, the raw
      2-d matrix for Linear), carrying folds, prune zeros and conflict
      drops;
    * ``constants`` — precomputed scale/shift for standalone BatchNorms;
    * ``masks`` — per-node boolean keep masks (prune ∧ pack survivors),
      the input to :func:`apply_pruning` and fine-tuning;
    * ``packing`` — :class:`repro.ir.packing.NetworkPacking` from the
      column-combine pass;
    * ``amax`` — activation calibration ranges from the quantize pass;
    * ``results`` — ordered timed :class:`PassResult` records.
    """

    def __init__(self, executor, network: Network,
                 input_shape: Tuple[int, ...], config) -> None:
        self.executor = executor
        self.network = network
        self.input_shape = tuple(input_shape)
        self.config = config
        self.plan_nodes: List[_PlanNode] = [_PlanNode(n) for n in network]
        self.weights: Dict[str, Tuple[np.ndarray, Optional[np.ndarray]]] = {}
        self.constants: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self.masks: Dict[str, np.ndarray] = {}
        self.packing: Optional[NetworkPacking] = None
        self.amax: Optional[Dict[str, float]] = None
        self.results: List[PassResult] = []

    # ---------------------------------------------------- weight access

    def base_weight(self, node: Node):
        """The module's own ``(weight, bias)`` in builder form."""
        module = self.executor.module_for(node.name)
        if isinstance(node.layer, ir.Linear):
            bias = module.bias.data if module.bias is not None else None
            return module.weight.data, bias
        w4, bias, _, _, _ = _conv_geometry(module, node)
        return w4, bias

    def weight_for(self, node: Node):
        """Current ``(weight, bias)`` — override if a pass produced one."""
        override = self.weights.get(node.name)
        if override is not None:
            return override
        return self.base_weight(node)

    @property
    def sparsity(self) -> float:
        """Zero fraction over all masked layers (0.0 when nothing pruned)."""
        if not self.masks:
            return 0.0
        zeros = sum(int(m.size - m.sum()) for m in self.masks.values())
        total = sum(m.size for m in self.masks.values())
        return zeros / total if total else 0.0


# ---------------------------------------------------------------- passes

def _pass_fold_bn(tf: Transform) -> PassResult:
    """Fold sole-consumer BatchNorms into producer weights.

    Reproduces the fold decisions of the old single-walk fuse pass and
    the exact :func:`_fold_bn_into` arithmetic the builders applied
    inline, so folded plans stay byte-identical.
    """
    consumed: set = set()
    folded = 0
    for pn in tf.plan_nodes:
        node = pn.node
        if node.name in consumed or not isinstance(node.layer, _FOLDABLE):
            continue
        nxt = _sole_consumer(tf.network, node.name)
        if nxt is None or not isinstance(nxt.layer, ir.BatchNorm):
            continue
        pn.bn = nxt
        consumed.add(nxt.name)
        w, bias = tf.weight_for(node)
        bn_module = tf.executor.module_for(nxt.name)
        tf.weights[node.name] = _fold_bn_into(w, bias, bn_module)
        folded += 1
    tf.plan_nodes = [pn for pn in tf.plan_nodes
                     if pn.node.name not in consumed]
    return PassResult(name="fold_bn", details={"folded_bn": folded})


def _pass_fuse_activations(tf: Transform) -> PassResult:
    """Absorb sole-consumer activations as in-place post-ops."""
    consumed: set = set()
    fused = 0
    for pn in tf.plan_nodes:
        if pn.node.name in consumed:
            continue
        if not isinstance(pn.node.layer, _ACT_HOSTS):
            continue
        tail = pn.bn or pn.node
        nxt = _sole_consumer(tf.network, tail.name)
        if nxt is not None and isinstance(nxt.layer, ir.Activation):
            pn.act = nxt
            consumed.add(nxt.name)
            fused += 1
    tf.plan_nodes = [pn for pn in tf.plan_nodes
                     if pn.node.name not in consumed]
    return PassResult(name="fuse_activations",
                      details={"fused_activations": fused})


def _pass_constant_fold(tf: Transform) -> PassResult:
    """Precompute scale/shift for BatchNorms that survived folding."""
    count = 0
    for pn in tf.plan_nodes:
        if isinstance(pn.node.layer, ir.BatchNorm) and pn.bn is None:
            module = tf.executor.module_for(pn.node.name)
            tf.constants[pn.node.name] = module.inference_scale_shift()
            count += 1
    return PassResult(name="constant_fold", details={"bn_constants": count})


def _prune_targets(tf: Transform) -> Dict[str, float]:
    """name → sparsity target for every layer the prune pass touches."""
    config = tf.config
    overrides = dict(config.layer_sparsity or ())
    known = {pn.node.name for pn in tf.plan_nodes}
    unknown = set(overrides) - known
    if unknown:
        raise ValueError(
            f"layer_sparsity names unknown layers: {sorted(unknown)}")
    targets: Dict[str, float] = {}
    for pn in tf.plan_nodes:
        node = pn.node
        if node.name in overrides:
            if not isinstance(node.layer, _FOLDABLE):
                raise ValueError(
                    f"layer_sparsity target {node.name!r} is a "
                    f"{node.kind} — only conv-like/Linear layers prune")
            targets[node.name] = overrides[node.name]
        elif config.sparsity > 0 and isinstance(node.layer, _PRUNABLE):
            targets[node.name] = config.sparsity
    return targets


def _pass_magnitude_prune(tf: Transform) -> PassResult:
    """Zero the smallest-magnitude weights to hit the sparsity targets.

    ``prune_scope="layer"`` (default) prunes each layer to its own
    target; ``"global"`` pools the magnitudes of all default-target
    layers and applies one network-wide threshold (explicitly overridden
    layers keep their per-layer targets in either scope).
    """
    config = tf.config
    targets = _prune_targets(tf)
    overridden = set(dict(config.layer_sparsity or ()))
    by_node = {pn.node.name: pn.node for pn in tf.plan_nodes}

    masks: Dict[str, np.ndarray] = {}
    if config.prune_scope == "global":
        pooled = [n for n in targets if n not in overridden]
        if pooled:
            flats = [tf.weight_for(by_node[n])[0].reshape(-1) for n in pooled]
            keep = magnitude_mask(np.concatenate(flats), config.sparsity)
            offset = 0
            for name, flat in zip(pooled, flats):
                masks[name] = keep[offset:offset + flat.size]
                offset += flat.size
    elif config.prune_scope != "layer":
        raise ValueError(
            f"prune_scope must be 'layer' or 'global', "
            f"got {config.prune_scope!r}")

    removed = 0
    for name, target in targets.items():
        node = by_node[name]
        w, bias = tf.weight_for(node)
        mask = masks.get(name)
        if mask is None:
            mask = magnitude_mask(w, target)
        mask = np.asarray(mask, dtype=bool).reshape(w.shape)
        tf.masks[name] = mask
        removed += int(mask.size - mask.sum())
        tf.weights[name] = ((w * mask).astype(w.dtype, copy=False), bias)
    return PassResult(
        name="magnitude_prune", params_removed=removed,
        details={"layers": len(targets), "scope": config.prune_scope,
                 "sparsity": round(tf.sparsity, 4)},
    )


def _pack_view(layer: ir.LayerSpec, w: np.ndarray):
    """``(kind, w2d view)`` for packing, or ``None`` if the layer can't.

    The 2-d views write through to ``w`` (contiguous reshape + transpose)
    so conflict drops land in the transform's weight override directly.
    """
    if isinstance(layer, ir.PointwiseConv2D) or (
            isinstance(layer, ir.Conv2D) and layer.groups == 1):
        return "gemm", w.reshape(w.shape[0], -1).T
    if isinstance(layer, ir.Linear):
        return "gemm", w.T
    if isinstance(layer, ir.DepthwiseConv2D):
        return "depthwise", w.reshape(w.shape[0], -1)
    if isinstance(layer, ir.FuSeConv1D):
        return "fuse1d", w.reshape(w.shape[0], -1)
    return None


def _pass_column_combine(tf: Transform) -> PassResult:
    """Pack pruned weight columns into shared physical array columns.

    GEMM-shaped layers (standard conv / pointwise / Linear) get true
    column combining under the γ / conflict policy; depthwise compresses
    per-channel reduction lengths; FuSe groups channels by tap support
    (see :mod:`repro.ir.packing` for why FuSe packs best).  Conflict
    drops under the ``"prune"`` policy are written back into the weight
    overrides and masks, so packed execution matches the pruned dense
    network *by construction*.
    """
    config = tf.config
    gamma = int(config.pack_gamma)
    conflict = config.pack_conflict
    if gamma < 1:
        raise ValueError(f"pack_gamma must be >= 1, got {gamma}")
    if conflict not in CONFLICT_POLICIES:
        raise ValueError(
            f"pack_conflict must be one of {CONFLICT_POLICIES}, "
            f"got {conflict!r}")

    entries: List[Tuple[str, PackedMapping]] = []
    conflicts = 0
    combined = 0
    for pn in tf.plan_nodes:
        node = pn.node
        if not isinstance(node.layer, _FOLDABLE):
            continue
        if isinstance(node.layer, ir.Linear) and node.name not in tf.masks:
            continue  # pack the head only when explicitly pruned
        w, bias = tf.weight_for(node)
        view = _pack_view(node.layer, w)
        if view is None:
            continue
        kind, w2d = view
        if kind == "gemm":
            if node.name not in tf.weights:
                # Unpruned module weight: pack a private copy so conflict
                # drops can't mutate the executor's parameters.
                w = np.array(w)
                tf.weights[node.name] = (w, bias)
                _, w2d = _pack_view(node.layer, w)
            mapping, keep = pack_gemm_columns(w2d, gamma, conflict)
            dropped_here = int((w2d != 0).sum() - keep.sum())
            if dropped_here:
                w2d[~keep] = 0.0
                conflicts += dropped_here
                mask = tf.masks.get(node.name)
                keep_w = np.ascontiguousarray(keep.T).reshape(w.shape)
                tf.masks[node.name] = keep_w if mask is None \
                    else (mask & keep_w)
        elif kind == "depthwise":
            mapping = pack_depthwise(w2d, gamma, conflict)
        else:
            mapping = pack_fuse1d(w2d, gamma, conflict)
        combined += mapping.columns_combined
        entries.append((node.name, mapping))

    tf.packing = NetworkPacking(gamma=gamma, conflict=conflict,
                                layers=tuple(entries))
    return PassResult(
        name="column_combine", params_removed=conflicts,
        columns_combined=combined,
        details={
            "gamma": gamma, "conflict": conflict,
            "layers": len(entries),
            "columns_before": tf.packing.columns_before,
            "packed_columns": tf.packing.packed_columns,
        },
    )


def _pass_quantize_int8(tf: Transform) -> PassResult:
    """Calibrate activation ranges for the int8 plan builder.

    Runs the observer pass (a float plan of identical fuse structure and
    the transform's — possibly pruned — weights) and stores per-step
    max-abs ranges in ``tf.amax``.  Imported lazily from
    :mod:`repro.nn.compile` to keep the module dependency one-way.
    """
    from .compile import _calibrate_activations

    tf.amax = _calibrate_activations(tf)
    return PassResult(name="quantize_int8",
                      details={"calibrated_steps": len(tf.amax)})


_PASSES: Dict[str, Callable[[Transform], PassResult]] = {
    "fold_bn": _pass_fold_bn,
    "fuse_activations": _pass_fuse_activations,
    "constant_fold": _pass_constant_fold,
    "magnitude_prune": _pass_magnitude_prune,
    "column_combine": _pass_column_combine,
    "quantize_int8": _pass_quantize_int8,
}


class Pipeline:
    """An ordered, named sequence of model-transform passes."""

    def __init__(self, names: Sequence[str]) -> None:
        unknown = [n for n in names if n not in _PASSES]
        if unknown:
            raise ValueError(
                f"unknown passes {unknown}; available: {sorted(_PASSES)}")
        self.names: Tuple[str, ...] = tuple(names)

    def __repr__(self) -> str:
        return f"Pipeline({list(self.names)})"

    @classmethod
    def from_config(cls, config) -> "Pipeline":
        """The pipeline a :class:`~repro.nn.compile.CompileConfig` specs.

        Canonical order: fold → fuse → constant-fold → prune → pack →
        quantize.  ``exact()`` maps to the empty pipeline.
        """
        names: List[str] = []
        if config.fold_bn:
            names.append("fold_bn")
        if config.fuse_activations:
            names.append("fuse_activations")
        if config.constant_fold:
            names.append("constant_fold")
        if config.sparsity > 0 or config.layer_sparsity:
            names.append("magnitude_prune")
        if config.pack:
            names.append("column_combine")
        if config.quantize:
            names.append("quantize_int8")
        return cls(names)

    def run(self, executor, network: Network,
            input_shape: Sequence[int], config) -> Transform:
        """Run every pass in order; returns the populated transform."""
        tf = Transform(executor, network, tuple(input_shape), config)
        tracer = get_tracer()
        for name in self.names:
            start = time.perf_counter()
            with tracer.span("nn.pass", category="nn", pass_name=name):
                result = _PASSES[name](tf)
            result.ms = (time.perf_counter() - start) * 1000.0
            tf.results.append(result)
        if tf.results:
            _log.debug(
                "pass pipeline complete", network=network.name,
                passes=list(self.names),
                ms=f"{sum(r.ms for r in tf.results):.1f}",
            )
        return tf


def apply_pruning(executor, transform: Transform) -> int:
    """Write the transform's keep masks into the executor's modules.

    Multiplies each masked layer's weight by its boolean mask in place
    (prune zeros *and* column-combining conflict drops), so eager
    execution, training steps and the systolic executor all see the
    pruned network.  Returns the number of weights zeroed.  Masks are
    magnitude patterns — valid on raw or BN-folded weights alike, since
    folding rescales whole output channels and never creates or destroys
    zeros.
    """
    removed = 0
    for name, mask in transform.masks.items():
        module = executor.module_for(name)
        w = module.weight.data
        m = np.asarray(mask, dtype=bool).reshape(w.shape)
        removed += int(np.count_nonzero(w[~m]))
        w *= m
    return removed
