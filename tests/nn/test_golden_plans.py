"""Compile-refactor golden test: presets produce byte-identical plans.

PR 9 refactored ``repro.nn.compile`` so that every ``CompileConfig``
preset is just a spec for the :mod:`repro.nn.passes` pipeline.  The
refactor contract is that the pre-existing presets (``exact`` /
``folded`` / ``int8``) compile to **byte-identical plans**: same step
labels, same fold/fusion/arena accounting, and bit-identical outputs on
a seeded input.

``tests/nn/data/golden_plans.json`` was generated from the pre-refactor
compiler (the commit before the pipeline landed) by running this file as
a module::

    PYTHONPATH=src python -m tests.nn.test_golden_plans --regen

The ``sparse`` / ``sparse_int8`` entries were added later, generated from
the compiler as it stood before the float and int8 plan builders merged
into one driver; that regen left the nine earlier entries byte-identical.

The entries were regenerated once more when the float-close and int8
plans began dropping the taps of depthwise / FuSe-1D convs that read
only zero padding.  Every ``exact`` entry stayed byte-identical, as did
each entry's labels, op/fold/fusion/int8 counts, ``pooled_bytes`` and
output shape and dtype.  ``output_sha256`` changed for the ``folded``,
``int8``, ``sparse`` and ``sparse_int8`` presets of both zoo networks
(all but ``v3s_fuse/sparse_int8``): a float einsum over fewer taps
rounds differently, and the int8 presets calibrate on a folded float
plan.  ``arena_bytes`` and ``naive_bytes`` shrank on the same entries,
because the cropped convs need smaller pad buffers or none.

Regenerate ONLY when a deliberate, reviewed behavior change to the plan
builder lands — never to paper over an accidental diff.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import FuSeVariant, to_fuseconv
from repro.models import build_model
from repro.nn import CompileConfig, GraphExecutor, compile_executor

from .test_graph import full_vocabulary_net

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_plans.json"
BATCH = 2
MODEL_SEED = 0
INPUT_SEED = 2021

#: (case name, network factory) — every pre-refactor preset runs on each.
NETWORKS = {
    "vocab": full_vocabulary_net,
    "v3s": lambda: build_model("mobilenet_v3_small", num_classes=10,
                               resolution=32),
    "v3s_fuse": lambda: to_fuseconv(
        build_model("mobilenet_v3_small", num_classes=10, resolution=32),
        FuSeVariant.FULL,
    ),
}

PRESETS = {
    "exact": CompileConfig.exact,
    "folded": CompileConfig,
    "int8": CompileConfig.int8,
    "sparse": CompileConfig.sparse,
    "sparse_int8": CompileConfig.sparse_int8,
}

#: Presets added after the pre-refactor goldens: run on the zoo networks
#: only (their entries were generated before the plan builders merged).
ZOO_ONLY = ("sparse", "sparse_int8")


def _fingerprint(net_name: str, preset: str) -> dict:
    net = NETWORKS[net_name]()
    executor = GraphExecutor(net, seed=MODEL_SEED)
    executor.eval()
    shape = (BATCH,) + tuple(net.input_shape)
    plan = compile_executor(executor, shape, PRESETS[preset]())
    rng = np.random.default_rng(INPUT_SEED)
    x = rng.normal(size=shape).astype(np.float32)
    out = plan.run(x)
    s = plan.stats
    return {
        "labels": list(plan.labels),
        "ops": s.ops,
        "folded_bn": s.folded_bn,
        "fused_activations": s.fused_activations,
        "arena_bytes": s.arena_bytes,
        "pooled_bytes": s.pooled_bytes,
        "naive_bytes": s.naive_bytes,
        "int8_ops": s.int8_ops,
        "int8_fallbacks": s.int8_fallbacks,
        "output_shape": list(out.shape),
        "output_dtype": str(out.dtype),
        "output_sha256": hashlib.sha256(out.tobytes()).hexdigest(),
    }


def _cases():
    for net_name in NETWORKS:
        for preset in PRESETS:
            if net_name == "vocab" and preset in ZOO_ONLY:
                continue
            yield net_name, preset


@pytest.mark.parametrize("net_name,preset", list(_cases()),
                         ids=[f"{n}-{p}" for n, p in _cases()])
def test_preset_plans_match_pre_refactor_golden(net_name, preset):
    golden = json.loads(GOLDEN_PATH.read_text())
    key = f"{net_name}/{preset}"
    assert key in golden, f"no golden entry for {key} — regen required"
    got = _fingerprint(net_name, preset)
    want = golden[key]
    # Compare field by field so a mismatch names what diverged.
    for field in want:
        assert got[field] == want[field], (
            f"{key}: {field} diverged from the pre-refactor plan\n"
            f"  golden: {want[field]!r}\n  got   : {got[field]!r}"
        )


def _regen() -> None:
    out = {f"{n}/{p}": _fingerprint(n, p) for n, p in _cases()}
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH} ({len(out)} entries)")


if __name__ == "__main__":
    import sys

    if "--regen" in sys.argv:
        _regen()
    else:
        print(__doc__)
