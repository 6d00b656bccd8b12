"""Memory held by one training pair's autograd graph, and its gradients.

    python3 tools/graphmem.py

Imports ``sbtrack`` from ``src/`` of this checkout.  For one training pair
of the ``tiny`` and of the ``light`` preset (model seed 0, a template and a
search image drawn from a fixed seed, one target box at the middle of the
search crop), it prints, as tracemalloc counts them:

* ``graph``: the bytes that the forward and the loss leave allocated,
  which is what the graph holds until backward;
* ``backward_peak``: the most bytes allocated at once during backward,
  counted from the same start, so the graph is included;
* ``grads_sha256``: the SHA-256 of every parameter gradient, in the
  parameter-table order.

The first two do not depend on the host's speed or load, and the hash
tells whether a change of the engine moved any gradient bit.  Both pairs
take about 3 CPU-s together on a 2-vCPU x86 VM.
"""

from __future__ import annotations

import hashlib
import os
import sys
import tracemalloc

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from sbtrack import model as md  # noqa: E402
from sbtrack import training as tr  # noqa: E402
from sbtrack.boxes import Box  # noqa: E402

MIB = 1 << 20


def measure(cfg: md.ModelConfig) -> dict:
    """Graph bytes, backward peak bytes and the gradient hash of one
    training pair of the model `cfg` describes."""
    model = md.build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    z = rng.random((3, cfg.template_size, cfg.template_size), dtype=np.float32)
    x = rng.random((3, cfg.search_size, cfg.search_size), dtype=np.float32)
    s = float(cfg.search_size)
    tm = tr.assign_targets(Box(0.3 * s, 0.3 * s, 0.7 * s, 0.7 * s), cfg.search_grid(), s)
    tracemalloc.start()
    try:
        cls, reg = md.forward(model, z, x)
        loss = tr.total_loss(tr.cls_loss(cls, tm.labels), *tr.reg_loss_terms(reg, tm.reg, tm.labels))
        del cls, reg
        graph, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loss.backward()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    digest = hashlib.sha256()
    for name, p in model.params.items():
        digest.update(name.encode())
        digest.update(b"none" if p.grad is None else p.grad.tobytes())
    return {"graph": graph, "backward_peak": peak, "grads_sha256": digest.hexdigest()}


def main() -> int:
    for preset in ("tiny", "light"):
        m = measure(md.PRESETS[preset]())
        print(f"{preset}: graph {m['graph'] / MIB:.1f} MiB, backward_peak "
              f"{m['backward_peak'] / MIB:.1f} MiB, grads_sha256 {m['grads_sha256']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
