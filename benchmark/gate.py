"""Correctness gate: stored reference outputs plus the paper-property oracles.

The references are, for one fixed (template, search) pair and the `tiny` and
`light` presets, the `cls`/`reg` maps and the backbone's template and search
features; and the loss and pre-clip gradient norm of the first `tiny`
training step.  At initialisation the maps sit within about 1e-3 of 0.5, so
on their own they would hide most arithmetic changes; the features are
O(1).  `check` recomputes everything, compares within the float32 tolerance
of 1e-5 (relative to the reference's largest magnitude when that exceeds
1), and runs `oracles.run_all_oracles`.

Regenerate the stored file (only when outputs are meant to change):

    python3 benchmark/gate.py --write
"""

from __future__ import annotations

import os
import sys

import numpy as np

from tracer import rebind, restore

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.npz")
REF_SEED = 7
TOL = 1e-5
FEATURE_STRIDE = {"tiny": 1, "light": 4}  # spatial subsampling of the stored features


def fixed_pair(sb, cfg):
    """Template from frame 0 and search crop of frame 1 of one fixed scene."""
    seq = sb.scenes.generate_sequence(sb.scenes.SceneConfig(), REF_SEED)
    z, _ = sb.tracking.crop_region(seq.frames[0], seq.gt[0], 2.0, cfg.template_size)
    x, _ = sb.tracking.crop_region(seq.frames[1], seq.gt[0], 4.0, cfg.search_size)
    return z, x


def forward_outputs(sb, preset: str) -> dict[str, np.ndarray]:
    cfg = sb.model.PRESETS[preset]()
    model = sb.model.build_model(cfg, seed=REF_SEED)
    z, x = fixed_pair(sb, cfg)
    s = FEATURE_STRIDE[preset]
    with sb.engine.no_grad():
        cls, reg = sb.model.forward(model, z, x)
        fz, fx = sb.model.run_backbone(model, z, x)
    return {f"{preset}_cls": cls.data.copy(), f"{preset}_reg": reg.data.copy(),
            f"{preset}_fz": fz.tensor.data[:, ::s, ::s].copy(),
            f"{preset}_fx": fx.tensor.data[:, ::s, ::s].copy()}


def first_train_step(sb) -> tuple[float, float]:
    """Logged loss and pre-clip global gradient norm of the first tiny step."""
    tr = sb.training
    cfg = sb.model.tiny_config()
    model = sb.model.build_model(cfg, seed=REF_SEED)
    suite = sb.scenes.make_suite(sb.scenes.SceneConfig(), 2, 0, seed=REF_SEED)
    examples = tr.make_training_examples(suite.train, 9, cfg.template_size, cfg.search_size,
                                         np.random.default_rng(REF_SEED))
    norms = []
    clip = tr.clip_global_norm

    def recording_clip(params, max_norm):
        norms.append(clip(params, max_norm))
        return norms[-1]

    undo = rebind(sb.modules, clip, recording_clip)
    try:
        log = tr.train(model, examples[:8], tr.TrainConfig(steps=1, seed=REF_SEED),
                       probe=examples[8:])
    finally:
        restore(undo)
    return float(log.column("loss_total")[0]), float(norms[0])


def compute(sb) -> dict[str, np.ndarray]:
    out = {}
    for preset in ("tiny", "light"):
        out.update(forward_outputs(sb, preset))
    loss, norm = first_train_step(sb)
    out["train_loss"] = np.float64(loss)
    out["train_grad_norm"] = np.float64(norm)
    return out


def check(sb) -> list[dict]:
    """One entry per check: name, ok, measured error and its bound."""
    with np.load(REFERENCE, allow_pickle=False) as ref:
        want = {k: ref[k] for k in ref.files}
    got = compute(sb)
    results = []
    for key in sorted(want):
        a, b = np.asarray(got[key], dtype=np.float64), np.asarray(want[key], dtype=np.float64)
        if a.shape != b.shape:
            results.append({"name": key, "ok": False, "error": None, "bound": TOL})
            continue
        err = float(np.max(np.abs(a - b)) / max(1.0, float(np.max(np.abs(b)))))
        results.append({"name": key, "ok": bool(err <= TOL), "error": err, "bound": TOL})
    for r in sb.oracles.run_all_oracles():
        results.append({"name": f"oracle: {r.name}", "ok": bool(r.passed), "error": float(r.value),
                        "bound": r.threshold})
    return results


def main() -> int:
    if sys.argv[1:] != ["--write"]:
        print(__doc__, file=sys.stderr)
        return 2
    from run import load_sbtrack

    sb = load_sbtrack()
    np.savez(REFERENCE, **compute(sb))
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
