"""Per-layer metrics of a traced run, and where each span must (not) fire."""

from __future__ import annotations

from tracer import CONTRACTIONS, ENGINE_GROUPS, Tracer, engine_ops, op_group

LOSS_SPANS = ("training.cls_loss", "training.reg_loss_terms", "training.total_loss")
LAYOUT_SPANS = ("blocks.tokens_of", "blocks.map_of")
SETUP_SPANS = ("weights.load_weights", "scenes.make_suite", "training.make_training_examples")

# span names that must fire, or must not, in the traced loop of each workload kind
MUST_FIRE = {
    "any": ("model.run_backbone", "model.run_heads", "blocks.patch_embed", "blocks.stage1",
            "blocks.stage2", "blocks.stage3", "blocks.eoc_attention.sa", "blocks.eoc_attention.ca",
            "blocks.mlp_cond_pe", "blocks.head_forward") + LAYOUT_SPANS,
    "track": ("tracking.crop_region", "tracking.predict_box", "model.forward"),
    "train": ("engine.backward", "training.forward", "training.clip_global_norm",
              "training.adamw_step") + LOSS_SPANS,
}
MUST_NOT_FIRE = {
    "any": ("engine.depthwise_xcorr",),
    "track": ("engine.backward", "training.forward", "training.clip_global_norm",
              "training.adamw_step") + LOSS_SPANS,
    "train": ("tracking.crop_region",),
}
SETUP_FIRE = {"track": SETUP_SPANS[:2], "train": SETUP_SPANS}


def coverage_violations(kind: str, loop_calls, setup_calls) -> list[str]:
    """Spans that failed to fire where expected, or fired where they must not."""
    groups = {op_group(n[len("engine."):]) for n in loop_calls if n.startswith("engine.")}
    out = [f"{n} did not fire" for n in MUST_FIRE["any"] + MUST_FIRE[kind] if not loop_calls[n]]
    out += [f"engine.{g} did not fire" for g in ENGINE_GROUPS
            if g != "depthwise_xcorr" and g not in groups]
    out += [f"{n} fired" for n in MUST_NOT_FIRE["any"] + MUST_NOT_FIRE[kind] if loop_calls[n]]
    out += [f"{n} did not fire in set-up" for n in SETUP_FIRE[kind] if not setup_calls[n]]
    return out


def layer_table(engine, tracer: Tracer, summary: dict, items: int) -> dict[str, float]:
    """Per-frame or per-step numbers of one traced window (see README.md)."""
    calls, incl, self_s = summary["calls"], summary["incl"], summary["self"]
    per = 1.0 / max(items, 1)
    ms = 1e3 * per

    def total(table, names):
        return sum(table[n] for n in names)

    m = {
        "tracking.crop_region.ms": self_s["tracking.crop_region"] * ms,
        "tracking.predict_box.ms": self_s["tracking.predict_box"] * ms,
        "model.forward.ms": total(incl, ("model.forward", "training.forward")) * ms,
        "model.run_backbone.ms": incl["model.run_backbone"] * ms,
        "model.run_heads.ms": incl["model.run_heads"] * ms,
        "blocks.patch_embed.ms": self_s["blocks.patch_embed"] * ms,
    }
    for k in (1, 2, 3):
        m[f"blocks.stage{k}.ms"] = incl[f"blocks.stage{k}"] * ms
    for name in ("blocks.eoc_attention.sa", "blocks.eoc_attention.ca", "blocks.mlp_cond_pe",
                 "blocks.head_forward"):
        m[f"{name}.ms"] = self_s[name] * ms
    m["blocks.layout.ms"] = total(self_s, LAYOUT_SPANS) * ms
    m["blocks.layout.calls"] = total(calls, LAYOUT_SPANS) * per
    ops = engine_ops(engine)
    for g in ENGINE_GROUPS:
        names = [f"engine.{op}" for op in ops if op_group(op) == g]
        m[f"engine.{g}.ms"] = total(self_s, names) * ms
        m[f"engine.{g}.calls"] = total(calls, names) * per
        m[f"engine.{g}.mb_out"] = tracer.out_bytes[g] * 1e-6 * per
        if g in CONTRACTIONS:
            m[f"engine.{g}.gflop"] = tracer.flops[g] * 1e-9 * per
    m["engine.ops"] = total(calls, [f"engine.{op}" for op in ops]) * per
    m["engine.backward.ms"] = self_s["engine.backward"] * ms
    m["engine.graph_nodes"] = tracer.graph_nodes * per
    m["training.forward.ms"] = incl["training.forward"] * ms
    m["training.loss.ms"] = total(self_s, LOSS_SPANS) * ms
    m["training.clip_global_norm.ms"] = self_s["training.clip_global_norm"] * ms
    m["training.adamw_step.ms"] = self_s["training.adamw_step"] * ms
    return m


def unit_of(name: str) -> str:
    for suffix, unit in ((".ms", "ms"), (".gflop", "GFLOP-computed"), (".mb_out", "MB-computed"),
                         ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "count"


def per_layer(engine, kind: str, setup_tracer: Tracer, tracer: Tracer, untraced_rate: float,
              traced_rate: float, traced_items: int, traced_wall_s: float):
    """All per-layer metrics of a traced run, plus span coverage violations."""
    summary = tracer.summarize()
    m = layer_table(engine, tracer, summary, traced_items)
    setup = setup_tracer.summarize()
    for name in SETUP_SPANS:
        m[f"{name}.ms"] = setup["incl"][name] * 1e3
    m["trace.overhead_frac"] = untraced_rate / traced_rate - 1.0
    m["trace.coverage_frac"] = summary["top_level_s"] / traced_wall_s
    violations = coverage_violations(kind, summary["calls"], setup["calls"])
    return {k: (v, unit_of(k)) for k, v in m.items()}, violations
