"""Self-test of the benchmark's tracing: span coverage and computed counts.

    python3 benchmark/selftest.py

Checks the following and exits non-zero if any of them fails:

* each workload's short traced run fires every per-layer span where it
  should and none where it must not (`engine.backward` only on
  `train_tiny`; `engine.depthwise_xcorr` only with ``head_input="dwcorr"``);
* for one `tiny` frame, the traced engine call counts, FLOPs and output
  bytes per op group equal values derived from the config alone, and repeat
  exactly on a second frame.
"""

from __future__ import annotations

import os
import sys
from collections import Counter

# numpy-importing modules (loops, tracer) are imported after limit_blas_threads
from run import OUT_DIR, limit_blas_threads, load_sbtrack

# Anchors counted by hand from blocks.py for the tiny preset: per eoc block
# 26 transposes and 90 ops in all, six blocks, 12 patch-embedding ops, and
# two heads of 25 ops plus a sigmoid each.
TINY_FRAME_OPS = 6 * 90 + 12 + 2 * 26
TINY_FRAME_TRANSPOSES = 6 * 26 + 2 * 10
TINY_FRAME_CONV2D = 6 * 4 + 6


def expected_forward(cfg) -> tuple[Counter, Counter, Counter]:
    """Engine calls, forward FLOPs and float32 output bytes per op group of
    one `model.forward` with the search-feature head, from the config alone."""
    calls, flops, nbytes = Counter(), Counter(), Counter()

    def op(group, out_elems, f=0):
        calls[group] += 1
        flops[group] += f
        nbytes[group] += 4 * out_elems

    def layout(elems):  # tokens_of, map_of and head split/merge: a reshape and a transpose
        op("elementwise", elems)
        op("transpose", elems)

    c_in, side = 3, {"z": cfg.template_size, "x": cfg.search_size}
    for st in cfg.stages:
        c, r, k = st.channels, st.reduction, st.kernel
        n = {}
        for b in ("z", "x"):
            side[b] //= st.stride
            n[b] = side[b] ** 2
            op("conv2d", c * n[b], 2 * c * n[b] * c_in * k * k)
            op("layer_norm", c * n[b])
        for bi in range(1, st.depth + 1):
            ca = bi in st.ca_positions
            for b in ("z", "x"):
                op("layer_norm", c * n[b])  # norm1
            for q in ("z", "x"):
                kv = ("x" if q == "z" else "z") if ca else q
                nq, m = n[q], n[kv] // (r * r)
                layout(nq * c)  # query tokens
                op("linear", nq * c, 2 * nq * c * c)
                layout(nq * c)  # split heads
                for _ in ("k", "v"):
                    if r > 1:
                        op("conv2d", c * m, 2 * c * m * c * r * r)
                    layout(m * c)
                    if r > 1:
                        op("layer_norm", m * c)
                    op("linear", m * c, 2 * m * c * c)
                    layout(m * c)  # split heads
                op("transpose", m * c)  # keys transposed for the score product
                op("matmul", st.heads * nq * m, 2 * nq * m * c)
                op("elementwise", st.heads * nq * m)  # 1/sqrt(d) scale
                op("softmax_last_dim", st.heads * nq * m)
                op("matmul", nq * c, 2 * nq * m * c)
                layout(nq * c)  # merge heads
                op("linear", nq * c, 2 * nq * c * c)
                layout(nq * c)  # back to a map
                op("elementwise", c * nq)  # residual
            for b in ("z", "x"):
                nb, h = n[b], 4 * c
                op("layer_norm", c * nb)  # norm2
                layout(c * nb)
                op("linear", h * nb, 2 * nb * c * h)
                layout(h * nb)
                op("depthwise_conv2d", h * nb, 2 * h * nb * 9)
                op("gelu", h * nb)
                layout(h * nb)
                op("linear", c * nb, 2 * nb * h * c)
                layout(c * nb)
                op("elementwise", c * nb)  # residual
        c_in = c
    nx = side["x"] ** 2
    for out_c in (1, 4):  # cls head, reg head
        for _ in range(cfg.head_depth):
            layout(c_in * nx)
            op("linear", nx * c_in, 2 * nx * c_in * c_in)  # channel mixing
            op("elementwise", nx * c_in)  # relu
            op("transpose", nx * c_in)
            op("linear", c_in * nx, 2 * c_in * nx * nx)  # spatial mixing
            op("elementwise", c_in * nx)  # relu
            op("transpose", c_in * nx)
            layout(c_in * nx)
        layout(c_in * nx)
        op("linear", out_c * nx, 2 * nx * c_in * out_c)
        layout(out_c * nx)
        op("elementwise", out_c * nx)  # sigmoid
    return calls, flops, nbytes


def traced_counts(sb, model, seq) -> tuple[Counter, Counter, Counter]:
    """Engine calls, FLOPs and output bytes per group while tracking `seq`."""
    import loops
    from tracer import Tracer, op_group

    tracer = Tracer(sb, loops._stage_map(model.config))
    tracer.install()
    try:
        sb.tracking.run_tracker(model, seq)
    finally:
        tracer.uninstall()
    calls = Counter()
    for name, count in tracer.summarize()["calls"].items():
        if name.startswith("engine.") and name != "engine.backward":
            calls[op_group(name[len("engine."):])] += count
    return calls, Counter(tracer.flops), Counter(tracer.out_bytes)


def _one_frame(sb):
    """A template frame plus one tracked frame."""
    seq = sb.scenes.generate_sequence(sb.scenes.SceneConfig(), 0)
    return sb.scenes.Sequence(seq.frames[:2], seq.gt[:2], seq.distractors[:2])


def check_counts(sb) -> list[str]:
    cfg = sb.model.tiny_config()
    model = sb.model.build_model(cfg, seed=0)
    first = traced_counts(sb, model, _one_frame(sb))
    second = traced_counts(sb, model, _one_frame(sb))
    want = expected_forward(cfg)
    fails = []
    for label, got, again, exp in zip(("calls", "flops", "bytes"), first, second, want):
        if got != again:
            fails.append(f"{label} differ between two traced frames: {got} vs {again}")
        for g in sorted(set(got) | set(exp)):
            if got[g] != exp[g]:
                fails.append(f"engine.{g} {label}: traced {got[g]}, expected {exp[g]}")
    calls = first[0]
    for label, got, hand in (("ops", sum(calls.values()), TINY_FRAME_OPS),
                             ("transpose calls", calls["transpose"], TINY_FRAME_TRANSPOSES),
                             ("conv2d calls", calls["conv2d"], TINY_FRAME_CONV2D)):
        if got != hand:
            fails.append(f"tiny frame {label}: traced {got}, counted by hand {hand}")
    return fails


def check_dwcorr(sb) -> list[str]:
    cfg = sb.model.tiny_config(head_input="dwcorr")
    model = sb.model.build_model(cfg, seed=0)
    calls, _, _ = traced_counts(sb, model, _one_frame(sb))
    n = calls["depthwise_xcorr"]
    return [] if n == 1 else [f"dwcorr head: engine.depthwise_xcorr fired {n} times, not once"]


def check_workload_spans(sb, workload: str) -> list[str]:
    import loops

    result, info = loops.run(sb, workload, seed=0, seconds=4.0, trace=True,
                             out_dir=os.path.join(OUT_DIR, "selftest"))
    fails = [f"{workload}: {v}" for v in info["span_coverage_violations"]]
    if not result["correct"]:
        fails.append(f"{workload}: traced run not correct: {info['errors']}")
    backward = result["metrics"]["engine.backward.ms"]["value"]
    if (backward > 0) != (workload == "train_tiny"):
        fails.append(f"{workload}: engine.backward.ms is {backward}")
    return fails


def main() -> int:
    limit_blas_threads()
    sb = load_sbtrack()
    import loops

    reports = [("computed counts", check_counts), ("dwcorr span", check_dwcorr)]
    reports += [(f"spans {w}", lambda sb, w=w: check_workload_spans(sb, w))
                for w in loops.WORKLOADS]
    failed = False
    for label, fn in reports:
        fails = fn(sb)
        print(f"{'FAIL' if fails else 'ok  '}  {label}")
        for f in fails:
            print(f"      {f}")
        failed = failed or bool(fails)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
