"""The benchmark's self-test and correctness gate, run in the test suite.

`benchmark/selftest.py` pins the calls, FLOPs and bytes per op group of one
tracked `tiny` frame and checks that the `dwcorr` head correlates once, and
the tracker's template cache is measured against that schedule;
`benchmark/gate.py` compares outputs with the stored `reference.npz` and
runs the oracle table.  Run here, a change to the per-frame op schedule or
an output that drifts fails the test suite too.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


@pytest.fixture(scope="module")
def selftest():
    sys.path.insert(0, str(BENCHMARK))
    try:
        import selftest
        from run import load_sbtrack

        yield selftest, load_sbtrack()
    finally:
        sys.path.remove(str(BENCHMARK))


def test_traced_frame_counts_match_the_config(selftest):
    module, sb = selftest
    assert module.check_counts(sb) == []


def test_dwcorr_head_correlates_once(selftest):
    module, sb = selftest
    assert module.check_dwcorr(sb) == []


def test_tracer_finds_every_engine_op(selftest):
    """The tracer finds ops by their `-> Tensor` annotation; an op that lost
    it would silently drop out of every trace."""
    from test_engine import NOT_OPS
    import tracer

    _, sb = selftest
    assert sorted(tracer.engine_ops(sb.engine)) == sorted(set(sb.engine.__all__) - NOT_OPS)


def engine_calls(sb, cfg, fn):
    """`fn()` and the engine calls per op it made, counted by the benchmark's tracer."""
    import loops
    from tracer import Tracer

    tracer = Tracer(sb, loops._stage_map(cfg))
    tracer.install()
    try:
        out = fn()
    finally:
        tracer.uninstall()
    return out, Counter({name[len("engine."):]: n for name, n in tracer.summarize()["calls"].items()
                         if name.startswith("engine.") and name != "engine.backward"})


def test_tracker_runs_the_template_prefix_once_per_sequence(selftest):
    """`template_prefix` runs the template's steps before its first CA block
    (P calls) and `forward` resumes it once per frame (F calls).  P + F is
    the uncached frame that `expected_forward` derives, and tracking a
    30-frame sequence makes exactly P + 29 F calls of each op."""
    from tracer import op_group

    module, sb = selftest
    md, tk = sb.model, sb.tracking
    cfg = md.tiny_config()
    model = md.build_model(cfg, seed=0)
    seq = sb.scenes.generate_sequence(sb.scenes.SceneConfig(length=30), 0)
    template, _ = tk.crop_region(seq.frames[0], seq.gt[0], 2.0, cfg.template_size)
    search, _ = tk.crop_region(seq.frames[1], seq.gt[0], 4.0, cfg.search_size)
    with sb.engine.no_grad():
        prefix, once = engine_calls(sb, cfg, lambda: md.template_prefix(model, template))
        _, frame = engine_calls(sb, cfg, lambda: md.forward(model, prefix, search))
    _, tracked = engine_calls(sb, cfg, lambda: tk.run_tracker(model, seq))

    uncached = Counter()
    for op, n in (once + frame).items():
        uncached[op_group(op)] += n
    assert uncached == module.expected_forward(cfg)[0]
    first_ca = min((si, bi) for si, st in enumerate(cfg.stages, 1) for bi in st.ca_positions)
    assert prefix.after == (first_ca[0], first_ca[1] - 1)
    frames = len(seq.frames) - 1
    assert tracked == Counter({op: once[op] + frames * frame[op] for op in once | frame})


def test_correctness_gate_passes(selftest):
    """Maps, features and the first training step against `reference.npz`,
    plus the oracle table."""
    _, sb = selftest
    import gate

    failed = [r for r in gate.check(sb) if not r["ok"]]
    assert failed == []


def test_train_step_fires_every_training_span(selftest):
    """One traced batch-1 step of `train` runs every span a traced
    `train_tiny` run must show, the loss functions included; the traced runs
    of `selftest.py` check this too, but they take seconds."""
    import layers
    import loops
    from tracer import Tracer

    _, sb = selftest
    cfg = sb.model.tiny_config()
    model = sb.model.build_model(cfg, seed=0)
    rng = np.random.default_rng(0)
    t, s = cfg.template_size, cfg.search_size
    ex = sb.training.TrainExample(rng.random((3, t, t), dtype=np.float32),
                                  rng.random((3, s, s), dtype=np.float32),
                                  sb.boxes.Box(40, 40, 90, 90))
    tracer = Tracer(sb, loops._stage_map(cfg))
    tracer.install()
    try:
        sb.training.train(model, [ex], sb.training.TrainConfig(steps=1, batch=1), probe=[ex])
    finally:
        tracer.uninstall()
    calls = tracer.summarize()["calls"]
    assert [n for n in layers.MUST_FIRE["any"] + layers.MUST_FIRE["train"] if not calls[n]] == []
