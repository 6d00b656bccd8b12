"""The three closed-loop workloads: set-up, warm-up, timed loop, result.

One caller drives each loop and waits for every frame or step before the
next.  Untraced runs take one timestamp per frame at the
`tracking.predict_box` boundary, or per optimiser step at the
`training.clip_global_norm` boundary, and nothing else.  Traced runs time
half the window untraced and half with every layer wrapped (see tracer.py).

A timestamp is a pair: the wall clock, which bounds the window, and the
process CPU clock, which times frames, steps and set-ups.  The process runs
one thread, so on a dedicated core the two advance together; on a shared
host the CPU clock leaves out the time the host ran something else.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import time
from dataclasses import dataclass

import numpy as np

import gate
import layers
from tracer import Tracer, rebind, restore, write_spans

SETUP_REPEATS = 7
BATCH = 4


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    kind: str  # "track" | "train"
    n_train: int  # scene sequences in the train split
    n_eval: int  # scene sequences in the eval split
    warmup_frames: int = 0  # track: frames of the warm-up sequence
    examples: int = 0  # train: pairs made from the train split (the last one is the probe)
    episode_steps: int = 0  # train: optimiser steps per `train` call


WORKLOADS = {
    w.name: w
    for w in (
        # the eval split is cycled: a sequence tracked twice must give the same boxes
        Workload("track_tiny", "tiny", "track", n_train=1, n_eval=12, warmup_frames=30),
        Workload("track_light", "light", "track", n_train=1, n_eval=2, warmup_frames=6),
        Workload("train_tiny", "tiny", "train", n_train=8, n_eval=0, examples=65,
                 episode_steps=20),
    )
}


class Deadline(Exception):
    """Raised from a loop boundary hook when the measuring window is over."""


@dataclass
class LoopResult:
    items: int  # frames or optimiser steps completed
    attempted: int
    failed: int
    elapsed_s: float  # wall clock, start of the window to the last stamp
    cpu_s: float  # process CPU clock, same span
    latencies_s: list  # CPU clock
    wall_latencies_s: list
    per_item: int  # frames per frame, pairs per step
    errors: list
    train_loss_end: float | None = None

    @property
    def rate(self) -> float:
        """Successful frames, or training pairs, per CPU second of the window."""
        return (self.attempted - self.failed) * self.per_item / self.cpu_s

    @property
    def wall_rate(self) -> float:
        return (self.attempted - self.failed) * self.per_item / self.elapsed_s


def _window(start, stamps, cpu_start, cpu_stamps):
    """Wall and CPU spans of a window, and its per-item CPU and wall latencies."""
    if not stamps:
        return dict(elapsed_s=time.perf_counter() - start, cpu_s=time.process_time() - cpu_start,
                    latencies_s=[], wall_latencies_s=[])
    return dict(elapsed_s=stamps[-1] - start, cpu_s=cpu_stamps[-1] - cpu_start,
                latencies_s=list(np.diff([cpu_start] + cpu_stamps)),
                wall_latencies_s=list(np.diff([start] + stamps)))


# -- set-up -----------------------------------------------------------------------


def setup(sb, w: Workload, seed: int, ckpt: str):
    """What a user pays before the first frame or step: load, scenes, pairs."""
    model = sb.weights.load_weights(ckpt)
    suite = sb.scenes.make_suite(sb.scenes.SceneConfig(), w.n_train, w.n_eval, seed=seed)
    examples = None
    if w.kind == "train":
        cfg = model.config
        examples = sb.training.make_training_examples(
            suite.train, w.examples, cfg.template_size, cfg.search_size,
            np.random.default_rng(seed))
    return model, suite, examples


# -- tracking ---------------------------------------------------------------------


def _warm_track(sb, w, model, suite):
    seq = suite.train[0]
    n = w.warmup_frames
    short = sb.scenes.Sequence(seq.frames[:n], seq.gt[:n], seq.distractors[:n], seq.seed)
    sb.tracking.run_tracker(model, short)


def _boxes_ok(boxes, seq) -> bool:
    if len(boxes) != len(seq.frames):
        return False
    _, h, w = seq.frames[0].shape
    return all(0.0 <= b.x1 < b.x2 <= w and 0.0 <= b.y1 < b.y2 <= h
               and all(math.isfinite(v) for v in (b.x1, b.y1, b.x2, b.y2)) for b in boxes)


def track_loop(sb, model, sequences, seconds: float, tracer: Tracer | None = None) -> LoopResult:
    """Track eval sequences back to back until the window closes.

    A frame's latency is the CPU time since the previous prediction (for the
    first frame, since the loop started), so the template crop at each
    sequence start is paid by that sequence's first frame.  A sequence seen
    a second time must give the same boxes.
    """
    stamps: list[float] = []
    cpu_stamps: list[float] = []
    deadline = math.inf
    predict = sb.tracking.predict_box

    def predict_box(*args, **kwargs):
        box = predict(*args, **kwargs)
        cpu_stamps.append(time.process_time())
        now = time.perf_counter()
        stamps.append(now)
        if tracer is not None:
            tracer.item += 1
        if now >= deadline:
            raise Deadline
        return box

    undo = rebind(sb.modules, predict, predict_box)
    attempted = failed = 0
    errors: list[str] = []
    first_pass: dict[int, list] = {}
    try:
        cpu_start = time.process_time()
        start = time.perf_counter()
        deadline = start + seconds
        i = 0
        while time.perf_counter() < deadline:
            k = i % len(sequences)
            seq = sequences[k]
            i += 1
            before = len(stamps)
            try:
                boxes = sb.tracking.run_tracker(model, seq)
            except Deadline:
                attempted += len(stamps) - before
                break
            except Exception as exc:  # a frame the tracker never returned is a failed frame
                n = len(seq.frames) - 1
                attempted += n
                failed += n
                errors.append(f"sequence {k}: {type(exc).__name__}: {exc}")
                continue
            n = len(seq.frames) - 1
            attempted += n
            ok = _boxes_ok(boxes, seq) and len(stamps) - before == n
            if k in first_pass:
                ok = ok and boxes == first_pass[k]
            else:
                first_pass[k] = boxes
            if not ok:
                failed += n
                errors.append(f"sequence {k}: boxes out of frame, miscounted or not repeatable")
    finally:
        restore(undo)
    return LoopResult(items=len(stamps), attempted=attempted, failed=failed, per_item=1,
                      errors=errors, **_window(start, stamps, cpu_start, cpu_stamps))


# -- training ---------------------------------------------------------------------


def _train_config(sb, w, seed, steps):
    return sb.training.TrainConfig(batch=BATCH, steps=steps, seed=seed, probe_every=steps)


def train_loop(sb, w: Workload, model, examples, seed: int, seconds: float,
               tracer: Tracer | None = None) -> LoopResult:
    """Fine-tune in episodes of `w.episode_steps` steps until the window closes.

    Every episode starts from the loaded weights, so its loss curve is the
    same on every repeat; a mismatch fails the episode's steps.  A step's
    latency is the CPU time between consecutive step boundaries in one episode.
    """
    params = model.parameters()
    initial = [p.data.copy() for p in params]
    dataset, probe = examples[:-1], examples[-1:]
    tc = _train_config(sb, w, seed, w.episode_steps)
    stamps: list[float] = []
    cpu_stamps: list[float] = []
    norms: list[float] = []
    deadline = math.inf
    clip = sb.training.clip_global_norm

    def clip_global_norm(ps, max_norm):
        norm = clip(ps, max_norm)
        cpu_stamps.append(time.process_time())
        now = time.perf_counter()
        stamps.append(now)
        norms.append(norm)
        if tracer is not None:
            tracer.item += 1
        if now >= deadline:
            raise Deadline
        return norm

    undo = rebind(sb.modules, clip, clip_global_norm)
    lat: list[float] = []
    wall_lat: list[float] = []
    attempted = failed = 0
    errors: list[str] = []
    reference_curve = None
    try:
        cpu_start = time.process_time()
        start = time.perf_counter()
        deadline = start + seconds
        while time.perf_counter() < deadline:
            for p, a in zip(params, initial):
                p.data[...] = a
            first = len(stamps)
            curve = None
            try:
                curve = sb.training.train(model, dataset, tc, probe=probe).column("loss_total")
            except Deadline:
                pass
            except Exception as exc:  # the step that raised is a failed step
                attempted += 1
                failed += 1
                errors.append(f"step {len(stamps) - first}: {type(exc).__name__}: {exc}")
            attempted += len(stamps) - first
            lat += list(np.diff(cpu_stamps[first:]))
            wall_lat += list(np.diff(stamps[first:]))
            bad = {i for i, v in enumerate(norms[first:]) if not math.isfinite(v)}
            if curve is not None:
                bad |= {i for i, v in enumerate(curve) if not math.isfinite(v)}
                if reference_curve is None:
                    reference_curve = curve
                elif curve != reference_curve:
                    bad = set(range(len(curve)))
                    errors.append("episode loss curve differs from the first episode's")
            failed += len(bad)
    finally:
        restore(undo)
    loss_end = float(np.mean(reference_curve[-10:])) if reference_curve else None
    window = _window(start, stamps, cpu_start, cpu_stamps)
    window.update(latencies_s=lat, wall_latencies_s=wall_lat)
    return LoopResult(items=len(stamps), attempted=attempted, failed=failed, per_item=BATCH,
                      errors=errors, train_loss_end=loss_end, **window)


def _warm_train(sb, w, model, examples, seed):
    params = model.parameters()
    initial = [p.data.copy() for p in params]
    sb.training.train(model, examples[:-1], _train_config(sb, w, seed, 1), probe=examples[-1:])
    for p, a in zip(params, initial):
        p.data[...] = a


# -- one invocation ---------------------------------------------------------------


def _stage_map(cfg) -> dict:
    """AttnConfig -> 1-based stage index (the first stage wins on a tie)."""
    return {st.attn: i for i, st in reversed(list(enumerate(cfg.stages, 1)))}


def _timed_setups(sb, w, seed, out_dir, repeats, tracer=None):
    """Write the checkpoint, then set up `repeats` times; returns the last
    set-up and the CPU time each took."""
    ckpt = os.path.join(out_dir, f"ckpt-{w.name}-{seed}-{os.getpid()}.sbtw")
    sb.weights.save_weights(sb.model.build_model(sb.model.PRESETS[w.preset](), seed=seed), ckpt)
    times = []
    try:
        if tracer is not None:
            tracer.install()
        for _ in range(repeats):
            made = None  # free the previous set-up first
            t0 = time.process_time()
            made = setup(sb, w, seed, ckpt)
            times.append(time.process_time() - t0)
    finally:
        if tracer is not None:
            tracer.uninstall()
        os.remove(ckpt)
    return made, times


def _loop(sb, w, seed, seconds, made, tracer=None) -> LoopResult:
    model, suite, examples = made
    if w.kind == "track":
        return track_loop(sb, model, suite.eval, seconds, tracer)
    return train_loop(sb, w, model, examples, seed, seconds, tracer)


def _warm_up(sb, w, seed, made) -> None:
    model, suite, examples = made
    if w.kind == "track":
        _warm_track(sb, w, model, suite)
    else:
        _warm_train(sb, w, model, examples, seed)


def run(sb, workload: str, seed: int, seconds: float, trace: bool, out_dir: str):
    """Run one workload; returns (result line, info dict)."""
    w = WORKLOADS[workload]
    os.makedirs(out_dir, exist_ok=True)
    stages = _stage_map(sb.model.PRESETS[w.preset]())
    setup_tracer = Tracer(sb, stages) if trace else None
    made, setup_times = _timed_setups(sb, w, seed, out_dir, 1 if trace else SETUP_REPEATS,
                                      setup_tracer)
    _warm_up(sb, w, seed, made)

    if not trace:
        loops = [_loop(sb, w, seed, seconds, made)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        loops = [_loop(sb, w, seed, seconds / 2.0, made)]
        tracer = Tracer(sb, stages)
        tracer.install()
        t0 = time.perf_counter()
        try:
            loops.append(_loop(sb, w, seed, seconds / 2.0, made, tracer))
        finally:
            traced_wall = time.perf_counter() - t0
            tracer.uninstall()

    checks = gate.check(sb)
    gate_ok = all(c["ok"] for c in checks)
    attempted = sum(r.attempted for r in loops)
    # every output came from the code path that failed the gate
    failed = sum(r.failed for r in loops) if gate_ok else attempted
    attempted = max(attempted, 1)
    info = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "preset": w.preset, "loop": "closed, one caller",
        "items": [r.items for r in loops], "latency_samples": [len(r.latencies_s) for r in loops],
        "errors": [e for r in loops for e in r.errors][:10], "gate": checks,
    }
    if w.kind == "train":
        info["train_loss_end"] = loops[0].train_loss_end

    if not trace:
        r = loops[0]
        # with no completed frame or step, the whole window is the latency bound
        lat_ms = np.asarray(r.latencies_s or [r.cpu_s]) * 1e3
        wall_ms = np.asarray(r.wall_latencies_s or [r.elapsed_s]) * 1e3
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "throughput_per_cpu_s": (r.rate, "1/s"),
            "latency_cpu_ms_p50": (float(np.quantile(lat_ms, 0.5)), "ms"),
            "latency_cpu_ms_p90": (float(np.quantile(lat_ms, 0.9)), "ms"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "success_frac": (1.0 - failed / attempted, "frac"),
        }
        info["setup_s_all"] = setup_times
        info["wall"] = {"throughput_per_s": r.wall_rate, "cpu_share": r.cpu_s / r.elapsed_s,
                        "latency_ms_p50": float(np.quantile(wall_ms, 0.5)),
                        "latency_ms_p90": float(np.quantile(wall_ms, 0.9))}
    else:
        untraced, traced = loops
        metrics, info["span_coverage_violations"] = layers.per_layer(
            sb.engine, w.kind, setup_tracer, tracer, untraced.rate, traced.rate, traced.items,
            traced_wall)
        spans_path = os.path.join(out_dir, f"spans-{workload}-{seed}.csv.gz")
        write_spans(spans_path, {"setup": setup_tracer, "loop": tracer})
        info["spans_file"] = os.path.relpath(spans_path, os.path.dirname(out_dir))

    result = {
        "correct": failed == 0 and gate_ok,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, info
