"""Synthetic scenes: determinism, the stored form, frames rendered on read,
suite splits and score-map images."""

import hashlib
import tracemalloc

import numpy as np
import pytest

from sbtrack import scenes
from sbtrack.boxes import Box
from sbtrack.engine import ShapeError

SHORT = scenes.SceneConfig(length=4, distractors=2)


class TestGenerate:
    def test_deterministic_per_seed(self):
        a = scenes.generate_sequence(SHORT, 5)
        b = scenes.generate_sequence(SHORT, 5)
        assert all(np.array_equal(fa, fb) for fa, fb in zip(a.frames, b.frames))
        assert a.gt == b.gt and a.distractors == b.distractors and a.seed == b.seed == 5

    def test_seeds_differ(self):
        a = scenes.generate_sequence(SHORT, 5)
        b = scenes.generate_sequence(SHORT, 6)
        assert a.gt != b.gt and not np.array_equal(a.frames[0], b.frames[0])

    @pytest.mark.parametrize("seed, digest", [
        (0, "e8fd3f71feaec83266378b962a534b6c62e68ef1ed3a67a75f8e98e2e58b18a6"),
        (10_000, "b479d362b60dc6382e62952e81630b1807d6f75c80ae957937004f66a36aabdd"),
    ])
    def test_stored_form_is_config_and_seed(self, seed, digest):
        """A (SceneConfig, seed) pair is the stored form of a sequence, so the
        generator must rebuild it bit for bit: SHA-256 over each frame's
        float32 bytes and its gt and distractor corners as float64."""
        seq = scenes.generate_sequence(scenes.SceneConfig(), seed)
        h = hashlib.sha256()
        for frame, gt, others in zip(seq.frames, seq.gt, seq.distractors):
            h.update(frame.astype("<f4").tobytes())
            h.update(np.array([(b.x1, b.y1, b.x2, b.y2) for b in [gt, *others]], "<f8").tobytes())
        assert h.hexdigest() == digest

    def test_frames_and_boxes_align(self):
        seq = scenes.generate_sequence(SHORT, 3)
        assert len(seq.frames) == len(seq.gt) == len(seq.distractors) == SHORT.length
        assert all(len(d) == SHORT.distractors for d in seq.distractors)
        frame = seq.frames[0]
        assert frame.shape == (3, 128, 128) and frame.dtype == np.float32
        assert 0.0 <= frame.min() and frame.max() <= 1.0


def eager_frames(cfg, seed):
    """Every frame of `generate_sequence(cfg, seed)`, painted eagerly as the
    reference: inside the motion loop, each frame a copy of the background
    with the distractors and then the target on top, each actor at the
    rounded top-left corner of its current position."""

    def paint(frame, actor):
        h, w = actor.size
        x0 = int(round(actor.pos[0] - w / 2))
        y0 = int(round(actor.pos[1] - h / 2))
        size = frame.shape[1]
        xs0, ys0 = max(x0, 0), max(y0, 0)
        xs1, ys1 = min(x0 + w, size), min(y0 + h, size)
        if xs1 <= xs0 or ys1 <= ys0:
            return
        sub = actor.mask[ys0 - y0 : ys1 - y0, xs0 - x0 : xs1 - x0]
        tex = actor.texture[:, ys0 - y0 : ys1 - y0, xs0 - x0 : xs1 - x0]
        region = frame[:, ys0:ys1, xs0:xs1]
        frame[:, ys0:ys1, xs0:xs1] = np.where(sub[None], tex, region)

    rng = np.random.default_rng(seed)
    background = scenes._background(rng, cfg.frame_size)
    target = scenes._spawn(rng, cfg, shape=str(rng.choice(scenes._SHAPES)))
    distractors = []
    for _ in range(cfg.distractors):
        if cfg.similarity == "hard":
            shape = target.shape
        else:
            shape = str(rng.choice([s for s in scenes._SHAPES if s != target.shape]))
        distractors.append(scenes._spawn(rng, cfg, shape=shape))
    frames = []
    for t in range(cfg.length):
        if t > 0:
            scenes._advance(target, rng, cfg)
            for d in distractors:
                scenes._advance(d, rng, cfg)
        for d in distractors:
            scenes._push_apart(d, target)
        frame = background.copy()
        for d in distractors:
            paint(frame, d)
        paint(frame, target)
        frames.append(frame)
    return frames


# 40 px frames with 16-20 px actors: pushes leave distractors partly outside
CLIPPED = scenes.SceneConfig(frame_size=40, target_size=(16, 20), distractors=3, length=8)


class TestFramesOnRead:
    @pytest.mark.parametrize("cfg", [
        scenes.SceneConfig(distractors=0), scenes.SceneConfig(distractors=3),
        scenes.SceneConfig(similarity="easy"), CLIPPED,
    ], ids=["distractors0", "distractors3", "easy", "clipped"])
    @pytest.mark.parametrize("seed", [0, 1, 2, 10_000])
    def test_every_frame_equals_the_eager_render(self, cfg, seed):
        seq = scenes.generate_sequence(cfg, seed)
        want = eager_frames(cfg, seed)
        assert len(seq.frames) == len(want) == cfg.length
        for got, ref in zip(seq.frames, want):
            assert got.dtype == ref.dtype and got.shape == ref.shape
            assert got.tobytes() == ref.tobytes()

    def test_clipped_config_pushes_distractors_out_of_the_frame(self):
        n = CLIPPED.frame_size
        seq = scenes.generate_sequence(CLIPPED, 0)
        assert any(b.x1 < 0 or b.y1 < 0 or b.x2 > n or b.y2 > n for ds in seq.distractors for b in ds)

    @pytest.mark.parametrize("seed", [0, 10_000])
    def test_a_sequence_retains_less_than_four_frames(self, seed):
        cfg = scenes.SceneConfig()
        frame_bytes = 3 * cfg.frame_size**2 * np.dtype(np.float32).itemsize
        tracemalloc.start()
        try:
            seq = scenes.generate_sequence(cfg, seed)
            retained, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(seq.frames) == cfg.length
        assert retained < 4 * frame_bytes

    def test_writing_a_read_frame_leaves_the_next_read_unchanged(self):
        seq = scenes.generate_sequence(SHORT, 7)
        want = eager_frames(SHORT, 7)
        for t in range(SHORT.length):
            frame = seq.frames[t]
            assert frame.flags.writeable
            frame[...] = -1.0
            np.testing.assert_array_equal(seq.frames[t], want[t])
        for frame in seq.frames[1:3]:
            frame += 5.0
        assert all(np.array_equal(f, w) for f, w in zip(seq.frames, want))

    @pytest.mark.parametrize("index", [
        slice(1, None), slice(None, 2), slice(None, None, -1), slice(-3, -1), slice(0, 4, 2),
        slice(2, 2), slice(5, 9),
    ])
    def test_slices_match_the_eager_frames(self, index):
        seq = scenes.generate_sequence(SHORT, 7)
        want = eager_frames(SHORT, 7)[index]
        got = seq.frames[index]
        assert len(got) == len(want)
        assert all(np.array_equal(f, w) for f, w in zip(got, want))
        assert all(np.array_equal(got[i], want[i]) for i in range(-len(want), len(want)))

    def test_negative_indices_and_the_end(self):
        seq = scenes.generate_sequence(SHORT, 7)
        want = eager_frames(SHORT, 7)
        for t in range(1, SHORT.length + 1):
            np.testing.assert_array_equal(seq.frames[-t], want[-t])
        for t in (SHORT.length, -SHORT.length - 1):
            with pytest.raises(IndexError):
                seq.frames[t]
        with pytest.raises(IndexError):
            seq.frames[1:][SHORT.length - 1]

    def test_a_sequence_of_given_frames_keeps_them(self):
        frames = [np.full((3, 8, 8), v, dtype=np.float32) for v in (0.25, 0.5)]
        gt = [Box(1, 1, 4, 4)] * 2
        seq = scenes.Sequence(frames, gt, [[], []])
        assert seq.frames is frames


def meets(a, b):
    return min(a.x2, b.x2) > max(a.x1, b.x1) and min(a.y2, b.y2) > max(a.y1, b.y1)


class TestSceneConfig:
    @pytest.mark.parametrize("kw, field", [
        (dict(length=0), "length"),
        (dict(target_size=(30, 18)), "target_size"),
        (dict(target_size=(0, 18)), "target_size"),
        (dict(frame_size=16), "frame_size"),
        (dict(frame_size=37), "frame_size"),  # 30 px target + 2 * 4 px margin needs 38
        (dict(speed=(2.0, 0.5)), "speed"),
        (dict(speed=(-1.0, 1.0)), "speed"),
        (dict(motion_sigma=-0.1), "motion_sigma"),
        (dict(motion_sigma=float("nan")), "motion_sigma"),
        (dict(motion_sigma=float("inf")), "motion_sigma"),
        (dict(speed=(0.5, float("inf"))), "speed"),
        (dict(length=2.5), "length"),
        (dict(target_size=(18.5, 30)), "target_size"),
        (dict(frame_size=128.0), "frame_size"),
        (dict(distractors=True), "distractors"),
        (dict(target_size=(18, 20, 30)), "target_size"),
        (dict(target_size=[18, 30]), "target_size"),
        (dict(speed=[1.0, 2.0]), "speed"),
        (dict(speed=1.0), "speed"),
        (dict(speed=(0.5, "2")), "speed"),
        (dict(motion_sigma="1"), "motion_sigma"),
    ])
    def test_unrunnable_config_raises(self, kw, field):
        with pytest.raises(ValueError, match=field):
            scenes.SceneConfig(**kw)

    def test_tightest_runnable_config_generates(self):
        cfg = scenes.SceneConfig(frame_size=38, length=2, target_size=(30, 30), speed=(0.0, 0.0),
                                 motion_sigma=0.0, distractors=0)
        seq = scenes.generate_sequence(cfg, 0)
        assert len(seq.frames) == 2 and seq.frames[0].shape == (3, 38, 38)


class TestPushApart:
    @pytest.mark.parametrize("axis", [0, 1])
    @pytest.mark.parametrize("side", [1, -1])
    def test_clears_a_target_the_distractor_spans(self, axis, side):
        """The distractor (30 px) spans the target (10 px) along the axis it is pushed on."""

        def actor(along, across, offset):
            size = (across, along) if axis == 0 else (along, across)  # mask is [h, w]
            pos = np.array([50.0, 50.0])
            pos[axis] += offset
            return scenes._Actor("rectangle", np.zeros((3, *size), np.float32), np.ones(size, bool),
                                 pos, np.zeros(2))

        target, distractor = actor(10, 30, 0.0), actor(30, 30, 2.0 * side)
        scenes._push_apart(distractor, target)
        tb, db = target.box(), distractor.box()
        lo, hi = ("x1", "x2") if axis == 0 else ("y1", "y2")
        gap = getattr(db, lo) - getattr(tb, hi) if side > 0 else getattr(tb, lo) - getattr(db, hi)
        assert not meets(tb, db)
        assert gap == pytest.approx(2.0)

    @pytest.mark.parametrize("seed", [48, 139])
    def test_no_frame_puts_a_distractor_on_the_target(self, seed):
        seq = scenes.generate_sequence(scenes.SceneConfig(), seed)
        assert not [t for t, (gt, ds) in enumerate(zip(seq.gt, seq.distractors))
                    if any(meets(gt, d) for d in ds)]


class TestSuite:
    def test_train_and_eval_share_no_seed(self):
        cfg = scenes.SceneConfig(length=1)
        for seed in (0, 7, 9_999):
            suite = scenes.make_suite(cfg, 4, 4, seed=seed)
            train = {s.seed for s in suite.train}
            evals = {s.seed for s in suite.eval}
            assert len(train) == len(evals) == 4
            assert not train & evals


    def test_train_split_past_the_eval_seeds_raises(self, monkeypatch):
        monkeypatch.setattr(scenes, "generate_sequence", lambda cfg, seed: seed)
        suite = scenes.make_suite(scenes.SceneConfig(), 10_000, 3, seed=0)
        assert max(suite.train) < min(suite.eval)
        with pytest.raises(ValueError, match="n_train"):
            scenes.make_suite(scenes.SceneConfig(), 10_001, 3, seed=0)


class TestDiskFormats:
    def test_pgm_rescales_finite_pixels_and_zeroes_the_rest(self, tmp_path):
        img = np.array([[0.0, 1.0, np.nan], [0.5, np.inf, -np.inf]])
        scenes.write_pgm(img, tmp_path / "m.pgm")
        header = b"P5\n3 2\n255\n"
        data = (tmp_path / "m.pgm").read_bytes()
        assert data[: len(header)] == header
        np.testing.assert_array_equal(np.frombuffer(data[len(header):], dtype=np.uint8),
                                      [0, 255, 0, 128, 0, 0])

    @pytest.mark.parametrize("shape", [(1, 4, 5), (5,), ()])
    def test_pgm_needs_a_2d_image(self, tmp_path, shape):
        with pytest.raises(ShapeError, match="2-d image"):
            scenes.write_pgm(np.zeros(shape), tmp_path / "m.pgm")
        assert not (tmp_path / "m.pgm").exists()
