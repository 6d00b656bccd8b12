"""Synthetic scenes: determinism, suite splits and the disk formats."""

import numpy as np
import pytest

from sbtrack import scenes

SHORT = scenes.SceneConfig(length=4, distractors=2)


def assert_boxes_close(got, want, atol):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose([g.x1, g.y1, g.x2, g.y2], [w.x1, w.y1, w.x2, w.y2],
                                   rtol=0, atol=atol)


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

    def test_frames_and_boxes_align(self):
        seq = scenes.generate_sequence(SHORT, 3)
        assert len(seq.frames) == len(seq.gt) == len(seq.distractors) == SHORT.length
        assert all(len(d) == SHORT.distractors for d in seq.distractors)
        frame = seq.frames[0]
        assert frame.shape == (3, 128, 128) and frame.dtype == np.float32
        assert 0.0 <= frame.min() and frame.max() <= 1.0


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
        scenes._push_apart(distractor, target, min_gap=2.0)
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
    def test_ppm_round_trip(self, tmp_path):
        img = np.random.default_rng(0).random((3, 9, 13), dtype=np.float32)
        scenes.write_ppm(img, tmp_path / "a.ppm")
        back = scenes.read_ppm(tmp_path / "a.ppm")
        assert back.shape == img.shape and back.dtype == np.float32
        np.testing.assert_allclose(back, img, rtol=0, atol=1 / 255)

    @pytest.mark.parametrize("maxval", [65535, 256, 0])
    def test_ppm_maxval_outside_one_byte_raises(self, tmp_path, maxval):
        path = tmp_path / "wide.ppm"
        path.write_bytes(f"P6\n5 4\n{maxval}\n".encode("ascii") + bytes(5 * 4 * 3 * 2))
        with pytest.raises(ValueError, match=f"wide.ppm.*maxval {maxval}"):
            scenes.read_ppm(path)

    def test_ppm_short_pixel_data_raises(self, tmp_path):
        path = tmp_path / "short.ppm"
        path.write_bytes(b"P6\n5 4\n255\n" + bytes(5 * 4 * 3 - 1))
        with pytest.raises(ValueError, match="short.ppm: 59 bytes"):
            scenes.read_ppm(path)

    def test_sequence_round_trip(self, tmp_path):
        seq = scenes.generate_sequence(SHORT, 2)
        scenes.write_sequence(seq, tmp_path / "seq")
        back = scenes.read_sequence(tmp_path / "seq")
        assert len(back.frames) == len(seq.frames)
        for a, b in zip(back.frames, seq.frames):
            np.testing.assert_allclose(a, b, rtol=0, atol=1 / 255)
        # x, y, w, h are written to 2 decimals, so a far edge x + w may be off by 0.01
        tol = 0.01 + 1e-9
        assert_boxes_close(back.gt, seq.gt, tol)
        assert len(back.distractors) == len(seq.distractors)
        for got, want in zip(back.distractors, seq.distractors):
            assert_boxes_close(got, want, tol)

    def test_frames_of_differing_sizes_raise(self, tmp_path):
        rng = np.random.default_rng(0)
        scenes.write_ppm(rng.random((3, 8, 8)), tmp_path / "000000.ppm")
        scenes.write_ppm(rng.random((3, 5, 6)), tmp_path / "000001.ppm")
        (tmp_path / "groundtruth.txt").write_text("1,1,2,2\n1,1,2,2\n")
        with pytest.raises(ValueError, match=r"000001\.ppm: frame is 6x5, but 000000\.ppm is 8x8"):
            scenes.read_sequence(tmp_path)

    @pytest.mark.parametrize("bad, why", [
        ("1,2,3", "expected 4 finite numbers, got 3"),
        ("1,2,3,4,5", "got 5"),
        ("1,2,x,4", "could not convert"),
        ("1,2,nan,4", "expected 4 finite numbers"),
        ("1,2,0,4", "degenerate box"),
        ("1,2,-3,4", "degenerate box"),
    ])
    def test_bad_groundtruth_line_names_file_and_line(self, tmp_path, bad, why):
        seq = scenes.generate_sequence(SHORT, 2)
        scenes.write_sequence(seq, tmp_path)
        lines = (tmp_path / "groundtruth.txt").read_text().splitlines()
        lines[2] = bad
        (tmp_path / "groundtruth.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"groundtruth\.txt:3: bad box .*{why}"):
            scenes.read_sequence(tmp_path)

    @pytest.mark.parametrize("bad, why", [("1,2,3", "got 3"), ("1,2,0,4", "degenerate box")])
    def test_bad_distractor_cell_names_file_and_line(self, tmp_path, bad, why):
        seq = scenes.generate_sequence(SHORT, 2)
        scenes.write_sequence(seq, tmp_path)
        lines = (tmp_path / "distractors.txt").read_text().splitlines()
        lines[1] = lines[1].split(";")[0] + ";" + bad
        (tmp_path / "distractors.txt").write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError, match=rf"distractors\.txt:2: bad box .*{why}"):
            scenes.read_sequence(tmp_path)
