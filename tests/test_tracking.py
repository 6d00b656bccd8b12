"""Crop geometry, box decoding and the frame-by-frame tracker."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sbtrack import engine as eg
from sbtrack import model as md
from sbtrack import scenes
from sbtrack import tracking as tk
from sbtrack.boxes import Box
from sbtrack.training import assign_targets


def four_tap_bilinear(frame, ys, xs, fill):
    """Bilinear sampling written tap by tap: each of the four neighbours is a
    2-d gather, and a neighbour outside the frame reads the fill value."""
    h, w = frame.shape[1:]
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    wy = ys - y0
    wx = xs - x0
    out = np.zeros((frame.shape[0], ys.size, xs.size))
    for dy, wys in ((0, 1 - wy), (1, wy)):
        yi = y0 + dy
        vy = (yi >= 0) & (yi < h)
        yc = np.clip(yi, 0, h - 1)
        for dx, wxs in ((0, 1 - wx), (1, wx)):
            xi = x0 + dx
            vx = (xi >= 0) & (xi < w)
            xc = np.clip(xi, 0, w - 1)
            patch = frame[:, yc[:, None], xc[None, :]]
            patch = np.where((vy[:, None] & vx[None, :])[None], patch, fill[:, None, None])
            out += wys[:, None] * wxs[None, :] * patch
    return out


def boxes():
    return st.builds(lambda x, y, w, h: Box(x, y, x + w, y + h),
                     st.floats(-50, 150), st.floats(-50, 150), st.floats(2, 80), st.floats(2, 80))


class TestCrop:
    # boxes centred inside, off each edge and off each corner of a 64x48 frame,
    # and wholly outside it on either side
    @pytest.mark.parametrize("cx, cy", [(32, 24), (2, 24), (62, 24), (32, 1), (32, 47),
                                        (0, 0), (63, 0), (0, 47), (63, 47), (-30, 80),
                                        (-30, 24), (100, 24)])
    @pytest.mark.parametrize("factor, out_size", [(2.0, 16), (4.0, 32), (0.5, 20)])
    def test_matches_four_tap_formula(self, cx, cy, factor, out_size):
        rng = np.random.default_rng(3)
        frame = rng.random((3, 48, 64), dtype=np.float32)
        box = Box(cx - 6.3, cy - 4.1, cx + 6.3, cy + 4.1)
        got, meta = tk.crop_region(frame, box, factor, out_size)
        side = factor * np.sqrt(box.w * box.h)
        ys = tk._axis_samples(box.cy, side, out_size)
        xs = tk._axis_samples(box.cx, side, out_size)
        want = four_tap_bilinear(frame.astype(np.float64), ys, xs, frame.mean(axis=(1, 2)))
        assert got.shape == (3, out_size, out_size) and got.dtype == np.float32
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-5)
        assert (meta.frame_h, meta.frame_w) == (48, 64)

    def test_non_finite_pixel_reaches_only_the_samples_that_read_it(self):
        frame = np.random.default_rng(4).random((3, 48, 64), dtype=np.float32)
        frame[1, 40, 5] = np.nan
        # a crop well inside the frame: no tap reads (40, 5) and none falls outside
        inner, _ = tk.crop_region(frame, Box(24, 12, 40, 28), 1.0, 16)
        assert np.isfinite(inner).all()
        # a crop around the pixel: only channel 1, only the samples next to it
        near, _ = tk.crop_region(frame, Box(1, 36, 9, 44), 1.0, 8)
        bad = ~np.isfinite(near)
        assert bad[1].any() and not bad[[0, 2]].any() and bad[1].sum() <= 4

    @pytest.mark.parametrize("factor, out_size, field", [
        (float("nan"), 16, "factor"), (float("inf"), 16, "factor"), (0.0, 16, "factor"),
        (-2.0, 16, "factor"), (True, 16, "factor"), ("2", 16, "factor"), (None, 16, "factor"),
        (2.0, 0, "out_size"), (2.0, 2.5, "out_size"), (2.0, True, "out_size")])
    def test_bad_factor_or_size_rejected(self, factor, out_size, field):
        frame = np.zeros((3, 48, 64), dtype=np.float32)
        with pytest.raises(ValueError, match=f"{field} must be"):
            tk.crop_region(frame, Box(10, 10, 20, 20), factor, out_size)

    @pytest.mark.parametrize("shape", [(48, 64), (1, 3, 48, 64), (3, 0, 64), (3, 48, 0)])
    def test_frame_of_another_layout_rejected(self, shape):
        with pytest.raises(eg.ShapeError, match=r"frame must be \[c, h, w\]"):
            tk.crop_region(np.zeros(shape, dtype=np.float32), Box(10, 10, 20, 20), 2.0, 16)

    @settings(max_examples=60, deadline=None)
    @given(boxes(), boxes(), st.sampled_from([16, 64, 128]))
    def test_to_frame_inverts_to_crop(self, ref, b, out_size):
        meta = tk.CropMeta(cx=ref.cx, cy=ref.cy, side=4.0 * np.sqrt(ref.w * ref.h),
                           out_size=out_size, frame_h=128, frame_w=128)
        c = meta.to_crop(b)
        back = meta.to_frame(c.x1, c.y1, c.x2, c.y2)
        np.testing.assert_allclose(back, [b.x1, b.y1, b.x2, b.y2], rtol=0, atol=1e-9)


class TestPredictBox:
    meta = tk.CropMeta.identity(64)
    previous = Box(10.0, 12.0, 30.0, 28.0)

    @staticmethod
    def maps():
        cls = np.zeros((1, 8, 8), dtype=np.float32)
        cls[0, 3, 5] = 1.0
        reg = np.full((4, 8, 8), 0.25, dtype=np.float32)
        return cls, reg

    def test_decodes_the_peak(self):
        cls, reg = self.maps()
        b = tk.predict_box(cls, reg, self.meta, previous=self.previous)
        # cell (3, 5) of 8 is centred at (44, 28) in a 64 crop; 0.25 half-crops is 8 px
        assert (b.x1, b.y1, b.x2, b.y2) == (36.0, 20.0, 52.0, 36.0)

    @pytest.mark.parametrize("dists", [(0.0, 0.0, 0.0, 0.0), (1e-9, 0.0, 0.0, 0.0)])
    @pytest.mark.parametrize("previous", [None, previous])
    def test_zero_distances_give_a_box_of_at_least_1_px(self, dists, previous):
        cls, reg = self.maps()
        reg[:, 3, 5] = dists
        b = tk.predict_box(cls, reg, self.meta, previous=previous)
        assert b.w >= 1.0 and b.h >= 1.0
        assert 0.0 <= b.x1 and 0.0 <= b.y1 and b.x2 <= 64.0 and b.y2 <= 64.0
        assert (b.x1, b.y1) == pytest.approx((44.0, 28.0))  # the peak cell's centre

    @pytest.mark.parametrize("which", ["reg_at_peak", "cls_all", "cls_one"])
    def test_non_finite_output_keeps_previous_box(self, which):
        cls, reg = self.maps()
        if which == "reg_at_peak":
            reg[2, 3, 5] = np.nan
        elif which == "cls_all":
            cls[:] = np.nan
        else:
            cls[0, 7, 7] = np.inf
        assert tk.predict_box(cls, reg, self.meta, previous=self.previous) == self.previous
        with pytest.raises(ValueError, match="non-finite network output"):
            tk.predict_box(cls, reg, self.meta)

    @pytest.mark.parametrize("shape", [(4, 16, 16), (4, 2, 2), (3, 8, 8)])
    @pytest.mark.parametrize("finite", [True, False])
    def test_regression_map_of_another_grid_rejected(self, shape, finite):
        cls, _ = self.maps()
        if not finite:
            cls[0, 7, 7] = np.nan
        reg = np.full(shape, 0.25, dtype=np.float32)
        with pytest.raises(eg.ShapeError, match="regression map"):
            tk.predict_box(cls, reg, self.meta, previous=self.previous)

    @pytest.mark.parametrize("shape", [(4, 8, 8), (2, 8, 8), (64,), (1, 1, 8, 8)])
    def test_foreground_map_of_another_layout_rejected(self, shape):
        """Only an [hs, ws] or [1, hs, ws] map is a foreground map: channel 0
        of a multi-channel map is not decoded."""
        _, reg = self.maps()
        cls = np.zeros(shape, dtype=np.float32)
        with pytest.raises(eg.ShapeError, match="foreground map"):
            tk.predict_box(cls, reg, self.meta, previous=self.previous)

    def test_non_finite_reg_off_the_peak_is_ignored(self):
        cls, reg = self.maps()
        reg[:, 0, 0] = np.nan
        assert tk.predict_box(cls, reg, self.meta) == tk.predict_box(*self.maps(), self.meta)

    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from([(64, 8), (64, 16), (128, 16)]),
           st.floats(0, 1), st.floats(0, 1), st.floats(0, 1), st.floats(0, 1),
           st.floats(0, 1), st.floats(0, 1))
    def test_decodes_assign_targets_maps(self, geometry, fi, fj, fx1, fy1, fx2, fy2):
        """A box in an identity crop around at least one cell centre comes back
        within 1 px from the perfect maps that assign_targets makes for it."""
        size, cells = geometry
        cell = size / cells
        # a cell centre, and a box whose edges lie on either side of it
        cx = (min(int(fj * cells), cells - 1) + 0.5) * cell
        cy = (min(int(fi * cells), cells - 1) + 0.5) * cell
        x1, y1 = fx1 * cx, fy1 * cy
        x2, y2 = cx + fx2 * (size - cx), cy + fy2 * (size - cy)
        assume(x1 < x2 and y1 < y2)
        box = Box(x1, y1, x2, y2)
        target = assign_targets(box, (cells, cells), size)
        assert int(target.labels.sum()) > 0
        got = tk.predict_box(target.labels, target.reg, tk.CropMeta.identity(size))
        np.testing.assert_allclose([got.x1, got.y1, got.x2, got.y2], [x1, y1, x2, y2],
                                   rtol=0, atol=1.0)


@pytest.fixture(scope="module")
def short_sequence():
    return scenes.generate_sequence(scenes.SceneConfig(length=5), 11)


class TestRunTracker:
    def test_repeatable(self, short_sequence):
        m = md.build_model(md.tiny_config(), seed=1)
        first = tk.run_tracker(m, short_sequence)
        assert len(first) == len(short_sequence.frames)
        assert tk.run_tracker(m, short_sequence) == first

    def test_perfect_maps_score_ao_one(self, monkeypatch):
        """On a static scene without distractors, the maps that assign_targets
        makes for the target centred in every search crop track it exactly."""
        cfg = scenes.SceneConfig(distractors=0, speed=(0.0, 0.0), motion_sigma=0.0)
        seq = scenes.generate_sequence(cfg, 3)
        m = md.build_model(md.tiny_config(), seed=1)
        _, meta = tk.crop_region(seq.frames[0], seq.gt[0], 4.0, m.config.search_size)
        target = assign_targets(meta.to_crop(seq.gt[0]), m.config.search_grid(),
                                float(m.config.search_size))
        perfect = (eg.tensor(target.labels[None]), eg.tensor(target.reg))
        monkeypatch.setattr(md, "forward", lambda model, z, x: perfect)
        boxes = tk.run_tracker(m, seq)
        metrics = tk.compute_metrics(boxes[1:], seq.gt[1:])
        assert metrics.ao > 0.999 and metrics.sr75 == 1.0

    def test_non_finite_network_keeps_previous_box(self, short_sequence):
        m = md.build_model(md.tiny_config(), seed=1)
        m.params["head.cls.out_bias"].data[:] = np.nan
        boxes = tk.run_tracker(m, short_sequence)
        assert boxes == [short_sequence.gt[0]] * len(short_sequence.frames)

    def test_evaluate_sequences_scores_tracked_frames(self, short_sequence):
        m = md.build_model(md.tiny_config(), seed=1)
        seqs = [short_sequence, scenes.generate_sequence(scenes.SceneConfig(length=4), 12)]
        want = [tk.compute_metrics(tk.run_tracker(m, s)[1:], s.gt[1:]) for s in seqs]
        assert tk.evaluate_sequences(m, seqs) == want


def uncached_tracker(model, seq):
    """run_tracker's loop with the template image passed to every forward."""
    cfg = model.config
    template, _ = tk.crop_region(seq.frames[0], seq.gt[0], 2.0, cfg.template_size)
    boxes, maps = [seq.gt[0]], []
    with eg.no_grad():
        for frame in seq.frames[1:]:
            search, meta = tk.crop_region(frame, boxes[-1], 4.0, cfg.search_size)
            cls, reg = md.forward(model, template, search)
            boxes.append(tk.predict_box(cls, reg, meta, previous=boxes[-1]))
            maps.append(cls.data[0].copy())
    return boxes, maps


class TestTemplateCache:
    @pytest.mark.parametrize("cfg", [md.tiny_config(), md.tiny_config(pad_mode="circular"),
                                     md.tiny_config(head_input="dwcorr"),
                                     md.without_cross_attention(md.tiny_config())],
                             ids=["zeros", "circular", "dwcorr", "no_ca"])
    def test_bit_equal_to_forward_with_the_template_image(self, short_sequence, cfg, monkeypatch):
        m = md.build_model(cfg, seed=1)
        want_boxes, want_maps = uncached_tracker(m, short_sequence)
        maps = []  # the foreground map of every tracked frame, as it reaches predict_box
        predict = tk.predict_box
        monkeypatch.setattr(tk, "predict_box", lambda cls, *a, **k: maps.append(cls.data[0].copy())
                            or predict(cls, *a, **k))
        boxes = tk.run_tracker(m, short_sequence)
        assert boxes == want_boxes
        assert len(maps) == len(want_maps)
        assert all(np.array_equal(a, b) for a, b in zip(maps, want_maps))
