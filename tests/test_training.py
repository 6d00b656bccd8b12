"""Loss, target-assignment, optimizer, and training-loop tests."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbtrack import engine as eg
from sbtrack import model as md
from sbtrack import training as tr
from sbtrack.boxes import Box, intersection_area, iou

from oracle_helpers import bce_loops, grad_check


@pytest.fixture
def rng():
    return np.random.default_rng(21)


def giou(a: Box, b: Box) -> float:
    """Generalized overlap in [-1, 1]: IoU minus the enclosing-box slack; the
    scalar reference for the box loss."""
    inter = intersection_area(a, b)
    union = a.area + b.area - inter
    enclose = (max(a.x2, b.x2) - min(a.x1, b.x1)) * (max(a.y2, b.y2) - min(a.y1, b.y1))
    return inter / union - (enclose - union) / enclose


boxes_strategy = st.builds(
    lambda x, y, w, h: Box(x, y, x + w, y + h),
    st.floats(-50, 50), st.floats(-50, 50), st.floats(0.5, 60), st.floats(0.5, 60),
)


class TestGiou:
    def test_identical_boxes(self):
        b = Box(1, 2, 5, 9)
        assert giou(b, b) == 1.0
        assert iou(b, b) == 1.0

    def test_touching_unit_boxes(self):
        # zero overlap, enclosing box exactly covers the union
        assert giou(Box(0, 0, 1, 1), Box(1, 0, 2, 1)) == 0.0

    def test_hand_computed_iou(self):
        assert iou(Box(0, 0, 2, 2), Box(1, 0, 3, 2)) == pytest.approx(1 / 3)

    @settings(max_examples=60, deadline=None)
    @given(boxes_strategy, boxes_strategy)
    def test_symmetric_and_bounded(self, a, b):
        g1, g2 = giou(a, b), giou(b, a)
        assert abs(g1 - g2) < 1e-9
        assert -1.0 - 1e-9 <= g1 <= 1.0 + 1e-9

    def test_degenerate_box_rejected(self):
        for corners in ((3, 0, 3, 1), (0, 0, math.inf, 10), (-math.inf, 0, 5, 10), (0, 0, 5, math.nan)):
            with pytest.raises(ValueError, match="degenerate box"):
                Box(*corners)


class TestAssignTargets:
    def test_full_cover_all_positive(self):
        tm = tr.assign_targets(Box(0, 0, 64, 64), (8, 8), 64.0)
        assert int(tm.labels.sum()) == 64
        assert int(tm.labels.sum()) != 0

    def test_subcell_box_center_rule(self):
        # 4x4 grid over a 64 px crop: centers at 8, 24, 40, 56
        tm = tr.assign_targets(Box(20, 20, 30, 30), (4, 4), 64.0)
        assert int(tm.labels.sum()) == 1
        assert tm.labels[1, 1] == 1
        tm0 = tr.assign_targets(Box(10, 10, 20, 20), (4, 4), 64.0)
        assert int(tm0.labels.sum()) == 0

    def test_reg_targets_recover_extents(self, rng):
        crop = 128.0
        b = Box(30.0, 40.0, 80.0, 100.0)
        tm = tr.assign_targets(b, (16, 16), crop)
        half = crop / 2
        l, t, r, bo = tm.reg
        np.testing.assert_allclose((l + r)[tm.labels == 1] * half, b.w, atol=1e-4)
        np.testing.assert_allclose((t + bo)[tm.labels == 1] * half, b.h, atol=1e-4)

    def test_outside_crop_flagged(self):
        tm = tr.assign_targets(Box(200, 200, 230, 230), (8, 8), 64.0)
        assert int(tm.labels.sum()) == 0


class TestClsLoss:
    def test_perfect_prediction_near_zero(self):
        y = np.array([[1.0, 0.0], [0.0, 1.0]], dtype=np.float32)
        loss = tr.cls_loss(eg.tensor(y), y)
        assert 0 <= loss.item() < 1e-6

    def test_half_probability_is_ln2(self):
        p = eg.tensor(np.full((5, 5), 0.5, dtype=np.float64), dtype=np.float64)
        y = np.zeros((5, 5))
        assert abs(tr.cls_loss(p, y).item() - math.log(2)) < 1e-6

    def test_against_direct_summation(self, rng):
        p = rng.uniform(0.01, 0.99, size=(6, 6))
        y = (rng.random((6, 6)) < 0.3).astype(np.float64)
        got = tr.cls_loss(eg.tensor(p, dtype=np.float64), y).item()
        assert abs(got - bce_loops(p, y)) < 1e-6

    def test_nonnegative(self, rng):
        p = rng.uniform(0, 1, size=(4, 4))
        y = (rng.random((4, 4)) < 0.5).astype(np.float32)
        assert tr.cls_loss(eg.tensor(p), y).item() >= 0


class TestRegLoss:
    def _setup(self, rng, grid=(6, 6)):
        gt = Box(30, 25, 90, 80)
        tm = tr.assign_targets(gt, grid, 128.0)
        pred = eg.tensor(np.clip(tm.reg + rng.normal(0, 0.05, tm.reg.shape), 0.01, 0.99),
                         dtype=np.float64)
        return tm, pred

    def test_perfect_prediction_zero(self, rng):
        tm, _ = self._setup(rng)
        g, l1 = tr.reg_loss_terms(eg.tensor(tm.reg, dtype=np.float64), tm.reg, tm.labels)
        assert abs(g.item()) < 1e-6
        assert l1.item() == 0.0

    def test_weighting_is_5g_plus_7l1(self, rng):
        tm, pred = self._setup(rng)
        g, l1 = tr.reg_loss_terms(pred, tm.reg, tm.labels)
        total = tr.total_loss(0.0, g, l1)
        assert total.item() == pytest.approx(5 * g.item() + 7 * l1.item(), rel=1e-6)

    def test_empty_mask_is_zero(self, rng):
        tm, pred = self._setup(rng)
        g, l1 = tr.reg_loss_terms(pred, tm.reg, np.zeros_like(tm.labels))
        assert g.item() == 0.0 and l1.item() == 0.0

    def test_giou_term_matches_boxwise_oracle(self, rng):
        """The vectorized in-graph GIoU agrees with the scalar box function
        cell by cell."""
        tm, pred = self._setup(rng)
        g_term, _ = tr.reg_loss_terms(pred, tm.reg, tm.labels)
        hs, ws = tm.labels.shape
        vals = []
        for i in range(hs):
            for j in range(ws):
                if tm.labels[i, j] != 1:
                    continue
                cx, cy = (j + 0.5) / ws, (i + 0.5) / hs
                mk = lambda r: Box(cx - float(r[0, i, j]) / 2, cy - float(r[1, i, j]) / 2,
                                   cx + float(r[2, i, j]) / 2, cy + float(r[3, i, j]) / 2)
                vals.append(1.0 - giou(mk(pred.data), mk(tm.reg)))
        assert g_term.item() == pytest.approx(float(np.mean(vals)), abs=1e-9)

    def test_gradients_pass_finite_differences(self, rng):
        tm, pred0 = self._setup(rng)
        pred = eg.parameter(pred0.data.copy())
        fn = lambda: tr.total_loss(0.0, *tr.reg_loss_terms(pred, tm.reg, tm.labels))
        report = grad_check(fn, {"pred": pred}, tol=1e-4, max_entries=40, rng=rng)
        assert report.ok, report.summary()


    def test_masked_target_outside_its_box_keeps_loss_finite(self):
        """A masked cell may carry distances to a box it lies outside of.
        Cell 1's target meets the prediction in a zero-area overlap whose
        unclamped sides would make its union exactly 0, and 0 / 0 there
        would reach the loss as NaN * 0."""
        pred = eg.parameter(np.full((4, 1, 2), 0.5))
        target = np.array([[0.5, 2.5], [0.5, 2.5], [0.5, -1.75], [0.5, -1.75]]).reshape(4, 1, 2)
        mask = np.array([[1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = tr.total_loss(0.0, *tr.reg_loss_terms(pred, target, mask))
            loss.backward()
        assert np.isfinite(loss.item())
        assert np.isfinite(pred.grad).all()

    @pytest.mark.parametrize("dtype,rel", [(np.float64, 1e-12), (np.float32, 1e-6)])
    def test_matches_edge_decoding_form(self, rng, dtype, rel):
        """GIoU straight from l/t/r/b distances equals GIoU of the boxes
        decoded around each cell center, in value and gradient; the L1 term
        is the same computation, bit for bit."""
        for grid in ((4, 4), (5, 9), (8, 8), (16, 11), (16, 16)):
            for _ in range(3):
                x1, y1 = rng.uniform(-20, 100, size=2)
                w, h = rng.uniform(4, 90, size=2)
                tm = tr.assign_targets(Box(x1, y1, x1 + w, y1 + h), grid, 128.0)
                mask = np.maximum(tm.labels, rng.random(grid) < 0.2)
                start = rng.uniform(0.01, 0.99, size=tm.reg.shape)
                terms, grads = [], []
                for fn in (tr.reg_loss_terms, _reg_loss_by_edges):
                    pred = eg.parameter(start.astype(dtype))
                    g, l1 = fn(pred, tm.reg, mask)
                    g.backward()
                    terms.append((g.item(), l1.item()))
                    grads.append(pred.grad.astype(np.float64))
                (g_new, l1_new), (g_ref, l1_ref) = terms
                assert abs(g_new - g_ref) <= rel * abs(g_ref), grid
                assert np.abs(grads[0] - grads[1]).max() <= rel * np.abs(grads[1]).max(), grid
                assert l1_new == l1_ref, grid


def _reg_loss_by_edges(pred, target, mask):
    """`reg_loss_terms` by decoding both maps into absolute box edges around
    the cell centers (in crop-fraction units, hence the 0.5 on half-crop
    distances) and taking GIoU of the edges; the reference for the
    distance-only form."""
    n_pos = float(np.sum(mask))
    hs, ws = mask.shape
    m = eg.tensor(np.asarray(mask, dtype=pred.dtype), dtype=pred.dtype)
    tgt = eg.tensor(np.asarray(target, dtype=pred.dtype), dtype=pred.dtype)
    cx = eg.tensor(np.broadcast_to(((np.arange(ws) + 0.5) / ws)[None, :], (hs, ws)),
                   dtype=pred.dtype)
    cy = eg.tensor(np.broadcast_to(((np.arange(hs) + 0.5) / hs)[:, None], (hs, ws)),
                   dtype=pred.dtype)

    def edges(reg):
        left, top, right, bottom = (eg.mul(reg[i], 0.5) for i in range(4))
        return eg.sub(cx, left), eg.sub(cy, top), eg.add(cx, right), eg.add(cy, bottom)

    px1, py1, px2, py2 = edges(pred)
    tx1, ty1, tx2, ty2 = edges(tgt)
    iw = eg.relu(eg.sub(eg.minimum(px2, tx2), eg.maximum(px1, tx1)))
    ih = eg.relu(eg.sub(eg.minimum(py2, ty2), eg.maximum(py1, ty1)))
    inter = eg.mul(iw, ih)
    area_p = eg.mul(eg.sub(px2, px1), eg.sub(py2, py1))
    area_t = eg.mul(eg.sub(tx2, tx1), eg.sub(ty2, ty1))
    union = eg.sub(eg.add(area_p, area_t), inter)
    ew = eg.sub(eg.maximum(px2, tx2), eg.minimum(px1, tx1))
    eh = eg.sub(eg.maximum(py2, ty2), eg.minimum(py1, ty1))
    enclose = eg.mul(ew, eh)
    giou_map = eg.sub(eg.div(inter, union), eg.div(eg.sub(enclose, union), enclose))
    giou_term = eg.mul(eg.sum_(eg.mul(eg.sub(1.0, giou_map), m)), 1.0 / n_pos)
    diff = eg.mean_(eg.abs_(eg.sub(pred, tgt)), axis=0)
    l1_term = eg.mul(eg.sum_(eg.mul(diff, m)), 1.0 / n_pos)
    return giou_term, l1_term


class TestTotalLoss:
    def test_zero_components(self):
        assert tr.total_loss(0.0, 0.0, 0.0).item() == 0.0

    def test_unit_components_equal_24(self):
        assert tr.total_loss(1.0, 1.0, 1.0).item() == 24.0

    def test_tensor_path_matches(self):
        t = lambda v: eg.tensor(np.asarray(v, dtype=np.float64), dtype=np.float64)
        out = tr.total_loss(t(0.5), t(0.25), t(0.125))
        assert out.item() == pytest.approx(12 * 0.5 + 5 * 0.25 + 7 * 0.125)

    def test_gradient_reaches_both_heads(self, rng):
        """Every entry of the parameter table is read by the forward pass:
        the tracking loss gives each one a nonzero gradient, in both heads
        and in every backbone block, for each head input and with or
        without cross-attention."""
        configs = {"tiny": md.tiny_config(), "dwcorr": md.tiny_config(head_input="dwcorr"),
                   "no-ca": md.without_cross_attention(md.tiny_config())}
        z = rng.random((3, 64, 64), dtype=np.float32)
        x = rng.random((3, 128, 128), dtype=np.float32)
        for label, cfg in configs.items():
            model = md.build_model(cfg, seed=0)
            cls, reg = md.forward(model, z, x)
            tm = tr.assign_targets(Box(40, 40, 90, 90), cfg.search_grid(), 128.0)
            loss = tr.total_loss(tr.cls_loss(cls, tm.labels),
                                 *tr.reg_loss_terms(reg, tm.reg, tm.labels))
            loss.backward()
            assert _without_gradient(model) == [], label

    def test_gradient_reaches_every_classifier_parameter(self, rng):
        model = md.build_model(md.classifier_config("tiny", 5, 64), seed=0)
        logits = md.forward_classification(model, rng.random((3, 64, 64), dtype=np.float32))
        eg.sum_(eg.mul(logits, eg.tensor(rng.standard_normal(5)))).backward()
        assert _without_gradient(model) == []


def _without_gradient(model) -> list[str]:
    return [n for n, t in model.params.items()
            if t.grad is None or not np.abs(t.grad).sum() > 0]


class TestAdamW:
    def test_zero_grad_pure_decay(self):
        p = eg.parameter(np.array([2.0, -3.0]))
        p.grad = np.zeros(2)
        state: dict = {}
        tr.adamw_step([p], state, lr=0.1, weight_decay=0.5)
        np.testing.assert_allclose(p.data, np.array([2.0, -3.0]) * (1 - 0.1 * 0.5), rtol=1e-6)

    def test_missing_grad_steps_as_zero(self):
        """A parameter whose `grad` is None takes the zero-gradient step."""
        p, q = eg.parameter(np.array([2.0, -3.0])), eg.parameter(np.array([2.0, -3.0]))
        q.grad = np.zeros(2)
        for t in (p, q):
            tr.adamw_step([t], {}, lr=0.1, weight_decay=0.5)
        np.testing.assert_array_equal(p.data, q.data)

    def test_first_step_matches_hand_formula(self):
        g = np.array([0.3, -0.7])
        p = eg.parameter(np.array([1.0, 1.0]))
        p.grad = g.copy()
        state: dict = {}
        tr.adamw_step([p], state, lr=0.01, weight_decay=0.0)
        # bias-corrected first step: m_hat = g, v_hat = g^2
        want = 1.0 - 0.01 * (g / (np.abs(g) + 1e-8))
        np.testing.assert_allclose(p.data, want, rtol=1e-6)

    def test_deterministic_runs(self, rng):
        g = [rng.standard_normal(4).astype(np.float32) for _ in range(5)]

        def run():
            p = eg.parameter(np.ones(4, dtype=np.float32))
            state: dict = {}
            for gi in g:
                p.grad = gi
                tr.adamw_step([p], state, lr=0.05, weight_decay=0.01)
            return p.data.copy()

        np.testing.assert_array_equal(run(), run())

    def test_clip_global_norm(self):
        p1 = eg.parameter(np.zeros(3))
        p2 = eg.parameter(np.zeros(4))
        p1.grad = np.full(3, 4.0, dtype=np.float32)
        p2.grad = np.full(4, 3.0, dtype=np.float32)
        norm = tr.clip_global_norm([p1, p2], 1.0)
        assert norm == pytest.approx(np.sqrt(3 * 16 + 4 * 9))
        after = np.sqrt((p1.grad**2).sum() + (p2.grad**2).sum())
        assert after == pytest.approx(1.0, rel=1e-5)

    @pytest.mark.parametrize("max_norm", [float("nan"), 0.0, -1.0])
    def test_clip_global_norm_rejects_a_bound_that_cannot_clip(self, max_norm):
        p = eg.parameter(np.zeros(2))
        p.grad = np.array([30.0, 40.0])
        with pytest.raises(ValueError, match=f"max_norm must be > 0.*got {max_norm}"):
            tr.clip_global_norm([p], max_norm)
        np.testing.assert_array_equal(p.grad, [30.0, 40.0])

    @pytest.mark.parametrize("max_norm", [True, "1", None])
    def test_clip_global_norm_takes_a_real_not_a_bool(self, max_norm):
        """The bound follows `TrainConfig.clip_norm`'s rule: a bool or a
        non-number raises `ValueError` and leaves the gradient as it was."""
        p = eg.parameter(np.zeros(2))
        p.grad = np.array([30.0, 40.0])
        with pytest.raises(ValueError, match="max_norm must be > 0 .* not a bool"):
            tr.clip_global_norm([p], max_norm)
        np.testing.assert_array_equal(p.grad, [30.0, 40.0])


class TestTrainConfig:
    def test_backbone_lr_must_not_exceed_head(self):
        with pytest.raises(ValueError):
            tr.TrainConfig(lr_head=1e-4, lr_backbone=1e-3)

    @pytest.mark.parametrize("value", [-1e-3, float("nan"), float("inf"), "1e-3"])
    @pytest.mark.parametrize("field", ["lr_head", "lr_backbone", "weight_decay"])
    def test_negative_rates_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            tr.TrainConfig(**{field: value})

    @pytest.mark.parametrize("steps", [(-1,), (5, -2)])
    def test_negative_decay_step_rejected(self, steps):
        with pytest.raises(ValueError, match="decay_steps must be >= 0"):
            tr.TrainConfig(decay_steps=steps)

    @pytest.mark.parametrize("steps", [[5], 5])
    def test_decay_steps_must_be_a_tuple(self, steps):
        """A list would leave the frozen config unhashable, and an int is not iterable."""
        with pytest.raises(ValueError, match="decay_steps must be a tuple"):
            tr.TrainConfig(decay_steps=steps)

    def test_zero_rates_accepted(self):
        tc = tr.TrainConfig(lr_head=0.0, lr_backbone=0.0, weight_decay=0.0)
        assert (tc.lr_head, tc.lr_backbone, tc.weight_decay) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0])
    def test_clip_norm_must_be_positive(self, value):
        with pytest.raises(ValueError, match=f"clip_norm must be > 0.*got {value}"):
            tr.TrainConfig(clip_norm=value)

    @pytest.mark.parametrize("value", [True, "1"])
    def test_clip_norm_must_be_a_real(self, value):
        with pytest.raises(ValueError, match="clip_norm must be > 0.*a real, not a bool"):
            tr.TrainConfig(clip_norm=value)

    def test_infinite_clip_norm_never_clips(self):
        p = eg.parameter(np.zeros(2))
        p.grad = np.array([30.0, 40.0])
        assert tr.clip_global_norm([p], tr.TrainConfig(clip_norm=math.inf).clip_norm) == 50.0
        np.testing.assert_array_equal(p.grad, [30.0, 40.0])

    @pytest.mark.parametrize("every", [0, -1])
    def test_probe_every_must_be_positive(self, every):
        with pytest.raises(ValueError, match="probe_every"):
            tr.TrainConfig(probe_every=every)

    @pytest.mark.parametrize("field,value", [("batch", 2.5), ("steps", 3.0), ("seed", True),
                                             ("probe_every", 25.0), ("decay_steps", (2.5,))])
    def test_integer_fields_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            tr.TrainConfig(**{field: value})


class TestMakeTrainingExamples:
    def test_empty_sequence_list_rejected(self, rng):
        with pytest.raises(ValueError, match="the sequence list is empty"):
            tr.make_training_examples([], 4, 64, 128, rng)


def _toy_dataset(rng, n=3, search=128, template=64):
    out = []
    for _ in range(n):
        tpl = rng.random((3, template, template), dtype=np.float32)
        srch = rng.random((3, search, search), dtype=np.float32)
        cx, cy = rng.uniform(48, 80, size=2)
        w, h = rng.uniform(24, 40, size=2)
        out.append(tr.TrainExample(tpl, srch, Box(cx - w / 2, cy - h / 2, cx + w / 2, cy + h / 2)))
    return out


class TestTrainLoop:
    def test_seeded_determinism(self, rng):
        data = _toy_dataset(rng)
        tc = tr.TrainConfig(steps=6, batch=2, seed=3, probe_every=3)

        def run():
            m = md.build_model(md.tiny_config(), seed=1)
            return tr.train(m, list(data), tc, probe=data[:1]).rows

        assert run() == run()

    def test_lr_decay_schedule(self, rng):
        data = _toy_dataset(rng)
        tc = tr.TrainConfig(steps=6, batch=1, seed=0, decay_steps=(2, 4), probe_every=100)
        m = md.build_model(md.tiny_config(), seed=1)
        log = tr.train(m, list(data), tc, probe=data[:1])
        lrs = log.column("lr")
        assert lrs[1] == pytest.approx(tc.lr_head)
        assert lrs[2] == pytest.approx(tc.lr_head / 10)
        assert lrs[4] == pytest.approx(tc.lr_head / 100)

    def test_non_finite_gradient_raises_before_any_update(self, rng):
        good = _toy_dataset(rng, n=1)[0]
        bad = tr.TrainExample(good.template.copy(), good.search, good.gt)
        bad.template[0, 5, 7] = np.nan
        m = md.build_model(md.tiny_config(), seed=1)
        before = {n: t.data.copy() for n, t in m.params.items()}
        with pytest.raises(ValueError, match=r"step 0: gradient of stage1\.patch\.weight"):
            tr.train(m, [bad], tr.TrainConfig(steps=1, batch=1, probe_every=100), probe=[good])
        for n, t in m.params.items():
            np.testing.assert_array_equal(t.data, before[n], err_msg=n)

    def test_single_batch_overfit(self, rng):
        """Loss on one fixed example collapses well below its start.

        One example, batch 1: every step sees the same batch, so the loss
        curve measures fitting alone.  Two noise pairs would not: `train()`
        samples with replacement, so the batch changes from step to step, and
        the two pairs' boxes are independent of their pixels.  Their label
        maps disagree on 23 of 256 cells, so any fit short of memorising
        the noise keeps 12 * BCE near 0.75, over half of what the bound allows.
        """
        data = _toy_dataset(rng, n=1)
        tc = tr.TrainConfig(steps=150, batch=1, seed=0, probe_every=1000, lr_head=2e-3,
                            lr_backbone=5e-4)
        m = md.build_model(md.tiny_config(), seed=2)
        log = tr.train(m, list(data), tc, probe=data[:1])
        first = log.rows[0][4]
        best = min(r[4] for r in log.rows)
        assert best < 0.10 * first, f"loss only reached {best:.4f} from {first:.4f}"
