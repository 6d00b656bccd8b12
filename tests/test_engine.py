"""Tensor engine tests: forward oracles and finite-difference gradients."""

import ctypes
import gc
import math
import os
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sbtrack import engine as eg
from sbtrack import model as md
from sbtrack import training as tr
from sbtrack.boxes import Box
from sbtrack.engine import PadMode

from oracle_helpers import conv2d_loops, depthwise_loops, grad_check, matmul_loops, pad_spatial


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


# --------------------------------------------------------------------------
# matmul
# --------------------------------------------------------------------------


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = eg.matmul(eg.tensor(np.eye(2)), eg.tensor(a))
        np.testing.assert_array_equal(out.data, a.astype(np.float32))

    def test_hand_expanded(self):
        a = eg.tensor([[1.0, 2.0], [3.0, 4.0]])
        b = eg.tensor([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_array_equal(eg.matmul(a, b).data, [[19.0, 22.0], [43.0, 50.0]])

    def test_against_loop_oracle(self, rng):
        a = rng.standard_normal((5, 7)).astype(np.float32)
        b = rng.standard_normal((7, 3)).astype(np.float32)
        got = eg.matmul(eg.tensor(a), eg.tensor(b)).data
        assert np.abs(got - matmul_loops(a, b)).max() < 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(eg.ShapeError):
            eg.matmul(eg.tensor(np.zeros((2, 3))), eg.tensor(np.zeros((4, 2))))

    def test_batched_matches_per_slice(self, rng):
        a = rng.standard_normal((3, 4, 5)).astype(np.float32)
        b = rng.standard_normal((3, 5, 2)).astype(np.float32)
        got = eg.matmul(eg.tensor(a), eg.tensor(b)).data
        for i in range(3):
            np.testing.assert_allclose(got[i], a[i] @ b[i], rtol=1e-6)


# --------------------------------------------------------------------------
# softmax
# --------------------------------------------------------------------------


class TestSoftmax:
    def test_symmetry(self):
        out = eg.softmax_last_dim(eg.tensor([0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.5, 0.5], atol=1e-7)

    def test_analytic(self):
        out = eg.softmax_last_dim(eg.tensor([0.0, math.log(3.0)]))
        np.testing.assert_allclose(out.data, [0.25, 0.75], atol=1e-6)

    def test_rows_sum_to_one(self, rng):
        x = rng.standard_normal((4, 7)).astype(np.float32) * 5
        out = eg.softmax_last_dim(eg.tensor(x))
        np.testing.assert_allclose(out.data.sum(axis=-1), np.ones(4), atol=1e-6)
        assert (out.data >= 0).all()

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-30, 30), min_size=2, max_size=6),
           st.floats(-50, 50))
    def test_shift_invariance(self, row, shift):
        x = np.asarray(row, dtype=np.float64)
        a = eg.softmax_last_dim(eg.tensor(x, dtype=np.float64)).data
        b = eg.softmax_last_dim(eg.tensor(x + shift, dtype=np.float64)).data
        assert np.abs(a - b).max() < 1e-6

    @staticmethod
    def _softmax_by_max(x):
        """The forward as it was before the row max came from argmax:
        subtract ``max``, exponentiate, scale by the inverse einsum row sum."""
        rows = np.ascontiguousarray(x).reshape(-1, x.shape[-1])
        s = rows - rows.max(axis=1, keepdims=True)
        np.exp(s, out=s)
        s *= (1.0 / np.einsum("ij->i", s))[:, None]
        return s.reshape(x.shape)

    @staticmethod
    def _special_rows(r, n):
        """Rows of n columns: normal ones, and ones whose max is tied, NaN,
        +inf, -inf throughout, or a tie of -0.0 and 0.0."""
        x = r.standard_normal((2, 8, n)).astype(np.float32)
        rows = x.reshape(-1, n)
        rows[0, [0, n - 1]] = 9.0  # a tie (the same column when n == 1)
        rows[1, n // 2] = np.nan
        rows[2, n - 1] = np.inf
        rows[3] = -np.inf
        rows[4] = -np.abs(rows[4])
        rows[4, 0], rows[4, n - 1] = -0.0, 0.0
        rows[5, 0] = np.inf
        rows[5, n - 1] = np.nan
        return x

    @pytest.mark.parametrize("small_blocks", [False, True])
    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("n", [1, 16, 64, 256])
    def test_bit_equal_to_max_subtraction(self, n, contiguous, small_blocks, monkeypatch):
        """The row max is the value at the row's argmax: the same float as
        ``max``, NaN (argmax gives the first NaN) and infinities included."""
        if small_blocks:
            monkeypatch.setattr(eg, "_BLOCK_BYTES", TestBlocks.SMALL)
        x = self._special_rows(np.random.default_rng(n), n)
        xin = x if contiguous else _other_layout(x)
        with np.errstate(invalid="ignore"):  # inf - inf
            want = self._softmax_by_max(x)
            got = eg.softmax_last_dim(eg.tensor(xin)).data
        assert np.isnan(want).any() and np.isfinite(want).any()
        assert np.ascontiguousarray(got).tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# layer norm
# --------------------------------------------------------------------------


class TestLayerNorm:
    def test_constant_input_is_zero(self):
        x = eg.tensor(np.full((5, 8), 3.7, dtype=np.float32))
        out = eg.layer_norm(x, eg.tensor(np.ones(8)), eg.tensor(np.zeros(8)), axis=-1)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-6)

    def test_two_channel_analytic(self):
        # mean 2, population variance 1, and layer norm's eps of 1e-5
        out = eg.layer_norm(eg.tensor([[1.0, 3.0]], dtype=np.float64),
                            eg.tensor(np.ones(2), dtype=np.float64),
                            eg.tensor(np.zeros(2), dtype=np.float64), axis=-1)
        np.testing.assert_allclose(out.data, [[-1.0, 1.0]] / np.sqrt(1 + 1e-5), rtol=0, atol=1e-12)

    def test_moments(self, rng):
        x = rng.standard_normal((40, 16)).astype(np.float32) * 3 + 1
        out = eg.layer_norm(eg.tensor(x), eg.tensor(np.ones(16)), eg.tensor(np.zeros(16)), axis=-1)
        mu = out.data.mean(axis=-1)
        var = out.data.var(axis=-1)
        assert np.abs(mu).max() < 1e-5
        assert np.abs(var - 1).max() < 1e-4

    def test_channel_axis_for_maps(self, rng):
        x = rng.standard_normal((6, 4, 5)).astype(np.float32)
        out = eg.layer_norm(eg.tensor(x), eg.tensor(np.ones(6)), eg.tensor(np.zeros(6)), axis=0)
        assert np.abs(out.data.mean(axis=0)).max() < 1e-5

    @pytest.mark.parametrize("axis", [3, -4])
    def test_axis_out_of_range_rejected(self, axis):
        # `axis % ndim` would normalize axis 0 for 3, and axis 2 for -4
        x = eg.tensor(np.ones((8, 4, 4), dtype=np.float32))
        with pytest.raises(eg.ShapeError, match=f"axis {axis} out of range"):
            eg.layer_norm(x, eg.tensor(np.ones(8)), eg.tensor(np.zeros(8)), axis=axis)


# --------------------------------------------------------------------------
# conv2d / depthwise
# --------------------------------------------------------------------------


class TestConv2d:
    def test_one_by_one_identity(self, rng):
        x = rng.standard_normal((3, 5, 5)).astype(np.float32)
        w = np.eye(3, dtype=np.float32).reshape(3, 3, 1, 1)
        out = eg.conv2d(eg.tensor(x), eg.tensor(w), eg.tensor(np.zeros(3)), stride=1, pad=PadMode.zeros(0))
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_shape_formula(self, rng):
        x = rng.standard_normal((3, 256, 256)).astype(np.float32)
        w = rng.standard_normal((8, 3, 7, 7)).astype(np.float32) * 0.1
        out = eg.conv2d(eg.tensor(x), eg.tensor(w), eg.tensor(np.zeros(8)), stride=4, pad=PadMode.zeros(3))
        assert out.shape == (8, 64, 64)

    @pytest.mark.parametrize("k,stride,pad", [
        pytest.param(3, 1, PadMode.zeros(0), id="1-pad0"),
        pytest.param(3, 2, PadMode.zeros(1), id="2-pad1"),
        pytest.param(3, 1, PadMode("circular", 1), id="1-pad2"),
        # the model's K/V reduction convs and its stage-1 patch embedding
        pytest.param(2, 2, PadMode.zeros(0), id="k2-s2-valid"),
        pytest.param(4, 4, PadMode.zeros(0), id="k4-s4-valid"),
        pytest.param(8, 8, PadMode.zeros(0), id="k8-s8-valid"),
        pytest.param(7, 4, PadMode.zeros(3), id="k7-s4-zeros3"),
    ])
    def test_against_sliding_window_oracle(self, rng, k, stride, pad):
        x = rng.standard_normal((4, 17, 16)).astype(np.float32)
        w = rng.standard_normal((5, 4, k, k)).astype(np.float32)
        b = rng.standard_normal(5).astype(np.float32)
        want = conv2d_loops(x, w, b, stride, pad)
        for xin in (x, _other_layout(x)):
            got = eg.conv2d(eg.tensor(xin), eg.tensor(w), eg.tensor(b), stride=stride, pad=pad).data
            assert got.shape == want.shape
            assert np.abs(got - want).max() < 1e-5

    def test_kernel_too_large(self):
        with pytest.raises(eg.ShapeError):
            eg.conv2d(eg.tensor(np.zeros((1, 4, 4))), eg.tensor(np.zeros((1, 1, 7, 7))), eg.tensor(np.zeros(1)),
                      stride=1, pad=PadMode.zeros(1))

    @pytest.mark.parametrize("stride", [0, -1])
    def test_non_positive_stride_rejected(self, stride):
        with pytest.raises(eg.ShapeError, match=f"stride must be >= 1, got {stride}"):
            eg.conv2d(eg.tensor(np.ones((1, 4, 4))), eg.tensor(np.ones((1, 1, 2, 2))), eg.tensor(np.zeros(1)),
                      stride=stride, pad=PadMode.zeros(0))

    @pytest.mark.parametrize("stride", [2.0, True])
    def test_non_int_stride_rejected(self, stride):
        with pytest.raises(eg.ShapeError, match=f"stride must be an int, got {stride}"):
            eg.conv2d(eg.tensor(np.ones((1, 4, 4))), eg.tensor(np.ones((1, 1, 2, 2))), eg.tensor(np.zeros(1)),
                      stride=stride, pad=PadMode.zeros(0))

    def test_circular_pad_wider_than_input_fails_in_forward(self):
        # np.pad would wrap twice and return a [1, 6, 6] map
        with pytest.raises(eg.ShapeError, match="circular pad wider"):
            eg.conv2d(eg.tensor(np.ones((2, 2, 2))), eg.tensor(np.ones((1, 2, 1, 1))), eg.tensor(np.zeros(1)),
                      stride=1, pad=PadMode("circular", 3))

    def test_circular_translation_equivariance(self, rng):
        x = rng.standard_normal((2, 8, 8)).astype(np.float32)
        w = rng.standard_normal((3, 2, 3, 3)).astype(np.float32)
        conv = lambda arr: eg.conv2d(eg.tensor(arr), eg.tensor(w), eg.tensor(np.zeros(3)), stride=1,
                                     pad=PadMode("circular", 1)).data
        shifted = np.roll(x, (2, 3), axis=(1, 2))
        assert np.abs(conv(shifted) - np.roll(conv(x), (2, 3), axis=(1, 2))).max() < 1e-6


class TestDepthwise:
    def test_center_delta_identity(self, rng):
        x = rng.standard_normal((4, 6, 6)).astype(np.float32)
        w = np.zeros((4, 3, 3), dtype=np.float32)
        w[:, 1, 1] = 1.0
        out = eg.depthwise_conv2d(eg.tensor(x), eg.tensor(w), eg.tensor(np.zeros(4)), pad=PadMode.zeros(1))
        np.testing.assert_allclose(out.data, x, atol=1e-6)

    def test_circular_shift_commutes(self, rng):
        x = rng.standard_normal((3, 8, 8)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3)).astype(np.float32)
        f = lambda arr: eg.depthwise_conv2d(eg.tensor(arr), eg.tensor(w), eg.tensor(np.zeros(3)),
                                            pad=PadMode("circular", 1)).data
        assert np.abs(f(np.roll(x, 2, axis=2)) - np.roll(f(x), 2, axis=2)).max() < 1e-6

    def test_against_loop_oracle(self, rng):
        x = rng.standard_normal((3, 7, 6)).astype(np.float32)
        w = rng.standard_normal((3, 3, 3)).astype(np.float32)
        got = eg.depthwise_conv2d(eg.tensor(x), eg.tensor(w), eg.tensor(np.zeros(3)), pad=PadMode.zeros(1)).data
        assert np.abs(got - depthwise_loops(x, w, PadMode.zeros(1))).max() < 1e-5

    def test_circular_pad_wider_than_input_fails_in_forward(self):
        # np.pad would wrap twice and return a [2, 6, 6] map
        with pytest.raises(eg.ShapeError, match="circular pad wider"):
            eg.depthwise_conv2d(eg.tensor(np.ones((2, 2, 2))), eg.tensor(np.ones((2, 1, 1))), eg.tensor(np.zeros(2)),
                                pad=PadMode("circular", 3))


class TestDepthwiseXcorr:
    def test_matches_manual(self, rng):
        z = rng.standard_normal((2, 3, 3)).astype(np.float32)
        x = rng.standard_normal((2, 6, 5)).astype(np.float32)
        got = eg.depthwise_xcorr(eg.tensor(z), eg.tensor(x), PadMode.zeros(0)).data
        want = np.zeros((2, 4, 3))
        for c in range(2):
            for i in range(4):
                for j in range(3):
                    want[c, i, j] = (z[c] * x[c, i : i + 3, j : j + 3]).sum()
        assert np.abs(got - want).max() < 1e-5

    def test_grad_into_both_operands(self, rng):
        z = eg.parameter(rng.standard_normal((2, 2, 2)))
        x = eg.parameter(rng.standard_normal((2, 5, 5)))
        loss = eg.sum_(eg.mul(eg.depthwise_xcorr(z, x, pad=PadMode.zeros(1)), 0.5))
        loss.backward()
        assert z.grad is not None and np.abs(z.grad).sum() > 0
        assert x.grad is not None and np.abs(x.grad).sum() > 0


# --------------------------------------------------------------------------
# activations / linear
# --------------------------------------------------------------------------


class TestActivations:
    def test_point_values(self):
        assert eg.gelu(eg.tensor([0.0])).data[0] == 0.0
        assert eg.relu(eg.tensor([-1.0])).data[0] == 0.0
        assert abs(eg.gelu(eg.tensor([10.0], dtype=np.float64)).data[0] - 10.0) < 1e-4

    def test_linear_vs_matmul_oracle(self, rng):
        x = rng.standard_normal((6, 4)).astype(np.float32)
        w = rng.standard_normal((4, 3)).astype(np.float32)
        b = rng.standard_normal(3).astype(np.float32)
        got = eg.linear(eg.tensor(x), eg.tensor(w), eg.tensor(b)).data
        want = x @ w + b
        assert np.abs(got - want).max() < 1e-6

    def test_sigmoid_range_and_value(self):
        out = eg.sigmoid(eg.tensor([0.0, 5.0, -5.0]))
        np.testing.assert_allclose(out.data[0], 0.5, atol=1e-7)
        assert 0.0 < out.data[2] < out.data[0] < out.data[1] < 1.0
        # extreme inputs stay finite (saturation to 0/1 is fine in f32)
        assert np.isfinite(eg.sigmoid(eg.tensor([500.0, -500.0])).data).all()

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=8))
    def test_finite_in_finite_out(self, vals):
        x = eg.tensor(np.asarray(vals, dtype=np.float64), dtype=np.float64)
        for fn in (eg.relu, lambda t: eg.leaky_relu(t, 0.1), eg.gelu, eg.sigmoid,
                   eg.softmax_last_dim, eg.abs_):
            assert np.isfinite(fn(x).data).all()


# --------------------------------------------------------------------------
# backward / grad_check
# --------------------------------------------------------------------------


class TestMean:
    def test_tuple_axis(self, rng):
        x = eg.parameter(rng.standard_normal((3, 4, 5)))
        out = eg.mean_(x, axis=(0, 2))
        np.testing.assert_allclose(out.data, x.data.mean(axis=(0, 2)), rtol=1e-14)
        eg.sum_(out).backward()
        np.testing.assert_array_equal(x.grad, np.full((3, 4, 5), 1.0 / 15))

    @pytest.mark.parametrize("axis", [None, 0, 1, 2, -1])
    def test_int_axis_scales_by_one_over_n(self, rng, axis):
        """For one axis, or all, the scale is the correctly rounded 1 / n."""
        x = eg.tensor(rng.standard_normal((3, 7, 49)), dtype=np.float64)
        n = x.size if axis is None else x.shape[axis]
        want = eg.mul(eg.sum_(x, axis=axis), 1.0 / n).data
        assert eg.mean_(x, axis=axis).data.tobytes() == want.tobytes()


class TestBackward:
    def test_square_gradient(self):
        x = eg.parameter(np.array([3.0]))
        loss = eg.sum_(eg.mul(x, x))
        loss.backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_constant_leaf_has_no_grad(self):
        x = eg.parameter([2.0])
        c = eg.tensor([5.0])
        loss = eg.sum_(eg.mul(x, c))
        loss.backward()
        assert c.grad is None

    def test_unreachable_param_untouched(self):
        x = eg.parameter([2.0])
        y = eg.parameter([4.0])
        eg.sum_(eg.mul(x, x)).backward()
        assert y.grad is None

    def test_non_scalar_loss_rejected(self):
        x = eg.parameter([1.0, 2.0])
        with pytest.raises(ValueError):
            eg.backward(eg.mul(x, 2.0))

    def test_grad_accumulates_across_calls(self):
        x = eg.parameter(np.array([1.5]))
        eg.sum_(eg.mul(x, x)).backward()
        eg.sum_(eg.mul(x, x)).backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_no_grad_blocks_recording(self):
        x = eg.parameter([2.0])
        with eg.no_grad():
            y = eg.mul(x, x)
        assert not y.requires_grad and y._node is None

    def test_second_backward_through_released_graph_raises(self):
        x = eg.parameter(np.array([3.0]))
        y = eg.mul(x, x)
        loss = eg.sum_(eg.mul(y, 2.0))
        loss.backward()
        np.testing.assert_array_equal(x.grad, [12.0])
        with pytest.raises(ValueError, match="build the loss again"):
            loss.backward()
        with pytest.raises(ValueError, match="build the loss again"):
            eg.sum_(eg.mul(y, 2.0)).backward()  # a new loss over the released y
        np.testing.assert_array_equal(x.grad, [12.0])

    def test_backward_releases_interior_gradients(self):
        w = eg.parameter(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = eg.parameter(np.array([3.0, 0.5]))
        c = eg.tensor([[2.0, 3.0]], dtype=np.float64)
        h = eg.relu(eg.linear(eg.tensor([[1.0, -1.0]], dtype=np.float64), w, b))
        interior = [h, eg.mul(h, c)]
        loss = eg.sum_(interior[-1])
        loss.backward()
        for t in interior + [loss]:
            assert t.grad is None and t._node.grad is None and t._node.edges is None
        np.testing.assert_array_equal(w.grad, [[2.0, 0.0], [-2.0, 0.0]])
        np.testing.assert_array_equal(b.grad, [2.0, 0.0])
        assert c.grad is None

    def test_held_loss_keeps_no_graph(self):
        """After backward, a held tiny training loss keeps its parameters'
        gradients and little else."""
        model = md.build_model(md.tiny_config(), seed=0)
        r = np.random.default_rng(0)
        z = r.random((3, 64, 64), dtype=np.float32)
        x = r.random((3, 128, 128), dtype=np.float32)
        tm = tr.assign_targets(Box(40, 40, 90, 90), model.config.search_grid(), 128.0)
        param_bytes = sum(t.data.nbytes for t in model.params.values())
        tracemalloc.start()
        try:
            cls, reg = md.forward(model, z, x)
            loss = tr.total_loss(tr.cls_loss(cls, tm.labels),
                                 *tr.reg_loss_terms(reg, tm.reg, tm.labels))
            loss.backward()
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert held < 2 * param_bytes, (held, param_bytes)

    def test_partials_never_write_into_g_or_interior_gradients(self, monkeypatch):
        """The engine's no-write rule, through a full tiny forward, loss and
        backward: every partial receives a read-only `g` and returns a
        read-only array, so a partial that writes into its `g`, or an
        accumulation that adds in place into an interior node's kept
        gradient, raises.  The parameter gradients equal an unguarded run's."""
        model = md.build_model(md.tiny_config(), seed=0)
        r = np.random.default_rng(0)
        z = r.random((3, 64, 64), dtype=np.float32)
        x = r.random((3, 128, 128), dtype=np.float32)
        tm = tr.assign_targets(Box(40, 40, 90, 90), model.config.search_grid(), 128.0)
        params = model.parameters()

        def grads():
            eg.zero_grads(params)
            cls, reg = md.forward(model, z, x)
            loss = tr.total_loss(tr.cls_loss(cls, tm.labels),
                                 *tr.reg_loss_terms(reg, tm.reg, tm.labels))
            eg.mul(loss, 0.25).backward()
            return [p.grad for p in params]

        def read_only(a):
            view = np.asarray(a).view()
            view.flags.writeable = False
            return view

        op = eg._op
        calls = []

        def guarded_op(data, operands, *partials):
            def guard(partial):
                def run(g):
                    calls.append(1)
                    return read_only(partial(read_only(g)))
                return run
            return op(data, operands, *map(guard, partials))

        want = grads()
        monkeypatch.setattr(eg, "_op", guarded_op)
        got = grads()
        assert calls
        for p, a, b in zip(params, want, got):
            assert b is not None and b.flags.writeable
            np.testing.assert_array_equal(a, b)

    def test_interior_node_keeps_its_first_gradient_without_a_copy(self):
        x = eg.parameter(np.array([1.0, 2.0]))
        y = eg.mul(x, 3.0)  # an op output: its node is interior
        for t, keeps in ((y._node, True), (x, False)):
            g1, g2 = np.ones(2), np.full(2, 2.0)
            t._accumulate(g1)
            assert (t.grad is g1) == keeps
            t._accumulate(g2)
            np.testing.assert_array_equal(t.grad, [3.0, 3.0])
            np.testing.assert_array_equal(g1, [1.0, 1.0])  # the sum went elsewhere
            assert t.grad is not g1 and t.grad is not g2

    def test_composed_chain_matches_finite_differences(self, rng):
        w1 = eg.parameter(rng.standard_normal((4, 5)) * 0.5)
        b1 = eg.parameter(rng.standard_normal(5) * 0.1)
        w2 = eg.parameter(rng.standard_normal((5, 1)) * 0.5)
        x = rng.standard_normal((3, 4))

        def loss_fn():
            h = eg.gelu(eg.linear(eg.tensor(x, dtype=np.float64), w1, b1))
            return eg.mean_(eg.mul(eg.linear(h, w2, eg.tensor(np.zeros(1))), eg.linear(h, w2, eg.tensor(np.zeros(1)))))

        report = grad_check(loss_fn, {"w1": w1, "b1": b1, "w2": w2}, tol=1e-4)
        assert report.ok, report.summary()


class TestTensorSlice:
    @pytest.mark.parametrize("idx,want", [
        ([0, 0, 2], [2.0, 0.0, 1.0, 0.0]),
        (np.array([True, False, True, True]), [1.0, 0.0, 1.0, 1.0]),
        (slice(1, 3), [0.0, 1.0, 1.0, 0.0]),
    ], ids=["repeated", "mask", "slice"])
    def test_gradient_adds_up_over_the_selected_elements(self, idx, want):
        """An element the index selects twice receives both gradients."""
        p = eg.parameter(np.arange(4.0))
        eg.sum_(p[idx]).backward()
        np.testing.assert_array_equal(p.grad, want)

    def test_gradient_is_laid_out_as_the_input(self):
        """The scatter target is laid out as the sliced array, channels-last
        here, so downstream sums add in the order they did when the partial
        kept that array."""
        a = np.arange(24.0).reshape(4, 3, 2).transpose(2, 0, 1)  # [c, h, w] over [h, w, c]
        t = eg.mul(eg.parameter(a), 1.0)
        (_, scatter), = t[:, 1:3, 1:3]._node.edges
        full = scatter(np.ones((2, 2, 2)))
        assert full.shape == a.shape and full.transpose(1, 2, 0).flags.c_contiguous
        np.testing.assert_array_equal(full[:, 1:3, 1:3], 1.0)
        assert full.sum() == 8.0


class TestGradCheck:
    def test_linear_layer_passes(self, rng):
        w = eg.parameter(rng.standard_normal((3, 2)))
        b = eg.parameter(rng.standard_normal(2))
        x = rng.standard_normal((4, 3))
        fn = lambda: eg.sum_(eg.abs_(eg.linear(eg.tensor(x, dtype=np.float64), w, b)))
        assert grad_check(fn, {"w": w, "b": b}, tol=1e-4).ok

    def test_one_element_loss_of_any_rank(self):
        assert eg.tensor([1.5]).item() == 1.5
        w = eg.parameter(np.array([[0.5, -1.0]]))
        fn = lambda: eg.matmul(w, eg.tensor([[2.0], [3.0]], dtype=np.float64))  # [1, 1]
        assert grad_check(fn, {"w": w}).ok

    def test_corrupted_backward_fails(self, rng):
        # Negative control: an op with a deliberately wrong gradient rule.
        def bad_double(t):
            return eg._op(t.data * 2.0, (t,), lambda g: g * 3.0)  # wrong on purpose

        w = eg.parameter(rng.standard_normal(4))
        fn = lambda: eg.sum_(bad_double(w))
        assert not grad_check(fn, {"w": w}, tol=1e-4).ok

    @pytest.mark.parametrize("op", ["softmax", "layernorm", "conv", "dw", "xcorr",
                                    "minmax", "clip", "div", "slice", "leaky_relu"])
    def test_op_gradients(self, rng, op):
        x = eg.parameter(rng.standard_normal((2, 6, 6)))
        probe = eg.tensor(rng.standard_normal((2, 6, 6)), dtype=np.float64)

        if op == "softmax":
            fn = lambda: eg.sum_(eg.mul(eg.softmax_last_dim(x), probe))
        elif op == "layernorm":
            # >=4 channels: with 2 the per-position variance can approach eps
            # and finite differences lose accuracy on the resulting curvature.
            x4 = eg.parameter(rng.standard_normal((4, 5, 5)))
            p4 = eg.tensor(rng.standard_normal((4, 5, 5)), dtype=np.float64)
            g = eg.parameter(rng.standard_normal(4))
            b = eg.parameter(rng.standard_normal(4))
            fn = lambda: eg.sum_(eg.mul(eg.layer_norm(x4, g, b, axis=0), p4))
            assert grad_check(fn, {"x": x4, "g": g, "b": b}, tol=1e-4).ok
            return
        elif op == "conv":
            w = eg.parameter(rng.standard_normal((3, 2, 3, 3)))
            pr = eg.tensor(rng.standard_normal((3, 3, 3)), dtype=np.float64)
            fn = lambda: eg.sum_(eg.mul(eg.conv2d(x, w, eg.tensor(np.zeros(3)), stride=2, pad=PadMode("circular", 1)), pr))
            assert grad_check(fn, {"x": x, "w": w}, tol=1e-4).ok
            return
        elif op == "dw":
            w = eg.parameter(rng.standard_normal((2, 3, 3)))
            fn = lambda: eg.sum_(eg.mul(eg.depthwise_conv2d(x, w, eg.tensor(np.zeros(2)), pad=PadMode.zeros(1)), probe))
            assert grad_check(fn, {"x": x, "w": w}, tol=1e-4).ok
            return
        elif op == "xcorr":
            z = eg.parameter(rng.standard_normal((2, 3, 3)))
            pr = eg.tensor(rng.standard_normal((2, 4, 4)), dtype=np.float64)
            fn = lambda: eg.sum_(eg.mul(eg.depthwise_xcorr(z, x, PadMode.zeros(0)), pr))
            assert grad_check(fn, {"x": x, "z": z}, tol=1e-4).ok
            return
        elif op == "minmax":
            fn = lambda: eg.sum_(eg.maximum(eg.minimum(x, 0.7), -0.7))
        elif op == "clip":
            fn = lambda: eg.sum_(eg.clip(x, -0.5, 0.5))
        elif op == "div":
            fn = lambda: eg.sum_(eg.div(x, eg.add(eg.abs_(probe), 2.0)))
        elif op == "leaky_relu":
            fn = lambda: eg.sum_(eg.mul(eg.leaky_relu(x, 0.1), probe))
        else:
            fn = lambda: eg.sum_(eg.mul(x[:, 1:4, 2:5], 1.5))

        assert grad_check(fn, {"x": x}, tol=1e-4).ok


class TestPadMode:
    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            PadMode("reflect", 1)

    @pytest.mark.parametrize("amount", [1.5, 2.0, True, -1])
    def test_amount_must_be_an_int_at_least_0(self, amount):
        with pytest.raises(ValueError, match=f"pad amount must be an int >= 0, got {amount}"):
            PadMode("zeros", amount)

    def test_same_helper(self):
        assert PadMode.same("zeros", 7) == PadMode.zeros(3)


# --------------------------------------------------------------------------
# memory layout: ops accept any strides and never write into their inputs
# --------------------------------------------------------------------------


def _other_layout(a):
    """The same values in a non-contiguous array: axes stored in reverse
    order, or every other element of a wider buffer for 1-d arrays."""
    if a.ndim >= 2:
        return np.ascontiguousarray(a.T).T
    buf = np.zeros(2 * a.size, dtype=a.dtype)
    buf[::2] = a
    return buf[::2]


def _positive(shape):
    return lambda r: np.abs(r.standard_normal(shape)) + 0.5


def _normal(shape):
    return lambda r: r.standard_normal(shape)


# "op" or "op:variant" -> (call on tensors, input makers); every op in
# engine.__all__ that takes arrays has at least one case.
LAYOUT_CASES = {
    "add": (eg.add, [_normal((3, 4)), _normal((3, 4))]),
    "sub": (eg.sub, [_normal((3, 4)), _normal((3, 4))]),
    "mul": (eg.mul, [_normal((3, 4)), _normal((3, 4))]),
    "div": (eg.div, [_normal((3, 4)), _positive((3, 4))]),
    "matmul": (eg.matmul, [_normal((4, 5)), _normal((5, 3))]),
    "matmul:3d": (eg.matmul, [_normal((2, 4, 5)), _normal((2, 5, 3))]),
    "transpose": (lambda t: eg.transpose(t, (2, 0, 1)), [_normal((3, 4, 5))]),
    "reshape": (lambda t: eg.reshape(t, (12, 5)), [_normal((3, 4, 5))]),
    "tensor_slice": (lambda t: eg.tensor_slice(t, (slice(None), slice(1, 3))), [_normal((3, 4, 5))]),
    "sum_": (lambda t: eg.sum_(t, axis=1), [_normal((3, 4, 5))]),
    "mean_": (lambda t: eg.mean_(t, axis=0), [_normal((3, 4, 5))]),
    "abs_": (eg.abs_, [_normal((3, 4))]),
    "log": (eg.log, [_positive((3, 4))]),
    "maximum": (eg.maximum, [_normal((3, 4)), _normal((3, 4))]),
    "minimum": (eg.minimum, [_normal((3, 4)), _normal((3, 4))]),
    "clip": (lambda t: eg.clip(t, -0.5, 0.5), [_normal((3, 4))]),
    "relu": (eg.relu, [_normal((3, 4))]),
    "leaky_relu": (lambda t: eg.leaky_relu(t, 0.1), [_normal((3, 4))]),
    "gelu": (eg.gelu, [_normal((3, 4, 5))]),
    "sigmoid": (eg.sigmoid, [_normal((3, 4))]),
    "softmax_last_dim": (eg.softmax_last_dim, [_normal((3, 4, 5))]),
    "layer_norm": (lambda x, g, b: eg.layer_norm(x, g, b, axis=0),
                   [_normal((6, 4, 5)), _normal((6,)), _normal((6,))]),
    "layer_norm:last": (lambda x, g, b: eg.layer_norm(x, g, b, axis=-1),
                        [_normal((5, 6)), _normal((6,)), _normal((6,))]),
    "linear": (eg.linear, [_normal((5, 4)), _normal((4, 3)), _normal((3,))]),
    "conv2d": (lambda x, w, b: eg.conv2d(x, w, b, stride=1, pad=PadMode.zeros(1)),
               [_normal((2, 6, 5)), _normal((3, 2, 3, 3)), _normal((3,))]),
    "conv2d:tiled": (lambda x, w, b: eg.conv2d(x, w, b, stride=2, pad=PadMode.zeros(0)),
                     [_normal((2, 6, 4)), _normal((3, 2, 2, 2)), _normal((3,))]),
    "conv2d:circular": (lambda x, w: eg.conv2d(x, w, eg.tensor(np.zeros(3)), stride=2, pad=PadMode("circular", 1)),
                        [_normal((2, 6, 6)), _normal((3, 2, 3, 3))]),
    "depthwise_conv2d": (lambda x, w, b: eg.depthwise_conv2d(x, w, b, pad=PadMode.zeros(1)),
                         [_normal((4, 6, 5)), _normal((4, 3, 3)), _normal((4,))]),
    "depthwise_conv2d:circular": (lambda x, w: eg.depthwise_conv2d(x, w, eg.tensor(np.zeros(4)),
                                                                   pad=PadMode("circular", 1)),
                                  [_normal((4, 5, 6)), _normal((4, 3, 3))]),
    "depthwise_xcorr": (lambda z, x: eg.depthwise_xcorr(z, x, pad=PadMode.zeros(1)),
                        [_normal((3, 3, 3)), _normal((3, 6, 5))]),
}


# names in engine.__all__ that are not array ops
NOT_OPS = {"Tensor", "PadMode", "ShapeError", "no_grad", "tensor", "parameter", "backward",
           "zero_grads"}


class TestLayouts:
    def test_every_array_op_has_a_case(self):
        assert {case.split(":")[0] for case in LAYOUT_CASES} == set(eg.__all__) - NOT_OPS

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_forward_ignores_layout(self, case):
        fn, makers = LAYOUT_CASES[case]
        r = np.random.default_rng(5)
        arrays = [m(r).astype(np.float32) for m in makers]
        want = fn(*(eg.tensor(a) for a in arrays)).data
        views = [_other_layout(a) for a in arrays]
        assert not any(v.flags.c_contiguous for v in views if v.ndim)
        got = fn(*(eg.tensor(v) for v in views)).data
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)

    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_grad_check_on_non_contiguous_inputs(self, case):
        fn, makers = LAYOUT_CASES[case]
        r = np.random.default_rng(6)
        params = {f"in{i}": eg.parameter(_other_layout(m(r)))
                  for i, m in enumerate(makers)}
        with eg.no_grad():
            out_shape = fn(*params.values()).shape
        probe = eg.tensor(r.standard_normal(out_shape), dtype=np.float64)
        loss = lambda: eg.sum_(eg.mul(fn(*params.values()), probe))
        report = grad_check(loss, params, tol=1e-4, max_entries=24, rng=r)
        assert report.ok, report.summary()

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_inputs_unchanged_by_forward_and_backward(self, case, contiguous):
        fn, makers = LAYOUT_CASES[case]
        r = np.random.default_rng(7)
        arrays = [m(r) for m in makers]
        if not contiguous:
            arrays = [_other_layout(a) for a in arrays]
        params = [eg.parameter(a) for a in arrays]
        before = [p.data.copy() for p in params]
        out = fn(*params)
        eg.backward(eg.sum_(eg.mul(out, eg.tensor(r.standard_normal(out.shape), dtype=np.float64))))
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.data, b)
            assert p.grad.shape == p.shape and p.grad.dtype == np.float64

    def test_transpose_returns_a_view(self, rng):
        x = eg.tensor(rng.standard_normal((3, 4, 5)))
        out = eg.transpose(x, (1, 2, 0))
        assert np.shares_memory(out.data, x.data)
        np.testing.assert_array_equal(out.data, x.data.transpose(1, 2, 0))

    @staticmethod
    def _depthwise_tap_loop(x, w, pad):
        """The channels-first tap loop the engine's depthwise kernel replaced."""
        c, kh, kw = w.shape
        xp = pad_spatial(x, pad)
        ho, wo = xp.shape[1] - kh + 1, xp.shape[2] - kw + 1
        out = np.zeros((c, ho, wo), dtype=xp.dtype)
        for ki in range(kh):
            for kj in range(kw):
                out += xp[:, ki : ki + ho, kj : kj + wo] * w[:, ki, kj][:, None, None]
        return out

    @staticmethod
    def _depthwise_scatter_loop(g, w, pad, h, wid):
        """The scatter loop the engine's depthwise input gradient replaced,
        channels-first: tap (i, j) adds g * w[:, i, j] at offset (i, j) of the
        padded gradient, taps in row-major order from zero, and the padding
        is then folded back in."""
        c, kh, kw = w.shape
        p = pad.amount
        ho, wo = g.shape[1:]
        gp = np.zeros((c, h + 2 * p, wid + 2 * p), dtype=g.dtype)
        for ki in range(kh):
            for kj in range(kw):
                gp[:, ki : ki + ho, kj : kj + wo] += g * w[:, ki, kj][:, None, None]
        if pad.kind == "zeros":
            return gp[:, p : p + h, p : p + wid]
        rows = gp[:, p : p + h].copy()
        rows[:, h - p :] += gp[:, :p]
        rows[:, :p] += gp[:, p + h :]
        out = rows[:, :, p : p + wid].copy()
        out[:, :, wid - p :] += rows[:, :, :p]
        out[:, :, :p] += rows[:, :, p + wid :]
        return out

    @staticmethod
    def _depthwise_grads(x, k, g, pad):
        xt, kt = eg.parameter(x), eg.parameter(k)
        out = eg.depthwise_conv2d(xt, kt, eg.tensor(np.zeros(len(k))), pad=pad)
        eg.backward(eg.sum_(eg.mul(out, eg.tensor(g, dtype=g.dtype))))
        return xt.grad, kt.grad

    # merged (column, channel) runs of `eg._column_runs`: all columns (16, 9, 7),
    # none (640 channels; the prime widths of (64, 45, 37)), and 16 or 15
    # columns of 64 channels (64, 32, 32)
    DEPTHWISE_SHAPES = [(16, 9, 7), (640, 32, 32), (64, 45, 37), (64, 32, 32)]

    @pytest.mark.parametrize("pad", [PadMode.zeros(1), PadMode("circular", 1), PadMode.zeros(0)])
    def test_depthwise_bit_equal_to_tap_loop(self, rng, pad):
        for c, h, w in self.DEPTHWISE_SHAPES:
            x = rng.standard_normal((c, h, w)).astype(np.float32)
            k = rng.standard_normal((c, 3, 3)).astype(np.float32)
            b = rng.standard_normal(c).astype(np.float32)
            want = self._depthwise_tap_loop(x, k, pad) + b[:, None, None]
            for xin in (x, _other_layout(x)):
                got = eg.depthwise_conv2d(eg.tensor(xin), eg.tensor(k), eg.tensor(b), pad=pad).data
                np.testing.assert_array_equal(got, want, err_msg=f"shape {(c, h, w)}")

    @pytest.mark.parametrize("pad", [PadMode.zeros(1), PadMode("circular", 1), PadMode.zeros(0)])
    def test_depthwise_input_grad_bit_equal_to_scatter_loop(self, rng, pad):
        for c, h, w in self.DEPTHWISE_SHAPES:
            x = rng.standard_normal((c, h, w)).astype(np.float32)
            k = rng.standard_normal((c, 3, 3)).astype(np.float32)
            g = rng.standard_normal((c, h + 2 * pad.amount - 2, w + 2 * pad.amount - 2)).astype(np.float32)
            want = self._depthwise_scatter_loop(g, k, pad, h, w)
            for xin in (x, _other_layout(x)):
                got, _ = self._depthwise_grads(xin, k, g, pad)
                np.testing.assert_array_equal(got, want, err_msg=f"shape {(c, h, w)}")

    @pytest.mark.parametrize("pad", [PadMode.zeros(1), PadMode("circular", 1), PadMode.zeros(0)])
    def test_depthwise_kernel_grad_near_float64(self, rng, pad):
        for c, h, w in self.DEPTHWISE_SHAPES:
            x = rng.standard_normal((c, h, w)).astype(np.float32)
            k = rng.standard_normal((c, 3, 3)).astype(np.float32)
            g = rng.standard_normal((c, h + 2 * pad.amount - 2, w + 2 * pad.amount - 2)).astype(np.float32)
            xp, g64 = pad_spatial(x.astype(np.float64), pad), g.astype(np.float64)
            ho, wo = g.shape[1:]
            want = np.empty((c, 3, 3))
            for i in range(3):
                for j in range(3):
                    want[:, i, j] = (xp[:, i : i + ho, j : j + wo] * g64).sum(axis=(1, 2))
            for xin in (x, _other_layout(x)):
                _, got = self._depthwise_grads(xin, k, g, pad)
                assert got.dtype == np.float32
                rel = np.abs(got - want).max() / np.abs(want).max()
                assert rel < 5e-7, f"shape {(c, h, w)}: {rel:.2e}"

    @pytest.mark.parametrize("pad", [PadMode.zeros(1), PadMode("circular", 1), PadMode.zeros(0)])
    def test_depthwise_column_runs_are_views(self, rng, pad, monkeypatch):
        """Every tap sum, forward and input gradient, reads its merged
        (column, channel) runs as a view of the padded buffer: a copy would
        be kh * kw times the input."""
        runs = []
        column_runs = eg._column_runs
        monkeypatch.setattr(eg, "_column_runs", lambda win: runs.append((win, column_runs(win))) or runs[-1][1])
        x = rng.standard_normal((64, 32, 32)).astype(np.float32)
        xl = eg._channels_last(x, pad)
        ho, wo = xl.shape[0] - 2, xl.shape[1] - 2
        assert np.shares_memory(eg._column_runs(eg._windows(xl, 3, 3, ho, wo)), xl)
        out = eg.depthwise_conv2d(eg.parameter(x), eg.tensor(rng.standard_normal((64, 3, 3))), eg.tensor(np.zeros(64)),
                                  pad=pad)
        eg.backward(eg.sum_(out))
        assert len(runs) == 3  # the direct call, the forward and the input gradient
        for win, r in runs:
            assert np.shares_memory(r, win)
        fwd, grad = runs[1][1], runs[2][1]
        # wo = 32 (30 unpadded): 16 (15) columns of 64 channels per run; the
        # circular input gradient spans the 34 padded columns, so 2
        assert fwd.shape[-1] == 64 * (15 if pad.amount == 0 else 16)
        assert grad.shape[-1] == 64 * (2 if pad.kind == "circular" else 16)

    def test_depthwise_xcorr_bit_equal_to_tap_loop(self, rng):
        z = rng.standard_normal((160, 8, 8)).astype(np.float32)
        x = rng.standard_normal((160, 32, 32)).astype(np.float32)
        want = self._depthwise_tap_loop(x, z, PadMode.zeros(0))
        for xin in (x, _other_layout(x)):
            got = eg.depthwise_xcorr(eg.tensor(z), eg.tensor(xin), PadMode.zeros(0)).data
            np.testing.assert_array_equal(got, want)

    @staticmethod
    def _conv_input_grad_tap_loop(g, w, stride, pad, h, wid):
        """conv2d's input gradient as the engine computed it before: the
        im2col gradient ``g_rows @ wmat``, added tap by tap from zero into a
        channels-last padded buffer, then a circular padding folded back in
        or a zero padding cropped off."""
        c_out, c_in, k, _ = w.shape
        p = pad.amount
        ho, wo = g.shape[1:]
        wmat = w.transpose(0, 2, 3, 1).reshape(c_out, -1)
        gcols = (g.reshape(c_out, -1).T @ wmat).reshape(ho, wo, k, k, c_in)
        gxl = np.zeros((h + 2 * p, wid + 2 * p, c_in), dtype=g.dtype)
        for ki in range(k):
            for kj in range(k):
                gxl[ki : ki + (ho - 1) * stride + 1 : stride,
                    kj : kj + (wo - 1) * stride + 1 : stride] += gcols[:, :, ki, kj]
        if pad.kind == "circular":
            return eg._unpad_adjoint(gxl.transpose(2, 0, 1), pad, h, wid)
        return gxl.transpose(2, 0, 1)[:, p : p + h, p : p + wid]

    @staticmethod
    def _conv_input_grad(x, w, g, stride, pad):
        xt = eg.parameter(x)
        out = eg.conv2d(xt, eg.tensor(w), eg.tensor(np.zeros(len(w))), stride=stride, pad=pad)
        eg.backward(eg.sum_(eg.mul(out, eg.tensor(g))))
        return xt.grad

    @pytest.mark.parametrize("pad", [pytest.param(PadMode.zeros(0), id="zeros(0)"), PadMode.zeros(1),
                                     PadMode("circular", 2)], ids=str)
    def test_conv2d_tiled_input_grad_bit_equal_to_tap_loop(self, rng, pad):
        """stride == kernel: the windows tile the input, and the gradient is
        one strided assignment instead of k * k slice adds."""
        for c_in, c_out, k, h, wid in ((64, 64, 2, 16, 16), (5, 3, 4, 13, 10), (3, 7, 3, 9, 12)):
            x = rng.standard_normal((c_in, h, wid)).astype(np.float32)
            w = rng.standard_normal((c_out, c_in, k, k)).astype(np.float32)
            ho = (h + 2 * pad.amount - k) // k + 1
            wo = (wid + 2 * pad.amount - k) // k + 1
            g = rng.standard_normal((c_out, ho, wo)).astype(np.float32)
            want = self._conv_input_grad_tap_loop(g, w, k, pad, h, wid)
            for xin in (x, _other_layout(x)):
                got = self._conv_input_grad(xin, w, g, k, pad)
                np.testing.assert_array_equal(got, want, err_msg=f"shape {(c_in, h, wid)}")

    @pytest.mark.parametrize("c_in,k,stride,pad,size", [
        (3, 7, 4, PadMode.zeros(3), 128), (16, 3, 2, PadMode.zeros(1), 32),
        (4, 3, 1, PadMode("circular", 1), 9)], ids=str)
    def test_conv2d_input_grad_matches_tap_loop(self, rng, c_in, k, stride, pad, size):
        """Overlapping windows: the taps are added in the loop's order."""
        x = rng.standard_normal((c_in, size, size)).astype(np.float32)
        w = rng.standard_normal((16, c_in, k, k)).astype(np.float32)
        ho = (size + 2 * pad.amount - k) // stride + 1
        g = rng.standard_normal((16, ho, ho)).astype(np.float32)
        want = self._conv_input_grad_tap_loop(g, w, stride, pad, size, size)
        got = self._conv_input_grad(x, w, g, stride, pad)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("stride,k,pad", [(2, 3, PadMode.zeros(1)), (1, 3, PadMode.zeros(1)),
                                              (4, 7, PadMode.zeros(3)), (2, 2, PadMode.zeros(0))], ids=str)
    def test_conv2d_input_grad_is_compact(self, rng, stride, k, pad):
        """Under zero or no padding the input gradient is a channels-first
        view of an unpadded channels-last buffer, so the reshape to tokens
        that `blocks.map_of` records takes it without a copy."""
        x = eg.parameter(rng.standard_normal((16, 32, 32)).astype(np.float32))
        out = eg.conv2d(x, eg.tensor(rng.standard_normal((8, 16, k, k))), eg.tensor(np.zeros(8)),
                        stride=stride, pad=pad)
        (entry, partial), = out._node.edges  # only x requires grad
        assert entry is x
        gx = partial(rng.standard_normal(out.shape).astype(np.float32))
        assert gx.shape == x.shape and gx.transpose(1, 2, 0).flags.c_contiguous
        assert np.shares_memory(gx.reshape(16, 32 * 32), gx)

    @pytest.mark.parametrize("kind,mode", [("zeros", "constant"), ("circular", "wrap")])
    def test_padding_bit_equal_to_np_pad(self, rng, kind, mode):
        for c, h, wid in ((3, 5, 7), (4, 3, 3), (2, 1, 6)):
            x = rng.standard_normal((c, h, wid)).astype(np.float32)
            for p in range(4):
                if kind == "circular" and p > min(h, wid):
                    continue
                want = np.pad(x.transpose(1, 2, 0), ((p, p), (p, p), (0, 0)), mode=mode)
                for xin in (x, _other_layout(x)):
                    got = eg._channels_last(xin, PadMode(kind, p))
                    assert got.shape == want.shape and got.flags.c_contiguous
                    assert got.tobytes() == want.tobytes(), (kind, p, (c, h, wid))


# --------------------------------------------------------------------------
# blocks: GELU, layer norm and softmax run in row blocks of about
# eg._BLOCK_BYTES; these inputs span many once the block is shrunk
# --------------------------------------------------------------------------

BLOCKED_CASES = {
    "gelu": (eg.gelu, [_normal((6, 9, 7))]),
    "layer_norm": (lambda x, g, b: eg.layer_norm(x, g, b, axis=0),
                   [_normal((6, 9, 7)), _normal((6,)), _normal((6,))]),
    "layer_norm:last": (lambda x, g, b: eg.layer_norm(x, g, b, axis=-1),
                        [_normal((21, 5)), _normal((5,)), _normal((5,))]),
    "softmax_last_dim": (eg.softmax_last_dim, [_normal((3, 11, 7))]),
}


class TestBlocks:
    SMALL = 64  # bytes: one or two rows per block, and a one-row last block

    @staticmethod
    def _count_blocks(monkeypatch):
        counts = []
        blocks = eg._blocks

        def counting(rows):
            out = blocks(rows)
            counts.append(len(out))
            return out

        monkeypatch.setattr(eg, "_blocks", counting)
        return counts

    @pytest.mark.parametrize("contiguous", [True, False])
    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_forward_bit_equal_to_one_block(self, case, contiguous, monkeypatch):
        fn, makers = BLOCKED_CASES[case]
        r = np.random.default_rng(11)
        arrays = [m(r).astype(np.float32) for m in makers]
        if not contiguous:
            arrays = [_other_layout(a) for a in arrays]
        counts = self._count_blocks(monkeypatch)
        want = fn(*(eg.tensor(a) for a in arrays)).data
        assert counts == [1]
        monkeypatch.setattr(eg, "_BLOCK_BYTES", self.SMALL)
        got = fn(*(eg.tensor(a) for a in arrays)).data
        assert counts[1] > 5
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("case", sorted(BLOCKED_CASES))
    def test_grad_check_on_non_contiguous_inputs(self, case, monkeypatch):
        fn, makers = BLOCKED_CASES[case]
        monkeypatch.setattr(eg, "_BLOCK_BYTES", self.SMALL)
        counts = self._count_blocks(monkeypatch)
        r = np.random.default_rng(12)
        params = {f"in{i}": eg.parameter(_other_layout(m(r)))
                  for i, m in enumerate(makers)}
        with eg.no_grad():
            out_shape = fn(*params.values()).shape
        assert min(counts) > 5
        probe = eg.tensor(r.standard_normal(out_shape), dtype=np.float64)
        loss = lambda: eg.sum_(eg.mul(fn(*params.values()), probe))
        report = grad_check(loss, params, tol=1e-4, max_entries=24, rng=r)
        assert report.ok, report.summary()


# --------------------------------------------------------------------------
# recording: what an op records, and which operands receive what gradient
# --------------------------------------------------------------------------


BINARY_OPS = [eg.add, eg.sub, eg.mul, eg.div, eg.maximum, eg.minimum]


class TestRecording:
    @pytest.mark.parametrize("case", sorted(LAYOUT_CASES))
    def test_no_grad_records_nothing(self, case):
        fn, makers = LAYOUT_CASES[case]
        r = np.random.default_rng(8)
        params = [eg.parameter(m(r)) for m in makers]
        with eg.no_grad():
            out = fn(*params)
        assert not out.requires_grad
        assert out._node is None

    @pytest.mark.parametrize("shapes", [((3, 4), (4,)), ((3, 1), (1, 4)), ((2, 3, 4), (3, 1)),
                                        ((), (3, 4)), ((1,), ())])
    @pytest.mark.parametrize("op", BINARY_OPS, ids=lambda op: op.__name__)
    def test_tensor_operands_of_two_shapes_rejected(self, op, shapes):
        """No tensor is broadcast: the op raises, with grad enabled or not."""
        a, b = (eg.parameter(np.ones(s)) for s in shapes)
        for x, y in ((a, b), (b, a)):
            with pytest.raises(eg.ShapeError, match="operand shapes differ"):
                op(x, y)
            with eg.no_grad(), pytest.raises(eg.ShapeError, match="operand shapes differ"):
                op(x, y)

    @pytest.mark.parametrize("op", BINARY_OPS, ids=lambda op: op.__name__)
    def test_array_operand_is_not_broadcast(self, op):
        """An array operand that is not a Tensor is a constant of its own
        shape: only a number is broadcast."""
        p = eg.parameter(np.ones((3, 4)))
        for arr in (np.ones(4), np.ones((1, 4)), [1.0, 2.0, 3.0, 4.0]):
            for args in ((p, arr), (arr, p)):
                with pytest.raises(eg.ShapeError, match="operand shapes differ"):
                    op(*args)

    @pytest.mark.parametrize("op", BINARY_OPS, ids=lambda op: op.__name__)
    def test_number_operand_is_a_constant(self, op):
        """A number on either side acts as a constant tensor of the other
        operand's shape and dtype: the same output, and the same gradient
        for the tensor."""
        r = np.random.default_rng(10)
        a = np.abs(r.standard_normal((3, 4))) + 0.5
        full = eg.tensor(np.full((3, 4), 1.5), dtype=np.float64)
        probe = eg.tensor(r.standard_normal((3, 4)), dtype=np.float64)
        for number_first in (False, True):
            runs = []
            for other in (1.5, full):
                p = eg.parameter(a)
                out = op(other, p) if number_first else op(p, other)
                assert out.shape == (3, 4) and out.dtype == np.float64
                eg.sum_(eg.mul(out, probe)).backward()
                runs.append((out.data, p.grad))
            (out_number, grad_number), (out_full, grad_full) = runs
            np.testing.assert_array_equal(out_number, out_full)
            np.testing.assert_array_equal(grad_number, grad_full)


# --------------------------------------------------------------------------
# retention: a graph keeps only the arrays its partials read
# --------------------------------------------------------------------------


def _input_of(op):
    """A case for `op` whose input is an op output over the first parameter,
    so that only that output tensor holds the input's data."""
    def build(p, *rest):
        t = eg.mul(p, 1.5)
        return op(t, *rest), weakref.ref(t.data)
    return build


def _reshape_of_strided(p):
    t = eg.transpose(eg.mul(p, 1.5), (1, 0))  # a strided view, so the reshape copies it
    return eg.reshape(t, (-1,)), weakref.ref(t.data)


def _scaled_scores(q, k):
    scores = eg.matmul(q, k)
    return eg.mul(scores, 0.5), weakref.ref(scores.data)


# name: (parameter shapes, build(*params) -> (output, weakref to the array it must not keep))
RETENTION_CASES = {
    "reshape": ([(4, 6)], _reshape_of_strided),
    "layer_norm": ([(5, 6), (6,), (6,)], _input_of(lambda t, g, b: eg.layer_norm(t, g, b, axis=-1))),
    "softmax_last_dim": ([(2, 3, 5)], _input_of(eg.softmax_last_dim)),
    "relu": ([(4, 5)], _input_of(eg.relu)),
    "mul:scores": ([(2, 3, 4), (2, 4, 5)], _scaled_scores),
}


class TestRetention:
    @pytest.mark.parametrize("case", sorted(RETENTION_CASES))
    def test_input_the_backward_does_not_read_is_freed(self, case):
        """With grad enabled, the op's input array dies with its tensor, and
        the op's gradients still match finite differences."""
        shapes, build = RETENTION_CASES[case]
        r = np.random.default_rng(13)
        params = {f"in{i}": eg.parameter(r.standard_normal(s)) for i, s in enumerate(shapes)}
        out, dropped = build(*params.values())
        assert out.requires_grad and dropped() is None
        probe = eg.tensor(r.standard_normal(out.shape), dtype=np.float64)
        report = grad_check(lambda: eg.sum_(eg.mul(build(*params.values())[0], probe)), params)
        assert report.ok, report.summary()

    def test_conv2d_keeps_no_im2col_matrix(self, rng, monkeypatch):
        """The weight partial rebuilds the im2col matrix [ho * wo, k * k * c_in]
        from the padded input: every such matrix is freed once the op
        returns, and the weight gradient matches a tap-by-tap reference."""
        made = []  # (shape, weakref) of every array made from a window view

        class Traced(np.ndarray):
            def __array_finalize__(self, obj):
                made.append((self.shape, weakref.ref(self)))

        windows = eg._windows
        monkeypatch.setattr(eg, "_windows", lambda *args: windows(*args).view(Traced))
        c_in, c_out, k, stride, p = 3, 4, 3, 2, 1
        x = eg.parameter(rng.standard_normal((c_in, 9, 9)))
        w = eg.parameter(rng.standard_normal((c_out, c_in, k, k)))
        b = eg.parameter(rng.standard_normal(c_out))
        out = eg.conv2d(x, w, b, stride=stride, pad=PadMode.zeros(p))
        ho, wo = out.shape[1:]
        cols = [ref for shape, ref in made if shape == (ho * wo, k * k * c_in)]
        assert cols and all(ref() is None for ref in cols)
        probe = rng.standard_normal(out.shape)
        eg.sum_(eg.mul(out, eg.tensor(probe, dtype=np.float64))).backward()
        xp = np.pad(x.data, ((0, 0), (p, p), (p, p)))
        want = np.empty(w.shape)
        for i in range(k):
            for j in range(k):
                taps = xp[:, i : i + stride * ho : stride, j : j + stride * wo : stride]
                want[:, :, i, j] = np.einsum("oyx,cyx->oc", probe, taps)
        np.testing.assert_allclose(w.grad, want, rtol=1e-12, atol=1e-12)

    def test_training_pair_graph_is_freed_without_the_cycle_collector(self):
        """The graph of a tiny training pair holds no reference cycle: with
        cyclic GC off, dropping the loss and the outputs frees it."""
        model = md.build_model(md.tiny_config(), seed=0)
        r = np.random.default_rng(0)
        z = r.random((3, 64, 64), dtype=np.float32)
        x = r.random((3, 128, 128), dtype=np.float32)
        tm = tr.assign_targets(Box(40, 40, 90, 90), model.config.search_grid(), 128.0)
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            cls, reg = md.forward(model, z, x)
            loss = tr.total_loss(tr.cls_loss(cls, tm.labels),
                                 *tr.reg_loss_terms(reg, tm.reg, tm.labels))
            graph, _ = tracemalloc.get_traced_memory()
            del cls, reg, loss
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert graph > 8 << 20 and left < 1 << 20, (graph, left)


# --------------------------------------------------------------------------
# memory policy: freed heap memory stays in the process between frames
# --------------------------------------------------------------------------


def _has_mallopt() -> bool:
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    return True


class TestMemoryPolicy:
    @pytest.mark.skipif(not _has_mallopt(), reason="the C library has no mallopt")
    def test_repeated_frames_fault_in_no_fresh_memory(self):
        resource = pytest.importorskip("resource")
        from sbtrack import model as md

        model = md.build_model(md.tiny_config(), seed=0)
        r = np.random.default_rng(0)
        z = eg.tensor(r.standard_normal((3, 64, 64)))
        x = eg.tensor(r.standard_normal((3, 128, 128)))
        with eg.no_grad():
            for _ in range(2):
                md.forward(model, z, x)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(5):
                md.forward(model, z, x)
            faults = (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5
        # about 2000 per frame when glibc trims the freed heap between frames
        assert faults < 100

    @pytest.mark.parametrize("cdll", [
        "def CDLL(*args, **kwargs):\n    raise OSError('no C library')",
        "def CDLL(*args, **kwargs):\n    return object()",
    ], ids=["no_library", "no_mallopt"])
    def test_import_without_mallopt(self, cdll):
        code = f"import ctypes\n{cdll}\nctypes.CDLL = CDLL\nimport sbtrack.engine\n"
        src = os.path.dirname(os.path.dirname(eg.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
