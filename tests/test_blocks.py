"""Block-level tests: shapes, identities, symmetries, and gradients."""

import numpy as np
import pytest

from sbtrack import blocks as bl
from sbtrack import engine as eg
from sbtrack.engine import PadMode

from oracle_helpers import attention_loops, conv2d_loops, randomize_weights


@pytest.fixture
def rng():
    return np.random.default_rng(7)


def fmap(rng, c, h, w, dtype=np.float32):
    return bl.FeatureMap(eg.tensor(rng.standard_normal((c, h, w)), dtype=dtype))


def make_cfg(c=8, heads=2, r=2):
    return bl.AttnConfig(dim=c, heads=heads, reduction=r)


def make_weights(rng, cfg, dtype=np.float32):
    return bl.init_params(rng, bl.block_shapes(cfg), dtype=dtype)


class TestPatchEmbed:
    def test_template_shape(self, rng):
        w = bl.init_params(rng, bl.patch_embed_shapes(3, 64, 7))
        out = bl.patch_embed(eg.tensor(rng.standard_normal((3, 128, 128))), w, stride=4)
        assert out.tensor.shape == (64, 32, 32)

    def test_search_shape(self, rng):
        w = bl.init_params(rng, bl.patch_embed_shapes(3, 64, 7))
        out = bl.patch_embed(eg.tensor(rng.standard_normal((3, 256, 256))), w, stride=4)
        assert out.tensor.shape == (64, 64, 64)

    def test_zero_image_zero_output(self, rng):
        w = bl.init_params(rng, bl.patch_embed_shapes(3, 16, 7))
        out = bl.patch_embed(eg.tensor(np.zeros((3, 32, 32))), w, stride=4)
        np.testing.assert_allclose(out.tensor.data, 0.0, atol=1e-7)

    def test_indivisible_extent_rejected(self, rng):
        w = bl.init_params(rng, bl.patch_embed_shapes(3, 16, 7))
        with pytest.raises(eg.ShapeError):
            bl.patch_embed(eg.tensor(np.zeros((3, 30, 30))), w, stride=4)


class TestQkvProject:
    def test_identity_projection_returns_tokens(self, rng):
        cfg = make_cfg(c=6, heads=1, r=1)
        w = make_weights(rng, cfg)
        w["q_weight"].data[:] = np.eye(6)
        w["q_bias"].data[:] = 0
        f = fmap(rng, 6, 4, 4)
        q = bl.qkv_project(f, "q", cfg, w)
        np.testing.assert_allclose(q.data[0], bl.tokens_of(f).data, atol=1e-6)

    def test_token_counts_under_reduction(self, rng):
        cfg = make_cfg(c=8, heads=2, r=2)
        w = make_weights(rng, cfg)
        f = fmap(rng, 8, 8, 8)
        assert bl.qkv_project(f, "q", cfg, w).shape == (2, 64, 4)
        assert bl.qkv_project(f, "k", cfg, w).shape == (2, 16, 4)
        assert bl.qkv_project(f, "v", cfg, w).shape == (2, 16, 4)

    def test_reduction_must_divide_grid(self, rng):
        cfg = make_cfg(c=8, heads=2, r=3)
        w = make_weights(rng, cfg)
        with pytest.raises(eg.ShapeError):
            bl.qkv_project(fmap(rng, 8, 8, 8), "k", cfg, w)

    def test_against_strided_conv_oracle(self, rng):
        cfg = make_cfg(c=4, heads=1, r=2)
        w = make_weights(rng, cfg, dtype=np.float64)
        f = fmap(rng, 4, 4, 6, dtype=np.float64)
        got = bl.qkv_project(f, "k", cfg, w).data[0]

        red = conv2d_loops(f.tensor.data, w["reduce_weight"].data, w["reduce_bias"].data,
                           stride=2, pad=PadMode.valid())
        tok = red.reshape(4, -1).T
        mu = tok.mean(axis=1, keepdims=True)
        var = tok.var(axis=1, keepdims=True)
        tok = (tok - mu) / np.sqrt(var + 1e-5)
        tok = tok * w["reduce_gamma"].data + w["reduce_beta"].data
        want = tok @ w["k_weight"].data + w["k_bias"].data
        assert np.abs(got - want).max() < 1e-5


class TestAttention:
    def test_single_key_returns_value(self, rng):
        q = eg.tensor(rng.standard_normal((5, 4)))
        k = eg.tensor(rng.standard_normal((1, 4)))
        v = eg.tensor(rng.standard_normal((1, 4)))
        out = bl.attention(q, k, v, 4)
        np.testing.assert_allclose(out.data, np.repeat(v.data, 5, axis=0), atol=1e-6)

    def test_identical_keys_average_values(self, rng):
        q = eg.tensor(rng.standard_normal((3, 4)))
        key = rng.standard_normal(4)
        k = eg.tensor(np.stack([key, key]))
        v = eg.tensor(rng.standard_normal((2, 4)))
        out = bl.attention(q, k, v, 4)
        np.testing.assert_allclose(out.data, np.repeat(v.data.mean(axis=0, keepdims=True), 3, axis=0),
                                   atol=1e-6)

    def test_against_double_loop_oracle(self, rng):
        q = rng.standard_normal((6, 4)).astype(np.float32)
        k = rng.standard_normal((9, 4)).astype(np.float32)
        v = rng.standard_normal((9, 4)).astype(np.float32)
        got = bl.attention(eg.tensor(q), eg.tensor(k), eg.tensor(v), 4).data
        assert np.abs(got - attention_loops(q, k, v, 4)).max() < 1e-5

    def test_head_dim_mismatch(self, rng):
        with pytest.raises(eg.ShapeError):
            bl.attention(eg.tensor(np.zeros((2, 4))), eg.tensor(np.zeros((2, 3))),
                         eg.tensor(np.zeros((2, 3))), 4)

    def test_key_value_permutation_invariance(self, rng):
        q = eg.tensor(rng.standard_normal((5, 4)))
        k = rng.standard_normal((7, 4)).astype(np.float32)
        v = rng.standard_normal((7, 4)).astype(np.float32)
        perm = rng.permutation(7)
        a = bl.attention(q, eg.tensor(k), eg.tensor(v), 4).data
        b = bl.attention(q, eg.tensor(k[perm]), eg.tensor(v[perm]), 4).data
        assert np.abs(a - b).max() < 1e-6

    def test_query_permutation_equivariance(self, rng):
        q = rng.standard_normal((5, 4)).astype(np.float32)
        k = eg.tensor(rng.standard_normal((7, 4)))
        v = eg.tensor(rng.standard_normal((7, 4)))
        perm = rng.permutation(5)
        a = bl.attention(eg.tensor(q), k, v, 4).data
        b = bl.attention(eg.tensor(q[perm]), k, v, 4).data
        np.testing.assert_array_equal(a[perm], b)


class TestEocAttention:
    def test_zero_values_is_identity(self, rng):
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        w["v_weight"].data[:] = 0
        fz, fx = fmap(rng, 8, 4, 4), fmap(rng, 8, 8, 8)
        for mode in (bl.SA, bl.CA):
            oz, ox = bl.eoc_attention(fz, fx, mode, cfg, w)
            np.testing.assert_array_equal(oz.tensor.data, fz.tensor.data)
            np.testing.assert_array_equal(ox.tensor.data, fx.tensor.data)

    def test_sa_branches_are_isolated(self, rng):
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        fz = fmap(rng, 8, 4, 4)
        fx1, fx2 = fmap(rng, 8, 8, 8), fmap(rng, 8, 8, 8)
        oz1, _ = bl.eoc_attention(fz, fx1, bl.SA, cfg, w)
        oz2, _ = bl.eoc_attention(fz, fx2, bl.SA, cfg, w)
        np.testing.assert_array_equal(oz1.tensor.data, oz2.tensor.data)

    def test_ca_crosses_branches(self, rng):
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        fz = fmap(rng, 8, 4, 4)
        fx1, fx2 = fmap(rng, 8, 8, 8), fmap(rng, 8, 8, 8)
        oz1, _ = bl.eoc_attention(fz, fx1, bl.CA, cfg, w)
        oz2, _ = bl.eoc_attention(fz, fx2, bl.CA, cfg, w)
        assert np.abs(oz1.tensor.data - oz2.tensor.data).max() > 0

    def test_channel_mismatch(self, rng):
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        with pytest.raises(eg.ShapeError):
            bl.eoc_attention(fmap(rng, 8, 4, 4), fmap(rng, 4, 8, 8), bl.SA, cfg, w)

    def test_sa_runs_one_branch_alone(self, rng):
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        fz, fx = fmap(rng, 8, 4, 4), fmap(rng, 8, 8, 8)
        oz, ox = bl.eoc_attention(fz, fx, bl.SA, cfg, w)
        z_only = bl.eoc_attention(fz, None, bl.SA, cfg, w)
        x_only = bl.eoc_attention(None, fx, bl.SA, cfg, w)
        assert z_only[1] is None and x_only[0] is None
        np.testing.assert_array_equal(z_only[0].tensor.data, oz.tensor.data)
        np.testing.assert_array_equal(x_only[1].tensor.data, ox.tensor.data)

    def test_ca_needs_both_branches(self, rng):
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        with pytest.raises(ValueError, match="both branches"):
            bl.eoc_attention(fmap(rng, 8, 4, 4), None, bl.CA, cfg, w)
        with pytest.raises(ValueError, match="both branches"):
            bl.eoc_block(None, fmap(rng, 8, 8, 8), bl.CA, cfg, w)


class TestMlpCondPe:
    def test_zero_weights_zero_output(self, rng):
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        for name in ("fc1_weight", "fc1_bias", "pe_weight", "pe_bias", "fc2_weight", "fc2_bias"):
            w[name].data[:] = 0
        out = bl.mlp_cond_pe(fmap(rng, 8, 4, 4), w)
        np.testing.assert_array_equal(out.tensor.data, 0)

    def test_hidden_width_is_4c(self, rng):
        cfg = bl.AttnConfig(dim=64, heads=1, reduction=1)
        w = make_weights(rng, cfg)
        assert w["fc1_weight"].shape == (64, 256)

    def test_circular_shift_equivariance(self, rng):
        cfg = make_cfg(c=8, heads=1, r=1)
        w = make_weights(rng, cfg)
        f = rng.standard_normal((8, 6, 6)).astype(np.float32)
        run = lambda arr: bl.mlp_cond_pe(bl.FeatureMap(eg.tensor(arr)), w, pad_kind="circular").tensor.data
        shifted = np.roll(f, (1, 2), axis=(1, 2))
        assert np.abs(run(shifted) - np.roll(run(f), (1, 2), axis=(1, 2))).max() < 1e-5


class TestEocBlock:
    def test_zero_output_weights_is_identity(self, rng):
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        w["out_weight"].data[:] = 0
        w["fc2_weight"].data[:] = 0
        fz, fx = fmap(rng, 8, 4, 4), fmap(rng, 8, 8, 8)
        oz, ox = bl.eoc_block(fz, fx, bl.CA, cfg, w)
        np.testing.assert_array_equal(oz.tensor.data, fz.tensor.data)
        np.testing.assert_array_equal(ox.tensor.data, fx.tensor.data)

    def test_matches_manual_composition(self, rng):
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        fz, fx = fmap(rng, 8, 4, 4), fmap(rng, 8, 8, 8)
        oz, ox = bl.eoc_block(fz, fx, bl.CA, cfg, w)

        az, ax = bl.eoc_attention(fz, fx, bl.CA, cfg, w)
        for a, o in ((az, oz), (ax, ox)):
            normed = bl.FeatureMap(eg.layer_norm(a.tensor, w["norm2_gamma"], w["norm2_beta"], axis=0))
            manual = a.tensor.data + bl.mlp_cond_pe(normed, w).tensor.data
            assert np.abs(manual - o.tensor.data).max() < 1e-6

    def test_sa_swap_symmetry(self, rng):
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        fz, fx = fmap(rng, 8, 4, 4), fmap(rng, 8, 8, 8)
        oz, ox = bl.eoc_block(fz, fx, bl.SA, cfg, w)
        sx, sz = bl.eoc_block(fx, fz, bl.SA, cfg, w)
        np.testing.assert_array_equal(oz.tensor.data, sz.tensor.data)
        np.testing.assert_array_equal(ox.tensor.data, sx.tensor.data)

    @pytest.mark.parametrize("pad_kind", ["zeros", "circular"])
    def test_single_branch_matches_sa_template_output(self, rng, pad_kind):
        """The classifier's block and the tracker's SA block compute the same thing."""
        cfg = make_cfg()
        w = make_weights(rng, cfg)
        f, g = fmap(rng, 8, 4, 4), fmap(rng, 8, 8, 8)
        oz, _ = bl.eoc_block(f, g, bl.SA, cfg, w, pad_kind)
        single, none = bl.eoc_block(f, None, bl.SA, cfg, w, pad_kind)
        assert none is None
        np.testing.assert_array_equal(single.tensor.data, oz.tensor.data)

    def test_translation_equivariance_circular_r1(self, rng):
        cfg = make_cfg(c=8, heads=2, r=1)
        w = make_weights(rng, cfg)
        fz = fmap(rng, 8, 4, 4)
        x = rng.standard_normal((8, 6, 6)).astype(np.float32)

        def run(arr):
            _, ox = bl.eoc_block(fz, bl.FeatureMap(eg.tensor(arr)), bl.CA, cfg, w, pad_kind="circular")
            return ox.tensor.data

        shifted = np.roll(x, (2, 1), axis=(1, 2))
        assert np.abs(run(shifted) - np.roll(run(x), (2, 1), axis=(1, 2))).max() < 1e-4


class TestMixMlp:
    def test_identity_weights_pass_nonnegative_input(self, rng):
        c, n = 6, 16
        w = {
            "channel_weight": eg.parameter(np.eye(c, dtype=np.float32)),
            "channel_bias": eg.parameter(np.zeros(c, dtype=np.float32)),
            "spatial_weight": eg.parameter(np.eye(n, dtype=np.float32)),
            "spatial_bias": eg.parameter(np.zeros(n, dtype=np.float32)),
        }
        x = np.abs(rng.standard_normal((c, 4, 4))).astype(np.float32)
        out = bl.mix_mlp_block(bl.FeatureMap(eg.tensor(x)), w)
        np.testing.assert_allclose(out.tensor.data, x, atol=1e-6)

    def test_channel_mix_commutes_with_position_permutation(self, rng):
        c, n = 6, 16
        w = bl.init_params(rng, bl.mix_mlp_shapes(c, n))  # spatial part is identity at init
        x = rng.standard_normal((c, 4, 4)).astype(np.float32)
        perm = rng.permutation(n)

        def run(arr):
            return bl.mix_mlp_block(bl.FeatureMap(eg.tensor(arr)), w).tensor.data

        flat = x.reshape(c, n)[:, perm].reshape(c, 4, 4)
        np.testing.assert_array_equal(run(flat), run(x).reshape(c, n)[:, perm].reshape(c, 4, 4))

    def test_token_off_in_every_channel_still_gets_gradient(self, rng):
        # A token whose spatial pre-activation is negative in every channel is
        # off; a plain ReLU after spatial mixing would give its bias exactly 0.
        c, n, dead = 6, 16, 5
        w = bl.init_params(rng, bl.mix_mlp_shapes(c, n))
        w["spatial_bias"].data[dead] = -100.0
        x = eg.tensor(rng.standard_normal((c, 4, 4)).astype(np.float32))
        out = bl.mix_mlp_block(bl.FeatureMap(x), w)
        assert (out.tensor.data.reshape(c, n)[:, dead] < 0).all()
        eg.backward(eg.sum_(out.tensor))
        assert w["spatial_bias"].grad[dead] != 0.0

    def test_grid_mismatch_rejected(self, rng):
        w = bl.init_params(rng, bl.mix_mlp_shapes(6, 16))
        with pytest.raises(eg.ShapeError):
            bl.mix_mlp_block(fmap(rng, 6, 4, 5), w)


class TestBlockGradients:
    """Finite-difference smoke checks; the exhaustive sweep lives in the
    acceptance suite."""

    def test_eoc_block_grad_check(self, rng):
        cfg = make_cfg(c=4, heads=2, r=2)
        w = make_weights(rng, cfg, dtype=np.float64)
        randomize_weights(w, rng)
        fz = rng.standard_normal((4, 4, 4))
        fx = rng.standard_normal((4, 4, 4))
        probe_z = eg.tensor(rng.standard_normal((4, 4, 4)), dtype=np.float64)
        probe_x = eg.tensor(rng.standard_normal((4, 4, 4)), dtype=np.float64)

        def loss():
            oz, ox = bl.eoc_block(
                bl.FeatureMap(eg.tensor(fz, dtype=np.float64)),
                bl.FeatureMap(eg.tensor(fx, dtype=np.float64)),
                bl.CA, cfg, w)
            return eg.add(eg.sum_(eg.mul(oz.tensor, probe_z)), eg.sum_(eg.mul(ox.tensor, probe_x)))

        report = eg.grad_check(loss, w, tol=1e-4, max_entries=6, rng=rng)
        assert report.ok, report.summary()

    def test_mix_mlp_grad_check(self, rng):
        w = bl.init_params(rng, bl.mix_mlp_shapes(4, 9), dtype=np.float64)
        randomize_weights(w, rng)
        x = rng.standard_normal((4, 3, 3))
        probe = eg.tensor(rng.standard_normal((4, 3, 3)), dtype=np.float64)

        def loss():
            out = bl.mix_mlp_block(bl.FeatureMap(eg.tensor(x, dtype=np.float64)), w)
            return eg.sum_(eg.mul(out.tensor, probe))

        report = eg.grad_check(loss, w, tol=1e-4, max_entries=8, rng=rng)
        assert report.ok, report.summary()
