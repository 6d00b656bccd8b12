"""Tests for the dynamic-convolution decomposition and correlation baselines."""

import dataclasses

import numpy as np
import pytest

from sbtrack import blocks as bl
from sbtrack import engine as eg
from sbtrack import model as md
from sbtrack import oracles as orc

from oracle_helpers import dwcorr_loops


@pytest.fixture
def rng():
    return np.random.default_rng(99)


def identity_attention_weights(c):
    cfg = bl.AttnConfig(dim=c, heads=1, reduction=1)
    w = bl.init_params(np.random.default_rng(0), bl.block_shapes(cfg))
    for name in ("q_weight", "k_weight", "v_weight", "out_weight"):
        w[name].data[:] = np.eye(c)
    for name in ("q_bias", "k_bias", "v_bias", "out_bias"):
        w[name].data[:] = 0
    return cfg, w


class TestCaAsDynamicConv:
    def test_zero_template_returns_search(self, rng):
        x = rng.standard_normal((4, 5, 5)).astype(np.float32)
        out = orc.ca_as_dynamic_conv(np.zeros((4, 3, 3), dtype=np.float32), x)
        np.testing.assert_allclose(out, x, atol=1e-6)

    def test_single_token_template_broadcasts(self, rng):
        z = rng.standard_normal((4, 1, 1)).astype(np.float32)
        x = rng.standard_normal((4, 5, 6)).astype(np.float32)
        out = orc.ca_as_dynamic_conv(z, x)
        np.testing.assert_allclose(out, x + z.reshape(4, 1, 1), atol=1e-6)

    def test_matches_attention_path(self, rng):
        for _ in range(10):
            c = int(rng.choice([8, 16]))
            z = rng.standard_normal((c, 4, 4)).astype(np.float32)
            x = rng.standard_normal((c, 6, 6)).astype(np.float32)
            cfg, w = identity_attention_weights(c)
            fx = bl.attend(eg.tensor(x), eg.tensor(x), eg.tensor(z), cfg, w)
            got = orc.ca_as_dynamic_conv(z, x)
            assert np.abs(fx.data - got).max() < 1e-5

    def test_projected_variant_matches_attention_delta(self, rng):
        """Arbitrary projections fold into the filter-generating features."""
        c = 8
        z = rng.standard_normal((c, 4, 4)).astype(np.float32)
        x = rng.standard_normal((c, 5, 5)).astype(np.float32)
        cfg, w = identity_attention_weights(c)
        for name in ("q_weight", "k_weight", "v_weight"):
            w[name].data[:] = rng.standard_normal((c, c)).astype(np.float32) * 0.4
        fx = bl.attend(eg.tensor(x), eg.tensor(x), eg.tensor(z), cfg, w)
        attn_delta = fx.data - x

        project = lambda m, p: np.einsum("io,ihw->ohw", p, m)
        oracle_out = orc.ca_as_dynamic_conv(
            project(z, w["k_weight"].data),
            project(x, w["q_weight"].data),
            z_values=project(z, w["v_weight"].data),
        )
        oracle_delta = oracle_out - project(x, w["q_weight"].data)
        assert np.abs(attn_delta - oracle_delta).max() < 1e-5

    def test_two_filter_applications_by_construction(self, rng):
        """Recomposing from the shared pointwise-filter primitive (applied
        exactly twice, around one softmax) reproduces the oracle."""
        c = 8
        z = rng.standard_normal((c, 3, 3)).astype(np.float32)
        x = rng.standard_normal((c, 5, 5)).astype(np.float32)

        bank1 = z.reshape(c, -1).T * (1.0 / np.sqrt(c))
        inter = orc.apply_pointwise_filters(bank1, x)       # application 1
        e = np.exp(inter - inter.max(axis=0, keepdims=True))
        attn = e / e.sum(axis=0, keepdims=True)
        bank2 = z.reshape(c, -1)
        manual = orc.apply_pointwise_filters(bank2, attn) + x  # application 2
        np.testing.assert_array_equal(manual, orc.ca_as_dynamic_conv(z, x))

    def test_channel_mismatch(self, rng):
        with pytest.raises(eg.ShapeError):
            orc.ca_as_dynamic_conv(np.zeros((3, 2, 2)), np.zeros((4, 5, 5)))


class TestDepthwiseCorrelation:
    def test_unit_template_is_identity(self, rng):
        x = rng.standard_normal((3, 6, 6)).astype(np.float32)
        out = orc.depthwise_correlation(np.ones((3, 1, 1), dtype=np.float32), x)
        np.testing.assert_allclose(out, x, atol=1e-7)

    def test_shape_formula(self, rng):
        z = rng.standard_normal((2, 8, 8)).astype(np.float32)
        x = rng.standard_normal((2, 16, 16)).astype(np.float32)
        assert orc.depthwise_correlation(z, x).shape == (2, 9, 9)

    def test_against_nested_loops(self, rng):
        z = rng.standard_normal((3, 3, 4)).astype(np.float32)
        x = rng.standard_normal((3, 7, 9)).astype(np.float32)
        got = orc.depthwise_correlation(z, x)
        assert np.abs(got - dwcorr_loops(z, x)).max() < 1e-4

    def test_template_too_large(self, rng):
        with pytest.raises(eg.ShapeError):
            orc.depthwise_correlation(np.zeros((2, 5, 5)), np.zeros((2, 4, 4)))

    def test_single_filter_bank_application(self, rng):
        """Structural contrast with cross-attention: one application of the
        template-as-kernel bank reproduces the whole baseline."""
        z = rng.standard_normal((2, 2, 2)).astype(np.float32)
        x = rng.standard_normal((2, 5, 5)).astype(np.float32)
        manual = np.zeros((2, 4, 4), dtype=np.float64)
        for i in range(4):
            for j in range(4):
                manual[:, i, j] = (z * x[:, i : i + 2, j : j + 2]).sum(axis=(1, 2))
        assert np.abs(manual - orc.depthwise_correlation(z, x)).max() < 1e-5


class TestShiftProbe:
    @pytest.fixture(scope="class")
    def probe_setup(self):
        """The same weights (same seed) under circular and zero padding."""
        cfg = md.with_reduction(md.tiny_config(), 1)
        circular = md.build_model(dataclasses.replace(cfg, pad_mode="circular"), seed=11)
        zeros = md.build_model(cfg, seed=11)
        rng = np.random.default_rng(0)
        z = rng.random((3, 64, 64), dtype=np.float32)
        x = rng.random((3, 128, 128), dtype=np.float32)
        return circular, zeros, z, x

    def test_zero_shift_residual_zero(self, probe_setup):
        circular, _, z, x = probe_setup
        assert orc.shift_equivariance_probe(circular, z, x, 0, 0) == 0.0

    def test_circular_one_token_shift(self, probe_setup):
        circular, _, z, x = probe_setup
        res = orc.shift_equivariance_probe(circular, z, x, 8, 0)
        assert res < 1e-3

    def test_zero_pad_strictly_worse(self, probe_setup):
        circular, zeros, z, x = probe_setup
        circ = orc.shift_equivariance_probe(circular, z, x, 8, 8)
        padded = orc.shift_equivariance_probe(zeros, z, x, 8, 8)
        assert padded > circ

    def test_non_stride_shift_rejected(self, probe_setup):
        model, _, z, x = probe_setup
        with pytest.raises(ValueError):
            orc.shift_equivariance_probe(model, z, x, 3, 0)


class TestSerialHierarchy:
    @pytest.fixture(scope="class")
    def three_level_model(self):
        base = md.tiny_config()
        st3 = dataclasses.replace(base.stages[2], ca_positions=(1, 2, 4))
        cfg = dataclasses.replace(base, stages=(base.stages[0], base.stages[1], st3))
        return md.build_model(cfg, seed=4), cfg

    def test_recomposition_bit_exact(self, three_level_model, rng):
        model, cfg = three_level_model
        z = rng.random((3, 64, 64), dtype=np.float32)
        x = rng.random((3, 128, 128), dtype=np.float32)
        tr = orc.serial_hierarchy_trace(model, z, x)
        assert tr.recomposition_residual == 0.0

    def test_snapshot_count_equals_ca_blocks(self, three_level_model, rng):
        model, cfg = three_level_model
        z = rng.random((3, 64, 64), dtype=np.float32)
        x = rng.random((3, 128, 128), dtype=np.float32)
        tr = orc.serial_hierarchy_trace(model, z, x)
        assert tr.levels == 3
        assert tr.positions == [(3, 1), (3, 2), (3, 4)]

    def test_requires_three_levels(self, rng):
        model = md.build_model(md.tiny_config(), seed=0)  # only two CA blocks
        z = rng.random((3, 64, 64), dtype=np.float32)
        x = rng.random((3, 128, 128), dtype=np.float32)
        with pytest.raises(ValueError):
            orc.serial_hierarchy_trace(model, z, x)

    def test_zero_weight_blocks_snapshots_equal_input(self, three_level_model, rng):
        model, cfg = three_level_model
        model = md.build_model(cfg, seed=4)  # fresh copy we may mutate
        for bi in range(1, cfg.stages[2].depth + 1):
            for name in ("out_weight", "out_bias", "fc2_weight", "fc2_bias"):
                model.params[f"stage3.block{bi}.{name}"].data[:] = 0
        z = rng.random((3, 64, 64), dtype=np.float32)
        x = rng.random((3, 128, 128), dtype=np.float32)
        trace: dict = {}
        md.run_backbone(model, z, x, trace=trace)
        entry = trace[(3, 0, "x")].tensor.data
        tr = orc.serial_hierarchy_trace(model, z, x)
        for snap in tr.search:
            np.testing.assert_array_equal(snap, entry)


class TestOracleTable:
    def test_all_pass(self):
        results = orc.run_all_oracles()
        for r in results:
            assert r.passed, r.row()
        assert len(results) >= 6
