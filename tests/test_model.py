"""Model assembly, config plumbing, and weight-file persistence tests."""

import dataclasses
import json
import struct
import tracemalloc

import numpy as np
import pytest

from sbtrack import blocks as bl
from sbtrack import engine as eg
from sbtrack import model as md
from sbtrack import oracles as orc
from sbtrack import weights as wio


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def tiny_file_with_header(tmp_path, config):
    """A saved tiny weight file whose config header is replaced by `config`:
    a `ModelConfig`, stored as `save_weights` stores one, or raw text."""
    path = tmp_path / "m.sbtw"
    wio.save_weights(md.build_model(md.tiny_config(), seed=0), path)
    raw = path.read_bytes()
    (cfg_len,) = struct.unpack_from("<I", raw, 8)
    text = config if isinstance(config, str) else json.dumps(dataclasses.asdict(config))
    text = text.encode("utf-8")
    path.write_bytes(raw[:8] + struct.pack("<I", len(text)) + text + raw[12 + cfg_len :])
    return path


def tiny_with_stage3_depth(depth):
    cfg = md.tiny_config()
    return dataclasses.replace(cfg, stages=(*cfg.stages[:2],
                                            dataclasses.replace(cfg.stages[2], depth=depth)))


def tiny_inputs(rng, cfg=None):
    cfg = cfg or md.tiny_config()
    z = rng.random((3, cfg.template_size, cfg.template_size), dtype=np.float32)
    x = rng.random((3, cfg.search_size, cfg.search_size), dtype=np.float32)
    return z, x


class TestPresets:
    def test_base_cross_attention_positions(self):
        cfg = md.PRESETS["base"]()
        assert cfg.stages[2].ca_positions == (2, 4, 6, 8, 10)
        assert cfg.stages[0].ca_positions == ()

    def test_published_scales(self):
        light = md.PRESETS["light"]()
        assert [st.channels for st in light.stages] == [32, 64, 160]
        assert [st.depth for st in light.stages] == [2, 2, 6]
        assert [st.stride for st in light.stages] == [4, 2, 1]
        assert light.total_stride == 8
        large = md.PRESETS["large"]()
        assert large.stages[2].depth == 18
        assert large.stages[2].ca_positions == (6, 8, 10, 12, 14, 16, 18)

    def test_head_depth_default_two(self, rng):
        m = md.build_model(md.tiny_config(), seed=0)
        for head in ("cls", "reg"):
            assert [o for o in m.by_owner if o.startswith(f"head.{head}.")] == [
                f"head.{head}.mmb1", f"head.{head}.mmb2"]

    def test_search_grid(self):
        assert md.PRESETS["base"]().search_grid() == (32, 32)
        assert md.tiny_config().search_grid() == (16, 16)


class TestConfigValidation:
    def test_ca_position_out_of_range(self):
        st = md.StageConfig(kernel=3, channels=8, stride=1, depth=2, heads=1,
                            reduction=1, ca_positions=(3,))
        with pytest.raises(md.ConfigError):
            md.ModelConfig(name="bad", stages=(st,), template_size=8, search_size=16)

    def test_reduction_must_divide_grids(self):
        st = md.StageConfig(kernel=3, channels=8, stride=1, depth=1, heads=1, reduction=3)
        with pytest.raises(md.ConfigError):
            md.ModelConfig(name="bad", stages=(st,), template_size=8, search_size=16)

    def test_classifier_rejects_cross_attention(self):
        st = md.StageConfig(kernel=3, channels=8, stride=1, depth=2, heads=1,
                            reduction=1, ca_positions=(1,))
        with pytest.raises(md.ConfigError):
            md.ModelConfig(name="bad", stages=(st,) * 4, template_size=16, search_size=16,
                           num_classes=4)

    def test_dim_heads_mismatch(self):
        st = md.StageConfig(kernel=3, channels=9, stride=1, depth=1, heads=2, reduction=1)
        with pytest.raises(ValueError):
            md.ModelConfig(name="bad", stages=(st,), template_size=8, search_size=16)

    @pytest.mark.parametrize("field,value", [("num_classes", -2), ("template_size", 0),
                                             ("search_size", 0), ("head_depth", -1)])
    def test_out_of_range_sizes_and_counts(self, field, value):
        d = dataclasses.asdict(md.tiny_config())
        d[field] = value
        with pytest.raises(md.ConfigError, match=field.split("_")[0]):
            md.config_from_dict(d)

    @pytest.mark.parametrize("path,value", [
        (("stages", 0, "channels"), 16.7), (("template_size",), 64.9), (("stages", 0, "stride"), True),
        (("head_depth",), 2.5), (("stages", 2, "ca_positions"), [2.5, 4]),
        (("stages", 0, "channels"), 16.0), (("stages", 0, "kernel"), 7.0), (("template_size",), 64.0),
        (("num_classes",), False), (("template_size",), (64,)), (("head_depth",), (2,)),
        (("stages", 0, "kernel"), (7,)), (("stages", 1, "channels"), (32,)),
        (("stages", 2, "ca_positions"), 2)])
    def test_bool_or_fraction_rejected(self, path, value):
        """Stored or passed to the constructors, an integer field takes an int
        only: a float, integral or not, a bool or a tuple raises, and
        `ca_positions` takes a sequence of ints only."""
        top = dataclasses.asdict(md.tiny_config())
        *outer, field = path
        holder = top
        for key in outer:
            holder = holder[key]
        holder[field] = value
        with pytest.raises(md.ConfigError, match=field):
            md.config_from_dict(top)
        with pytest.raises(md.ConfigError, match=field):
            md.ModelConfig(**{**top, "stages": tuple(md.StageConfig(**s) for s in top["stages"])})

    @pytest.mark.parametrize("num_classes", [0, -3])
    def test_classifier_needs_a_class(self, num_classes):
        with pytest.raises(md.ConfigError, match="num_classes"):
            md.classifier_config("tiny", num_classes)

    @pytest.mark.parametrize("name", sorted(md.PRESETS))
    def test_presets_and_their_classifiers_validate(self, name):
        assert not md.PRESETS[name]().is_classifier
        assert md.classifier_config(name, 10).is_classifier

    @pytest.mark.parametrize("image_size,match", [(72, "stage 1 reduction 4 does not divide grid 18"),
                                                  (66, "stage 1 stride does not divide grid 66")])
    def test_classifier_image_size_must_fit_the_stages(self, image_size, match):
        """A classifier's image size is checked against the strides and
        reductions at construction, as a tracker's sizes are."""
        with pytest.raises(md.ConfigError, match=match):
            md.classifier_config("tiny", 3, image_size=image_size)
        d = dataclasses.asdict(md.classifier_config("tiny", 3))
        d.update(template_size=image_size, search_size=image_size)
        with pytest.raises(md.ConfigError, match=match):
            md.config_from_dict(d)


class TestBuild:
    def test_deterministic_given_seed(self):
        a = md.build_model(md.tiny_config(), seed=5)
        b = md.build_model(md.tiny_config(), seed=5)
        for (na, ta), (nb, tb) in zip(a.params.items(), b.params.items()):
            assert na == nb
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_seed_changes_weights(self):
        a = md.build_model(md.tiny_config(), seed=5)
        b = md.build_model(md.tiny_config(), seed=6)
        name = "stage1.patch.weight"
        assert np.abs(a.params[name].data - b.params[name].data).max() > 0

    def test_init_statistics(self):
        m = md.build_model(md.tiny_config(), seed=0)
        w = m.params["stage3.block1.q_weight"].data
        assert np.abs(w).max() <= 0.04 + 1e-6  # 2 sigma * 0.02
        assert abs(w.std() - 0.02) < 0.005
        np.testing.assert_array_equal(m.params["stage1.patch.bias"].data, 0)
        np.testing.assert_array_equal(m.params["stage1.block1.norm1_gamma"].data, 1)

    def test_count_monotone_in_depth_and_width(self):
        count = lambda cfg: sum(t.size for t in md.build_model(cfg, seed=0).parameters())
        base = count(md.tiny_config())
        deeper_stages = tuple(
            md.StageConfig(st.kernel, st.channels, st.stride, st.depth + 1, st.heads,
                           st.reduction, st.ca_positions)
            for st in md.tiny_config().stages
        )
        deeper = md.ModelConfig(name="deeper", stages=deeper_stages, template_size=64, search_size=128)
        wider_stages = tuple(
            md.StageConfig(st.kernel, st.channels * 2, st.stride, st.depth, st.heads,
                           st.reduction, st.ca_positions)
            for st in md.tiny_config().stages
        )
        wider = md.ModelConfig(name="wider", stages=wider_stages, template_size=64, search_size=128)
        assert count(deeper) > base
        assert count(wider) > base

    def test_no_cross_attention_helper(self):
        cfg = md.without_cross_attention(md.tiny_config())
        assert all(st.ca_positions == () for st in cfg.stages)

    def test_with_reduction_helper(self):
        cfg = md.with_reduction(md.tiny_config(), 1)
        assert all(st.reduction == 1 for st in cfg.stages)
        m = md.build_model(cfg, seed=0)
        assert "reduce_weight" not in m.by_owner["stage1.block1"]


ALL_CONFIGS = {**md.PRESETS, **{f"{name}-cls": lambda name=name: md.classifier_config(name, 10)
                                for name in md.PRESETS}}


class TestParameterTable:
    @pytest.mark.parametrize("name", ALL_CONFIGS)
    def test_shapes_are_the_built_models_in_order(self, name):
        cfg = ALL_CONFIGS[name]()
        built = md.build_model(cfg, seed=0).params
        assert list(md.parameter_shapes(cfg).items()) == [(n, t.shape) for n, t in built.items()]

    def test_load_weights_draws_nothing(self, tmp_path, monkeypatch):
        m = md.build_model(md.tiny_config(), seed=2)
        path = tmp_path / "m.sbtw"
        wio.save_weights(m, path)

        def no_draws(*args, **kwargs):
            raise AssertionError("load_weights drew a random init")

        monkeypatch.setattr(bl, "initial_value", no_draws)
        loaded = wio.load_weights(path).params
        assert list(loaded) == list(m.params)
        for name, t in m.params.items():
            np.testing.assert_array_equal(loaded[name].data, t.data)

    def test_loaded_parameters_are_writable(self, tmp_path):
        path = tmp_path / "m.sbtw"
        wio.save_weights(md.build_model(md.tiny_config(), seed=0), path)
        m = wio.load_weights(path)
        for t in m.parameters():
            assert t.requires_grad and t.data.flags.writeable
        m.params["stage1.patch.weight"].data -= 1.0  # an optimizer step updates in place
        np.testing.assert_array_equal(m.params["stage1.patch.weight"].data,
                                      m.by_owner["stage1.patch"]["weight"].data)

    def test_load_holds_the_file_once(self, tmp_path):
        """Each payload is read straight into its own parameter array: no
        whole-file buffer is held beside the arrays."""
        path = tmp_path / "m.sbtw"
        wio.save_weights(md.build_model(md.tiny_config(), seed=0), path)
        tracemalloc.start()
        try:
            m = wio.load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.3 * path.stat().st_size
        for t in m.parameters():
            assert t.data.flags.aligned and t.data.flags.writeable and t.data.flags.c_contiguous

    def test_header_deeper_than_the_file_raises_before_building(self, tmp_path):
        path = tiny_file_with_header(tmp_path, tiny_with_stage3_depth(40))
        tracemalloc.start()
        try:
            with pytest.raises(wio.LoadError, match="stage3.block5"):
                wio.load_weights(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * path.stat().st_size

    def test_load_weights_stops_at_the_first_block_the_file_lacks(self, tmp_path, monkeypatch):
        """The header's parameter table is walked lazily: no block's shape
        table is built after the first tensor the file does not hold."""
        path = tiny_file_with_header(tmp_path, tiny_with_stage3_depth(40))
        calls = []
        block_shapes = bl.block_shapes
        monkeypatch.setattr(bl, "block_shapes", lambda cfg: calls.append(cfg) or block_shapes(cfg))
        with pytest.raises(wio.LoadError, match="stage3.block5"):
            wio.load_weights(path)
        assert len(calls) <= 7  # stage1.block1, stage2.block1, stage3.block1 to block5


class TestForward:
    def test_output_shapes_and_ranges(self, rng):
        m = md.build_model(md.tiny_config(), seed=0)
        z, x = tiny_inputs(rng)
        cls, reg = md.forward(m, z, x)
        assert cls.shape == (1, 16, 16)
        assert reg.shape == (4, 16, 16)
        assert (cls.data > 0).all() and (cls.data < 1).all()
        assert (reg.data > 0).all() and (reg.data < 1).all()

    def test_deterministic(self, rng):
        m = md.build_model(md.tiny_config(), seed=0)
        z, x = tiny_inputs(rng)
        a = md.forward(m, z, x)
        b = md.forward(m, z, x)
        np.testing.assert_array_equal(a[0].data, b[0].data)
        np.testing.assert_array_equal(a[1].data, b[1].data)

    def test_wrong_input_size_rejected(self, rng):
        m = md.build_model(md.tiny_config(), seed=0)
        with pytest.raises(eg.ShapeError):
            md.forward(m, rng.random((3, 32, 32), dtype=np.float32),
                       rng.random((3, 128, 128), dtype=np.float32))

    def test_siamese_search_output_ignores_template(self, rng):
        cfg = md.without_cross_attention(md.tiny_config())
        m = md.build_model(cfg, seed=0)
        z1, x = tiny_inputs(rng, cfg)
        z2 = rng.random((3, 64, 64), dtype=np.float32)
        cls1, reg1 = md.forward(m, z1, x)
        cls2, reg2 = md.forward(m, z2, x)
        np.testing.assert_array_equal(cls1.data, cls2.data)
        np.testing.assert_array_equal(reg1.data, reg2.data)

    def test_first_cross_property_via_trace(self, rng):
        """Perturbing the template leaves search features bit-identical up to
        the earliest correlation block and changes them afterwards."""
        cfg = md.tiny_config()  # stage 3 correlates at blocks 2 and 4
        m = md.build_model(cfg, seed=0)
        z1, x = tiny_inputs(rng, cfg)
        z2 = rng.random((3, 64, 64), dtype=np.float32)
        tr1: dict = {}
        tr2: dict = {}
        md.run_backbone(m, z1, x, trace=tr1)
        md.run_backbone(m, z2, x, trace=tr2)
        np.testing.assert_array_equal(tr1[(1, 1, "x")].tensor.data, tr2[(1, 1, "x")].tensor.data)
        np.testing.assert_array_equal(tr1[(2, 1, "x")].tensor.data, tr2[(2, 1, "x")].tensor.data)
        np.testing.assert_array_equal(tr1[(3, 1, "x")].tensor.data, tr2[(3, 1, "x")].tensor.data)
        assert np.abs(tr1[(3, 2, "x")].tensor.data - tr2[(3, 2, "x")].tensor.data).max() > 0
        assert np.abs(tr1[(3, 4, "x")].tensor.data - tr2[(3, 4, "x")].tensor.data).max() > 0

    @pytest.mark.parametrize("step", [(1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1), (3, 2),
                                      (3, 3), (3, 4)], ids=lambda s: f"{s[0]}-{s[1]}")
    def test_resume_backbone_is_bit_exact(self, rng, step):
        """Both branches resumed from their trace entries at `step`, for
        every step of tiny's backbone (block 0 is a patch embedding)."""
        m = md.build_model(md.tiny_config(), seed=0)
        z, x = tiny_inputs(rng)
        trace: dict = {}
        fz, fx = md.run_backbone(m, z, x, trace=trace)
        fz2, fx2 = md.run_backbone(m, trace[(*step, "z")], trace[(*step, "x")])
        np.testing.assert_array_equal(fz.tensor.data, fz2.tensor.data)
        np.testing.assert_array_equal(fx.tensor.data, fx2.tensor.data)

    def test_concurrent_forwards_match_serial(self, rng):
        """One shared model, two threads: one under no_grad, one recording a
        graph.  Each thread's outputs equal its serial result bit for bit."""
        import sys
        import threading

        m = md.build_model(md.tiny_config(), seed=0)
        inputs = [tiny_inputs(rng), tiny_inputs(rng)]

        def run(i):
            if i == 0:
                with eg.no_grad():
                    cls, reg = md.forward(m, *inputs[0])
            else:
                cls, reg = md.forward(m, *inputs[1])
                assert cls.requires_grad
            return cls.data.copy(), reg.data.copy()

        serial = [run(0), run(1)]
        results: list[list] = [[], []]

        def worker(i):
            for _ in range(4):
                results[i].append(run(i))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(i,)) for i in (0, 1)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        for i in (0, 1):
            assert len(results[i]) == 4
            for cls, reg in results[i]:
                np.testing.assert_array_equal(cls, serial[i][0])
                np.testing.assert_array_equal(reg, serial[i][1])

    def test_dwcorr_head_variant_runs(self, rng):
        cfg = md.without_cross_attention(md.tiny_config(head_input="dwcorr"))
        m = md.build_model(cfg, seed=0)
        z, x = tiny_inputs(rng, cfg)
        cls, reg = md.forward(m, z, x)
        assert cls.shape == (1, 16, 16) and reg.shape == (4, 16, 16)

    def test_dwcorr_head_correlates_the_centre_7x7_template(self, rng):
        """Both heads read the search map, zero-padded by 3, correlated per
        channel with the centre 7x7 of the (8x8) template map."""
        cfg = md.tiny_config(head_input="dwcorr")
        m = md.build_model(cfg, seed=0)
        z, x = tiny_inputs(rng, cfg)
        with eg.no_grad():
            fz, fx = md.run_backbone(m, z, x)
            maps = md.run_heads(m, fz.tensor, fx.tensor)
        h, w = fz.tensor.shape[1:]
        r0, c0 = (h - 7) // 2, (w - 7) // 2
        centre = fz.tensor.data[:, r0 : r0 + 7, c0 : c0 + 7]
        padded = np.pad(fx.tensor.data, ((0, 0), (3, 3), (3, 3)))
        head_in = eg.tensor(orc.depthwise_correlation(centre, padded))
        for head, got in zip(("cls", "reg"), maps):
            blocks = [m.by_owner[f"head.{head}.mmb{i}"] for i in range(1, cfg.head_depth + 1)]
            with eg.no_grad():
                want = eg.sigmoid(bl.head_forward(head_in, blocks, m.by_owner[f"head.{head}"]))
            np.testing.assert_allclose(got.data, want.data, rtol=0, atol=1e-6)


# the tiny variants the tracker is tested on: both pad modes, the Siamese-style
# head, and a config without CA, whose prefix is the whole template branch
PREFIX_CONFIGS = {
    "zeros": md.tiny_config(),
    "circular": md.tiny_config(pad_mode="circular"),
    "dwcorr": md.tiny_config(head_input="dwcorr"),
    "no_ca": md.without_cross_attention(md.tiny_config()),
}


class TestTemplatePrefix:
    @pytest.mark.parametrize("name", sorted(PREFIX_CONFIGS))
    def test_forward_with_prefix_is_bit_equal(self, rng, name):
        cfg = PREFIX_CONFIGS[name]
        m = md.build_model(cfg, seed=0)
        z, x = tiny_inputs(rng, cfg)
        want = md.forward(m, z, x)
        got = md.forward(m, md.template_prefix(m, z), x)
        for g, w in zip(got, want):
            assert np.array_equal(g.data, w.data)

    def test_prefix_stops_before_the_first_ca_block(self, rng):
        m = md.build_model(md.tiny_config(), seed=0)
        z, x = tiny_inputs(rng)
        trace: dict = {}
        md.run_backbone(m, z, x, trace=trace)
        prefix = md.template_prefix(m, z)
        assert prefix.after == (3, 1)
        assert np.array_equal(prefix.tensor.data, trace[(3, 1, "z")].tensor.data)
        no_ca = md.build_model(PREFIX_CONFIGS["no_ca"], seed=0)
        assert md.template_prefix(no_ca, z).after == (3, 4)  # every step

    def test_trace_records_only_the_steps_that_ran(self, rng):
        m = md.build_model(md.tiny_config(), seed=0)
        z, x = tiny_inputs(rng)
        full: dict = {}
        cached: dict = {}
        md.run_backbone(m, z, x, trace=full)
        md.run_backbone(m, md.template_prefix(m, z), x, trace=cached)
        assert set(cached) == {k for k in full if k[-1] == "x" or k[:-1] > (3, 1)}
        for k, v in cached.items():
            assert np.array_equal(v.tensor.data, full[k].tensor.data)

    def test_prefix_with_a_search_snapshot_at_the_same_step(self, rng):
        m = md.build_model(md.tiny_config(), seed=0)
        z, x = tiny_inputs(rng)
        trace: dict = {}
        fz, fx = md.run_backbone(m, z, x, trace=trace)
        gz, gx = md.run_backbone(m, md.template_prefix(m, z), trace[(3, 1, "x")])
        assert np.array_equal(gz.tensor.data, fz.tensor.data)
        assert np.array_equal(gx.tensor.data, fx.tensor.data)

    @pytest.mark.parametrize("z_at, x_at", [((3, 2), (3, 1)), ((3, 1), (3, 3)), ((3, 4), (2, 1))])
    def test_branches_at_different_steps_before_a_ca_block_raise(self, rng, z_at, x_at):
        m = md.build_model(md.tiny_config(), seed=0)
        z, x = tiny_inputs(rng)
        trace: dict = {}
        md.run_backbone(m, z, x, trace=trace)
        z_state, x_state = trace[(*z_at, "z")], trace[(*x_at, "x")]
        with pytest.raises(ValueError, match="needs both branches"):
            md.run_backbone(m, z_state, x_state)

    def test_prefix_checks_the_template_size(self, rng):
        m = md.build_model(md.tiny_config(), seed=0)
        with pytest.raises(eg.ShapeError):
            md.template_prefix(m, rng.random((3, 32, 32), dtype=np.float32))


class TestClassification:
    def test_logit_length_and_determinism(self, rng):
        cfg = md.classifier_config("tiny", num_classes=7, image_size=64)
        m = md.build_model(cfg, seed=0)
        img = rng.random((3, 64, 64), dtype=np.float32)
        out1 = md.forward_classification(m, img)
        out2 = md.forward_classification(m, img)
        assert out1.shape == (7,)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_rejects_tracking_model(self, rng):
        m = md.build_model(md.tiny_config(), seed=0)
        with pytest.raises(md.ConfigError):
            md.forward_classification(m, rng.random((3, 64, 64), dtype=np.float32))


class TestConfigSerialization:
    def test_json_roundtrip(self):
        cfg = md.tiny_config(pad_mode="circular", head_input="dwcorr")
        assert md.config_from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    def test_file_roundtrip(self, tmp_path):
        """The light preset survives the config header a weight file stores."""
        cfg = md.PRESETS["light"]()
        assert wio.read_weight_file(tiny_file_with_header(tmp_path, cfg))[0] == cfg

    def test_malformed_rejected(self):
        with pytest.raises(md.ConfigError):
            md.config_from_dict({"stages": "nope"})

    def test_heads_not_dividing_channels_raises_config_error(self):
        stage = {"kernel": 3, "channels": 6, "stride": 1, "depth": 1, "heads": 4, "reduction": 1}
        with pytest.raises(md.ConfigError, match="not divisible"):
            md.config_from_dict({"stages": [stage]})

    def test_malformed_json_raises_format_error(self, tmp_path):
        path = tiny_file_with_header(tmp_path, '{"stages": [')
        with pytest.raises(wio.FormatError, match="invalid model config") as info:
            wio.read_weight_file(path)
        assert isinstance(info.value.__cause__, json.JSONDecodeError)


class TestWeightFiles:
    def test_roundtrip_forward_bit_identical(self, rng, tmp_path):
        m = md.build_model(md.tiny_config(), seed=3)
        z, x = tiny_inputs(rng)
        cls0, reg0 = md.forward(m, z, x)
        path = tmp_path / "m.sbtw"
        wio.save_weights(m, path)
        m2 = wio.load_weights(path)
        cls1, reg1 = md.forward(m2, z, x)
        np.testing.assert_array_equal(cls0.data, cls1.data)
        np.testing.assert_array_equal(reg0.data, reg1.data)

    def test_corrupted_magic(self, tmp_path):
        m = md.build_model(md.tiny_config(), seed=0)
        path = tmp_path / "m.sbtw"
        wio.save_weights(m, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"XXXX"
        path.write_bytes(bytes(raw))
        with pytest.raises(wio.FormatError):
            wio.read_weight_file(path)

    def test_truncated_file(self, tmp_path):
        m = md.build_model(md.tiny_config(), seed=0)
        path = tmp_path / "m.sbtw"
        wio.save_weights(m, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(wio.FormatError):
            wio.read_weight_file(path)

    def test_partial_load_four_stage_into_three(self, tmp_path):
        cls_cfg = md.classifier_config("tiny", num_classes=5, image_size=64)
        cls_model = md.build_model(cls_cfg, seed=9)
        path = tmp_path / "pretrain.sbtw"
        wio.save_weights(cls_model, path)

        tracker = md.build_model(md.tiny_config(), seed=0)
        report = wio.load_weights_into(tracker, path)

        assert all(n.startswith(("stage1.", "stage2.", "stage3.")) for n in report.loaded)
        assert report.loaded  # shared stages actually transferred
        assert {n.split(".")[0] for n in report.skipped} == {"stage4", "classifier"}
        assert all(n.startswith("head.") for n in report.missing)
        np.testing.assert_array_equal(tracker.params["stage1.patch.weight"].data,
                                      cls_model.params["stage1.patch.weight"].data)
        assert report.skipped and report.missing

    def test_shape_mismatch_raises(self, tmp_path):
        m = md.build_model(md.tiny_config(), seed=0)
        path = tmp_path / "m.sbtw"
        wio.save_weights(m, path)
        wider = md.ModelConfig(
            name="wider",
            stages=tuple(
                md.StageConfig(st.kernel, st.channels * 2, st.stride, st.depth, st.heads,
                               st.reduction, st.ca_positions)
                for st in md.tiny_config().stages
            ),
            template_size=64, search_size=128)
        with pytest.raises(wio.LoadError):
            wio.load_weights_into(md.build_model(wider, seed=0), path)

    @pytest.mark.parametrize("case, match", [
        ("huge_extent", "payload needs"),
        ("huge_rank", "extents needs"),
        ("huge_name_length", "name needs"),
        ("huge_config_length", "config needs"),
        ("huge_tensor_count", "name length needs"),
        ("version_1", "unsupported version 1"),
        ("version_2", "unsupported version 2"),
        ("deep_nesting", "invalid model config"),
        ("non_utf8_config", "not UTF-8"),
        ("config_not_mapping", "must hold a mapping"),
        ("duplicate_name", "duplicate tensor"),
        ("trailing_byte", "trailing bytes"),
    ])
    def test_corrupt_file_raises_format_error(self, tmp_path, case, match):
        """Each case patches a few bytes of a saved tiny file."""
        path = tmp_path / "m.sbtw"
        wio.save_weights(md.build_model(md.tiny_config(), seed=0), path)
        raw = bytearray(path.read_bytes())
        # config length at 8, config text at 12, tensor count at e0 - 4, first entry at e0
        (cfg_len,) = struct.unpack_from("<I", raw, 8)
        e0 = 16 + cfg_len
        (name_len,) = struct.unpack_from("<I", raw, e0)
        huge = 0xFFFFFFFF
        if case == "huge_extent":
            struct.pack_into("<I", raw, e0 + 8 + name_len, huge)
        elif case == "huge_rank":
            struct.pack_into("<I", raw, e0 + 4 + name_len, huge)
        elif case == "huge_name_length":
            struct.pack_into("<I", raw, e0, huge)
        elif case == "huge_config_length":
            struct.pack_into("<I", raw, 8, huge)
        elif case == "huge_tensor_count":
            struct.pack_into("<I", raw, e0 - 4, huge)
        elif case in ("version_1", "version_2"):
            struct.pack_into("<I", raw, 4, int(case[-1]))
        elif case == "deep_nesting":  # nested past the parser's recursion limit
            text = b"[" * 100_000 + b"]" * 100_000
            raw[8 : 12 + cfg_len] = struct.pack("<I", len(text)) + text
        elif case == "non_utf8_config":
            raw[12] = 0xFF
        elif case == "config_not_mapping":
            raw[12 : 12 + cfg_len] = b"[" + b" " * (cfg_len - 2) + b"]"
        elif case == "duplicate_name":
            at = raw.find(b"stage1.block1.k_weight")
            raw[at : at + 22] = b"stage1.block1.q_weight"
        elif case == "trailing_byte":
            raw.append(0)
        path.write_bytes(bytes(raw))
        with pytest.raises(wio.FormatError, match=match):
            wio.read_weight_file(path)
        with pytest.raises(wio.FormatError, match=match):
            wio.load_weights(path)

    @pytest.mark.parametrize("config_text", [
        '{"stages": [',
        '{"stages": [{"kernel": 3, "channels": 6, "stride": 1, "depth": 1, "heads": 4, "reduction": 1}]}',
        '{"stages": [{"kernel": 7, "channels": 16.7, "stride": 4, "depth": 1, "heads": 1, "reduction": 4}]}',
    ], ids=["unclosed", "heads_not_dividing_channels", "fractional_channels"])
    def test_bad_config_header_raises_format_error(self, tmp_path, config_text):
        with pytest.raises(wio.FormatError, match="invalid model config"):
            wio.read_weight_file(tiny_file_with_header(tmp_path, config_text))

    def test_other_search_size_raises_load_error(self, tmp_path):
        path = tmp_path / "m.sbtw"
        wio.save_weights(md.build_model(md.tiny_config(), seed=0), path)
        other = md.build_model(md.tiny_config(search_size=96), seed=1)
        before = {n: t.data.copy() for n, t in other.params.items()}
        with pytest.raises(wio.LoadError, match="spatial_weight"):
            wio.load_weights_into(other, path)
        for n, t in other.params.items():
            np.testing.assert_array_equal(t.data, before[n], err_msg=n)

    def test_load_weights_parses_the_file_once(self, tmp_path, monkeypatch):
        path = tmp_path / "m.sbtw"
        wio.save_weights(md.build_model(md.tiny_config(), seed=0), path)
        calls = []
        read = wio.read_weight_file
        monkeypatch.setattr(wio, "read_weight_file", lambda p: calls.append(p) or read(p))
        wio.load_weights(path)
        assert len(calls) == 1
