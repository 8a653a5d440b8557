import numpy as np
import pytest

from orthoseg import autodiff as ad
from orthoseg.errors import ConfigurationError, OrthosegError
from orthoseg.network import Model, NetworkConfig, NoiseRates, param_layout


def expected_param_count(cfg):
    """Independent layer-by-layer enumeration of weight and bias scalars."""
    total = 0

    def conv(out_ch, in_ch, k):
        return out_ch * in_ch * k * k + out_ch

    for filters in (cfg.primary_filters, cfg.auxiliary_filters):
        in_ch = 3
        for b in range(1, cfg.num_encoder_blocks + 1):
            layers = 2 if b <= 2 else 3
            for _ in range(layers):
                total += conv(filters[b - 1], in_ch, 3)
                in_ch = filters[b - 1]
    e = cfg.num_encoder_blocks
    feat_in = cfg.primary_filters[-1] + cfg.auxiliary_filters[-1]
    for j in range(1, e + 1):
        skip = cfg.primary_filters[e - j] + cfg.auxiliary_filters[e - j]
        total += conv(cfg.decoder_filters, feat_in + skip + 12, 3)
        total += conv(cfg.decoder_filters, cfg.decoder_filters, 3)
        total += conv(cfg.num_classes, cfg.decoder_filters, 1)
        feat_in = cfg.decoder_filters
    for _ in range(cfg.num_additional_residual_blocks):
        total += conv(cfg.decoder_filters, cfg.decoder_filters + 12, 3)
        total += conv(cfg.decoder_filters, cfg.decoder_filters, 3)
        total += conv(cfg.num_classes, cfg.decoder_filters, 1)
    branch_total = 0
    for _rate, nf in cfg.sccb_dilations:
        total += conv(nf, cfg.num_classes + cfg.decoder_filters, 3)
        branch_total += nf
    total += conv(cfg.num_classes, branch_total + cfg.num_classes, 1)
    total += conv(cfg.num_classes, cfg.num_classes, 1)
    return total


def rand_inputs(seed, size=32):
    rng = np.random.default_rng(seed)
    p = rng.normal(size=(1, 3, size, size)).astype(np.float32)
    a = rng.normal(size=(1, 3, size, size)).astype(np.float32)
    return p, a


class TestConfig:
    def test_benchmark_preset_matches_table(self):
        cfg = NetworkConfig.benchmark()
        assert cfg.primary_filters == (64, 128, 256, 512, 512, 512, 512)
        assert cfg.auxiliary_filters == (64, 128, 256, 256, 256, 256, 256)
        assert cfg.decoder_filters == 300
        assert dict(cfg.sccb_dilations) == {5: 25, 11: 25}
        assert cfg.input_scale_divisor == 6.0 and cfg.output_scale_divisor == 20.0

    def test_filter_list_length_checked(self):
        with pytest.raises(ConfigurationError):
            NetworkConfig(num_encoder_blocks=3, primary_filters=(8, 8), auxiliary_filters=(8, 8, 8),
                          decoder_filters=8, num_additional_residual_blocks=0, num_classes=2,
                          sccb_dilations=((5, 25), (11, 25)), input_scale_divisor=6.0,
                          output_scale_divisor=20.0)


class TestBuild:
    def test_param_count_matches_enumeration(self):
        for cfg in (NetworkConfig.desk(), NetworkConfig.benchmark()):
            m = Model.build(cfg, 0)
            trainable = sum(t.data.size for t in m.params.values() if t.requires_grad)
            total = sum(t.data.size for t in m.params.values())
            assert total == expected_param_count(cfg)
            assert trainable == total

    def test_degenerate_one_block_one_class_rejected_softmax(self):
        # single class cannot feed a softmax; two classes is the smallest legal net
        cfg = NetworkConfig(num_encoder_blocks=1, primary_filters=(4,), auxiliary_filters=(4,),
                            decoder_filters=4, num_additional_residual_blocks=0, num_classes=2,
                            sccb_dilations=((5, 25), (11, 25)), input_scale_divisor=6.0,
                            output_scale_divisor=20.0)
        m = Model.build(cfg, 0)
        p, a = rand_inputs(0, size=4)
        out = m.forward(p, a)
        assert out.data.shape == (1, 2, 4, 4)

    def test_seed_determinism(self):
        cfg = NetworkConfig.desk()
        m1, m2 = Model.build(cfg, 7), Model.build(cfg, 7)
        for name in m1.params:
            np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)

    def test_he_init_variance(self):
        m = Model.build(NetworkConfig.desk(), 3)
        for name, t in m.params.items():
            if not name.endswith(".weight") or t.data.size < 1000:
                continue
            _, ci, kh, kw = t.data.shape
            target = 2.0 / (ci * kh * kw)
            assert abs(t.data.var() - target) / target < 0.20, name

    def test_biases_zero(self):
        m = Model.build(NetworkConfig.desk(), 3)
        for name, t in m.params.items():
            if name.endswith(".bias"):
                assert not t.data.any()


    def test_layout_matches_build(self):
        for cfg in (NetworkConfig.desk(), NetworkConfig.benchmark()):
            m = Model.build(cfg, 0)
            assert param_layout(cfg) == [(n, t.data.shape) for n, t in m.params.items()]


class TestFromArrays:
    def test_wraps_float32_arrays_in_place(self):
        cfg = NetworkConfig.desk()
        arrays = {n: t.data for n, t in Model.build(cfg, 5).params.items()}
        m = Model.from_arrays(cfg, arrays)
        assert list(m.params) == list(arrays)
        for name, t in m.params.items():
            assert t.data is arrays[name]
            assert t.requires_grad

    def test_missing_parameter_rejected(self):
        cfg = NetworkConfig.desk()
        arrays = {n: t.data for n, t in Model.build(cfg, 5).params.items()}
        del arrays["sccb.conv2.bias"]
        with pytest.raises(OrthosegError, match="missing parameter sccb.conv2.bias"):
            Model.from_arrays(cfg, arrays)

    def test_misshaped_parameter_rejected(self):
        cfg = NetworkConfig.desk()
        arrays = {n: t.data for n, t in Model.build(cfg, 5).params.items()}
        arrays["decoder.block1.conv1.weight"] = arrays["decoder.block1.conv1.weight"][:, :-1]
        with pytest.raises(OrthosegError, match="shape mismatch for decoder.block1.conv1.weight"):
            Model.from_arrays(cfg, arrays)


class TestForward:
    def test_shapes_and_probability_sums(self):
        m = Model.build(NetworkConfig.desk(), 0)
        p, a = rand_inputs(1)
        out = m.forward(p, a)
        assert out.data.shape == (1, 6, 32, 32)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-5)

    def test_indivisible_extent_rejected(self):
        m = Model.build(NetworkConfig.desk(), 0)
        p, a = rand_inputs(2, size=20)
        with pytest.raises(ConfigurationError, match="2\\^3"):
            m.forward(p, a)

    def test_inference_deterministic(self):
        m = Model.build(NetworkConfig.desk(), 0)
        p, a = rand_inputs(3)
        o1 = m.forward(p, a).data
        o2 = m.forward(p, a).data
        np.testing.assert_array_equal(o1, o2)

    def test_training_noise_changes_output_but_is_seeded(self):
        m = Model.build(NetworkConfig.desk(), 0)
        p, a = rand_inputs(4)
        o1 = m.forward(p, a, training=True, rng=np.random.default_rng(9)).data
        o2 = m.forward(p, a, training=True, rng=np.random.default_rng(9)).data
        o3 = m.forward(p, a, training=True, rng=np.random.default_rng(10)).data
        np.testing.assert_array_equal(o1, o2)
        assert not np.array_equal(o1, o3)

    def test_zero_weights_gives_spatially_uniform_output(self):
        m = Model.build(NetworkConfig.desk(), 0)
        rng = np.random.default_rng(11)
        for name, t in m.params.items():
            if name.endswith(".weight"):
                t.data[:] = 0
            else:
                t.data[:] = rng.normal(size=t.data.shape).astype(np.float32) * 0.1
        p, a = rand_inputs(5)
        out = m.forward(p, a).data
        for ch in range(6):
            plane = out[0, ch]
            np.testing.assert_allclose(plane, plane[0, 0], atol=1e-6)

    def test_zeroed_decision_convs_give_uniform_softmax(self):
        m = Model.build(NetworkConfig.desk(), 0)
        for name, t in m.params.items():
            if ".decision." in name or name.startswith("sccb.conv2"):
                t.data[:] = 0
        p, a = rand_inputs(6)
        out = m.forward(p, a).data
        np.testing.assert_allclose(out, 1 / 6, atol=1e-6)

    def test_residual_identity_per_block(self):
        # with one decoder block's correction conv zeroed, its decisions_out
        # is exactly the upsampled decisions_in
        m = Model.build(NetworkConfig.desk(), 0)
        m.params["decoder.block2.decision.weight"].data[:] = 0
        m.params["decoder.block2.decision.bias"].data[:] = 0
        p, a = rand_inputs(7)
        taps = {}
        m.forward(p, a, taps=taps)
        up = np.repeat(np.repeat(taps["decoder.block2.decisions_in"].data, 2, axis=2), 2, axis=3)
        np.testing.assert_array_equal(taps["decoder.block2.decisions_out"].data, up)


class TestTapHook:
    def test_recording_taps_leaves_output_bitwise_unchanged(self):
        m = Model.build(NetworkConfig.desk(), 0)
        p, a = rand_inputs(30)
        plain = m.forward(p, a).data
        taps = {}
        assert m.forward(p, a, taps=taps).data.tobytes() == plain.tobytes()
        assert len(taps) == 30

    def test_zero_perturbation_everywhere_leaves_output_bitwise_unchanged(self):
        m = Model.build(NetworkConfig.desk(), 0)
        p, a = rand_inputs(31)
        taps = {}
        plain = m.forward(p, a, taps=taps).data
        zeros = {name: np.zeros_like(t.data) for name, t in taps.items()}
        assert m.forward(p, a, perturb=zeros).data.tobytes() == plain.tobytes()

    def test_sccb_decisions_in_perturbation_reaches_output(self):
        m = Model.build(NetworkConfig.desk(), 0)
        p, a = rand_inputs(32)
        plain = m.forward(p, a).data
        bump = np.full((1, 6, 32, 32), 0.5, dtype=np.float32)
        out = m.forward(p, a, perturb={"sccb.decisions_in": bump}).data
        assert np.abs(out - plain).max() > 0


class TestGating:
    def _loss_and_taps(self, m, seed, perturb=None):
        p, a = rand_inputs(seed)
        taps = {}
        out = m.forward(p, a, training=True, rng=np.random.default_rng(100),
                        taps=taps, perturb=perturb)
        labels = np.random.default_rng(seed + 1).integers(0, 6, size=(1, 32, 32))
        loss = ad.cross_entropy_loss(out, labels)
        return out, taps, loss

    def test_upsampled_feature_inputs_carry_zero_gradient(self):
        m = Model.build(NetworkConfig.desk(), 0)
        _, taps, loss = self._loss_and_taps(m, 20)
        ad.backward(loss)
        e = m.config.num_encoder_blocks
        for j in range(2, e + 1):
            g = taps[f"decoder.block{j}.features_up"].grad
            assert g is None or not g.any(), f"block {j} gated input leaked gradient"
        # block 1 is an encoder connection and must NOT be gated
        g1 = taps["decoder.block1.features_up"].grad
        assert g1 is not None and g1.any()

    def test_forward_sensitive_to_gated_features(self):
        m = Model.build(NetworkConfig.desk(), 0)
        out_base, _, _ = self._loss_and_taps(m, 21)
        delta = np.full((1, 32, 8, 8), 0.5, dtype=np.float32)
        p, a = rand_inputs(21)
        out_pert = m.forward(p, a, training=True, rng=np.random.default_rng(100),
                             perturb={"decoder.block2.features_in": delta})
        assert np.abs(out_pert.data - out_base.data).max() > 0

    def test_sccb_branch_fully_gated(self):
        m = Model.build(NetworkConfig.desk(), 0)
        # zero the final residual decision conv's weights so the only other
        # gradient route into the pre-SCCB features is bitwise zero; any
        # remaining gradient would have to leak through the SCCB gate
        m.params["residual.block1.decision.weight"].data[:] = 0
        _, taps, loss = self._loss_and_taps(m, 22)
        ad.backward(loss)
        # the branch is live: its own convolutions receive gradient...
        for name in ("sccb.branch_d5.weight", "sccb.branch_d11.weight",
                     "sccb.conv1.weight", "sccb.conv2.weight"):
            t = m.params[name]
            assert t.grad is not None and t.grad.any(), name
        # ...but none of it crosses the gate into the decoder features
        gf = taps["sccb.features_in"].grad
        assert gf is None or not gf.any()
        # decisions gradient equals the residual identity path's gradient
        np.testing.assert_array_equal(taps["sccb.decisions_in"].grad, taps["sccb.logits"].grad)

    def test_residual_block_feature_input_gated(self):
        m = Model.build(NetworkConfig.desk(), 0)
        _, taps, loss = self._loss_and_taps(m, 23)
        ad.backward(loss)
        g = taps["residual.block1.features_gated"].grad
        assert g is None or not g.any()

    def test_encoder_and_decision_convs_receive_gradient(self):
        m = Model.build(NetworkConfig.desk(), 0)
        _, _, loss = self._loss_and_taps(m, 24)
        ad.backward(loss)
        for name, t in m.params.items():
            if name.startswith("encoder.") and name.endswith(".weight"):
                assert t.grad is not None and t.grad.any(), name
            if ".decision.weight" in name:
                assert t.grad is not None and t.grad.any(), name


def freeze(params, prefix):
    for name, t in params.items():
        if name.startswith(prefix):
            t.requires_grad = False


class TestTrainability:
    def test_freeze_blocks_gradients_absent(self):
        m = Model.build(NetworkConfig.desk(), 0)
        freeze(m.params, ("encoder.primary.block1.", "encoder.primary.block2."))
        p, a = rand_inputs(30)
        out = m.forward(p, a, training=True, rng=np.random.default_rng(0))
        labels = np.zeros((1, 32, 32), dtype=np.int64)
        ad.backward(ad.cross_entropy_loss(out, labels))
        for name, t in m.params.items():
            if name.startswith(("encoder.primary.block1.", "encoder.primary.block2.")):
                assert t.grad is None, name
            elif name.endswith(".weight"):
                assert t.grad is not None, name

    def test_count_reports_split(self):
        cfg = NetworkConfig.desk()
        m = Model.build(cfg, 0)
        total = sum(t.data.size for t in m.params.values())
        freeze(m.params, "encoder.primary.block1.")
        frozen = sum(m.params[n].data.size for n in m.params
                     if n.startswith("encoder.primary.block1."))
        trainable = sum(t.data.size for t in m.params.values() if t.requires_grad)
        assert trainable == total - frozen


class TestNoiseRates:
    def test_table2_buckets(self):
        r = NoiseRates.default()
        assert r.rate("encoder", 64) == 0.0625
        assert r.rate("encoder", 65) == 0.125
        assert r.rate("encoder", 128) == 0.125
        assert r.rate("encoder", 200) == 0.1875
        assert r.rate("encoder", 512) == 0.25
        assert r.rate("encoder", 1024) == 0.25
        assert r.rate("sccb") == 0.0625
        assert r.rate("residual") == 0.0625

    def test_decay_factors(self):
        r = NoiseRates.default()
        r.decay()
        assert r.rate("encoder", 512) == 0.25 * 0.75
        assert r.rate("decoder", 512) == 0.25 * 0.375
        assert r.sccb == 0.0625 * 0.25

    def test_round_trip_dict(self):
        r = NoiseRates.default()
        r.decay()
        r2 = NoiseRates.from_dict(r.to_dict())
        assert r2 == r


def shape_table(cfg, size):
    """Hand-derived expected tap shapes for a forward at the given input size."""
    e = cfg.num_encoder_blocks
    table = {}
    for side, filters in (("primary", cfg.primary_filters), ("auxiliary", cfg.auxiliary_filters)):
        res = size
        for b in range(1, e + 1):
            table[f"encoder.{side}.block{b}.pre_pool"] = (1, filters[b - 1], res, res)
            res //= 2
    res = size >> e
    feat_in = cfg.primary_filters[-1] + cfg.auxiliary_filters[-1]
    for j in range(1, e + 1):
        table[f"decoder.block{j}.features_in"] = (1, feat_in, res, res)
        table[f"decoder.block{j}.decisions_in"] = (1, cfg.num_classes, res, res)
        res *= 2
        table[f"decoder.block{j}.features_out"] = (1, cfg.decoder_filters, res, res)
        table[f"decoder.block{j}.decisions_out"] = (1, cfg.num_classes, res, res)
        feat_in = cfg.decoder_filters
    for r in range(1, cfg.num_additional_residual_blocks + 1):
        table[f"residual.block{r}.features_in"] = (1, cfg.decoder_filters, size, size)
        table[f"residual.block{r}.decisions_out"] = (1, cfg.num_classes, size, size)
    table["sccb.logits"] = (1, cfg.num_classes, size, size)
    return table


class TestShapeAudit:
    def test_desk_config_shape_table(self):
        cfg = NetworkConfig.desk()
        m = Model.build(cfg, 0)
        p, a = rand_inputs(40, size=32)
        taps = {}
        m.forward(p, a, taps=taps)
        for name, shape in shape_table(cfg, 32).items():
            assert taps[name].data.shape == shape, name
