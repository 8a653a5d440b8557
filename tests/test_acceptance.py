"""Acceptance gate: ten release criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <n> <name>: PASS`` on success (pytest -s shows
the lines; a failing criterion fails its test).  Criteria cover gradient
correctness, gradient gating, regularizer statistics, the full-size
configuration, the training schedule, end-to-end desk-scale learning, the
normalization formulas, overlap-crop stitching, metrics, and persistence.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from orthoseg import autodiff as ad
from orthoseg import data, inference, trainer
from orthoseg.config import RunConfig
from orthoseg.network import Model, NetworkConfig


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} {name}: {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# ---------------------------------------------------------------------------
# 1. gradient suite


def test_criterion_1_gradient_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(100)

    def t64(shape, scale=1.0):
        return ad.Tensor(rng.normal(size=shape) * scale)

    def wloss(shape):
        w = rng.normal(size=shape)
        return lambda out: ad.tsum(ad.mul(out, ad.Tensor(w)))

    worst = 0.0
    for trial in range(5):
        h = int(rng.integers(4, 8)) * 2
        cin, cout = int(rng.integers(1, 3)), int(rng.integers(1, 3))
        dil = int(rng.integers(1, 3))

        x = t64((1, cin, h, h))
        w = t64((cout, cin, 3, 3), 0.5)
        b = t64((cout,))
        conv_loss = wloss((1, cout, h, h))
        pool_loss = wloss((1, cin, h // 2, h // 2))
        same_loss = wloss((1, cin, h, h))
        up_loss = wloss((1, cin, 2 * h, 2 * h))
        cat_loss = wloss((1, 2 * cin, h, h))
        labels = np.random.default_rng(trial).integers(0, 4, (1, h // 2, h // 2))
        cases = [
            (lambda ts: conv_loss(ad.conv2d(ts[0], ts[1], ts[2], dilation=dil,
                                            padding="same")), [x, w, b]),
            (lambda ts: pool_loss(ad.max_pool2(ts[0])), [t64((1, cin, h, h))]),
            (lambda ts: same_loss(ad.avg_pool(ts[0], 5, 1, "same")),
             [t64((1, cin, h, h))]),
            (lambda ts: same_loss(ad.elu(ts[0])), [t64((1, cin, h, h))]),
            (lambda ts: up_loss(ad.upsample2(ts[0])), [t64((1, cin, h, h))]),
            (lambda ts: cat_loss(ad.concat_channels(ts)),
             [t64((1, cin, h, h)), t64((1, cin, h, h))]),
            (lambda ts: ad.cross_entropy_loss(ad.softmax_channels(ts[0]), labels),
             [t64((1, 4, h // 2, h // 2))]),
            (lambda ts: same_loss(
                ad.dmgn(ts[0], 0.25, True, np.random.default_rng(trial))),
             [t64((1, cin, h, h))]),
        ]
        for fn, inputs in cases:
            rep = ad.finite_diff_check(fn, inputs, eps=1e-6, tolerance=1e-6)
            worst = max(worst, max(rep.max_rel_errors))
            assert rep.passed, rep.max_rel_errors
    elapsed = time.perf_counter() - start
    report(1, "gradient_suite", worst < 1e-6 and elapsed < 60,
           f"max_rel_error={worst:.2e} runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. gating suite


def test_criterion_2_gating_suite():
    start = time.perf_counter()
    cfg = NetworkConfig.desk()
    m = Model.build(cfg, 0)
    rng = np.random.default_rng(200)
    p = rng.normal(0, 1, (1, 3, 32, 32)).astype(np.float32)
    a = rng.normal(0, 1, (1, 3, 32, 32)).astype(np.float32)
    labels = rng.integers(0, 6, (1, 32, 32))

    taps = {}
    probs = m.forward(p, a, taps=taps, record_graph=True)
    ad.backward(ad.cross_entropy_loss(probs, labels))

    # (a) gated upsampled-feature inputs carry exactly zero gradient...
    for j in range(2, cfg.num_encoder_blocks + 1):
        g = taps[f"decoder.block{j}.features_up"].grad
        assert g is None or not g.any(), f"decoder block {j} gate leaked"
    # ...while the forward output is sensitive to them
    base = m.forward(p, a).data
    shape = taps["decoder.block2.features_in"].data.shape
    bumped = m.forward(p, a, perturb={
        "decoder.block2.features_in": np.full(shape, 0.5, dtype=np.float32)}).data
    assert np.abs(bumped - base).max() > 0

    # (b) the correction block's gated branch gets zero gradient: the only
    # ungated route is its residual identity, so the decision-input gradient
    # equals the output gradient bitwise
    np.testing.assert_array_equal(taps["sccb.decisions_in"].grad,
                                  taps["sccb.logits"].grad)
    # any gradient on the feature map arrives via its own residual decision
    # conv, never via the correction branch; zero that conv and re-check
    m2 = Model.build(cfg, 0)
    m2.params["residual.block1.decision.weight"].data[:] = 0
    taps2 = {}
    probs2 = m2.forward(p, a, taps=taps2, record_graph=True)
    ad.backward(ad.cross_entropy_loss(probs2, labels))
    gf2 = taps2["sccb.features_in"].grad
    assert gf2 is None or not gf2.any(), "correction branch leaked gradient"

    # (c) every decision conv and every encoder conv trains
    for name, t in m.params.items():
        if ".decision." in name or name.startswith("encoder."):
            assert t.grad is not None and t.grad.any(), f"{name} has zero gradient"

    elapsed = time.perf_counter() - start
    report(2, "gating_suite", elapsed < 120, f"runtime={elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. multiplicative-noise statistics


def test_criterion_3_noise_statistics():
    ok = True
    details = []
    for rate in (0.0625, 0.125, 0.25, 0.5):
        rng = np.random.default_rng(300)
        x = ad.Tensor(np.ones((1, 100000, 1, 1), dtype=np.float64))
        noised = ad.dmgn(x, rate, True, rng)
        draws = noised.data.ravel()
        want_std = math.sqrt(rate / (1 - rate))
        mean_ok = abs(draws.mean() - 1.0) < 0.01
        std_ok = abs(draws.std() - want_std) < 0.05 * want_std
        ok = ok and mean_ok and std_ok
        details.append(f"rate {rate}: mean {draws.mean():.4f} std {draws.std():.4f}")
    # inference mode is bitwise identity
    x = ad.Tensor(np.random.default_rng(301).normal(size=(2, 3, 5, 5)))
    out = ad.dmgn(x, 0.5, False, np.random.default_rng(0))
    ident = np.array_equal(out.data, x.data)
    report(3, "noise_statistics", ok and ident, "; ".join(details))


# ---------------------------------------------------------------------------
# 4. full-size configuration shape audit


def benchmark_shape_table(cfg, size):
    """Independent hand-derived resolution/channel table for every tap."""
    e = cfg.num_encoder_blocks
    table = {}
    for side, filters in (("primary", cfg.primary_filters),
                          ("auxiliary", cfg.auxiliary_filters)):
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


@pytest.mark.slow
def test_criterion_4_benchmark_shape_audit():
    cfg = NetworkConfig.benchmark()
    m = Model.build(cfg, 0)
    rng = np.random.default_rng(400)
    p = rng.normal(0, 0.5, (1, 3, 512, 512)).astype(np.float32)
    a = rng.normal(0, 0.5, (1, 3, 512, 512)).astype(np.float32)
    taps = {}
    out = m.forward(p, a, taps=taps)
    shape_ok = out.data.shape == (1, 6, 512, 512)
    prob_err = float(np.abs(out.data.sum(axis=1) - 1.0).max())
    mismatches = [name for name, shape in benchmark_shape_table(cfg, 512).items()
                  if taps[name].data.shape != shape]
    report(4, "benchmark_shape_audit",
           shape_ok and prob_err < 1e-5 and not mismatches,
           f"prob_err={prob_err:.2e} mismatches={mismatches}")


# ---------------------------------------------------------------------------
# 5. schedule golden test


def test_criterion_5_schedule_golden():
    cfg = RunConfig(plateau_window=100, eval_interval=10)
    model = Model.build(RunConfig.desk().network_config(), seed=0)
    # desk network lacks the full filter ladder; drive the schedule directly
    state = trainer.init_state(model, cfg)
    base = cfg.noiserates()

    trace = []  # (lr, momentum, phase, enc_rate, sccb_rate, unfrozen)

    def snap():
        trace.append((state.lr, state.momentum, state.phase,
                      state.noiserates.rate("encoder", 64),
                      state.noiserates.sccb, tuple(state.unfrozen_blocks)))

    # scripted validation losses: improvement, then three flat plateaus
    losses = [1.0] + [0.9] * 50
    it = 0
    plateaus = 0
    for loss in losses:
        it += cfg.eval_interval
        if state.tracker.check(it, loss):
            trainer.on_plateau(state)
            plateaus += 1
            snap()
            if plateaus == 3:
                break

    ok = (
        trace[0][:3] == (1e-5, 0.999, "fine_tuning")
        and trace[0][3] == base.rate("encoder", 64)      # no decay at plateau 1
        and trace[1][0] == pytest.approx(1e-6)
        and trace[1][3] == pytest.approx(0.0625 * 0.75)
        and trace[1][4] == pytest.approx(0.0625 * 0.25)
        and trace[1][5] == (2,)
        and trace[2][0] == pytest.approx(1e-7)
        and trace[2][3] == pytest.approx(0.0625 * 0.75 ** 2)
        and trace[2][5] == (2, 1)
        and model.params["encoder.primary.block1.conv1.weight"].requires_grad
    )
    report(5, "schedule_golden", ok, f"trace={trace}")


# ---------------------------------------------------------------------------
# 6. end-to-end desk training


def desk_samples(num_rasters=4, size=192, seed=0):
    rasters = data.synth_dataset(num_rasters, size, seed=seed)
    tilesets = [data.tile_raster(r, 64, 0.5) for r in rasters]
    train_ids, val_ids, _ = data.split_train_val(tilesets, 0.10, seed=seed)

    def build(ids, augment):
        out = []
        for si, oi in ids:
            tile = data.extract_tile(rasters[si], tilesets[si], oi)
            variants = data.rotate_augment(tile) if augment else [tile]
            for v in variants:
                primary, auxiliary, _, label_half = data.assemble_inputs(v)
                out.append((primary, auxiliary, label_half))
        return out

    return build(train_ids, True), build(val_ids, False)


@pytest.mark.slow
def test_criterion_6_desk_training(tmp_path):
    start = time.perf_counter()
    cfg = RunConfig.desk(learning_rate=0.001, max_iterations=5000,
                         eval_interval=250, checkpoint_interval=100000, seed=0)
    train, val = desk_samples()
    model = Model.build(cfg.network_config(), seed=0)
    state = trainer.train_loop(cfg, model, train, val, str(tmp_path / "run"))
    train_acc = trainer.pixel_accuracy(state.model, train)
    val_acc = trainer.pixel_accuracy(state.model, val)
    elapsed = time.perf_counter() - start
    report(6, "desk_training",
           train_acc >= 0.95 and val_acc >= 0.85 and elapsed < 1800,
           f"train_acc={train_acc:.4f} val_acc={val_acc:.4f} runtime={elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 7. normalization formulas


def test_criterion_7_formulas():
    checks = []
    # optical: x/100 - 1
    opt = data.normalize_optical(np.array([0.0, 100.0, 255.0]))
    checks.append(np.abs(opt - [-1.0, 0.0, 1.55]).max() < 1e-9)
    # elevation: mean-centered / 35
    checks.append(np.abs(data.normalize_dsm(np.full((4, 4), 17.3))).max() < 1e-9)
    dsm = data.normalize_dsm(np.array([0.0, 70.0]))
    checks.append(np.abs(dsm - [-1.0, 1.0]).max() < 1e-9)
    # vegetation index: (ir - red) / (ir + red)
    checks.append(abs(data.compute_ndvi(np.array([5.0]), np.array([5.0]))[0]) < 1e-9)
    checks.append(abs(data.compute_ndvi(np.array([0.6]), np.array([0.2]))[0] - 0.5) < 1e-9)
    # noise std: sqrt(rate / (1 - rate))
    for rate, want in ((0.0625, math.sqrt(0.0625 / 0.9375)),
                       (0.5, 1.0)):
        checks.append(abs(math.sqrt(rate / (1 - rate)) - want) < 1e-9)
    report(7, "formulas", all(checks), f"checks={checks}")


# ---------------------------------------------------------------------------
# 8. stitching


def test_criterion_8_stitching():
    cover_ok = True
    for size in (512, 1000, 1537, 3000):
        plan = inference.plan_stitch(size, size, tile=1024, stride=256, center=512)
        counts = plan.coverage_counts()
        brute = np.zeros((size + sum(plan.pad_rows), size + sum(plan.pad_cols)),
                         dtype=np.int64)
        for r0 in plan.row_origins:
            for c0 in plan.col_origins:
                brute[r0 + plan.margin:r0 + plan.margin + plan.center,
                      c0 + plan.margin:c0 + plan.margin + plan.center] += 1
        brute = brute[plan.pad_rows[0]:plan.pad_rows[0] + size,
                      plan.pad_cols[0]:plan.pad_cols[0] + size]
        cover_ok = cover_ok and np.array_equal(counts, brute) and counts.min() >= 1
        if size > 1024:
            cover_ok = cover_ok and (counts[512:-512, 512:-512] == 4).all()

    # stitched probabilities stay distributions
    rng = np.random.default_rng(800)

    def predict(crop):
        raw = rng.random((4, 64, 64))
        return raw / raw.sum(axis=0)

    plan = inference.plan_stitch(150, 150, tile=64, stride=16, center=32)
    probs = inference.stitch_predict(predict, {"IR": np.zeros((150, 150))}, plan)
    sums_ok = np.abs(probs.sum(axis=0) - 1.0).max() < 1e-5

    # one-crop raster equals direct inference bitwise
    cfg = RunConfig.desk()
    model = Model.build(cfg.network_config(), seed=0)
    raster_channels = {r: rng.integers(0, 200, (32, 32)).astype(np.uint8)
                       for r in ("IR", "R", "G", "B")}
    raster_channels["DSM"] = rng.normal(5, 2, (32, 32)).astype(np.float32)
    raster = data.Raster(channels=raster_channels, raster_id="x")
    probs1, _ = inference.infer_full_raster(model, raster, 64, 16, 32)
    plan1 = inference.plan_stitch(32, 32, 64, 16, 32)
    padded = {r: np.pad(p, (plan1.pad_rows, plan1.pad_cols), mode="symmetric")
              for r, p in raster_channels.items()}
    direct = inference.model_crop_predictor(model)(padded)
    m = plan1.margin
    one_crop_ok = (len(plan1.row_origins) == 1 and np.array_equal(
        probs1, direct[:, m:m + 32, m:m + 32].astype(np.float64)))

    report(8, "stitching", cover_ok and sums_ok and one_crop_ok,
           f"coverage={cover_ok} sums={sums_ok} one_crop={one_crop_ok}")


# ---------------------------------------------------------------------------
# 9. metrics oracle


def test_criterion_9_metrics():
    rng = np.random.default_rng(900)
    ok = True
    for _ in range(20):
        n = int(rng.integers(20, 400))
        pred = rng.integers(0, 6, n)
        true = rng.integers(0, 6, n)
        res = inference.evaluate(pred, true)
        for c in range(6):
            tp = int(((pred == c) & (true == c)).sum())
            fp = int(((pred == c) & (true != c)).sum())
            fn = int(((pred != c) & (true == c)).sum())
            denom = 2 * tp + fp + fn
            want = 2 * tp / denom if denom else 0.0
            ok = ok and res.f1[c] == want
        conf = np.zeros((6, 6), dtype=np.int64)
        for pv, tv in zip(pred, true):
            conf[tv, pv] += 1
        ok = ok and np.array_equal(conf, res.confusion)
        ok = ok and res.overall_accuracy == (pred == true).mean()
    hand = inference.evaluate([0, 0, 1, 1], [0, 1, 1, 1], num_classes=2)
    hand_ok = (hand.f1[0] == pytest.approx(2 / 3) and hand.f1[1] == pytest.approx(0.8)
               and hand.overall_accuracy == pytest.approx(0.75))
    report(9, "metrics_oracle", ok and hand_ok,
           f"random={ok} hand_case={hand_ok}")


# ---------------------------------------------------------------------------
# 10. persistence


def test_criterion_10_persistence(tmp_path):
    cfg = RunConfig.desk(max_iterations=10, eval_interval=5,
                         checkpoint_interval=5, seed=42)
    rng = np.random.default_rng(1000)
    samples = []
    for _ in range(3):
        p = rng.normal(0, 1, (3, 16, 16)).astype(np.float32)
        a = rng.normal(0, 1, (3, 16, 16)).astype(np.float32)
        lab = rng.integers(0, 6, (16, 16)).astype(np.int64)
        samples.append((p, a, lab))

    # save -> load -> forward bitwise stability
    model = Model.build(cfg.network_config(), seed=42)
    before = model.forward(samples[0][0][None], samples[0][1][None]).data.copy()
    state0 = trainer.init_state(model, cfg)
    path = str(tmp_path / "w.ckpt")
    trainer.state_to_checkpoint(path, state0, cfg.digest())
    loaded, _ = trainer.state_from_checkpoint(path, cfg.network_config())
    after = loaded.model.forward(samples[0][0][None], samples[0][1][None]).data
    forward_ok = np.array_equal(before, after)

    # save -> load -> save bytewise stability
    path2 = str(tmp_path / "w2.ckpt")
    trainer.state_to_checkpoint(path2, loaded, cfg.digest())
    bytes_ok = Path(path).read_bytes() == Path(path2).read_bytes()

    # resumed training matches uninterrupted training bitwise for 10 iterations
    m_a = Model.build(cfg.network_config(), seed=42)
    state_a = trainer.train_loop(cfg, m_a, samples, samples[:1], str(tmp_path / "a"))
    m_b = Model.build(cfg.network_config(), seed=42)
    trainer.train_loop(cfg, m_b, samples, samples[:1], str(tmp_path / "b"),
                       max_iterations=5)
    state_b, _ = trainer.state_from_checkpoint(
        str(tmp_path / "b" / "latest.ckpt"), cfg.network_config(),
        expected_digest=cfg.digest())
    state_b = trainer.train_loop(cfg, None, samples, samples[:1],
                                 str(tmp_path / "b2"), state=state_b)
    resume_ok = all(
        np.array_equal(t.data, state_b.model.params[name].data)
        for name, t in state_a.model.params.items())

    report(10, "persistence", forward_ok and bytes_ok and resume_ok,
           f"forward={forward_ok} bytes={bytes_ok} resume={resume_ok}")
