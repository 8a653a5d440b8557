"""Overlap-crop stitching and metrics tests."""

import numpy as np
import pytest

from orthoseg import data, inference
from orthoseg.config import RunConfig
from orthoseg.errors import ConfigurationError
from orthoseg.inference import (evaluate, format_report, infer_full_raster,
                                plan_stitch, stitch_predict)
from orthoseg.network import Model


def coverage_brute_force(plan):
    """2D accumulation at padded resolution, cropped back to the raster."""
    ph = plan.height + sum(plan.pad_rows)
    pw = plan.width + sum(plan.pad_cols)
    cov = np.zeros((ph, pw), dtype=np.int64)
    m, c = plan.margin, plan.center
    for r0 in plan.row_origins:
        for c0 in plan.col_origins:
            cov[r0 + m:r0 + m + c, c0 + m:c0 + m + c] += 1
    pb_r, pb_c = plan.pad_rows[0], plan.pad_cols[0]
    return cov[pb_r:pb_r + plan.height, pb_c:pb_c + plan.width]


@pytest.mark.parametrize("size", [512, 1000, 1537, 3000])
def test_coverage_matches_brute_force(size):
    plan = plan_stitch(size, size, tile=1024, stride=256, center=512)
    counts = plan.coverage_counts()
    assert np.array_equal(counts, coverage_brute_force(plan))
    assert counts.min() >= 1
    if size > 1024:
        # interior pixels see exactly 2 crops per axis
        assert (counts[512:-512, 512:-512] == 4).all()


def test_small_raster_single_crop_plan():
    plan = plan_stitch(64, 64, tile=1024, stride=256, center=512)
    assert plan.row_origins == (0,) and plan.col_origins == (0,)
    assert plan.pad_rows[0] == 256
    assert sum(plan.pad_rows) + 64 == 1024
    assert (plan.coverage_counts() == 1).all()


def test_rectangular_plan_covers_everything():
    plan = plan_stitch(700, 1300, tile=1024, stride=256, center=512)
    counts = plan.coverage_counts()
    assert counts.shape == (700, 1300)
    assert np.array_equal(counts, coverage_brute_force(plan))
    assert counts.min() >= 1


def test_plan_validation():
    with pytest.raises(ConfigurationError):
        plan_stitch(100, 100, tile=64, stride=48, center=32)  # stride > center
    with pytest.raises(ConfigurationError):
        plan_stitch(100, 100, tile=64, stride=16, center=31)  # uneven margins


def test_mirror_padding_on_ramp():
    ramp = np.arange(300, dtype=np.float64)[None].repeat(4, axis=0)
    padded = np.pad(ramp, ((0, 0), (256, 256)), mode="symmetric")
    for i in range(256):
        assert padded[0, 256 - 1 - i] == ramp[0, i]
        assert padded[0, 256 + 300 + i] == ramp[0, 300 - 1 - i]


def test_constant_stub_stitches_constant():
    dist = np.array([0.5, 0.3, 0.2])

    def predict(crop):
        return np.broadcast_to(dist[:, None, None], (3, 64, 64)).copy()

    plan = plan_stitch(100, 90, tile=64, stride=16, center=32)
    planes = {"IR": np.zeros((100, 90), dtype=np.float32)}
    probs = stitch_predict(predict, planes, plan)
    assert probs.shape == (3, 100, 90)
    assert np.allclose(probs, dist[:, None, None])
    assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-5


def test_random_stub_probabilities_sum_to_one():
    rng = np.random.default_rng(0)

    def predict(crop):
        raw = rng.random((4, 64, 64))
        return raw / raw.sum(axis=0)

    plan = plan_stitch(150, 150, tile=64, stride=16, center=32)
    probs = stitch_predict(predict, {"IR": np.zeros((150, 150))}, plan)
    assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-5


def test_stub_sees_crop_content():
    """Crops carry the actual raster data at the planned origins."""
    base = np.arange(100 * 100, dtype=np.float64).reshape(100, 100)
    seen = []

    def predict(crop):
        seen.append(crop["DSM"].copy())
        return np.ones((1, 64, 64))

    plan = plan_stitch(100, 100, tile=64, stride=32, center=64)
    assert plan.margin == 0 and plan.pad_rows == (0, 0)
    stitch_predict(predict, {"DSM": base}, plan)
    assert np.array_equal(seen[0], base[0:64, 0:64])
    r1 = plan.row_origins[1]
    assert np.array_equal(seen[len(plan.col_origins)], base[r1:r1 + 64, 0:64])


def make_raster(size, seed=0):
    rng = np.random.default_rng(seed)
    channels = {r: rng.integers(0, 200, (size, size)).astype(np.uint8)
                for r in ("IR", "R", "G", "B")}
    channels["DSM"] = rng.normal(10, 3, (size, size)).astype(np.float32)
    channels["LABEL"] = rng.integers(0, 6, (size, size)).astype(np.uint8)
    return data.Raster(channels=channels, raster_id="t")


def test_one_crop_raster_equals_direct_inference():
    cfg = RunConfig.desk()
    model = Model.build(cfg.network_config(), seed=0)
    raster = make_raster(32)
    tile, stride, center = 64, 16, 32
    probs, labels = infer_full_raster(model, raster, tile, stride, center)
    assert probs.shape == (6, 32, 32)
    assert labels.shape == (32, 32)

    plan = plan_stitch(32, 32, tile, stride, center)
    assert plan.row_origins == (0,)
    planes = {r: raster.channels[r] for r in ("IR", "R", "G", "B", "DSM")}
    padded = {r: np.pad(p, (plan.pad_rows, plan.pad_cols), mode="symmetric")
              for r, p in planes.items()}
    direct = inference.model_crop_predictor(model)(padded)
    m = plan.margin
    assert np.array_equal(probs, direct[:, m:m + 32, m:m + 32].astype(np.float64))


def test_full_raster_inference_shapes_and_ties():
    cfg = RunConfig.desk()
    model = Model.build(cfg.network_config(), seed=1)
    raster = make_raster(80, seed=2)
    probs, labels = infer_full_raster(model, raster, tile=64, stride=16, center=32)
    assert probs.shape == (6, 80, 80)
    assert np.abs(probs.sum(axis=0) - 1.0).max() < 1e-5
    assert labels.min() >= 0 and labels.max() < 6
    # argmax ties break to the lowest class index
    tied = np.full((2, 3, 3), 0.5)
    assert (np.argmax(tied, axis=0) == 0).all()


# ---------------------------------------------------------------------------
# metrics


def test_metrics_hand_case():
    res = evaluate([0, 0, 1, 1], [0, 1, 1, 1], num_classes=2)
    assert res.f1[0] == pytest.approx(2 / 3)
    assert res.f1[1] == pytest.approx(0.8)
    assert res.overall_accuracy == pytest.approx(0.75)
    assert res.present == [True, True]


def test_metrics_counting_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(10, 200))
        pred = rng.integers(0, 6, n)
        true = rng.integers(0, 6, n)
        res = evaluate(pred, true)
        # independent per-class loop oracle
        for c in range(6):
            tp = int(((pred == c) & (true == c)).sum())
            fp = int(((pred == c) & (true != c)).sum())
            fn = int(((pred != c) & (true == c)).sum())
            denom = 2 * tp + fp + fn
            want = 2 * tp / denom if denom else 0.0
            assert res.f1[c] == pytest.approx(want)
        assert res.overall_accuracy == pytest.approx((pred == true).mean())


def test_metrics_absent_class():
    res = evaluate([0, 0], [0, 0], num_classes=3)
    assert res.f1[0] == 1.0
    assert res.present == [True, False, False]
    assert res.f1[1] == 0.0
    assert res.overall_accuracy == 1.0


def test_metrics_shape_mismatch():
    with pytest.raises(ConfigurationError):
        evaluate([0, 1], [0, 1, 2])


def test_format_report_columns():
    pred = np.array([[0, 1], [2, 3]], dtype=np.int64)
    true = np.array([[0, 1], [2, 2]], dtype=np.int64)
    lines = format_report(evaluate(pred, true)).strip().splitlines()
    assert lines[0].startswith("f1_") and lines[0].endswith("overall_accuracy")
    assert lines[1].split(",")[-1] == "0.7500"


def test_format_report_marks_absent():
    res = evaluate(np.zeros(5, dtype=int), np.zeros(5, dtype=int))
    text = format_report(res)
    assert "absent" in text
