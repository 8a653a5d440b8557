"""Full-raster prediction by overlapping crops plus benchmark-style metrics.

A raster is mirror-padded, cut into overlapping crops on a stride grid, and
each crop is predicted independently; only the fully-contexted central region
of each crop is kept, and overlapping centers are averaged in probability
space.  Metrics follow the per-class F1 / overall pixel accuracy convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import data
from .errors import ConfigurationError, DataError


# ---------------------------------------------------------------------------
# stitch planning


@dataclass(frozen=True)
class StitchPlan:
    """Crop origins (in padded coordinates) and padding for one raster."""

    height: int
    width: int
    tile: int
    center: int
    margin: int
    pad_rows: tuple
    pad_cols: tuple
    row_origins: tuple
    col_origins: tuple

    def coverage_counts(self):
        """How many crop centers cover each output pixel."""
        rows = _axis_coverage(self.row_origins, self.center, self.height)
        cols = _axis_coverage(self.col_origins, self.center, self.width)
        return np.outer(rows, cols)


def _axis_coverage(origins, center, extent):
    counts = np.zeros(extent, dtype=np.int64)
    for o in origins:
        counts[o:o + center] += 1
    return counts


def _axis_plan(extent, tile, stride, margin):
    pad_before = margin
    pad_after = max(margin, tile - margin - extent)
    padded = extent + pad_before + pad_after
    origins = [0]
    while origins[-1] + tile < padded:
        origins.append(min(origins[-1] + stride, padded - tile))
    return (pad_before, pad_after), tuple(origins)


def plan_stitch(height, width, tile, stride, center):
    if center > tile or (tile - center) % 2:
        raise ConfigurationError("center region must fit the crop with equal margins")
    if stride > center:
        raise ConfigurationError("stride larger than center region leaves gaps")
    if stride < 1:
        raise ConfigurationError(f"stride must be >= 1, got {stride}")
    margin = (tile - center) // 2
    pad_rows, row_origins = _axis_plan(height, tile, stride, margin)
    pad_cols, col_origins = _axis_plan(width, tile, stride, margin)
    return StitchPlan(height=height, width=width, tile=tile,
                      center=center, margin=margin, pad_rows=pad_rows,
                      pad_cols=pad_cols, row_origins=row_origins,
                      col_origins=col_origins)


# ---------------------------------------------------------------------------
# prediction


def stitch_predict(predict_crop, planes, plan):
    """Average the central regions of per-crop probability maps.

    ``predict_crop(crop_planes)`` takes a dict of (tile, tile) planes and
    returns class probabilities of shape (C, tile, tile).  Returns the
    stitched (C, height, width) float64 probability raster.
    """
    padded = {
        role: np.pad(plane, (plan.pad_rows, plan.pad_cols), mode="symmetric")
        for role, plane in planes.items()
    }
    m = plan.margin
    acc = None
    for r0 in plan.row_origins:
        for c0 in plan.col_origins:
            crop = {role: p[r0:r0 + plan.tile, c0:c0 + plan.tile]
                    for role, p in padded.items()}
            probs = np.asarray(predict_crop(crop), dtype=np.float64)
            if acc is None:
                acc = np.zeros((probs.shape[0], plan.height, plan.width))
            # the crop's center starts at raster pixel (r0, c0), since
            # pad_before == margin; it is cut where it overhangs the raster
            rows = min(plan.center, plan.height - r0)
            cols = min(plan.center, plan.width - c0)
            acc[:, r0:r0 + rows, c0:c0 + cols] += probs[:, m:m + rows, m:m + cols]
    acc /= plan.coverage_counts()
    return acc


def model_crop_predictor(model, keep=None):
    """Crop planes -> class probabilities at crop resolution.

    Normalizes and 2x downsamples the crop the same way training samples are
    prepared, runs the network, and duplicates the half-resolution
    probabilities back up to crop resolution.  ``keep`` is the kept region
    at net resolution (see ``Model.forward``): only a window around it is
    computed, and the probabilities outside that window are NaN.
    """
    def predict(crop_planes):
        primary, auxiliary = data.network_inputs(crop_planes)
        probs = model.forward(primary[None], auxiliary[None], training=False, keep=keep)
        return ad.upsample2(probs).data[0]
    return predict


def infer_full_raster(model, raster, tile, stride, center):
    """Full-raster (probability raster, label raster) via overlapping crops.

    Labels are the per-pixel argmax; probability ties break to the lowest
    class index.
    """
    if not raster.height or not raster.width:  # mirror padding needs a pixel to mirror
        raise DataError(f"raster {raster.raster_id!r} has zero extent "
                        f"{raster.height}x{raster.width}")
    plan = plan_stitch(raster.height, raster.width, tile, stride, center)
    planes = {r: p for r, p in raster.channels.items() if r in data.INPUT_ROLES}
    # the crop's kept center, at net (half) resolution
    center = (plan.margin // 2, -(-(plan.margin + plan.center) // 2))
    probs = stitch_predict(model_crop_predictor(model, keep=(center, center)), planes, plan)
    labels = probs.argmax(axis=0).astype(np.int64)
    return probs, labels


# ---------------------------------------------------------------------------
# metrics


@dataclass
class EvalResult:
    confusion: np.ndarray        # (C, C), rows = annotation, cols = prediction
    f1: list                     # per-class F1, 0.0 where undefined
    present: list                # per-class bool: any annotated or predicted pixel
    overall_accuracy: float


def evaluate(pred_labels, true_labels, num_classes=len(data.CLASS_NAMES)):
    pred = np.asarray(pred_labels).ravel()
    true = np.asarray(true_labels).ravel()
    if pred.shape != true.shape:
        raise ConfigurationError(f"label shapes differ: {pred.shape} vs {true.shape}")
    for what, labels in (("predicted", pred), ("true", true)):
        if not np.issubdtype(labels.dtype, np.integer) or (
                labels.size and (labels.min() < 0 or labels.max() >= num_classes)):
            raise DataError(f"{what} labels must be integers in [0, {num_classes})")
    confusion = np.bincount(true.astype(np.intp) * num_classes + pred.astype(np.intp),
                            minlength=num_classes * num_classes)
    confusion = confusion.reshape(num_classes, num_classes)
    f1, present = [], []
    for c in range(num_classes):
        tp = confusion[c, c]
        fp = confusion[:, c].sum() - tp
        fn = confusion[c, :].sum() - tp
        denom = 2 * tp + fp + fn
        f1.append(2.0 * tp / denom if denom else 0.0)
        present.append(bool(denom))
    overall = confusion.trace() / confusion.sum() if confusion.sum() else 0.0
    return EvalResult(confusion=confusion, f1=f1, present=present,
                      overall_accuracy=float(overall))


def format_report(result):
    """Per-class F1 columns then overall accuracy, as CSV text."""
    header = [f"f1_{name}" for name in data.CLASS_NAMES] + ["overall_accuracy"]
    row = [f"{v:.4f}" if p else "absent" for v, p in zip(result.f1, result.present)]
    row.append(f"{result.overall_accuracy:.4f}")
    return ",".join(header) + "\n" + ",".join(row) + "\n"
