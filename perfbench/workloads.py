"""The benchmark's three workloads, driven through orthoseg's public functions.

Each workload object is built from a work directory and a seed (input
generation, untimed), then offers ``setup()`` (timed as ``setup_s``),
``op()`` (one timed call of ``trainer.train_loop`` or
``inference.infer_full_raster``), ``probe_forward()`` (one forward used for
the allocation peak) and ``outputs()`` / ``check()`` for correctness.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import subprocess
import sys
import traceback

import numpy as np

import orthoseg
from orthoseg import checkpoint, cli, data, inference, trainer
from orthoseg.config import RunConfig
from orthoseg.network import Model

TRAIN_RASTERS = 2          # synthetic scenes tiled by `orthoseg prepare`
TRAIN_RASTER_SIZE = 192
TRAIN_CHUNK = 50           # iterations per timed train_loop call
# training samples used, so that set-up work does not depend on how many
# tiles the seed's validation pick leaves (13-36 tiles, 4 rotations each)
TRAIN_SAMPLES = 48
DESK_RASTER = (192, 192)   # 121 crops of 64 px
FULL_RASTER = (128, 128)   # 1 crop of 256 px
PROB_SUM_TOL = 1e-5
# reference agreement: float32 rounding, amplified by training for the loss
LOSS_RTOL = 1e-4
PROB_RTOL, PROB_ATOL = 1e-4, 1e-6


def make_checkpoint(path, cfg_text, seed):
    """Write the checkpoint a training run of ``cfg_text`` leaves at its
    start: He-initialized weights from ``seed``, zero velocities."""
    cfg = RunConfig.parse(cfg_text)
    state = trainer.init_state(Model.build(cfg.network_config(), seed=seed), cfg)
    trainer.state_to_checkpoint(path, state, cfg.digest(), cfg.serialize())


def synth_scene(shape, seed):
    """One synthetic raster of ``shape`` cut from a square scene."""
    h, w = shape
    scene = data.synth_dataset(1, max(h, w), seed)[0]
    return data.Raster({role: plane[:h, :w] for role, plane in scene.channels.items()},
                       raster_id=scene.raster_id)


def load_samples(prepared_dir, names):
    """Training triples from prepared tiles, as `orthoseg train` builds them."""
    samples = []
    for name in names:
        tile = data.read_mcr(os.path.join(prepared_dir, "tiles", f"{name}.mcr"))
        primary, auxiliary, _, label_half = data.assemble_inputs(tile)
        samples.append((primary, auxiliary, label_half))
    return samples


class DeskTrain:
    """`RunConfig.desk()` training through `trainer.train_loop`, in chunks of
    TRAIN_CHUNK iterations; one unit is one iteration."""

    unit = "iteration"

    def __init__(self, work, seed):
        raw = os.path.join(work, "raw")
        os.makedirs(raw)
        for raster in data.synth_dataset(TRAIN_RASTERS, TRAIN_RASTER_SIZE, seed):
            data.write_mcr(os.path.join(raw, f"{raster.raster_id}.mcr"), raster)
        self.prepared = os.path.join(work, "prep")
        self.out = os.path.join(work, "run")
        self.cfg = RunConfig.desk(data_dir=self.prepared)
        argv = ["prepare", "--input", raw, "--out", self.prepared,
                "--tile", str(self.cfg.tile_size), "--overlap", str(self.cfg.overlap),
                "--val-frac", str(self.cfg.val_fraction), "--seed", str(seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise RuntimeError("orthoseg prepare failed")
        self.input_channels = self.cfg.network_config().input_channels
        self.pixels_per_unit = self.cfg.tile_size ** 2

    def setup(self):
        with open(os.path.join(self.prepared, "manifest.json"), encoding="utf-8") as f:
            manifest = json.load(f)
        self.train = load_samples(self.prepared, manifest["train"][:TRAIN_SAMPLES])
        self.val = load_samples(self.prepared, manifest["val"])
        model = Model.build(self.cfg.network_config(), seed=self.cfg.seed)
        self.state = trainer.init_state(model, self.cfg)

    def op(self):
        """Returns (units attempted, units failed); raises nothing."""
        start = self.state.iteration
        try:
            trainer.train_loop(self.cfg, self.state.model, self.train, self.val, self.out,
                               max_iterations=start + TRAIN_CHUNK, state=self.state)
        except Exception:  # a failed iteration is counted and reported
            traceback.print_exc()
            return self.state.iteration - start + 1, 1
        return TRAIN_CHUNK, 0

    def probe_forward(self):
        primary, auxiliary, _ = self.train[0]
        self.state.model.forward(primary[None], auxiliary[None], training=True,
                                 rng=np.random.default_rng(0), noiserates=self.state.noiserates)

    def outputs(self):
        """Loss trajectory: [iteration, train_loss, val_loss] per metrics.csv row."""
        with open(os.path.join(self.out, "metrics.csv"), newline="", encoding="utf-8") as f:
            rows = list(csv.DictReader(f))
        return {"trajectory": [[int(r["iteration"]), float(r["train_loss"]), float(r["val_loss"])]
                               for r in rows]}

    @staticmethod
    def check(out, reference):
        """Problems found in ``out`` (empty when correct)."""
        traj = out["trajectory"]
        problems = [f"non-finite loss at iteration {it}" for it, tl, vl in traj
                    if not (math.isfinite(tl) and math.isfinite(vl))]
        if not traj:
            problems.append("no evaluation row written")
        if reference is not None:
            ref = reference["trajectory"]
            n = min(len(ref), len(traj))
            got, want = np.array(traj[:n]), np.array(ref[:n])
            if n == 0 or not np.array_equal(got[:, 0], want[:, 0]) or not np.allclose(
                    got[:, 1:], want[:, 1:], rtol=LOSS_RTOL, atol=0):
                problems.append(f"loss trajectory differs from the reference over {n} rows")
        return problems


class StitchedInference:
    """Overlap-crop inference of a model loaded the way `orthoseg infer`
    loads it, at that command's geometry; one unit is one crop."""

    unit = "crop"

    def __init__(self, work, seed, cfg, raster_shape):
        self.ckpt = os.path.join(work, "model.ckpt")
        # a separate process, so its memory peak stays out of peak_rss_mb;
        # subprocess.run waits for it, and kills it first if interrupted
        src = os.path.dirname(os.path.dirname(os.path.abspath(orthoseg.__file__)))
        proc = subprocess.run([sys.executable, os.path.abspath(__file__), self.ckpt, str(seed)],
                              input=cfg.serialize(), text=True,
                              env={**os.environ, "PYTHONPATH": src})
        if proc.returncode != 0:
            raise RuntimeError(f"checkpoint generation failed with exit code {proc.returncode}")
        self.raster = synth_scene(raster_shape, seed)
        self.input_channels = cfg.network_config().input_channels
        t = cfg.tile_size
        self.geometry = dict(tile=t, stride=t // 4, center=t // 2)
        self.plan = inference.plan_stitch(*raster_shape, **self.geometry)
        self.crops = len(self.plan.row_origins) * len(self.plan.col_origins)
        self.pixels_per_unit = raster_shape[0] * raster_shape[1] / self.crops
        self.first_probs = None

    def setup(self):
        # exactly as cli.cmd_infer
        header, _ = checkpoint.load_checkpoint(self.ckpt)
        cfg = RunConfig.parse(header["config_text"])
        state, _ = trainer.state_from_checkpoint(self.ckpt, cfg.network_config())
        self.model = state.model

    def op(self):
        try:
            probs, labels = inference.infer_full_raster(self.model, self.raster, **self.geometry)
        except Exception:  # every crop of a raised call counts as failed
            traceback.print_exc()
            return self.crops, self.crops
        if self.first_probs is None:
            self.first_probs = probs
        return self.crops, failed_crops(probs, labels, self.plan)

    def probe_forward(self):
        """Forward of the first crop, padded as stitch_predict pads it."""
        t = self.geometry["tile"]
        crop = {role: np.pad(p, (self.plan.pad_rows, self.plan.pad_cols), mode="symmetric")[:t, :t]
                for role, p in self.raster.channels.items()}
        primary, auxiliary, _, _ = data.assemble_inputs(data.Raster(crop))
        self.model.forward(primary[None], auxiliary[None], training=False)

    def outputs(self):
        return {} if self.first_probs is None else prob_summary(self.first_probs)

    @staticmethod
    def check(out, reference):
        problems = [] if out else ["no raster was stitched"]
        if out and reference is not None:
            for key, want in reference.items():
                if not np.allclose(out[key], want, rtol=PROB_RTOL, atol=PROB_ATOL):
                    problems.append(f"stitched probability summary {key} differs from the reference")
        return problems


def failed_crops(probs, labels, plan):
    """Crops whose kept center holds a non-finite probability, a pixel whose
    probabilities do not sum to 1, or a label that is not the argmax."""
    with np.errstate(invalid="ignore"):
        bad = (~np.isfinite(probs).all(axis=0)
               | (np.abs(probs.sum(axis=0) - 1.0) > PROB_SUM_TOL)
               | (labels != probs.argmax(axis=0)))
    c = plan.center  # a crop's kept center starts at its padded-coordinate origin
    return sum(bool(bad[r0:r0 + c, c0:c0 + c].any())
               for r0 in plan.row_origins for c0 in plan.col_origins)


def prob_summary(probs):
    """Per-class mean, standard deviation and row/column first moments of
    the stitched probabilities."""
    h, w = probs.shape[1:]
    rows = np.linspace(-1.0, 1.0, h)[None, :, None]
    cols = np.linspace(-1.0, 1.0, w)[None, None, :]
    return {
        "mean": probs.mean(axis=(1, 2)).tolist(),
        "std": probs.std(axis=(1, 2)).tolist(),
        "row_moment": (probs * rows).mean(axis=(1, 2)).tolist(),
        "col_moment": (probs * cols).mean(axis=(1, 2)).tolist(),
    }


def make(name, work, seed):
    if name == "desk-train":
        return DeskTrain(work, seed)
    if name == "desk-infer":
        return StitchedInference(work, seed, RunConfig.desk(), DESK_RASTER)
    if name == "full-infer":
        # RunConfig() defaults are the paper's widths (NetworkConfig.benchmark())
        return StitchedInference(work, seed, RunConfig(tile_size=256), FULL_RASTER)
    raise ValueError(f"unknown workload {name!r}")


if __name__ == "__main__":
    # python3 workloads.py CKPT SEED < config text: write a fresh checkpoint
    make_checkpoint(sys.argv[1], sys.stdin.read(), int(sys.argv[2]))
