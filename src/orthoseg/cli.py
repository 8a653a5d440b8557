"""Command-line entry points.

Subcommands: synth (seeded synthetic rasters), prepare (tiling, augmentation
and the train/validation split), train, infer, eval and gradcheck.  Every
command exits 0 on success; errors print a single machine-parseable line
``error code=<n> kind=<Class>: detail`` and exit with that code.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import autodiff as ad
from . import checkpoint, data, inference, trainer
from .config import RunConfig
from .errors import ConfigurationError, DataError, NumericalError, OrthosegError
from .network import Model


def _slug(text):
    return re.sub(r"[^A-Za-z0-9_.-]+", "-", text)


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    os.makedirs(args.out, exist_ok=True)
    rasters = data.synth_dataset(args.count, args.size, args.seed)
    for raster in rasters:
        data.write_mcr(os.path.join(args.out, f"{_slug(raster.raster_id)}.mcr"), raster)
    print(f"wrote {len(rasters)} rasters to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# prepare


def cmd_prepare(args):
    if not 0 < args.val_frac < 1:
        raise ConfigurationError(f"validation fraction {args.val_frac} outside (0,1); "
                                 "a validation set is required for plateau scheduling")
    paths = sorted(p for p in os.listdir(args.input) if p.endswith(".mcr"))
    if not paths:
        raise DataError(f"no .mcr rasters in {args.input}")
    rasters, tilesets = [], []
    for p in paths:
        full = os.path.join(args.input, p)
        try:
            raster = data.read_mcr(full, raster_id=os.path.splitext(p)[0])
        except (DataError, OSError) as exc:
            raise DataError(f"{full}: {exc}") from exc
        rasters.append(raster)
        tilesets.append(data.tile_raster(raster, args.tile, args.overlap))
    train_ids, val_ids, dropped_ids = data.split_train_val(
        tilesets, args.val_frac, args.seed)

    tiles_dir = os.path.join(args.out, "tiles")
    os.makedirs(tiles_dir, exist_ok=True)

    def tile_name(si, oi):
        r0, c0 = tilesets[si].origins[oi]
        return f"{_slug(tilesets[si].raster_id)}_r{r0}_c{c0}"

    manifest = {"tile_size": args.tile, "overlap": args.overlap,
                "seed": args.seed, "train": [], "val": [], "dropped": []}

    def write_tile(split, name, tile):
        data.write_mcr(os.path.join(tiles_dir, f"{name}.mcr"), tile)
        manifest[split].append(name)

    for si, oi in val_ids:
        write_tile("val", tile_name(si, oi), data.extract_tile(rasters[si], tilesets[si], oi))
    for si, oi in train_ids:
        rots = data.rotate_augment(data.extract_tile(rasters[si], tilesets[si], oi))
        for k, rot in enumerate(rots):
            write_tile("train", f"{tile_name(si, oi)}_rot{90 * k}", rot)
    manifest["dropped"] = [tile_name(si, oi) for si, oi in dropped_ids]

    with open(os.path.join(args.out, "manifest.json"), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
    print(f"train tiles {len(manifest['train'])} val {len(manifest['val'])} "
          f"dropped {len(manifest['dropped'])}")
    return 0


# ---------------------------------------------------------------------------
# train


def _load_samples(prepared_dir, names):
    tiles_dir = os.path.join(prepared_dir, "tiles")
    samples = []
    for name in names:
        tile = data.read_mcr(os.path.join(tiles_dir, f"{name}.mcr"))
        primary, auxiliary, _, label_half = data.assemble_inputs(tile)
        samples.append((primary, auxiliary, label_half))
    return samples


def _load_manifest(prepared_dir):
    path = os.path.join(prepared_dir, "manifest.json")
    if not os.path.exists(path):
        raise DataError(f"{prepared_dir}: no manifest.json (run prepare first)")
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


def cmd_train(args):
    cfg = RunConfig.load(args.config)
    net_cfg = cfg.network_config()
    prepared = args.data or cfg.data_dir
    if not prepared:
        raise ConfigurationError("no prepared data directory (set data_dir or pass --data)")
    manifest = _load_manifest(prepared)
    train_samples = _load_samples(prepared, manifest["train"])
    val_samples = _load_samples(prepared, manifest["val"])

    state = None
    model = None
    if args.resume:
        state, _ = trainer.state_from_checkpoint(
            args.resume, net_cfg, expected_digest=cfg.digest(), override=args.override_digest)
        print(f"resumed at iteration {state.iteration}")
    else:
        model = Model.build(net_cfg, seed=cfg.seed)
    state = trainer.train_loop(cfg, model, train_samples, val_samples,
                               args.out, state=state)
    train_acc = trainer.pixel_accuracy(state.model, train_samples)
    val_acc = trainer.pixel_accuracy(state.model, val_samples)
    print(f"iterations {state.iteration} train_pixel_accuracy {train_acc:.4f} "
          f"val_pixel_accuracy {val_acc:.4f}")
    return 0


# ---------------------------------------------------------------------------
# infer / eval


def cmd_infer(args):
    header, tensors = checkpoint.load_checkpoint(args.ckpt)
    text = header.get("config_text")
    if not text or not isinstance(text, str):
        raise DataError(f"{args.ckpt}: header carries no run config text")
    try:  # the fault is in the checkpoint file, not in a config the user wrote
        cfg = RunConfig.parse(text)
        net_cfg = cfg.network_config()
    except ConfigurationError as exc:
        raise DataError(f"{args.ckpt}: stored run config: {exc}") from exc
    state = trainer.state_from_tensors(header, tensors, net_cfg)
    raster = data.read_mcr(args.image)
    tile = cfg.tile_size
    probs, labels = inference.infer_full_raster(
        state.model, raster, tile=tile, stride=tile // 4, center=tile // 2)
    data.write_ppm(args.out + "_prediction.ppm", data.colorize(labels.astype(np.uint8)))
    np.save(args.out + "_probabilities.npy", probs.astype(np.float32))
    print(f"wrote {args.out}_prediction.ppm and {args.out}_probabilities.npy")
    return 0


def cmd_eval(args):
    pred = data.decode_label_colors(data.read_ppm(args.pred))
    truth = data.decode_label_colors(data.read_ppm(args.truth))
    report = inference.format_report(inference.evaluate(pred, truth))
    out_dir = os.path.dirname(os.path.abspath(args.out)) or "."
    os.makedirs(out_dir, exist_ok=True)
    with open(args.out, "w", encoding="utf-8") as f:
        f.write(report)
    print(report, end="")
    return 0


# ---------------------------------------------------------------------------
# gradcheck


def _gradcheck_cases():
    rng = np.random.default_rng(0)

    def t64(shape, scale=1.0):
        return ad.Tensor(rng.normal(size=shape) * scale)

    def wloss(shape):
        w = rng.normal(size=shape)

        def loss(out):
            return ad.tsum(ad.mul(out, ad.Tensor(w)))
        return loss

    cases = []
    x, w, b = t64((1, 2, 6, 6)), t64((2, 2, 3, 3), 0.5), t64((2,))
    loss = wloss((1, 2, 6, 6))
    cases.append(("conv2d_dilation2", lambda ts: loss(
        ad.conv2d(ts[0], ts[1], ts[2], dilation=2, padding="same")), [x, w, b]))
    x2, l2 = t64((1, 2, 4, 4)), wloss((1, 2, 2, 2))
    cases.append(("max_pool2", lambda ts: l2(ad.max_pool2(ts[0])), [x2]))
    x3, l3 = t64((1, 1, 6, 6)), wloss((1, 1, 6, 6))
    cases.append(("avg_pool5_same", lambda ts: l3(ad.avg_pool(ts[0], 5, 1, "same")), [x3]))
    x4, l4 = t64((1, 2, 4, 4)), wloss((1, 2, 4, 4))
    cases.append(("elu", lambda ts: l4(ad.elu(ts[0])), [x4]))
    x5, l5 = t64((1, 2, 3, 3)), wloss((1, 2, 6, 6))
    cases.append(("upsample2", lambda ts: l5(ad.upsample2(ts[0])), [x5]))
    a6, b6, l6 = t64((1, 2, 4, 4)), t64((1, 1, 4, 4)), wloss((1, 3, 4, 4))
    cases.append(("concat_channels", lambda ts: l6(ad.concat_channels(ts)), [a6, b6]))
    x7 = t64((1, 4, 3, 3))
    lab7 = np.random.default_rng(1).integers(0, 4, size=(1, 3, 3))
    cases.append(("softmax_cross_entropy", lambda ts: ad.cross_entropy_loss(
        ad.softmax_channels(ts[0]), lab7), [x7]))
    x8, l8 = t64((1, 3, 4, 4)), wloss((1, 3, 4, 4))
    cases.append(("dmgn_frozen_noise", lambda ts: l8(
        ad.dmgn(ts[0], 0.25, True, np.random.default_rng(7))), [x8]))
    return cases


def cmd_gradcheck(args):
    failures = 0
    for name, fn, inputs in _gradcheck_cases():
        report = ad.finite_diff_check(fn, inputs, eps=1e-6, tolerance=1e-6)
        worst = max(report.max_rel_errors)
        status = "ok" if report.passed else "FAIL"
        print(f"{name}: max_rel_error {worst:.3e} {status}")
        failures += 0 if report.passed else 1

    # gradient gating on the desk-scale network
    cfg = RunConfig.desk()
    model = Model.build(cfg.network_config(), seed=0)
    rng = np.random.default_rng(2)
    primary = rng.normal(0, 1, (1, 3, 32, 32)).astype(np.float32)
    auxiliary = rng.normal(0, 1, (1, 3, 32, 32)).astype(np.float32)
    taps = {}
    probs = model.forward(primary, auxiliary, training=False, taps=taps,
                          record_graph=True)
    labels = np.zeros((1, 32, 32), dtype=np.int64)
    ad.backward(ad.cross_entropy_loss(probs, labels))
    gated_ok = all(
        taps[f"decoder.block{j}.features_up"].grad is None
        for j in range(2, cfg.network_config().num_encoder_blocks + 1))
    # the only ungated route through the correction block is its residual
    # identity, so the gradient arriving at its decision input must equal
    # the gradient at its output exactly
    sccb_ok = (np.count_nonzero(model.params["sccb.conv1.weight"].grad) > 0
               and np.array_equal(taps["sccb.decisions_in"].grad,
                                  taps["sccb.logits"].grad))
    print(f"decoder_feature_gating: {'ok' if gated_ok else 'FAIL'}")
    print(f"sccb_branch_gating: {'ok' if sccb_ok else 'FAIL'}")
    failures += (0 if gated_ok else 1) + (0 if sccb_ok else 1)

    if failures:
        raise NumericalError(f"{failures} gradient check(s) failed")
    print("all gradient checks passed")
    return 0


# ---------------------------------------------------------------------------
# argument wiring


def build_parser():
    parser = argparse.ArgumentParser(prog="orthoseg",
                                     description="Multimodal raster segmentation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic dataset")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=4)
    p.add_argument("--size", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("prepare", help="tile rasters, augment, split train/val")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--tile", type=int, default=RunConfig.tile_size)
    p.add_argument("--overlap", type=float, default=RunConfig.overlap)
    p.add_argument("--val-frac", type=float, default=RunConfig.val_fraction)
    p.add_argument("--seed", type=int, default=RunConfig.seed)
    p.set_defaults(fn=cmd_prepare)

    p = sub.add_parser("train", help="train from a run config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--data", default="", help="prepared data dir (overrides config data_dir)")
    p.add_argument("--resume", default="")
    p.add_argument("--override-digest", action="store_true",
                   help="accept a checkpoint whose config digest differs")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("infer", help="full-raster prediction from a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--image", required=True)
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(fn=cmd_infer)

    p = sub.add_parser("eval", help="compare two colorized label images")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--out", required=True, help="CSV report path")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("gradcheck", help="finite-difference and gating audit")
    p.set_defaults(fn=cmd_gradcheck)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except OrthosegError as exc:
        print(f"error code={exc.exit_code} kind={type(exc).__name__}: {exc}",
              file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error code=3 kind=OSError: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
