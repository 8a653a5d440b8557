"""Command-line entry points.

Subcommands: synth (seeded synthetic rasters), prepare (tiling, augmentation
and the train/validation split), train, infer, eval and gradcheck.  Every
command exits 0 on success; errors print a single machine-parseable line
``error code=<n> kind=<Class>: detail`` and exit with that code.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import autodiff as ad
from . import data, inference, trainer
from .config import RunConfig
from .errors import ConfigurationError, NumericalError, OrthosegError
from .network import Model


# ---------------------------------------------------------------------------
# synth


def cmd_synth(args):
    os.makedirs(args.out, exist_ok=True)
    rasters = data.synth_dataset(args.count, args.size, args.seed)
    for raster in rasters:
        data.write_mcr(os.path.join(args.out, f"{raster.raster_id}.mcr"), raster)
    print(f"wrote {len(rasters)} rasters to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# prepare


def cmd_prepare(args):
    if not 0 < args.val_frac < 1:
        raise ConfigurationError(f"validation fraction {args.val_frac} outside (0,1); "
                                 "a validation set is required for plateau scheduling")
    manifest = data.prepare_dataset(args.input, args.out, args.tile, args.overlap,
                                    args.val_frac, args.seed)
    print(f"train tiles {len(manifest['train'])} val {len(manifest['val'])} "
          f"dropped {len(manifest['dropped'])}")
    return 0


# ---------------------------------------------------------------------------
# train


def cmd_train(args):
    cfg = RunConfig.load(args.config)
    net_cfg = cfg.network_config()
    prepared = args.data or cfg.data_dir
    if not prepared:
        raise ConfigurationError("no prepared data directory (set data_dir or pass --data)")
    manifest = data.load_manifest(prepared)
    train_samples = data.load_samples(prepared, manifest["train"])
    val_samples = data.load_samples(prepared, manifest["val"])

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
    cfg, model = trainer.model_from_checkpoint(args.ckpt)
    raster = data.read_mcr(args.image)
    probs, labels = inference.infer_full_raster(model, raster, **cfg.stitch_geometry())
    data.write_ppm(args.out + "_prediction.ppm", data.colorize(labels.astype(np.uint8)))
    with data.replace_file(args.out + "_probabilities.npy") as f:
        np.save(f, probs.astype(np.float32))
    print(f"wrote {args.out}_prediction.ppm and {args.out}_probabilities.npy")
    return 0


def cmd_eval(args):
    pred = data.decode_label_colors(data.read_ppm(args.pred))
    truth = data.decode_label_colors(data.read_ppm(args.truth))
    report = inference.format_report(inference.evaluate(pred, truth))
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with data.replace_file(args.out) as f:
        f.write(report.encode("utf-8"))
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
    # two images side by side in conv2d's buffer; dilation 3 on 4x5 reaches
    # the spare row and the next image's block
    x9, w9, b9, l9 = t64((2, 2, 4, 5)), t64((2, 2, 3, 3), 0.5), t64((2,)), wloss((2, 2, 4, 5))
    cases.append(("conv2d_batch2_dilation3", lambda ts: l9(
        ad.conv2d(ts[0], ts[1], ts[2], dilation=3, padding="same")), [x9, w9, b9]))
    # a half-resolution input read through 2x upsampling, then a full one
    h10, f10, w10 = t64((2, 2, 3, 4)), t64((2, 1, 6, 8)), t64((2, 3, 3, 3), 0.5)
    b10, l10 = t64((2,)), wloss((2, 2, 6, 8))
    cases.append(("conv2d_groups_halfres", lambda ts: l10(
        ad.conv2d(ts[:2], ts[2], ts[3], dilation=2, padding="same")), [h10, f10, w10, b10]))
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

    def flows(t):  # a gradient array with a non-zero entry
        return isinstance(t.grad, np.ndarray) and np.count_nonzero(t.grad) > 0

    # block 1's features reach conv1 ungated; every later block's are cut
    gated_ok = flows(taps["decoder.block1.features_up"]) and all(
        taps[f"decoder.block{j}.features_up"].grad is None
        for j in range(2, cfg.network_config().num_encoder_blocks + 1))
    # the only ungated route through the correction block is its residual
    # identity, so the gradient arriving at its decision input must equal
    # the gradient at its output exactly
    sccb_ok = (flows(model.params["sccb.conv1.weight"]) and flows(taps["sccb.decisions_in"])
               and np.array_equal(taps["sccb.decisions_in"].grad, taps["sccb.logits"].grad))
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
