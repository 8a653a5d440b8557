"""Compare what two trees of orthoseg compute, probe by probe.

    python3 tools/equal.py REV    # the working tree against git revision REV
    python3 tools/equal.py        # the working tree's probes alone

REV is checked out in a temporary ``git worktree``.  The same probes (this
file's ``PROBES``) run in each tree in a separate process that imports the
package from that tree's ``src/``.  One line is printed per probe: "equal",
or the largest absolute and relative difference and the count of differing
elements.  A probe is one array, or one array per tensor under keys
``probe/tensor``; a difference is taken relative to the largest magnitude
in its tensor.  Exits 1 when a probe differs.  Takes about a minute on
2 vCPUs.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _inputs(seed, size):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(2, 1, 3, size, size)).astype(np.float32)


def probe_desk(work):
    """Desk eval forward, training-mode gradients and stitched inference."""
    from orthoseg import autodiff as ad
    from orthoseg import data, inference
    from orthoseg.config import RunConfig
    from orthoseg.network import Model

    model = Model.build(RunConfig.desk().network_config(), seed=0)
    out = {"desk_forward_32": model.forward(*_inputs(1, 32)).data}
    probs = model.forward(*_inputs(2, 32), training=True, rng=np.random.default_rng(3))
    labels = np.random.default_rng(4).integers(0, 6, size=(1, 32, 32))
    ad.backward(ad.cross_entropy_loss(probs, labels))
    out.update({f"desk_grads/{name}": t.grad for name, t in model.params.items()})
    raster = data.synth_dataset(1, 150, seed=5)[0]
    out["desk_stitch_150"], _ = inference.infer_full_raster(
        Model.build(RunConfig.desk().network_config(), seed=0), raster, 64, 16, 32)
    return out


def probe_training(work):
    """Parameters, losses and the decoded checkpoint after 30 desk
    iterations: its canonical header JSON, and each tensor under
    ``train30_checkpoint/<name>``, so trees whose checkpoint formats differ
    compare by content."""
    from orthoseg import checkpoint, data, trainer
    from orthoseg.config import RunConfig
    from orthoseg.network import Model

    cfg = RunConfig.desk(eval_interval=10, checkpoint_interval=30)
    samples = [data.assemble_inputs(r) for r in data.synth_dataset(6, 64, seed=6)]
    samples = [(p, a, half) for p, a, _, half in samples]
    model = Model.build(cfg.network_config(), seed=cfg.seed)
    run = os.path.join(work, "run")
    trainer.train_loop(cfg, model, samples[:4], samples[4:], run, max_iterations=30)
    with open(os.path.join(run, "metrics.csv"), encoding="utf-8") as f:
        rows = [line.split(",") for line in f.read().splitlines()[1:]]
    header, tensors = checkpoint.load_checkpoint(os.path.join(run, "final.ckpt"))
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    return {**{f"train30_params/{name}": t.data for name, t in model.params.items()},
            "train30_losses": np.array([[float(r[1]), float(r[2])] for r in rows]),
            "train30_checkpoint_header": np.frombuffer(blob, dtype=np.uint8),
            **{f"train30_checkpoint/{name}": a for name, a in tensors.items()}}


def probe_paper(work):
    """Paper-width eval forwards: 128², and 256² kept on the centre that a
    512-px crop keeps (windowed where the tree's ``forward`` takes ``keep``)."""
    from orthoseg.network import Model, NetworkConfig

    model = Model.build(NetworkConfig.benchmark(), seed=0)
    out = {"paper_forward_128": model.forward(*_inputs(7, 128)).data}
    keep = ((64, 192), (64, 192))
    windowed = "keep" in inspect.signature(model.forward).parameters
    probs = model.forward(*_inputs(8, 256), **({"keep": keep} if windowed else {})).data
    out["paper_windowed_256"] = probs[:, :, 64:192, 64:192]
    return out


def probe_io(work):
    """A seeded desk synth raster written with ``write_mcr`` and its
    colorized labels with ``write_ppm``, then read back: every plane under
    ``io_roundtrip/<role>`` and the pixels under ``io_roundtrip/pixels``.
    The written files' bytes are ``io_bytes/mcr`` and ``io_bytes/ppm``."""
    from orthoseg import data

    raster = data.synth_dataset(1, 96, seed=9)[0]
    mcr, ppm = os.path.join(work, "io.mcr"), os.path.join(work, "io.ppm")
    data.write_mcr(mcr, raster)
    data.write_ppm(ppm, data.colorize(raster.channels["LABEL"]))
    return {**{f"io_roundtrip/{role}": a for role, a in data.read_mcr(mcr).channels.items()},
            "io_roundtrip/pixels": data.read_ppm(ppm),
            "io_bytes/mcr": np.fromfile(mcr, dtype=np.uint8),
            "io_bytes/ppm": np.fromfile(ppm, dtype=np.uint8)}


def probe_prepare(work):
    """``orthoseg prepare`` over three seeded synth rasters, with a split that
    drops tiles: the manifest and every tile file, each under
    ``prepare_bytes/<path relative to the prepared directory>``."""
    from orthoseg import cli

    raw, prep = os.path.join(work, "prepare_raw"), os.path.join(work, "prepared")
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in (["synth", "--out", raw, "--count", "3", "--size", "32", "--seed", "10"],
                     ["prepare", "--input", raw, "--out", prep, "--tile", "16", "--overlap", "0.5",
                      "--val-frac", "0.2", "--seed", "1"]):
            if cli.main(argv) != 0:
                raise RuntimeError(f"orthoseg {argv[0]} failed")
    return {f"prepare_bytes/{os.path.relpath(os.path.join(d, name), prep)}":
            np.fromfile(os.path.join(d, name), dtype=np.uint8)
            for d, _, names in os.walk(prep) for name in names}


PROBES = (probe_desk, probe_training, probe_paper, probe_io, probe_prepare)


def run_probes(work):
    """Every probe's arrays, by name."""
    out = {}
    for probe in PROBES:
        out.update(probe(work))
    return out


def by_probe(arrays):
    """Probe name -> {key: array}; the keys ``probe/tensor`` form one probe."""
    probes = {}
    for key, a in arrays.items():
        probes.setdefault(key.split("/")[0], {})[key] = a
    return probes


def compare(a, b):
    """"equal", or how the probes ``a`` and ``b`` ({key: array}) differ.
    Each difference is relative to the largest finite magnitude in its
    tensor, so entries near zero do not read large."""
    if a.keys() != b.keys():
        return f"tensors differ: {len(a)} vs {len(b)}"
    pairs = [(a[k], b[k]) for k in a]
    if any(x.shape != y.shape for x, y in pairs):
        return "shapes differ: " + ", ".join(f"{x.shape} vs {y.shape}" for x, y in pairs
                                             if x.shape != y.shape)
    if all(x.tobytes() == y.tobytes() for x, y in pairs):
        return "equal"
    size = sum(x.size for x, _ in pairs)
    if all(x.dtype == np.uint8 for x, _ in pairs):
        return f"{sum(int((x != y).sum()) for x, y in pairs)} of {size} bytes differ"
    count, max_abs, max_rel = 0, 0.0, 0.0
    for x, y in pairs:
        x, y = x.astype(np.float64), y.astype(np.float64)
        differ = ~((x == y) | (np.isnan(x) & np.isnan(y)))
        diff = np.abs(x - y)[differ]
        if not diff.size:
            continue
        scale = max(np.abs(v[np.isfinite(v)]).max(initial=0.0) for v in (x, y))
        count += diff.size
        max_abs = max(max_abs, diff.max())
        max_rel = max(max_rel, diff.max() / scale if scale > 0 else np.inf)
    return f"max abs {max_abs:.3g}, max rel {max_rel:.3g}, {count} of {size} differ"


def report(theirs, ours, rev):
    """Prints one verdict per probe of the arrays ``theirs`` (from ``rev``)
    and ``ours`` (the working tree); returns how many differ."""
    theirs, ours = by_probe(theirs), by_probe(ours)
    differs = 0
    for name in sorted(ours.keys() | theirs.keys()):
        verdict = (compare(theirs[name], ours[name]) if name in ours and name in theirs
                   else "missing in " + ("the working tree" if name in theirs else rev))
        print(f"{name}: {verdict}")
        differs += verdict != "equal"
    return differs


@contextlib.contextmanager
def worktree(rev):
    """A temporary detached ``git worktree`` of ``rev``; yields its path."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = os.path.join(tmp, "tree")
        subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach", "--quiet", tree, rev],
                       check=True)
        try:
            yield tree
        finally:
            subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force", tree], check=True)


def _run_tree(src, path):
    """Run the probes in a separate process importing orthoseg from ``src``."""
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, os.path.abspath(__file__), "--probe-out", path],
                   env=env, check=True)
    with np.load(path) as f:
        return dict(f)


def main(argv):
    if argv[:1] == ["--probe-out"]:
        with tempfile.TemporaryDirectory() as work:
            np.savez(argv[1], **run_probes(work))
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        ours = _run_tree(os.path.join(ROOT, "src"), os.path.join(tmp, "ours.npz"))
        if not argv:
            for name, arrays in by_probe(ours).items():
                finite = all(np.isfinite(a).all() for a in arrays.values())
                size = sum(a.size for a in arrays.values())
                print(f"{name}: {size} elements in {len(arrays)} tensor(s), finite {finite}")
            return 0
        with worktree(argv[0]) as tree:
            theirs = _run_tree(os.path.join(tree, "src"), os.path.join(tmp, "theirs.npz"))
    return 1 if report(theirs, ours, argv[0]) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
