"""End-to-end command-line tests on a miniature synthetic dataset."""

import dataclasses
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from orthoseg import autodiff as ad
from orthoseg import checkpoint, cli, data, inference, trainer
from orthoseg.cli import build_parser, main
from orthoseg.config import RunConfig
from orthoseg.network import Model


def run(argv):
    return main(argv)


def test_gradcheck_exits_zero(capsys):
    assert run(["gradcheck"]) == 0
    out = capsys.readouterr().out
    assert "all gradient checks passed" in out
    assert "FAIL" not in out


def clear_activation_grads(backward):
    """``backward`` followed by dropping every non-leaf tensor's gradient."""
    def wrapped(loss):
        backward(loss)
        seen, stack = set(), [loss]
        while stack:
            t = stack.pop()
            if t._parents and t._index not in seen:
                seen.add(t._index)
                t.grad = None
                stack.extend(t._parents)
    return wrapped


@pytest.mark.parametrize("patch, failed", [
    # gates that pass on gradients that never arrive would pass vacuously
    (lambda mp: mp.setattr(ad, "backward", clear_activation_grads(ad.backward)),
     ["decoder_feature_gating", "sccb_branch_gating"]),
    (lambda mp: mp.setattr(ad, "stop_gradient", ad.identity),
     ["decoder_feature_gating", "sccb_branch_gating"]),
], ids=["activation-grads-cleared", "gates-removed"])
def test_gradcheck_gating_audit_fails(monkeypatch, capsys, patch, failed):
    monkeypatch.setattr(cli, "_gradcheck_cases", lambda: [])  # the gating audit alone
    patch(monkeypatch)
    assert run(["gradcheck"]) == 4
    out = capsys.readouterr().out
    assert [line.split(":")[0] for line in out.splitlines() if line.endswith("FAIL")] == failed


def test_synth_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(["synth", "--out", str(a), "--count", "2", "--size", "32", "--seed", "5"]) == 0
    assert run(["synth", "--out", str(b), "--count", "2", "--size", "32", "--seed", "5"]) == 0
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_prepare_manifest_matches_enumeration(tmp_path):
    raw = tmp_path / "raw"
    raw.mkdir()
    rng = np.random.default_rng(0)
    channels = {r: rng.integers(0, 200, (10, 10)).astype(np.uint8)
                for r in ("IR", "R", "G", "B")}
    channels["DSM"] = rng.normal(0, 1, (10, 10)).astype(np.float32)
    channels["LABEL"] = rng.integers(0, 6, (10, 10)).astype(np.uint8)
    data.write_mcr(str(raw / "toy.mcr"), data.Raster(channels=channels, raster_id="toy"))

    out = tmp_path / "prep"
    argv = ["prepare", "--input", str(raw), "--out", str(out), "--tile", "4",
            "--overlap", "0.5", "--val-frac", "0.2", "--seed", "3"]
    assert run(argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())

    # enumeration oracle: tile 4, stride 2 over a 10x10 raster; origins stop
    # once a tile reaches the far edge -> 4x4 grid
    origins = [(r, c) for r in range(0, 7, 2) for c in range(0, 7, 2)]
    assert len(manifest["val"]) == round(0.2 * len(origins))
    named = set(manifest["val"]) | set(manifest["dropped"])
    named |= {n.rsplit("_rot", 1)[0] for n in manifest["train"]}
    assert named == {f"toy_r{r}_c{c}" for r, c in origins}
    assert len(manifest["train"]) % 4 == 0  # rotation variants travel together
    for name in manifest["train"]:
        assert (out / "tiles" / f"{name}.mcr").exists()

    # same seed -> identical manifest
    out2 = tmp_path / "prep2"
    assert run(["prepare", "--input", str(raw), "--out", str(out2), "--tile", "4",
                "--overlap", "0.5", "--val-frac", "0.2", "--seed", "3"]) == 0
    assert json.loads((out2 / "manifest.json").read_text()) == manifest


def test_prepare_defaults_are_run_config_presets():
    args = build_parser().parse_args(["prepare", "--input", "raw", "--out", "prep"])
    cfg = RunConfig()
    assert (args.tile, args.overlap, args.val_frac, args.seed) == (
        cfg.tile_size, cfg.overlap, cfg.val_fraction, cfg.seed)


def test_prepare_rejects_zero_val_frac(tmp_path, capsys):
    (tmp_path / "raw").mkdir()
    code = run(["prepare", "--input", str(tmp_path / "raw"), "--out",
                str(tmp_path / "o"), "--val-frac", "0"])
    assert code == 2
    assert "error code=2" in capsys.readouterr().err


def test_prepare_reports_malformed_raster(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    (raw / "bad.mcr").write_bytes(b"garbage")
    code = run(["prepare", "--input", str(raw), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert "error code=3" in err and "bad.mcr" in err


def test_prepare_rejects_raster_with_nothing_to_tile(tmp_path, capsys):
    raw = tmp_path / "raw"
    raw.mkdir()
    planes = {role: np.zeros((0, 64), dtype=np.uint8) for role in data.OPTICAL_ROLES}
    data.write_mcr(str(raw / "flat.mcr"), data.Raster(planes))
    code = run(["prepare", "--input", str(raw), "--out", str(tmp_path / "o"), "--tile", "16"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error code=3 kind=DataError" in err and "flat.mcr" in err
    assert not (tmp_path / "o").exists()


def test_prepare_rejects_tile_name_collision(tmp_path, capsys):
    """``a b`` and ``a-b`` both slug to the tile-name prefix ``a-b``."""
    raw = tmp_path / "raw"
    raw.mkdir()
    for name, raster in zip(["a b", "a-b"], data.synth_dataset(2, 128, seed=1)):
        data.write_mcr(str(raw / f"{name}.mcr"), raster)
    code = run(["prepare", "--input", str(raw), "--out", str(tmp_path / "o"), "--tile", "64",
                "--overlap", "0.5", "--val-frac", "0.3", "--seed", "1"])
    assert code == 3
    err = capsys.readouterr().err
    assert "error code=3 kind=DataError" in err and "a b.mcr" in err and "a-b.mcr" in err
    assert not (tmp_path / "o").exists()


def test_prepare_holds_one_input_open_at_a_time(tmp_path):
    """40 inputs prepared under a soft limit of 32 file descriptors give the
    manifest of an unlimited run."""
    raw, free, limited = (str(tmp_path / d) for d in ("raw", "free", "limited"))
    assert run(["synth", "--out", raw, "--count", "40", "--size", "32", "--seed", "1"]) == 0
    argv = ["prepare", "--input", raw, "--tile", "16", "--overlap", "0.5", "--val-frac", "0.1"]
    assert run([*argv, "--out", free]) == 0
    code = ("import resource, sys\n"
            "from orthoseg import cli\n"
            "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
            "resource.setrlimit(resource.RLIMIT_NOFILE, (32, hard))\n"
            "sys.exit(cli.main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-c", code, *argv, "--out", limited], env=env,
                          timeout=120, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    manifests = [json.loads(Path(d, "manifest.json").read_text()) for d in (free, limited)]
    assert manifests[0] == manifests[1] and manifests[0]["dropped"]


@pytest.mark.parametrize("argv, detail", [
    (["--seed", "-1"], "seed must be >= 0, got -1"),
    (["--size", "0"], "raster size must be >= 1, got 0"),
], ids=["negative-seed", "zero-size"])
def test_synth_rejects_bad_argument(tmp_path, capsys, argv, detail):
    assert run(["synth", "--out", str(tmp_path / "raw"), "--count", "1", *argv]) == 2
    assert f"error code=2 kind=ConfigurationError: {detail}" in capsys.readouterr().err


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> prepare -> short train, shared by the pipeline tests."""
    root = tmp_path_factory.mktemp("pipeline")
    raw, prep, runout = str(root / "raw"), str(root / "prep"), str(root / "run")
    assert run(["synth", "--out", raw, "--count", "3", "--size", "64", "--seed", "1"]) == 0
    assert run(["prepare", "--input", raw, "--out", prep, "--tile", "32",
                "--overlap", "0.5", "--val-frac", "0.2", "--seed", "0"]) == 0
    cfg = RunConfig.desk(tile_size=32, max_iterations=12, eval_interval=6,
                         checkpoint_interval=6, data_dir=prep)
    cfg_path = str(root / "run.cfg")
    cfg.save(cfg_path)
    assert run(["train", "--config", cfg_path, "--out", runout]) == 0
    return {"root": root, "raw": raw, "cfg_path": cfg_path, "runout": runout}


def test_train_writes_artifacts(pipeline):
    runout = pipeline["runout"]
    assert os.path.exists(os.path.join(runout, "final.ckpt"))
    assert os.path.exists(os.path.join(runout, "latest.ckpt"))
    assert os.path.exists(os.path.join(runout, "metrics.csv"))


def test_infer_and_eval(pipeline, tmp_path, capsys):
    raw = pipeline["raw"]
    image = os.path.join(raw, sorted(os.listdir(raw))[0])
    ckpt = os.path.join(pipeline["runout"], "final.ckpt")
    prefix = str(tmp_path / "pred")
    assert run(["infer", "--ckpt", ckpt, "--image", image, "--out", prefix]) == 0
    rgb = data.read_ppm(prefix + "_prediction.ppm")
    labels = data.decode_label_colors(rgb)
    assert labels.shape == (64, 64)
    assert labels.min() >= 0 and labels.max() < 6

    truth = data.read_mcr(image)
    truth_ppm = str(tmp_path / "truth.ppm")
    data.write_ppm(truth_ppm, data.colorize(truth.channels["LABEL"]))
    report = str(tmp_path / "report.csv")
    assert run(["eval", "--pred", prefix + "_prediction.ppm", "--truth", truth_ppm,
                "--out", report]) == 0
    lines = Path(report).read_text().strip().splitlines()
    assert lines[0].endswith("overall_accuracy")


def test_eval_identical_files_is_perfect(tmp_path, capsys):
    labels = np.random.default_rng(0).integers(0, 6, (8, 8)).astype(np.uint8)
    ppm = str(tmp_path / "l.ppm")
    data.write_ppm(ppm, data.colorize(labels))
    report = str(tmp_path / "r.csv")
    assert run(["eval", "--pred", ppm, "--truth", ppm, "--out", report]) == 0
    row = Path(report).read_text().strip().splitlines()[1]
    assert row.split(",")[-1] == "1.0000"


def test_resume_continues(pipeline, tmp_path):
    runout = pipeline["runout"]
    cont = str(tmp_path / "cont")
    assert run(["train", "--config", pipeline["cfg_path"], "--out", cont,
                "--resume", os.path.join(runout, "final.ckpt")]) == 0
    assert os.path.exists(os.path.join(cont, "final.ckpt"))


def test_missing_image_exits_data_code(pipeline, capsys):
    ckpt = os.path.join(pipeline["runout"], "final.ckpt")
    code = run(["infer", "--ckpt", ckpt, "--image", "/nonexistent.mcr", "--out", "/tmp/x"])
    assert code == 3
    assert "error code=3" in capsys.readouterr().err


def test_infer_reads_checkpoint_once(pipeline, tmp_path, monkeypatch):
    raw = pipeline["raw"]
    image = os.path.join(raw, sorted(os.listdir(raw))[0])
    ckpt = os.path.join(pipeline["runout"], "final.ckpt")
    calls = []
    load = checkpoint.load_checkpoint
    monkeypatch.setattr(checkpoint, "load_checkpoint", lambda p: calls.append(p) or load(p))
    assert run(["infer", "--ckpt", ckpt, "--image", image, "--out", str(tmp_path / "p")]) == 0
    assert calls == [ckpt]


def test_infer_syncs_each_output_and_its_directory(pipeline, tmp_path, monkeypatch):
    raw = pipeline["raw"]
    image = os.path.join(raw, sorted(os.listdir(raw))[0])
    ckpt = os.path.join(pipeline["runout"], "final.ckpt")
    synced = []
    fsync = os.fsync

    def spy(fd):
        synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), os.fstat(fd).st_ino))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    prefix = tmp_path / "p"
    assert run(["infer", "--ckpt", ckpt, "--image", image, "--out", str(prefix)]) == 0
    # each output's data before its rename, then the directory after it
    outputs = [Path(f"{prefix}_prediction.ppm"), Path(f"{prefix}_probabilities.npy")]
    assert synced == [step for out in outputs
                      for step in ((False, out.stat().st_ino), (True, tmp_path.stat().st_ino))]
    assert sorted(os.listdir(tmp_path)) == sorted(out.name for out in outputs)


def test_infer_uses_run_config_stitch_geometry(tmp_path, monkeypatch):
    cfg = RunConfig.desk()
    ckpt = str(tmp_path / "desk.ckpt")
    state = trainer.init_state(Model.build(cfg.network_config(), seed=0), cfg)
    trainer.state_to_checkpoint(ckpt, state, cfg.digest(), cfg.serialize())
    image = str(tmp_path / "scene.mcr")
    data.write_mcr(image, data.synth_dataset(1, 16, 0)[0])
    calls = []

    def fake_infer(model, raster, **geometry):
        calls.append(geometry)
        shape = (raster.height, raster.width)
        return np.full((6, *shape), 1 / 6), np.zeros(shape, dtype=np.int64)

    monkeypatch.setattr(inference, "infer_full_raster", fake_infer)
    assert run(["infer", "--ckpt", ckpt, "--image", image, "--out", str(tmp_path / "p")]) == 0
    assert calls == [{"tile": 64, "stride": 16, "center": 32}]


def test_truncated_checkpoint_exits_data_code(pipeline, tmp_path, capsys):
    raw = Path(pipeline["runout"], "final.ckpt").read_bytes()
    ckpt = tmp_path / "cut.ckpt"
    ckpt.write_bytes(raw[:14])  # inside the header JSON
    code = run(["infer", "--ckpt", str(ckpt), "--image", "/nonexistent.mcr",
                "--out", str(tmp_path / "x")])
    assert code == 3
    assert "error code=3 kind=DataError" in capsys.readouterr().err


def test_version_1_checkpoint_exits_data_code(pipeline, tmp_path, capsys):
    raw = bytearray(Path(pipeline["runout"], "final.ckpt").read_bytes())
    raw[4:8] = (1).to_bytes(4, "little")  # the format version field
    ckpt = tmp_path / "v1.ckpt"
    ckpt.write_bytes(bytes(raw))
    code = run(["infer", "--ckpt", str(ckpt), "--image", "/nonexistent.mcr",
                "--out", str(tmp_path / "x")])
    assert code == 3
    assert "kind=DataError" in (err := capsys.readouterr().err)
    assert "unsupported format version 1" in err


def test_params_only_checkpoint_infers_but_cannot_resume(pipeline, tmp_path, capsys):
    full = os.path.join(pipeline["runout"], "final.ckpt")
    header, tensors = checkpoint.load_checkpoint(full)
    ckpt = str(tmp_path / "params_only.ckpt")
    checkpoint.save_checkpoint(ckpt, {"config_text": header["config_text"]},
                               {k: v for k, v in tensors.items() if k.startswith("param:")})
    raw = pipeline["raw"]
    image = os.path.join(raw, sorted(os.listdir(raw))[0])
    for prefix, path in (("full", full), ("params", ckpt)):
        assert run(["infer", "--ckpt", path, "--image", image,
                    "--out", str(tmp_path / prefix)]) == 0
    for suffix in ("_prediction.ppm", "_probabilities.npy"):
        assert (tmp_path / f"params{suffix}").read_bytes() == (tmp_path / f"full{suffix}").read_bytes()
    # past the digest check, the missing training state is a fault of the file
    code = run(["train", "--config", pipeline["cfg_path"], "--out", str(tmp_path / "run"),
                "--resume", ckpt, "--override-digest"])
    assert code == 3
    assert "error code=3 kind=DataError" in capsys.readouterr().err


@pytest.mark.parametrize("digest,code,kind", [
    (None, 3, "DataError"), (7, 3, "DataError"), ("0" * 64, 2, "ConfigurationError")],
    ids=["missing", "number", "other-config"])
def test_resume_digest_exit_codes(pipeline, tmp_path, capsys, digest, code, kind):
    header, tensors = checkpoint.load_checkpoint(os.path.join(pipeline["runout"], "final.ckpt"))
    header = {k: v for k, v in header.items() if k != "config_digest"}
    if digest is not None:
        header["config_digest"] = digest
    ckpt = str(tmp_path / "resume.ckpt")
    checkpoint.save_checkpoint(ckpt, header, tensors)
    assert run(["train", "--config", pipeline["cfg_path"], "--out", str(tmp_path / "run"),
                "--resume", ckpt]) == code
    assert f"error code={code} kind={kind}" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(0, 0), (0, 5)], ids=["0x0", "0x5"])
def test_zero_extent_raster_exits_data_code(pipeline, tmp_path, capsys, shape):
    channels = {role: np.zeros(shape, dtype=np.uint8) for role in data.OPTICAL_ROLES}
    channels["DSM"] = np.zeros(shape, dtype=np.float32)
    image = str(tmp_path / "empty.mcr")
    data.write_mcr(image, data.Raster(channels))
    code = run(["infer", "--ckpt", os.path.join(pipeline["runout"], "final.ckpt"),
                "--image", image, "--out", str(tmp_path / "x")])
    assert code == 3
    assert "error code=3 kind=DataError" in capsys.readouterr().err


def test_checkpoint_missing_parameter_exits_data_code(pipeline, tmp_path, capsys):
    header, tensors = checkpoint.load_checkpoint(os.path.join(pipeline["runout"], "final.ckpt"))
    del tensors["param:sccb.conv2.bias"]
    ckpt = str(tmp_path / "no_bias.ckpt")
    checkpoint.save_checkpoint(ckpt, header, tensors)
    code = run(["infer", "--ckpt", ckpt, "--image", "/nonexistent.mcr",
                "--out", str(tmp_path / "x")])
    assert code == 3
    assert "error code=3 kind=DataError: missing parameter sccb.conv2.bias" in capsys.readouterr().err


@pytest.mark.parametrize("config_text", ["primary_filters=abc\n", 123, ["seed=1"]],
                         ids=["malformed-setting", "number", "list"])
def test_checkpoint_bad_config_text_exits_data_code(pipeline, tmp_path, capsys, config_text):
    header, tensors = checkpoint.load_checkpoint(os.path.join(pipeline["runout"], "final.ckpt"))
    ckpt = str(tmp_path / "bad_config.ckpt")
    checkpoint.save_checkpoint(ckpt, dict(header, config_text=config_text), tensors)
    code = run(["infer", "--ckpt", ckpt, "--image", "/nonexistent.mcr",
                "--out", str(tmp_path / "x")])
    assert code == 3
    assert "error code=3 kind=DataError" in capsys.readouterr().err


def test_malformed_network_setting_exits_config_code(pipeline, tmp_path, capsys):
    cfg = RunConfig.desk(tile_size=32, max_iterations=1, primary_filters="16,abc,64",
                         data_dir=os.path.join(pipeline["root"], "prep"))
    cfg_path = str(tmp_path / "bad.cfg")
    cfg.save(cfg_path)
    code = run(["train", "--config", cfg_path, "--out", str(tmp_path / "run")])
    assert code == 2
    assert "error code=2 kind=ConfigurationError: bad value for primary_filters" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["eval_interval", "checkpoint_interval"])
def test_zero_interval_exits_config_code(pipeline, tmp_path, capsys, key):
    cfg = RunConfig.desk(tile_size=32, max_iterations=2, data_dir=os.path.join(pipeline["root"], "prep"))
    setattr(cfg, key, 0)
    cfg_path = str(tmp_path / "zero.cfg")
    cfg.save(cfg_path)
    code = run(["train", "--config", cfg_path, "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"error code=2 kind=ConfigurationError: {key} must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("manifest, detail", [
    ("{not json", "manifest.json: not JSON"),
    ("{}", "manifest.json: needs a JSON object"),
    ("[]", "manifest.json: needs a JSON object"),
    ('{"train": "a", "val": []}', "manifest.json: needs a JSON object"),
    ('{"train": [1], "val": []}', "manifest.json: needs a JSON object"),
    ('{"train": [], "val": []}', "empty training set"),
    ('{"train": ["TILE"], "val": []}', "validation set required"),
], ids=["invalid-json", "empty-object", "list", "train-not-list", "name-not-string",
        "empty-train", "empty-val"])
def test_malformed_manifest_exits_data_code(pipeline, tmp_path, capsys, manifest, detail):
    prep = tmp_path / "prep"
    (prep / "tiles").mkdir(parents=True)
    tiles = os.path.join(pipeline["root"], "prep", "tiles")
    tile = sorted(os.listdir(tiles))[0]
    (prep / "tiles" / tile).write_bytes(Path(tiles, tile).read_bytes())
    (prep / "manifest.json").write_text(manifest.replace("TILE", tile[:-len(".mcr")]))
    cfg = RunConfig.desk(tile_size=32, max_iterations=1, data_dir=str(prep))
    cfg_path = str(tmp_path / "run.cfg")
    cfg.save(cfg_path)
    code = run(["train", "--config", cfg_path, "--out", str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert "error code=3 kind=DataError" in err and detail in err


def test_prepare_rejects_negative_seed(pipeline, tmp_path, capsys):
    code = run(["prepare", "--input", pipeline["raw"], "--out", str(tmp_path / "prep"),
                "--tile", "32", "--seed", "-1"])
    assert code == 2
    assert "error code=2 kind=ConfigurationError: seed must be >= 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize("setting, detail", [
    ("seed=-1", "seed must be >= 0, got -1"),
    ("num_classes=3", "num_classes must be 6, got 3"),
    ("num_classes=8", "num_classes must be 6, got 8"),
    # the desk's 3 encoder blocks need multiples of 2^4
    ("tile_size=0", "tile_size must be a positive multiple of 2^4, got 0"),
    ("tile_size=3", "tile_size must be a positive multiple of 2^4, got 3"),
    ("tile_size=24", "tile_size must be a positive multiple of 2^4, got 24"),
    ("eval_interval=0", "eval_interval must be >= 1, got 0"),
    ("checkpoint_interval=0", "checkpoint_interval must be >= 1, got 0"),
    ("noiserate_le64=1.5", "noiserate_le64 must be in [0, 1), got 1.5"),
    ("noiserate_sccb=-0.1", "noiserate_sccb must be in [0, 1), got -0.1"),
    ("learning_rate=nan", "learning_rate must be finite and > 0, got nan"),
    ("momentum=1.5", "momentum must be in [0, 1), got 1.5"),
    ("fine_tuning_momentum=1", "fine_tuning_momentum must be in [0, 1), got 1.0"),
    ("plateau_window=0", "plateau_window must be >= 1, got 0"),
    ("plateau_threshold=-1", "plateau_threshold must be finite and >= 0, got -1.0"),
], ids=["negative-seed", "3-classes", "8-classes", "tile-0", "tile-3", "tile-24", "eval-interval-0",
        "checkpoint-interval-0", "noiserate-1.5", "noiserate-negative", "learning-rate-nan",
        "momentum-1.5", "fine-tuning-momentum-1", "plateau-window-0", "plateau-threshold-negative"])
def test_train_rejects_setting_before_reading_data(tmp_path, capsys, setting, detail):
    key = setting.split("=")[0]
    text = "".join(line for line in RunConfig.desk(data_dir=str(tmp_path / "absent")).serialize()
                   .splitlines(keepends=True) if not line.startswith(key + "="))
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text + setting + "\n")
    code = run(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")])
    assert code == 2
    assert f"error code=2 kind=ConfigurationError: {detail}" in capsys.readouterr().err


def test_infer_rejects_stored_class_count_before_any_crop(pipeline, tmp_path, capsys, monkeypatch):
    """A checkpoint trained for 8 classes, whose labels the palette cannot
    colour, is refused when it is loaded."""
    header, _ = checkpoint.load_checkpoint(os.path.join(pipeline["runout"], "final.ckpt"))
    text = header["config_text"].replace("num_classes=6", "num_classes=8")
    net_cfg = RunConfig.parse(header["config_text"]).network_config()
    model = Model.build(dataclasses.replace(net_cfg, num_classes=8), seed=0)
    ckpt = str(tmp_path / "eight.ckpt")
    checkpoint.save_checkpoint(ckpt, dict(header, config_text=text),
                               {f"param:{n}": t.data for n, t in model.params.items()})

    def no_crops(*args, **kwargs):
        raise AssertionError("a crop ran")

    monkeypatch.setattr(inference, "infer_full_raster", no_crops)
    raw = pipeline["raw"]
    code = run(["infer", "--ckpt", ckpt, "--image", os.path.join(raw, sorted(os.listdir(raw))[0]),
                "--out", str(tmp_path / "x")])
    assert code == 3
    assert "error code=3 kind=DataError" in (err := capsys.readouterr().err)
    assert "num_classes must be 6, got 8" in err


@pytest.mark.parametrize("tile", [0, 3, 24])
def test_infer_rejects_stored_tile_size_before_any_crop(pipeline, tmp_path, capsys, monkeypatch, tile):
    """A checkpoint whose stored tile size gives no usable crop geometry
    is refused when it is loaded."""
    header, tensors = checkpoint.load_checkpoint(os.path.join(pipeline["runout"], "final.ckpt"))
    ckpt = str(tmp_path / "tile.ckpt")
    checkpoint.save_checkpoint(
        ckpt, dict(header, config_text=header["config_text"].replace("tile_size=32", f"tile_size={tile}")),
        tensors)

    def no_crops(*args, **kwargs):
        raise AssertionError("a crop ran")

    monkeypatch.setattr(inference, "infer_full_raster", no_crops)
    raw = pipeline["raw"]
    code = run(["infer", "--ckpt", ckpt, "--image", os.path.join(raw, sorted(os.listdir(raw))[0]),
                "--out", str(tmp_path / "x")])
    assert code == 3
    assert "error code=3 kind=DataError" in (err := capsys.readouterr().err)
    assert f"tile_size must be a positive multiple of 2^4, got {tile}" in err
