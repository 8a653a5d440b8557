"""Kill-point tests of ``orthoseg train`` and ``orthoseg prepare``.

Each command runs in a child process whose ``os.replace`` ends the process
with ``os._exit(137)`` at its k-th call, the moment a finished temporary
file is about to be renamed into place. After each kill, what is left must
either be usable or be rejected with ``DataError``, and rerunning the
command must end with the files of a run that was never stopped and no
``*.tmp`` file."""

import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

from orthoseg import cli, data, trainer
from orthoseg.config import RunConfig
from orthoseg.errors import DataError

PRELUDE = ("import os, sys\n"
           "from orthoseg import cli\n"
           "kill_at, calls, replace = int(sys.argv[1]), [0], os.replace\n"
           "def replace_or_exit(*args, **kwargs):\n"
           "    calls[0] += 1\n"
           "    if calls[0] == kill_at:\n"
           "        os._exit(137)\n"
           "    return replace(*args, **kwargs)\n"
           "os.replace = replace_or_exit\n"
           "sys.exit(cli.main(sys.argv[2:]))\n")


def run_killed(k, argv):
    """Exit code of ``orthoseg argv`` in a child killed at its k-th ``os.replace``."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-c", PRELUDE, str(k), *argv], env=env,
                          timeout=120, capture_output=True, text=True)
    assert proc.returncode in (0, 137), proc.stderr
    return proc.returncode


def leftovers(root):
    return sorted(str(p) for p in Path(root).rglob("*.tmp"))


def test_train_killed_at_every_replace(tmp_path):
    raw, prep = str(tmp_path / "raw"), str(tmp_path / "prep")
    assert cli.main(["synth", "--out", raw, "--count", "2", "--size", "32", "--seed", "1"]) == 0
    assert cli.main(["prepare", "--input", raw, "--out", prep, "--tile", "16",
                     "--overlap", "0.5", "--val-frac", "0.2", "--seed", "0"]) == 0
    cfg = RunConfig.desk(tile_size=16, max_iterations=12, eval_interval=2,
                         checkpoint_interval=5, data_dir=prep)
    cfg.save(str(tmp_path / "run.cfg"))
    train = ["train", "--config", str(tmp_path / "run.cfg")]
    ref = tmp_path / "ref"
    assert cli.main([*train, "--out", str(ref)]) == 0
    outputs = ("metrics.csv", "best.ckpt", "latest.ckpt", "final.ckpt")
    for k in itertools.count(1):
        out = tmp_path / f"k{k}"
        if run_killed(k, [*train, "--out", str(out)]) == 0:
            break
        for path in out.glob("*.ckpt"):
            trainer.state_from_checkpoint(str(path), cfg.network_config())
        latest = out / "latest.ckpt"
        resume = ["--resume", str(latest)] if latest.exists() else []
        assert cli.main([*train, "--out", str(out), *resume]) == 0
        for name in outputs:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (k, name)
        assert not leftovers(out), k
    # the run that was not killed: metrics.csv at the start and at six
    # evaluations, best.ckpt, latest.ckpt at 5 and 10, and final.ckpt
    assert k > 10
    for name in outputs:
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name


def snapshot(prepared):
    """The manifest's bytes and the bytes of every tile it names."""
    manifest = data.load_manifest(prepared)
    names = manifest["train"] + manifest["val"]
    tiles = {n: Path(prepared, "tiles", f"{n}.mcr").read_bytes() for n in names}
    return Path(prepared, "manifest.json").read_bytes(), tiles


def test_reprepare_killed_at_every_fifth_replace(tmp_path):
    """A ``--tile 32`` prepare over a ``--tile 64`` dataset, killed at every
    fifth ``os.replace`` and at the manifest's, leaves either no manifest or
    the old dataset whole."""
    raw, old, clean = (str(tmp_path / d) for d in ("raw", "tile64", "tile32"))
    assert cli.main(["synth", "--out", raw, "--count", "2", "--size", "128", "--seed", "3"]) == 0
    assert cli.main(["prepare", "--input", raw, "--out", old, "--tile", "64"]) == 0
    assert cli.main(["prepare", "--input", raw, "--out", clean, "--tile", "32"]) == 0
    old_files, clean_files = snapshot(old), snapshot(clean)
    calls = len(clean_files[1]) + 1  # one per tile, then the manifest
    for k in [*range(5, calls, 5), calls]:
        out = str(tmp_path / f"k{k}")
        shutil.copytree(old, out)
        argv = ["prepare", "--input", raw, "--out", out, "--tile", "32"]
        assert run_killed(k, argv) == 137, k
        try:
            left = snapshot(out)
        except DataError as exc:
            assert "run prepare first" in str(exc), k
        else:
            assert left == old_files, k
        assert cli.main(argv) == 0
        assert snapshot(out) == clean_files, k
        assert not leftovers(out), k
