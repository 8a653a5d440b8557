"""Kill-point tests of ``orthoseg train`` and ``orthoseg prepare``.

Each command runs in a child process (``killpoint.py``, two at a time) that
ends itself with ``os._exit(137)`` at its k-th kill point. A kill point is either
an ``os.replace`` call, the moment a finished temporary file is about to be
renamed into place, or a ``write`` call on a file that ``data.replace_file``
yields, of which only the first half is written, so the temporary file is
torn. After each kill, what is left must either be usable or be rejected
with ``DataError``, and rerunning the command must end with the files of a
run that was never stopped and no ``*.tmp`` file."""

import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from orthoseg import cli, data, trainer
from orthoseg.config import RunConfig
from orthoseg.errors import DataError

KILLPOINT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "killpoint.py")


def run_killed(point, k, argv):
    """(exit code, kill points passed) of ``orthoseg argv`` in a child killed
    at its k-th kill point of kind ``point``; k = 0 never kills."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, KILLPOINT, point, str(k), *argv],
                          env=env, timeout=120, capture_output=True, text=True)
    assert proc.returncode in (0, 137), proc.stderr
    calls = proc.stderr.splitlines()[-1] if proc.returncode == 0 else ""
    return proc.returncode, int(calls.removeprefix("kill points ") or 0)


def kill_each(point, ks, argv):
    """Runs ``orthoseg argv(k)`` killed at its k-th kill point of kind
    ``point`` for each k of ``ks``, two children at a time, and checks that
    each was killed."""
    with ThreadPoolExecutor(2) as pool:
        codes = list(pool.map(lambda k: run_killed(point, k, argv(k))[0], ks))
    assert codes == [137] * len(ks)


def leftovers(root):
    return sorted(str(p) for p in Path(root).rglob("*.tmp"))


TRAIN_OUTPUTS = ("metrics.csv", "best.ckpt", "latest.ckpt", "final.ckpt")


@pytest.fixture(scope="module")
def desk_train(tmp_path_factory):
    """(``orthoseg train`` argv without ``--out``, its network config, the
    output directory of a run that was not killed)."""
    tmp_path = tmp_path_factory.mktemp("train")
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
    return train, cfg.network_config(), ref


def train_after_kills(point, stride, tmp_path, desk_train):
    """``orthoseg train``, killed at every ``stride(n)``-th of its n kill
    points of kind ``point``, leaves checkpoints that load, and a resumed
    rerun gives the files of the run that was not killed."""
    train, net_cfg, ref = desk_train
    code, calls = run_killed(point, 0, [*train, "--out", str(tmp_path / "counted")])
    assert code == 0
    for name in TRAIN_OUTPUTS:
        assert (tmp_path / "counted" / name).read_bytes() == (ref / name).read_bytes(), name
    ks = range(1, calls + 1, stride(calls))
    kill_each(point, ks, lambda k: [*train, "--out", str(tmp_path / f"k{k}")])
    for k in ks:
        out = tmp_path / f"k{k}"
        for path in out.glob("*.ckpt"):
            trainer.state_from_checkpoint(str(path), net_cfg)
        if point == "write":
            assert leftovers(out), k  # the torn temporary file
        latest = out / "latest.ckpt"
        resume = ["--resume", str(latest)] if latest.exists() else []
        assert cli.main([*train, "--out", str(out), *resume]) == 0
        for name in TRAIN_OUTPUTS:
            assert (out / name).read_bytes() == (ref / name).read_bytes(), (k, name)
        assert not leftovers(out), k
    return calls


def test_train_killed_at_every_replace(tmp_path, desk_train):
    # metrics.csv at the start and at six evaluations, best.ckpt, latest.ckpt
    # at 5 and 10, and final.ckpt
    assert train_after_kills("replace", lambda calls: 1, tmp_path, desk_train) > 10


def test_train_torn_at_every_stride_of_writes(tmp_path, desk_train):
    """About 25 kills, evenly spread over the run's writes, each halfway
    through the write it stops."""
    writes = train_after_kills("write", lambda calls: calls // 25, tmp_path, desk_train)
    assert writes > 1000  # about two per checkpoint tensor


def snapshot(prepared):
    """The manifest's bytes, the bytes of every tile it names, and the
    names of the files in ``tiles/``."""
    manifest = data.load_manifest(prepared)
    names = manifest["train"] + manifest["val"]
    tiles = {n: Path(prepared, "tiles", f"{n}.mcr").read_bytes() for n in names}
    return Path(prepared, "manifest.json").read_bytes(), tiles, sorted(os.listdir(
        Path(prepared, "tiles")))


@pytest.fixture(scope="module")
def reprepare(tmp_path_factory):
    """(input directory, a ``--tile 64`` dataset of it, a clean ``--tile 32``
    one)."""
    root = tmp_path_factory.mktemp("prepare")
    raw, old, clean = (str(root / d) for d in ("raw", "tile64", "tile32"))
    assert cli.main(["synth", "--out", raw, "--count", "2", "--size", "128", "--seed", "3"]) == 0
    assert cli.main(["prepare", "--input", raw, "--out", old, "--tile", "64"]) == 0
    assert cli.main(["prepare", "--input", raw, "--out", clean, "--tile", "32"]) == 0
    return raw, old, clean


def reprepare_after_kill(point, stride, tmp_path, reprepare):
    """A ``--tile 32`` prepare over a ``--tile 64`` dataset, killed at every
    ``stride(n)``-th of its n kill points of kind ``point`` and at the last,
    the manifest's, leaves either no manifest or the old dataset whole; a
    rerun gives the files of a clean prepare."""
    raw, old, clean = reprepare
    old_files, clean_files = snapshot(old), snapshot(clean)

    def prepare(out):
        shutil.copytree(old, out)
        return ["prepare", "--input", raw, "--out", out, "--tile", "32"]

    code, calls = run_killed(point, 0, prepare(str(tmp_path / "counted")))
    assert code == 0
    ks = [*range(stride(calls), calls, stride(calls)), calls]
    kill_each(point, ks, lambda k: prepare(str(tmp_path / f"k{k}")))
    for k in ks:
        out = str(tmp_path / f"k{k}")
        try:
            left = snapshot(out)
        except DataError as exc:
            assert "run prepare first" in str(exc), k
        else:
            assert left[:2] == old_files[:2], k
        assert cli.main(["prepare", "--input", raw, "--out", out, "--tile", "32"]) == 0
        assert snapshot(out) == clean_files, k
        assert not leftovers(out), k


def test_reprepare_killed_at_every_fifth_replace(tmp_path, reprepare):
    """Killed at every fifth ``os.replace`` (one per tile, then the
    manifest's) and at the manifest's."""
    reprepare_after_kill("replace", lambda calls: 5, tmp_path, reprepare)


def test_reprepare_torn_at_every_stride_of_writes(tmp_path, reprepare):
    """About 25 kills, evenly spread over the writes of the tiles and the
    manifest, each halfway through the write it stops, and one in the
    manifest's write."""
    reprepare_after_kill("write", lambda calls: calls // 25, tmp_path, reprepare)
