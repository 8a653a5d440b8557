"""Time and peak RSS of one paper-width forward at a 512² net input.

    python3 tools/forward_rss.py REV   # git revision REV, then the working tree
    python3 tools/forward_rss.py       # the working tree alone

This is the forward ``orthoseg infer`` runs for a 1024-px tile: a seeded
``Model.build`` of the ``RunConfig()`` widths on seeded 512² inputs, once
windowed on the central 256² that stitching keeps and once unwindowed.
Each forward runs in a fresh process that imports orthoseg from its tree's
``src/``, because ``ru_maxrss`` is the high-water mark of a whole process;
REV is checked out with ``equal.worktree``.  Each process runs the forward
twice on the same inputs and checks that both give the same output.  One
line is printed per run: tree, mode, seconds of the first forward,
``ru_maxrss`` in MB (the interpreter and the weights included), the sha256
of the output probabilities, then the second forward's seconds, minor page
faults and system seconds (deltas of ``ru_minflt`` and ``ru_stime``).
Peaks reach about 2.5 GB, and the four runs take about two minutes on
2 vCPUs.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIZE = 512
MODES = ("windowed", "full")


def measure(cfg, size, windowed):
    """Two seeded eval forwards of ``cfg``'s network on the same size² inputs:
    the first one's seconds, ``ru_maxrss`` MB and output sha256, then the
    second one's seconds, minor page faults and system seconds. ``windowed``
    keeps the central half of each side, as ``infer_full_raster`` does.
    Raises ``RuntimeError`` if the two outputs differ."""
    from orthoseg.network import Model

    model = Model.build(cfg.network_config(), seed=0)
    primary, auxiliary = np.random.default_rng(1).normal(size=(2, 1, 3, size, size)).astype(np.float32)
    q = size // 4
    keep = ((q, size - q), (q, size - q)) if windowed else None

    def forward():
        before = resource.getrusage(resource.RUSAGE_SELF)
        t0 = time.perf_counter()
        probs = model.forward(primary, auxiliary, keep=keep).data
        seconds = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_SELF)
        return (seconds, after.ru_minflt - before.ru_minflt, after.ru_stime - before.ru_stime,
                hashlib.sha256(probs.tobytes()).hexdigest())

    seconds, _, _, digest = forward()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    second, minflt, stime, again = forward()
    if again != digest:
        raise RuntimeError(f"the second forward's output differs: sha256 {again} vs {digest}")
    return seconds, rss_mb, digest, second, minflt, stime


def _run(src, mode):
    """``measure`` at the paper widths in a fresh process importing orthoseg from ``src``."""
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, os.path.abspath(__file__), "--measure", mode],
                          env=env, check=True, capture_output=True, text=True)
    return json.loads(done.stdout)


def _format(result):
    seconds, rss_mb, digest, second, minflt, stime = result
    return (f"{seconds:.2f} s", f"{rss_mb:.1f} MB", digest,
            f"second {second:.2f} s", f"{minflt} minflt", f"{stime:.2f} s sys")


def main(argv):
    if argv[:1] == ["--measure"]:
        from orthoseg.config import RunConfig

        print(json.dumps(measure(RunConfig(), SIZE, argv[1] == "windowed")))
        return 0
    ours = os.path.join(ROOT, "src")
    if not argv:
        for mode in MODES:
            print("working-tree", mode, *_format(_run(ours, mode)))
        return 0
    from equal import worktree  # this script's directory is on sys.path

    with worktree(argv[0]) as tree:
        for mode in MODES:
            print(argv[0], mode, *_format(_run(os.path.join(tree, "src"), mode)))
            print("working-tree", mode, *_format(_run(ours, mode)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
