"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

Checks that tracing leaves outputs bitwise unchanged, that metric names and
units match BENCHMARK.json, that perturbed outputs trip the correctness
checks, and that a checkout without the package fails without a result.
Takes about a minute; exits non-zero on the first failed check.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys

import run

ROOT = os.path.dirname(run.HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def check(ok, what):
    if not ok:
        raise SystemExit(f"FAIL: {what}")


def run_quiet(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(argv)
    return code, json.loads(out.getvalue().splitlines()[-1])


def test_metric_names(work):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    check(all(NAME.fullmatch(n) for n in names), "every name uses only [A-Za-z0-9_.-]")
    check(len(names) == len(set(names)), "every name is used once")
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, result = run_quiet(["--workload", "desk-infer", "--seed", "3",
                                  "--seconds", "0.5", "--trace", str(trace)])
        check(code == 0 and result["correct"], f"trace {trace} run is correct")
        got = {n: m["unit"] for n, m in result["metrics"].items()}
        check(got == {m["name"]: m["unit"] for m in spec[key]},
              f"trace {trace} metrics and units match BENCHMARK.json {key}")


def test_train_tracing_and_reference(work, np, tracing, workloads):
    plain = workloads.DeskTrain(os.path.join(work, "a"), 0)
    plain.setup()
    plain.op()
    traced = workloads.DeskTrain(os.path.join(work, "b"), 0)
    traced.setup()
    with tracing.Tracer().installed():
        traced.op()
    check(plain.outputs() == traced.outputs(), "tracing leaves the loss trajectory unchanged")
    for name, t in plain.state.model.params.items():
        check(np.array_equal(t.data, traced.state.model.params[name].data),
              f"tracing leaves parameter {name} bitwise unchanged")
    ref = run.load_reference("desk-train")
    out = plain.outputs()
    check(not workloads.DeskTrain.check(out, ref), "seed-0 training matches the reference")
    out["trajectory"][0][1] *= 1 + 1e-3
    check(workloads.DeskTrain.check(out, ref), "a perturbed loss trips the reference check")


def test_infer_tracing_and_reference(work, np, tracing, workloads):
    from orthoseg import inference

    os.makedirs(work)
    wl = workloads.make("desk-infer", work, 0)
    wl.setup()
    probs, labels = inference.infer_full_raster(wl.model, wl.raster, **wl.geometry)
    with tracing.Tracer().installed():
        probs2, labels2 = inference.infer_full_raster(wl.model, wl.raster, **wl.geometry)
    check(np.array_equal(probs, probs2) and np.array_equal(labels, labels2),
          "tracing leaves stitched outputs bitwise unchanged")
    ref = run.load_reference("desk-infer")
    check(not wl.check(workloads.prob_summary(probs), ref),
          "seed-0 inference matches the reference")
    check(workloads.failed_crops(probs, labels, wl.plan) == 0, "no crop fails")

    scaled = probs * (1 + 1e-3)
    check(workloads.failed_crops(scaled, labels, wl.plan) == wl.crops,
          "probabilities that do not sum to 1 fail every crop")
    wrong = labels.copy()
    wrong[0, 0] = (wrong[0, 0] + 1) % probs.shape[0]
    check(workloads.failed_crops(probs, wrong, wl.plan) >= 1, "a label that is not the argmax fails")
    weight = wl.model.params["decoder.block1.conv1.weight"].data
    weight *= 1.01
    probs3, _ = inference.infer_full_raster(wl.model, wl.raster, **wl.geometry)
    check(wl.check(workloads.prob_summary(probs3), ref),
          "a network that computes something else trips the reference check")


def test_bare_checkout_fails(work):
    bare = os.path.join(work, "bare")
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "desk-train",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "a checkout without the package exits non-zero without a result")


def main():
    if os.path.abspath(os.getcwd()) != ROOT:
        raise SystemExit("run from the repository root")
    run.limit_threads()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import tracing
    import workloads

    work = os.path.join(ROOT, ".bench_run", f"selftest-{os.getpid()}")
    os.makedirs(work)
    try:
        test_bare_checkout_fails(work)
        test_metric_names(work)
        test_train_tracing_and_reference(os.path.join(work, "train"), np, tracing, workloads)
        test_infer_tracing_and_reference(os.path.join(work, "infer"), np, tracing, workloads)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
