"""orthoseg benchmark: one workload per process.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.  With
``--trace 0`` the last stdout line is a JSON result with the end-to-end
metrics; with ``--trace 1`` it carries the per-layer metrics of a traced run.
Exits 1 when a correctness check fails and 2 when the run cannot start.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("desk-train", "desk-infer", "full-infer"))
    p.add_argument("--seed", type=int, default=REFERENCE_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help=f"store this run's outputs as the seed-{REFERENCE_SEED} reference")
    return p.parse_args(argv)


def limit_threads():
    """BLAS threads = nproc; set before numpy loads its BLAS."""
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(nproc)
    return nproc


def blas_threads(np):
    """Thread count reported by the OpenBLAS numpy loaded, or 0 if unknown."""
    import ctypes
    import glob
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return 0


def machine_facts(np, nproc):
    a = np.random.default_rng(0).standard_normal((2048, 2048), dtype=np.float32)
    a @ a
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        a @ a
        times.append(time.perf_counter() - t0)
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(np),
        "sgemm_gflops": 2 * 2048**3 / statistics.median(times) / 1e9,
    }


def timed_setups(wl, min_reps=3, min_seconds=1.0, max_reps=100, tracer=None):
    """Set the workload up repeatedly; returns the set-up durations."""
    times = []
    while len(times) < min_reps or (sum(times) < min_seconds and len(times) < max_reps):
        idx = tracer.open("bench.setup") if tracer else None
        t0 = time.perf_counter()
        wl.setup()
        times.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(idx)
    return times


def timed_ops(wl, seconds, tracer=None):
    """Call ``wl.op`` once to warm up, then until ``seconds`` have passed.
    With a tracer, timed calls alternate untraced/traced.  Returns (samples,
    attempted, failed): one (seconds, units, traced) sample per timed call."""
    attempted, failed = wl.op()
    samples = []
    deadline = time.perf_counter() + seconds
    while not failed:
        traced = tracer is not None and len(samples) % 2 == 1
        if traced:
            tracer.phase = "timed"
            with tracer.installed():
                idx = tracer.open("bench.op")
                t0 = time.perf_counter()
                units, bad = wl.op()
                dt = time.perf_counter() - t0
                tracer.close(idx, info=units)
        else:
            t0 = time.perf_counter()
            units, bad = wl.op()
            dt = time.perf_counter() - t0
        attempted += units
        failed += bad
        samples.append((dt, units, traced))
        if time.perf_counter() >= deadline and (tracer is None or len(samples) >= 2):
            break
    return samples, attempted, failed


def alloc_peak_mb(wl):
    import tracemalloc
    tracemalloc.start()
    try:
        wl.probe_forward()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def load_reference(workload):
    with open(REFERENCE, encoding="utf-8") as f:
        return json.load(f).get(workload)


def store_reference(workload, outputs):
    ref = {}
    if os.path.exists(REFERENCE):
        with open(REFERENCE, encoding="utf-8") as f:
            ref = json.load(f)
    ref[workload] = outputs
    with open(REFERENCE, "w", encoding="utf-8") as f:
        json.dump(ref, f, indent=1, sort_keys=True)
        f.write("\n")


def run(args, nproc):
    import numpy as np

    import tracing
    import workloads

    machine = machine_facts(np, nproc)
    print("# machine " + json.dumps(machine), flush=True)
    work = os.path.join(os.getcwd(), ".bench_run", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    try:
        wl = workloads.make(args.workload, work, args.seed)
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            with tracer.installed():
                setup_times = timed_setups(wl, tracer=tracer)
        else:
            setup_times = timed_setups(wl)
        samples, attempted, failed = timed_ops(wl, args.seconds, tracer)
        peak_alloc = alloc_peak_mb(wl) if tracer else 0.0
        outputs = wl.outputs()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.record_reference:
        if args.seed != REFERENCE_SEED or failed:
            raise SystemExit("a reference is recorded only from a clean run of the reference seed")
        store_reference(args.workload, outputs)
    reference = load_reference(args.workload) if args.seed == REFERENCE_SEED else None
    problems = wl.check(outputs, reference)
    if failed:
        problems.append(f"{failed} of {attempted} {wl.unit}s failed")

    print("# call_s " + json.dumps([round(dt, 4) for dt, _, _ in samples]), flush=True)
    plain = [(dt, u) for dt, u, traced in samples if not traced]
    if args.trace:
        metrics = per_layer_metrics(args, wl, tracer, machine, samples, plain, peak_alloc)
        notes = {}
    else:
        metrics = end_to_end_metrics(wl, plain, setup_times, attempted, failed)
        units = f"{wl.unit}s"
        notes = {"ops_per_s": f"{len(plain)} calls, {sum(u for _, u in plain)} {units}",
                 "s_per_mpix": f"{len(plain)} calls", "setup_s": f"{len(setup_times)} set-ups",
                 "ok_frac": f"{attempted - failed} of {attempted} {units} ok"}
    aliases = ISSUE_NAMES.get(args.workload, {})
    for name, (value, unit) in metrics.items():
        alias = f" ({aliases[name]})" if name in aliases else ""
        note = f"  [{notes[name]}]" if name in notes else ""
        print(f"{args.workload} {name}{alias} = {value:.6g} {unit}{note}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if not problems else 1


def end_to_end_metrics(wl, plain, setup_times, attempted, failed):
    """Medians over the untraced timed calls; name -> (value, unit)."""
    def median(values):
        return statistics.median(values) if plain else 0.0

    return {
        "ops_per_s": (median([u / dt for dt, u in plain]), "1/s"),
        "s_per_mpix": (median([dt / (u * wl.pixels_per_unit / 1e6) for dt, u in plain]), "s/Mpix"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ok_frac": ((attempted - failed) / max(attempted, 1), "frac"),
    }


def per_layer_metrics(args, wl, tracer, machine, samples, plain, peak_alloc):
    """Span-derived layer metrics plus machine facts and tracing overhead;
    writes the spans under .bench_out/."""
    import tracing

    layer = tracing.layer_metrics(tracer.spans, wl.input_channels, machine["sgemm_gflops"])
    traced_ms = [1e3 * dt / u for dt, u, traced in samples if traced]
    plain_ms = [1e3 * dt / u for dt, u in plain]
    overhead = statistics.median(traced_ms) / statistics.median(plain_ms) - 1 if traced_ms else 0.0
    layer.update({
        "network.forward.peak_alloc_mb": peak_alloc,
        "machine.sgemm_gflops": machine["sgemm_gflops"],
        "machine.nproc": machine["nproc"],
        "machine.blas_threads": machine["blas_threads"],
        "trace.overhead_frac": overhead,
    })
    spans_path = os.path.join(os.getcwd(), ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    tracer.write(spans_path)
    print(f"# spans written to {spans_path}", flush=True)
    return {name: (value, LAYER_UNITS[name.rsplit(".", 1)[1]]) for name, value in layer.items()}


# the issue-level names the generic end-to-end metrics stand for, per workload
ISSUE_NAMES = {"desk-train": {"ops_per_s": "train_iter_per_s"},
               "desk-infer": {"s_per_mpix": "infer_s_per_mpix"},
               "full-infer": {"s_per_mpix": "infer_s_per_mpix"}}

LAYER_UNITS = {"calls": "count", "fwd_ms": "ms", "bwd_ms": "ms", "self_ms": "ms", "gflop": "GFLOP",
               "fwd_gflops": "GFLOP/s", "bwd_gflops": "GFLOP/s", "sgemm_gflops": "GFLOP/s",
               "fwd_frac_sgemm": "frac", "ops_per_unit": "count", "ms_p50": "ms", "ms_pmax": "ms",
               "peak_alloc_mb": "MB", "build_s": "s", "nesterov_step_ms": "ms",
               "validation_ms_per_tile": "ms", "checkpoint_ms": "ms", "load_calls": "count",
               "load_ms": "ms", "save_ms": "ms", "save_mb": "MB", "crops": "count",
               "crop_ms_p50": "ms", "crop_ms_pmax": "ms", "stitch_self_ms": "ms",
               "assemble_inputs_ms": "ms", "overhead_frac": "frac", "nproc": "count",
               "blas_threads": "count"}


def main(argv=None):
    args = parse_args(argv)
    # a terminated run still removes its work directory and child process
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    nproc = limit_threads()
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "orthoseg", "__init__.py")):
        print("error: run from the repository root; src/orthoseg not found", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    return run(args, nproc)


if __name__ == "__main__":
    sys.exit(main())
