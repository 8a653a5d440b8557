"""Span tracing of orthoseg's public functions, installed from outside the
package, and the per-layer metrics derived from the spans.

``Tracer.installed()`` replaces every public module-level function of the
six layers (plus ``Model.build`` and ``Model.forward``) with a wrapper that
records a span: name, parent span, start, end, benchmark phase and an
optional info value.  Autodiff op outputs get their ``_backward`` closure
wrapped too, so the tape walk records one ``<op>.bwd`` span per node.
Leaving the context restores the original functions.  Spans stay in memory
until ``write`` dumps them.
"""

from __future__ import annotations

import contextlib
import inspect
import json
import os
import statistics
import time

from orthoseg import autodiff, checkpoint, data, inference, network, trainer

LAYERS = (autodiff, network, trainer, inference, data, checkpoint)
SKIP = {"autodiff.no_grad"}  # returns a context manager; timing it measures nothing
ELEMENTARY = {"autodiff.conv2d", "autodiff.avg_pool", "autodiff.elu", "autodiff.max_pool2"}

NAME, PARENT, START, END, PHASE, INFO = range(6)


def _conv_info(args, kwargs, out):
    """(forward FLOP, dilation); FLOP = 2*N*Co*Ci*kh*kw*Ho*Wo."""
    n, co, ho, wo = out.data.shape
    _, ci, kh, kw = args[1].data.shape
    dilation = args[3] if len(args) > 3 else kwargs.get("dilation", 1)
    return 2.0 * n * co * ci * kh * kw * ho * wo, dilation


def _pool_info(args, kwargs, out):
    return args[0].data.shape[1]


def _save_info(args, kwargs, out):
    return os.path.getsize(args[0])


INFO_HOOKS = {
    "autodiff.conv2d": _conv_info,
    "autodiff.avg_pool": _pool_info,
    "checkpoint.save_checkpoint": _save_info,
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.phase = "setup"
        self._stack = []

    def open(self, name, info=None):
        self.spans.append([name, self._stack[-1] if self._stack else -1,
                           time.perf_counter(), 0.0, self.phase, info])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx, info=None):
        self.spans[idx][END] = time.perf_counter()
        if info is not None:
            self.spans[idx][INFO] = info
        self._stack.pop()

    def wrap(self, name, fn, info_hook=None, op=False):
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if info_hook is not None:
                tracer.spans[idx][INFO] = info_hook(args, kwargs, out)
            if op and isinstance(out, autodiff.Tensor) and out._backward is not None:
                out._backward = tracer._wrap_backward(name + ".bwd", out._backward,
                                                      tracer.spans[idx][INFO])
            elif name == "inference.model_crop_predictor":
                out = tracer.wrap("inference.crop", out)
            return out

        return traced

    def _wrap_backward(self, name, bwd, info):
        tracer = self

        def traced_bwd(g):
            idx = tracer.open(name, info)
            try:
                return bwd(g)
            finally:
                tracer.close(idx)

        return traced_bwd

    def _patches(self):
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in list(vars(mod).items()):
                name = f"{layer}.{attr}"
                if (attr.startswith("_") or name in SKIP or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                yield mod, attr, fn, self.wrap(name, fn, INFO_HOOKS.get(name), op=mod is autodiff)
        model = network.Model
        build = vars(model)["build"]
        yield model, "build", build, classmethod(self.wrap("network.Model.build", build.__func__))
        yield model, "forward", model.forward, self.wrap("network.Model.forward", model.forward)

    @contextlib.contextmanager
    def installed(self):
        patches = list(self._patches())
        for owner, attr, _, wrapped in patches:
            setattr(owner, attr, wrapped)
        try:
            yield self
        finally:
            for owner, attr, original, _ in patches:
                setattr(owner, attr, original)

    def write(self, path):
        """One JSON list per line: name, parent index, start s, end s, phase, info."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def pmax(values):
    """Value of the highest percentile with at least ten samples above it;
    the maximum when there are fewer than eleven samples."""
    v = sorted(values)
    return v[len(v) - 11] if len(v) >= 11 else v[-1]


def layer_metrics(spans, input_channels, sgemm_gflops):
    """Per-layer metrics from one traced run.

    Timed-phase spans are normalized per timed unit (training iteration or
    inference crop); ``bench.op`` spans carry the unit count as info.
    Setup-phase spans give the checkpoint-load and model-build figures.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    rows = [(s[NAME], s[END] - s[START], s[END] - s[START] - child[i], s[PHASE], s[INFO])
            for i, s in enumerate(spans)]

    def pick(name=None, phase="timed", where=None):
        return [r for r in rows if (name is None or r[0] == name) and r[3] == phase
                and (where is None or where(r))]

    def ms_self(rs):
        return 1e3 * sum(r[2] for r in rs) / units

    def mean(values):
        return sum(values) / len(values) if values else 0.0

    def gflops(flop, seconds):
        return flop / seconds / 1e9 if seconds > 0 else 0.0

    ops = pick("bench.op")
    units = sum(r[4] for r in ops) or 1
    setups = len(pick("bench.setup", "setup")) or 1

    conv_f = pick("autodiff.conv2d")
    conv_b = pick("autodiff.conv2d.bwd")
    dil_f = [r for r in conv_f if r[4][1] >= 5]
    flop_f = sum(r[4][0] for r in conv_f)
    flop_b = 2 * sum(r[4][0] for r in conv_b)  # gW and gx each cost one forward
    fwd_gflops = gflops(flop_f, sum(r[2] for r in conv_f))

    def input_only(r):
        return r[4] == 2 * input_channels

    def sccb(r):
        return not input_only(r)

    op_fwd = [r for r in rows if r[3] == "timed" and r[0].startswith("autodiff.")
              and not r[0].endswith(".bwd") and r[0] != "autodiff.backward"]
    other_f = [r for r in op_fwd if r[0] not in ELEMENTARY]
    other_b = [r for r in rows if r[3] == "timed" and r[0].endswith(".bwd")
               and r[0][:-4] not in ELEMENTARY]
    forwards = pick("network.Model.forward")
    fwd_ms = [1e3 * r[1] for r in forwards] or [0.0]
    crops = pick("inference.crop")
    crop_ms = [1e3 * r[1] for r in crops] or [0.0]
    infer_calls = len(pick("inference.infer_full_raster"))
    validations = pick("trainer.validation_loss")
    val_tiles = sum(1 for s in spans if s[NAME] == "network.Model.forward" and s[PHASE] == "timed"
                    and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "trainer.validation_loss")
    saves = pick("checkpoint.save_checkpoint")
    loads = pick("checkpoint.load_checkpoint", "setup")
    builds = pick("network.Model.build", "setup")

    return {
        "autodiff.conv2d.calls": len(conv_f) / units,
        "autodiff.conv2d.fwd_ms": ms_self(conv_f),
        "autodiff.conv2d.bwd_ms": ms_self(conv_b),
        "autodiff.conv2d.gflop": flop_f / units / 1e9,
        "autodiff.conv2d.fwd_gflops": fwd_gflops,
        "autodiff.conv2d.bwd_gflops": gflops(flop_b, sum(r[2] for r in conv_b)),
        "autodiff.conv2d.dilated.fwd_ms": ms_self(dil_f),
        "autodiff.conv2d.dilated.fwd_gflops": gflops(sum(r[4][0] for r in dil_f),
                                                     sum(r[2] for r in dil_f)),
        "autodiff.conv2d.fwd_frac_sgemm": fwd_gflops / sgemm_gflops,
        "autodiff.avg_pool.input_only.calls": len(pick("autodiff.avg_pool", where=input_only)) / units,
        "autodiff.avg_pool.input_only.fwd_ms": ms_self(pick("autodiff.avg_pool", where=input_only)),
        "autodiff.avg_pool.sccb.fwd_ms": ms_self(pick("autodiff.avg_pool", where=sccb)),
        "autodiff.avg_pool.sccb.bwd_ms": ms_self(pick("autodiff.avg_pool.bwd", where=sccb)),
        "autodiff.elu.fwd_ms": ms_self(pick("autodiff.elu")),
        "autodiff.elu.bwd_ms": ms_self(pick("autodiff.elu.bwd")),
        "autodiff.max_pool2.fwd_ms": ms_self(pick("autodiff.max_pool2")),
        "autodiff.max_pool2.bwd_ms": ms_self(pick("autodiff.max_pool2.bwd")),
        "autodiff.other.fwd_ms": ms_self(other_f),
        "autodiff.other.bwd_ms": ms_self(other_b),
        "autodiff.backward.self_ms": ms_self(pick("autodiff.backward")),
        "autodiff.ops_per_unit": len(op_fwd) / units,
        "network.forward.ms_p50": statistics.median(fwd_ms),
        "network.forward.ms_pmax": pmax(fwd_ms),
        "network.forward.self_ms": ms_self(forwards),
        "network.build_s": mean([r[1] for r in builds]),
        "trainer.nesterov_step_ms": 1e3 * sum(r[1] for r in pick("trainer.nesterov_step")) / units,
        "trainer.validation_ms_per_tile": 1e3 * sum(r[1] for r in validations) / max(val_tiles, 1),
        "trainer.checkpoint_ms": 1e3 * mean([r[1] for r in pick("trainer.state_to_checkpoint")]),
        "checkpoint.load_calls": len(loads) / setups,
        "checkpoint.load_ms": 1e3 * mean([r[1] for r in loads]),
        "checkpoint.save_ms": 1e3 * mean([r[1] for r in saves]),
        "checkpoint.save_mb": mean([r[4] for r in saves]) / 2**20,
        "inference.crops": len(crops) / max(infer_calls, 1),
        "inference.crop_ms_p50": statistics.median(crop_ms),
        "inference.crop_ms_pmax": pmax(crop_ms),
        "inference.stitch_self_ms": ms_self(pick("inference.stitch_predict")),
        "data.assemble_inputs_ms": 1e3 * sum(r[1] for r in pick("data.assemble_inputs")) / units,
    }
