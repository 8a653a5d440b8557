"""Training procedure: Nesterov-momentum SGD, plateau-driven step decay and
the fine-tuning phase transitions (momentum escalation, noiserate decay,
staged encoder unfreezing), with bit-exact checkpoint resume.

Schedule rules:
  * every plateau divides the learning rate by 10;
  * the first plateau switches to the fine-tuning phase and raises momentum;
  * each later plateau multiplies noiserates by 0.75 (encoder), 0.375
    (decoder and additional residual blocks) and 0.25 (SCCB);
  * the first fine-tuning plateau unfreezes primary encoder block 2, the
    next one block 1.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import checkpoint as ckpt
from .config import RunConfig
from .data import remove_files, replace_file
from .errors import ConfigurationError, DataError, NumericalError, OrthosegError
from .network import Model, NoiseRates

PHASE_INITIAL = "initial"
PHASE_FINE_TUNING = "fine_tuning"
_UNFREEZE_AT = {1: 2, 2: 1}  # fine-tuning plateau number -> primary block it unfreezes
_CHECKPOINTS = ("latest.ckpt", "best.ckpt", "final.ckpt", "diagnostic.ckpt")  # in a run's out_dir


@dataclass
class PlateauTracker:
    """Fires when the validation loss has not improved for a full window."""

    window: int
    threshold: float
    best_loss: float = math.inf
    best_iteration: int = 0

    def check(self, iteration, val_loss):
        if val_loss < self.best_loss - self.threshold:
            self.best_loss = val_loss
            self.best_iteration = iteration
            return False
        if iteration - self.best_iteration >= self.window:
            self.best_iteration = iteration
            return True
        return False

    def to_dict(self):
        return {"window": self.window, "threshold": self.threshold,
                "best_loss": self.best_loss, "best_iteration": self.best_iteration}

    @classmethod
    def from_dict(cls, d):
        """Inverse of ``to_dict``; raises ``TypeError`` for a non-numeric field."""
        tracker = cls(window=d["window"], threshold=d["threshold"],
                      best_loss=d["best_loss"], best_iteration=d["best_iteration"])
        if not all(isinstance(v, (int, float)) for v in tracker.to_dict().values()):
            raise TypeError("non-numeric plateau tracker field")
        return tracker


@dataclass
class TrainState:
    model: Model
    velocities: dict
    lr: float
    momentum: float
    fine_tuning_momentum: float
    noiserates: NoiseRates
    tracker: PlateauTracker
    noise_rng: np.random.Generator
    seed: int
    iteration: int = 0
    phase: str = PHASE_INITIAL
    fine_plateau_count: int = 0
    log: list = field(default_factory=list)  # one METRICS_FIELDS row per evaluation

    @property
    def unfrozen_blocks(self):
        """Primary encoder blocks unfrozen so far, in order; a block the
        network lacks is never unfrozen."""
        return [block for plateau, block in _UNFREEZE_AT.items()
                if plateau <= self.fine_plateau_count
                and block <= self.model.config.num_encoder_blocks]


def _set_trainable(params, block, flag):
    """Sets ``requires_grad`` on every parameter of ``block`` (a name prefix
    such as ``encoder.primary.block1``), dropping the gradients of frozen
    ones; returns their names, ``[]`` when the network has no such block."""
    names = [n for n in params if n.startswith(block + ".")]
    for n in names:
        params[n].requires_grad = flag
        if not flag:
            params[n].grad = None
    return names


def init_state(model, run_cfg):
    for b in range(1, run_cfg.freeze_primary_blocks + 1):
        _set_trainable(model.params, f"encoder.primary.block{b}", False)
    velocities = {name: np.zeros_like(t.data)
                  for name, t in model.params.items() if t.requires_grad}
    return TrainState(
        model=model,
        velocities=velocities,
        lr=run_cfg.learning_rate,
        momentum=run_cfg.momentum,
        fine_tuning_momentum=run_cfg.fine_tuning_momentum,
        noiserates=run_cfg.noiserates(),
        tracker=PlateauTracker(window=run_cfg.plateau_window, threshold=run_cfg.plateau_threshold),
        noise_rng=np.random.default_rng([run_cfg.seed, 1]),
        seed=run_cfg.seed,
    )


def nesterov_step(params, state):
    """v <- mu*v - lr*g ; theta <- theta + mu*v - lr*g (practical Nesterov),
    updating each velocity in place."""
    mu = np.float32(state.momentum)
    lr = np.float32(state.lr)
    for name, t in params.items():
        if not t.requires_grad:
            continue
        if t.grad is None:
            raise OrthosegError(f"trainable parameter {name} has no gradient")
        v = state.velocities[name]
        lg = lr * t.grad.astype(t.data.dtype, copy=False)
        v *= mu
        v -= lg
        step = mu * v
        step -= lg
        t.data += step


def on_plateau(state):
    state.lr /= 10.0
    if state.phase == PHASE_INITIAL:
        state.phase = PHASE_FINE_TUNING
        state.momentum = state.fine_tuning_momentum
        return
    state.noiserates.decay()
    state.fine_plateau_count += 1
    block = _UNFREEZE_AT.get(state.fine_plateau_count)
    if block is not None:
        for n in _set_trainable(state.model.params, f"encoder.primary.block{block}", True):
            state.velocities.setdefault(n, np.zeros_like(state.model.params[n].data))


# ---------------------------------------------------------------------------
# checkpoint bridging


# TrainState fields the checkpoint header stores as plain JSON values, with
# the type each must load as
_HEADER_SCALARS = (("iteration", int), ("phase", str), ("lr", float), ("momentum", float),
                  ("fine_tuning_momentum", float), ("fine_plateau_count", int), ("seed", int))


def state_to_checkpoint(path, state, config_digest, config_text=""):
    header = {
        "config_digest": config_digest,
        "config_text": config_text,
        "digest_algorithm": "sha256",
        "noiserates": state.noiserates.to_dict(),
        "frozen": [n for n, t in state.model.params.items() if not t.requires_grad],
        "tracker": state.tracker.to_dict(),
        "noise_rng_state": state.noise_rng.bit_generator.state,
        "log": state.log,
        **{key: getattr(state, key) for key, _ in _HEADER_SCALARS},
    }
    tensors = {}
    for name, t in state.model.params.items():
        tensors[f"param:{name}"] = t.data
    for name, v in state.velocities.items():
        tensors[f"velocity:{name}"] = v
    ckpt.save_checkpoint(path, header, tensors)


def _model_from_tensors(tensors, network_config):
    """The Model over a loaded checkpoint's ``param:`` tensors."""
    return Model.from_arrays(network_config, {
        key[len("param:"):]: arr for key, arr in tensors.items() if key.startswith("param:")})


def model_from_checkpoint(path):
    """(RunConfig, Model) stored in the checkpoint at ``path``, for
    inference: one load, of which only the run config text and the
    parameters are used. A missing or malformed config text, or a missing or
    misshaped parameter, raises ``DataError``."""
    header, tensors = ckpt.load_checkpoint(path)
    text = header.get("config_text")
    if not text or not isinstance(text, str):
        raise DataError(f"{path}: header carries no run config text")
    try:  # the fault is in the checkpoint file, not in a config the user wrote
        cfg = RunConfig.parse(text)
        net_cfg = cfg.network_config()
    except ConfigurationError as exc:
        raise DataError(f"{path}: stored run config: {exc}") from exc
    return cfg, _model_from_tensors(tensors, net_cfg)


def state_from_checkpoint(path, network_config, expected_digest=None, override=False):
    header, tensors = ckpt.load_checkpoint(path)
    if expected_digest is not None:
        ckpt.check_digest(header, expected_digest, override)
    return state_from_tensors(header, tensors, network_config), header


def state_from_tensors(header, tensors, network_config):
    """The TrainState held by a loaded checkpoint's ``header`` and
    ``tensors``; float32 parameters and velocities are used in place
    (``train_loop`` copies those that are views of a mapped file). A
    missing or malformed header entry (integers must be non-negative, the
    phase a known one, each log row one that ``metrics.csv`` can show)
    raises ``DataError`` naming it, as does a trainable parameter without a
    velocity of its shape. Other keys are ignored."""

    def value(key, kind, parse=lambda v: v):
        try:
            if not isinstance(v := header[key], kind) or (kind is int and v < 0):
                raise TypeError(kind.__name__)
            return parse(v)
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise DataError(f"checkpoint header: missing or malformed {key!r}") from exc

    if header.get("phase") not in (PHASE_INITIAL, PHASE_FINE_TUNING):
        raise DataError("checkpoint header: missing or malformed 'phase'")
    model = _model_from_tensors(tensors, network_config)
    frozen = value("frozen", list, set)
    for name, t in model.params.items():
        t.requires_grad = name not in frozen
    velocities = {key[len("velocity:"):]: arr.astype(np.float32, copy=False)
                  for key, arr in tensors.items() if key.startswith("velocity:")}
    for name, t in model.params.items():
        if t.requires_grad and (name not in velocities
                                or velocities[name].shape != t.data.shape):
            raise DataError(f"checkpoint: no velocity of shape {t.data.shape} for {name}")
    rng = np.random.default_rng()
    value("noise_rng_state", dict, lambda st: setattr(rng.bit_generator, "state", st))
    return TrainState(
        model=model,
        velocities=velocities,
        noiserates=value("noiserates", dict, NoiseRates.from_dict),
        tracker=value("tracker", dict, PlateauTracker.from_dict),
        noise_rng=rng,
        log=value("log", list, lambda rows: _metrics_csv(rows) and rows),
        **{key: value(key, kind) for key, kind in _HEADER_SCALARS},
    )


# ---------------------------------------------------------------------------
# the loop


def _epoch_index(seed, epoch, n, pos):
    order = np.random.default_rng([seed, 2, epoch]).permutation(n)
    return int(order[pos])


def _eval_forwards(model, samples):
    """(class probabilities, half-resolution label) per sample, without noise."""
    for primary, auxiliary, label_half in samples:
        yield model.forward(primary[None], auxiliary[None], training=False), label_half


def validation_loss(model, val_samples):
    """Mean cross entropy over ``val_samples``."""
    total = 0.0
    for probs, label_half in _eval_forwards(model, val_samples):
        total += float(ad.cross_entropy_loss(probs, label_half[None]).data)
    return total / len(val_samples)


def pixel_accuracy(model, samples):
    correct = total = 0
    for probs, label_half in _eval_forwards(model, samples):
        correct += int((probs.data.argmax(axis=1)[0] == label_half).sum())
        total += label_half.size
    return correct / total


METRICS_FIELDS = ("iteration", "train_loss", "val_loss", "lr", "momentum", "phase",
                  "noiserate_encoder_top", "noiserate_decoder_top",
                  "noiserate_sccb", "noiserate_residual", "unfrozen_blocks")


def _metrics_csv(log):
    """``metrics.csv``'s bytes for the evaluation rows ``log``, losses to six
    decimals; raises ``TypeError`` or ``ValueError`` for an unformattable row."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(METRICS_FIELDS)
    for iteration, train_loss, val_loss, *rest in log:
        writer.writerow([iteration, f"{train_loss:.6f}", f"{val_loss:.6f}", *rest])
    return text.getvalue().encode("utf-8")


def train_loop(run_cfg, model, train_samples, val_samples, out_dir,
               max_iterations=None, state=None):
    """Batch-size-1 iteration loop with plateau-driven schedule transitions.

    Returns the final TrainState.  Adds one row per evaluation to
    ``state.log`` and writes ``out_dir/metrics.csv`` from it, at the start
    and after each evaluation; checkpoints on every new validation best of
    the log and every ``checkpoint_interval`` iterations.  A fresh run
    (``state`` None) first removes the checkpoints an earlier run left in
    ``out_dir``.
    """
    if not train_samples:
        raise DataError("empty training set")
    if not val_samples:
        raise DataError("validation set required for plateau scheduling")
    os.makedirs(out_dir, exist_ok=True)
    if state is None:
        remove_files(out_dir, _CHECKPOINTS)
        state = init_state(model, run_cfg)
    # a resumed state's arrays are views of the mapped checkpoint; arrays of
    # their own let that file go once the run writes over it
    for t in state.model.params.values():
        if t.data.base is not None:
            t.data = t.data.copy()
    for name, v in state.velocities.items():
        if v.base is not None:
            state.velocities[name] = v.copy()
    digest = run_cfg.digest()
    cfg_text = run_cfg.serialize()
    limit = run_cfg.max_iterations if max_iterations is None else max_iterations
    n = len(train_samples)
    best_seen = min((row[2] for row in state.log), default=math.inf)
    params = state.model.params

    def fail(what):
        diag = os.path.join(out_dir, "diagnostic.ckpt")
        state_to_checkpoint(diag, state, digest, cfg_text)
        raise NumericalError(
            f"non-finite {what} at iteration {state.iteration}; diagnostic checkpoint {diag}")

    def write_log():
        with replace_file(os.path.join(out_dir, "metrics.csv")) as f:
            f.write(_metrics_csv(state.log))

    write_log()
    while state.iteration < limit:
        idx = _epoch_index(state.seed, state.iteration // n, n, state.iteration % n)
        primary, auxiliary, label_half = train_samples[idx]
        probs = state.model.forward(primary[None], auxiliary[None], training=True,
                                    rng=state.noise_rng, noiserates=state.noiserates)
        loss = ad.cross_entropy_loss(probs, label_half[None])
        train_loss = float(loss.data)
        if not math.isfinite(train_loss):
            fail("loss")
        for t in params.values():
            t.grad = None
        ad.backward(loss)
        for name, t in params.items():  # before any parameter moves
            if t.grad is not None and not np.isfinite(t.grad).all():
                fail(f"gradient of {name}")
        nesterov_step(params, state)
        for t in params.values():
            t.grad = None
        state.iteration += 1

        if state.iteration % run_cfg.eval_interval == 0 or state.iteration == limit:
            val_loss = validation_loss(state.model, val_samples)
            if not math.isfinite(val_loss):
                fail("validation loss")
            if state.tracker.check(state.iteration, val_loss):
                on_plateau(state)
            state.log.append([
                state.iteration, train_loss, val_loss,
                state.lr, state.momentum, state.phase,
                state.noiserates.rate("encoder", 512),
                state.noiserates.rate("decoder", 512),
                state.noiserates.sccb, state.noiserates.residual,
                " ".join(str(b) for b in state.unfrozen_blocks),
            ])
            write_log()
            if val_loss < best_seen:
                best_seen = val_loss
                state_to_checkpoint(os.path.join(out_dir, "best.ckpt"), state, digest, cfg_text)
        if state.iteration % run_cfg.checkpoint_interval == 0:
            state_to_checkpoint(os.path.join(out_dir, "latest.ckpt"), state, digest, cfg_text)

    state_to_checkpoint(os.path.join(out_dir, "final.ckpt"), state, digest, cfg_text)
    return state
