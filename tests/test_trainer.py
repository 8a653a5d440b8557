"""Trainer tests: Nesterov update oracle, plateau tracker traces, schedule
transitions, and bit-exact checkpoint resume of a short run."""

import dataclasses
import os
import shutil

import numpy as np
import pytest

from orthoseg import autodiff as ad
from orthoseg import checkpoint, cli, network, trainer
from orthoseg.config import RunConfig
from orthoseg.errors import DataError, NumericalError, OrthosegError
from orthoseg.network import Model
from orthoseg.trainer import (PHASE_FINE_TUNING, PHASE_INITIAL, PlateauTracker,
                              TrainState, init_state, nesterov_step, on_plateau)


def desk_cfg(**overrides):
    return RunConfig.desk(**overrides)


def build_desk_model(seed=0):
    return Model.build(desk_cfg().network_config(), seed=seed)


def make_state(model, cfg=None):
    return init_state(model, cfg or desk_cfg())


def synth_samples(num, size=32, seed=0):
    """Tiny synthetic (primary, auxiliary, half-res label) triples."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(num):
        primary = rng.normal(0, 1, (3, size, size)).astype(np.float32)
        auxiliary = rng.normal(0, 1, (3, size, size)).astype(np.float32)
        label = rng.integers(0, 6, (size, size)).astype(np.int64)
        out.append((primary, auxiliary, label))
    return out


# ---------------------------------------------------------------------------
# Nesterov recurrence


def test_nesterov_scalar_oracle():
    # independent recurrence on a 1-parameter quadratic loss L = 0.5*w^2
    cfg = desk_cfg()
    model = build_desk_model()
    state = make_state(model, cfg)
    state.lr, state.momentum = 0.1, 0.9

    name = "decoder.block1.conv1.bias"
    t = model.params[name]
    w = 0.7
    t.data[...] = 0.0
    t.data.flat[0] = w
    v = 0.0
    for _ in range(5):
        grads = np.zeros_like(t.data)
        grads.flat[0] = t.data.flat[0]  # dL/dw = w
        for other_name, other in model.params.items():
            if other.requires_grad:
                other.grad = np.zeros_like(other.data)
        t.grad = grads
        nesterov_step(model.params, state)
        g = w
        v = 0.9 * v - 0.1 * g
        w = w + 0.9 * v - 0.1 * g
        assert t.data.flat[0] == pytest.approx(w, rel=1e-5)


def test_nesterov_skips_frozen():
    cfg = desk_cfg(freeze_primary_blocks=2)
    model = build_desk_model()
    state = make_state(model, cfg)
    frozen = model.params["encoder.primary.block1.conv1.weight"]
    before = frozen.data.copy()
    for other_name, other in model.params.items():
        if other.requires_grad:
            other.grad = np.ones_like(other.data)
    nesterov_step(model.params, state)
    assert np.array_equal(frozen.data, before)
    assert "encoder.primary.block1.conv1.weight" not in state.velocities


def test_zero_lr_leaves_params_unchanged():
    model = build_desk_model()
    state = make_state(model)
    state.lr = 0.0
    live = model.params["decoder.block1.conv1.weight"]
    before = live.data.copy()
    for name, t in model.params.items():
        if t.requires_grad:
            t.grad = np.ones_like(t.data)
    nesterov_step(model.params, state)
    assert np.array_equal(live.data, before)


# ---------------------------------------------------------------------------
# plateau tracker


def test_tracker_fires_after_window_without_improvement():
    tr = PlateauTracker(window=100, threshold=1e-6)
    assert not tr.check(0, 1.0)
    assert not tr.check(50, 1.5)
    assert not tr.check(99, 1.2)
    assert tr.check(100, 1.2)
    # best_iteration reset on fire: needs a full fresh window to fire again
    assert not tr.check(150, 1.2)
    assert tr.check(200, 1.2)


def test_tracker_improvement_resets_window():
    tr = PlateauTracker(window=100, threshold=1e-6)
    tr.check(0, 1.0)
    assert not tr.check(90, 0.5)    # improvement
    assert not tr.check(100, 0.6)   # only 10 past the new best
    assert tr.check(190, 0.6)


def test_tracker_threshold_guard():
    tr = PlateauTracker(window=10, threshold=1e-3)
    tr.check(0, 1.0)
    assert not tr.check(5, 1.0 - 1e-4)  # below threshold: not an improvement
    assert tr.check(10, 1.0 - 1e-4)


def test_tracker_round_trip():
    tr = PlateauTracker(window=7, threshold=1e-4, best_loss=0.3, best_iteration=42)
    assert PlateauTracker.from_dict(tr.to_dict()) == tr


# ---------------------------------------------------------------------------
# schedule transitions


def test_three_plateau_golden_trace():
    cfg = desk_cfg()
    model = build_desk_model()
    state = make_state(model, cfg)
    base = cfg.noiserates()

    assert state.lr == pytest.approx(1e-4)
    assert state.momentum == pytest.approx(0.99)
    assert state.phase == PHASE_INITIAL
    trainable0 = [n for n, t in model.params.items() if t.requires_grad]

    # plateau 1: phase flip + momentum, no noiserate decay, no unfreeze
    on_plateau(state)
    assert state.lr == pytest.approx(1e-5)
    assert state.momentum == pytest.approx(0.999)
    assert state.phase == PHASE_FINE_TUNING
    assert state.noiserates.to_dict() == base.to_dict()
    assert state.unfrozen_blocks == []
    assert [n for n, t in model.params.items() if t.requires_grad] == trainable0

    # plateau 2: first fine-tuning plateau, decay + unfreeze block 2
    on_plateau(state)
    assert state.lr == pytest.approx(1e-6)
    assert state.momentum == pytest.approx(0.999)
    assert state.noiserates.rate("encoder", 64) == pytest.approx(0.0625 * 0.75)
    assert state.noiserates.rate("decoder", 64) == pytest.approx(0.0625 * 0.375)
    assert state.noiserates.sccb == pytest.approx(0.0625 * 0.25)
    assert state.noiserates.residual == pytest.approx(0.0625 * 0.375)
    assert state.unfrozen_blocks == [2]
    assert model.params["encoder.primary.block2.conv1.weight"].requires_grad
    assert not model.params["encoder.primary.block1.conv1.weight"].requires_grad
    assert "encoder.primary.block2.conv1.weight" in state.velocities

    # plateau 3: decay again + unfreeze block 1
    on_plateau(state)
    assert state.lr == pytest.approx(1e-7)
    assert state.noiserates.rate("encoder", 64) == pytest.approx(0.0625 * 0.75 ** 2)
    assert state.noiserates.sccb == pytest.approx(0.0625 * 0.25 ** 2)
    assert state.unfrozen_blocks == [2, 1]
    assert model.params["encoder.primary.block1.conv1.weight"].requires_grad
    assert all(t.requires_grad for t in model.params.values())

    # plateau 4: lr and noiserates keep decaying, nothing left to unfreeze
    on_plateau(state)
    assert state.lr == pytest.approx(1e-8)
    assert state.unfrozen_blocks == [2, 1]


def test_unfreeze_skips_block_the_network_lacks():
    cfg = desk_cfg(num_encoder_blocks=1, primary_filters="16", auxiliary_filters="16",
                   freeze_primary_blocks=1)
    state = make_state(Model.build(cfg.network_config(), seed=0), cfg)
    for _ in range(4):
        on_plateau(state)
    assert state.unfrozen_blocks == [1]
    assert all(t.requires_grad for t in state.model.params.values())


# ---------------------------------------------------------------------------
# the loop


def test_short_run_is_deterministic(tmp_path):
    cfg = desk_cfg(max_iterations=4, eval_interval=2, checkpoint_interval=100, seed=3)
    samples = synth_samples(3, size=16, seed=1)
    val = synth_samples(1, size=16, seed=2)
    outs = []
    for run in range(2):
        model = Model.build(cfg.network_config(), seed=cfg.seed)
        out_dir = tmp_path / f"run{run}"
        state = trainer.train_loop(cfg, model, samples, val, str(out_dir))
        outs.append({n: t.data.copy() for n, t in state.model.params.items()})
        assert state.iteration == 4
    for name in outs[0]:
        assert np.array_equal(outs[0][name], outs[1][name]), name


def test_training_reduces_loss(tmp_path):
    cfg = desk_cfg(max_iterations=30, eval_interval=30, checkpoint_interval=1000,
                   learning_rate=0.01, seed=0)
    rng = np.random.default_rng(5)
    primary = rng.normal(0, 1, (3, 16, 16)).astype(np.float32)
    auxiliary = rng.normal(0, 1, (3, 16, 16)).astype(np.float32)
    label = np.zeros((16, 16), dtype=np.int64)
    samples = [(primary, auxiliary, label)]
    model = Model.build(cfg.network_config(), seed=0)
    before = float(ad.cross_entropy_loss(
        model.forward(primary[None], auxiliary[None]), label[None]).data)
    state = trainer.train_loop(cfg, model, samples, samples, str(tmp_path / "o"))
    after = float(ad.cross_entropy_loss(
        state.model.forward(primary[None], auxiliary[None]), label[None]).data)
    assert after < before


def test_metrics_and_checkpoints_written(tmp_path):
    cfg = desk_cfg(max_iterations=4, eval_interval=2, checkpoint_interval=2, seed=0)
    samples = synth_samples(2, size=16)
    model = Model.build(cfg.network_config(), seed=0)
    out = tmp_path / "o"
    trainer.train_loop(cfg, model, samples, samples[:1], str(out))
    lines = (out / "metrics.csv").read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "iteration"
    assert len(lines) == 3  # header + evals at 2 and 4
    assert (out / "latest.ckpt").exists()
    assert (out / "final.ckpt").exists()
    assert (out / "best.ckpt").exists()


def test_resume_is_bitwise_identical(tmp_path):
    """10 straight iterations == 5 + checkpoint + resume + 5.  The run
    resumes into its own directory, so it writes over the checkpoint it
    resumed from, and must then hold no view of that file."""
    cfg = desk_cfg(max_iterations=10, eval_interval=5, checkpoint_interval=5, seed=7)
    samples = synth_samples(3, size=16, seed=4)
    val = synth_samples(1, size=16, seed=9)

    model_a = Model.build(cfg.network_config(), seed=cfg.seed)
    state_a = trainer.train_loop(cfg, model_a, samples, val, str(tmp_path / "a"))

    model_b = Model.build(cfg.network_config(), seed=cfg.seed)
    trainer.train_loop(cfg, model_b, samples, val, str(tmp_path / "b"), max_iterations=5)
    latest = os.path.realpath(tmp_path / "b" / "latest.ckpt")
    state_b, header = trainer.state_from_checkpoint(
        latest, cfg.network_config(), expected_digest=cfg.digest())
    assert header["iteration"] == 5
    state_b = trainer.train_loop(cfg, None, samples, val, str(tmp_path / "b"),
                                 state=state_b)

    arrays = [t.data for t in state_b.model.params.values()] + list(state_b.velocities.values())
    assert all(a.base is None for a in arrays)
    if os.path.exists("/proc/self/maps"):
        with open("/proc/self/maps", encoding="utf-8") as f:
            assert not [line for line in f if latest in line and "(deleted)" in line]
    assert state_a.iteration == state_b.iteration == 10
    for name, t in state_a.model.params.items():
        assert np.array_equal(t.data, state_b.model.params[name].data), name
    for name, v in state_a.velocities.items():
        assert np.array_equal(v, state_b.velocities[name]), name
    assert state_a.noise_rng.bit_generator.state == state_b.noise_rng.bit_generator.state


def test_stopped_and_resumed_run_writes_the_uninterrupted_files(tmp_path):
    """Stopped at 9 and resumed into the same directory from ``latest.ckpt``
    (iteration 5), a run rewrites the log from the checkpoint's rows, so no
    row of iterations 6-9 is written twice."""
    cfg = desk_cfg(max_iterations=12, eval_interval=2, checkpoint_interval=5, seed=7)
    samples = synth_samples(3, size=16, seed=4)
    val = synth_samples(1, size=16, seed=9)
    a, b = tmp_path / "a", tmp_path / "b"
    trainer.train_loop(cfg, Model.build(cfg.network_config(), seed=cfg.seed), samples, val, str(a))
    trainer.train_loop(cfg, Model.build(cfg.network_config(), seed=cfg.seed), samples, val, str(b),
                       max_iterations=9)
    state, _ = trainer.state_from_checkpoint(str(b / "latest.ckpt"), cfg.network_config())
    assert state.iteration == 5 and [row[0] for row in state.log] == [2, 4]
    trainer.train_loop(cfg, None, samples, val, str(b), state=state)
    rows = (a / "metrics.csv").read_text().splitlines()[1:]
    assert [row.split(",")[0] for row in rows] == ["2", "4", "6", "8", "10", "12"]
    for name in ("metrics.csv", "final.ckpt"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_best_checkpoint_is_chosen_from_the_log(tmp_path, monkeypatch):
    """Iteration 2's loss is the lowest but no plateau-threshold improvement
    on iteration 1's, and iteration 3's lies between the two: a run resumed at
    2 must not take 3 for a new best because the tracker's best is still 1.0."""
    cfg = desk_cfg(max_iterations=4, eval_interval=1, checkpoint_interval=2,
                   plateau_threshold=1e-6, seed=0)
    samples = synth_samples(1, size=16)
    losses = [1.0, 0.9999995, 0.9999997, 0.99999975]
    a, b = tmp_path / "a", tmp_path / "b"

    def scripted(scores):
        monkeypatch.setattr(trainer, "validation_loss", lambda model, val: next(scores))

    scripted(iter(losses))
    trainer.train_loop(cfg, Model.build(cfg.network_config(), seed=0), samples, samples, str(a))
    scripted(iter(losses[:2]))
    trainer.train_loop(cfg, Model.build(cfg.network_config(), seed=0), samples, samples, str(b),
                       max_iterations=2)
    state, _ = trainer.state_from_checkpoint(str(b / "latest.ckpt"), cfg.network_config())
    scripted(iter(losses[2:]))
    trainer.train_loop(cfg, None, samples, samples, str(b), state=state)
    for run in (a, b):
        header, _ = checkpoint.load_checkpoint(str(run / "best.ckpt"))
        assert header["iteration"] == 2, run.name
    assert (a / "best.ckpt").read_bytes() == (b / "best.ckpt").read_bytes()


def test_nonfinite_loss_raises_with_diagnostic(tmp_path):
    cfg = desk_cfg(max_iterations=2, eval_interval=1, checkpoint_interval=100,
                   learning_rate=1e30, seed=0)
    samples = synth_samples(1, size=16)
    model = Model.build(cfg.network_config(), seed=0)
    # poison one weight so the loss turns non-finite immediately
    model.params["decoder.block1.conv1.weight"].data[...] = np.nan
    with pytest.raises(NumericalError):
        trainer.train_loop(cfg, model, samples, samples, str(tmp_path / "o"))
    assert (tmp_path / "o" / "diagnostic.ckpt").exists()


def test_nonfinite_validation_loss_raises_with_diagnostic(tmp_path):
    cfg = desk_cfg(max_iterations=4, eval_interval=2, checkpoint_interval=100, seed=0)
    samples = synth_samples(1, size=16)
    primary, auxiliary, label = synth_samples(1, size=16, seed=1)[0]
    val = [(np.full_like(primary, np.nan), auxiliary, label)]
    model = Model.build(cfg.network_config(), seed=0)
    with pytest.raises(NumericalError, match="validation loss at iteration 2"):
        trainer.train_loop(cfg, model, samples, val, str(tmp_path / "o"))
    diag, _ = trainer.state_from_checkpoint(str(tmp_path / "o" / "diagnostic.ckpt"),
                                            cfg.network_config())
    assert diag.iteration == 2
    assert diag.tracker.best_iteration == 0


def test_nonfinite_gradient_raises_before_update(tmp_path, monkeypatch):
    cfg = desk_cfg(max_iterations=2, eval_interval=1, checkpoint_interval=100, seed=0)
    samples = synth_samples(1, size=16)
    model = Model.build(cfg.network_config(), seed=0)
    before = {name: t.data.copy() for name, t in model.params.items()}
    backward = ad.backward

    def nan_gradient(loss):  # a finite loss whose backward yields one NaN
        backward(loss)
        model.params["decoder.block1.conv2.weight"].grad.flat[0] = np.nan

    monkeypatch.setattr(ad, "backward", nan_gradient)
    with pytest.raises(NumericalError, match="gradient of decoder.block1.conv2.weight"):
        trainer.train_loop(cfg, model, samples, samples, str(tmp_path / "o"))
    _, tensors = checkpoint.load_checkpoint(str(tmp_path / "o" / "diagnostic.ckpt"))
    for name, data in before.items():
        assert np.array_equal(tensors[f"param:{name}"], data), name


def test_state_from_checkpoint_draws_no_weights(tmp_path, monkeypatch):
    cfg = desk_cfg(seed=3)
    state = make_state(Model.build(cfg.network_config(), seed=3), cfg)
    path = str(tmp_path / "w.ckpt")
    trainer.state_to_checkpoint(path, state, cfg.digest())

    def no_init(*args, **kwargs):
        raise AssertionError("He initialization during a checkpoint load")

    monkeypatch.setattr(network, "_he_conv", no_init)
    loaded, _ = trainer.state_from_checkpoint(path, cfg.network_config())
    assert list(loaded.model.params) == list(state.model.params)
    for name, t in state.model.params.items():
        got = loaded.model.params[name]
        assert got.data.dtype == np.float32
        assert np.array_equal(got.data, t.data), name
        assert got.requires_grad == t.requires_grad, name
    assert sorted(loaded.velocities) == sorted(state.velocities)


@pytest.mark.parametrize("damage", ["missing", "misshaped"])
def test_state_from_checkpoint_rejects_bad_parameter(tmp_path, damage):
    cfg = desk_cfg()
    state = make_state(build_desk_model(), cfg)
    path = str(tmp_path / "w.ckpt")
    trainer.state_to_checkpoint(path, state, cfg.digest())
    header, tensors = checkpoint.load_checkpoint(path)
    key = "param:sccb.branch_d5.weight"
    if damage == "missing":
        del tensors[key]
    else:
        tensors[key] = tensors[key][:1]
    checkpoint.save_checkpoint(path, header, tensors)
    with pytest.raises(OrthosegError, match="sccb.branch_d5.weight"):
        trainer.state_from_checkpoint(path, cfg.network_config())


@pytest.mark.parametrize("damage", ["missing", "malformed"])
@pytest.mark.parametrize("key", ["iteration", "phase", "lr", "momentum", "fine_tuning_momentum",
                                 "fine_plateau_count", "seed", "frozen",
                                 "noiserates", "tracker", "noise_rng_state", "log"])
def test_state_from_tensors_names_bad_header_key(tmp_path, key, damage):
    cfg = desk_cfg()
    path = str(tmp_path / "w.ckpt")
    trainer.state_to_checkpoint(path, make_state(build_desk_model(), cfg), cfg.digest())
    header, tensors = checkpoint.load_checkpoint(path)
    trainer.state_from_tensors(header, tensors, cfg.network_config())
    if damage == "missing":
        del header[key]
    else:
        header[key] = None
    with pytest.raises(DataError, match=repr(key)):
        trainer.state_from_tensors(header, tensors, cfg.network_config())


@pytest.mark.parametrize("path, value", [
    (("noiserates", "sccb"), "x"),
    (("noiserates", "residual"), 1.0),
    (("noiserates", "encoder", "64"), -0.5),
    (("noiserates", "decoder"), {}),
    (("tracker", "best_loss"), "x"),
    (("tracker", "window"), None),
    (("iteration",), -1),
    (("seed",), -1),
    (("frozen",), []),
    (("phase",), "bogus"),
    (("log",), [["x", "y", "z"]]),
], ids=["rate-str", "rate-one", "rate-negative", "no-buckets", "tracker-str", "tracker-null",
        "negative-iteration", "negative-seed", "no-velocity", "unknown-phase", "log-unformattable"])
def test_state_from_tensors_rejects_unusable_value(tmp_path, path, value):
    """Values that load as JSON of the right shape yet would crash a resumed run."""
    cfg = desk_cfg()
    ckpt_path = str(tmp_path / "w.ckpt")
    trainer.state_to_checkpoint(ckpt_path, make_state(build_desk_model(), cfg), cfg.digest())
    header, tensors = checkpoint.load_checkpoint(ckpt_path)
    *parents, last = path
    target = header
    for key in parents:
        target = target[key]
    target[last] = value
    with pytest.raises(DataError):
        trainer.state_from_tensors(header, tensors, cfg.network_config())


def test_state_from_tensors_ignores_stored_unfrozen_blocks(tmp_path):
    """Older headers stored the unfrozen blocks; the state derives them from
    the fine-tuning plateau count, whatever the stored list holds."""
    cfg = desk_cfg()
    path = str(tmp_path / "w.ckpt")
    trainer.state_to_checkpoint(path, make_state(build_desk_model(), cfg), cfg.digest())
    header, tensors = checkpoint.load_checkpoint(path)
    assert "unfrozen_blocks" not in header
    header["unfrozen_blocks"] = [{"a": 1}, None]
    state = trainer.state_from_tensors(header, tensors, cfg.network_config())
    assert state.unfrozen_blocks == []
    on_plateau(state)  # the phase switch
    on_plateau(state)  # the first fine-tuning plateau
    assert state.unfrozen_blocks == [2]
    assert state.model.params["encoder.primary.block2.conv1.weight"].requires_grad


@pytest.mark.parametrize("value", [-1, 2**200], ids=["negative", "too-large"])
def test_state_from_tensors_rejects_out_of_range_rng_state(tmp_path, value):
    cfg = desk_cfg()
    path = str(tmp_path / "w.ckpt")
    trainer.state_to_checkpoint(path, make_state(build_desk_model(), cfg), cfg.digest())
    header, tensors = checkpoint.load_checkpoint(path)
    header["noise_rng_state"]["state"]["state"] = value
    with pytest.raises(DataError, match="'noise_rng_state'"):
        trainer.state_from_tensors(header, tensors, cfg.network_config())


def test_digest_mismatch_rejected(tmp_path):
    cfg = desk_cfg(max_iterations=2, eval_interval=1, checkpoint_interval=2, seed=0)
    samples = synth_samples(1, size=16)
    model = Model.build(cfg.network_config(), seed=0)
    trainer.train_loop(cfg, model, samples, samples, str(tmp_path / "o"))
    other = desk_cfg(seed=1)
    from orthoseg.errors import ConfigurationError
    with pytest.raises(ConfigurationError):
        trainer.state_from_checkpoint(str(tmp_path / "o" / "final.ckpt"),
                                      cfg.network_config(),
                                      expected_digest=other.digest())
    # override accepted
    state, _ = trainer.state_from_checkpoint(str(tmp_path / "o" / "final.ckpt"),
                                             cfg.network_config(),
                                             expected_digest=other.digest(),
                                             override=True)
    assert state.iteration == 2


@pytest.fixture(scope="module")
def desk_cli_run(tmp_path_factory):
    """``orthoseg train`` of a 12-iteration desk run (eval every 2,
    checkpoint every 5) on 16-px tiles; returns its config path and run
    directory."""
    root = tmp_path_factory.mktemp("cli_run")
    raw, prep = str(root / "raw"), str(root / "prep")
    assert cli.main(["synth", "--out", raw, "--count", "2", "--size", "32", "--seed", "1"]) == 0
    assert cli.main(["prepare", "--input", raw, "--out", prep, "--tile", "16",
                     "--overlap", "0.5", "--val-frac", "0.2", "--seed", "0"]) == 0
    cfg_path = str(root / "run.cfg")
    desk_cfg(tile_size=16, max_iterations=12, eval_interval=2, checkpoint_interval=5,
             data_dir=prep).save(cfg_path)
    assert cli.main(["train", "--config", cfg_path, "--out", str(root / "run")]) == 0
    return cfg_path, root / "run"


def test_cli_resume_into_new_out_writes_the_whole_log(desk_cli_run, tmp_path):
    cfg_path, run = desk_cli_run
    out = tmp_path / "cont"
    assert cli.main(["train", "--config", cfg_path, "--out", str(out),
                     "--resume", str(run / "latest.ckpt")]) == 0
    for name in ("metrics.csv", "final.ckpt"):
        assert (out / name).read_bytes() == (run / name).read_bytes(), name


def test_fresh_run_into_used_out_keeps_only_its_own_rows(desk_cli_run, tmp_path):
    """A 4-iteration run without ``--resume`` into a copy of the 12-iteration
    run's directory logs the evaluations at 2 and 4 alone, and leaves only
    its own checkpoints."""
    cfg_path, run = desk_cli_run
    out = tmp_path / "used"
    shutil.copytree(run, out)
    short = str(tmp_path / "short.cfg")
    dataclasses.replace(RunConfig.load(cfg_path), max_iterations=4).save(short)
    assert cli.main(["train", "--config", short, "--out", str(out)]) == 0
    assert (out / "metrics.csv").read_text().splitlines() == \
        (run / "metrics.csv").read_text().splitlines()[:3]
    # the old run's latest.ckpt (iteration 10) is gone; the new run wrote no latest
    assert sorted(os.listdir(out)) == ["best.ckpt", "final.ckpt", "metrics.csv"]
    digest = RunConfig.load(short).digest()
    for name in ("best.ckpt", "final.ckpt"):
        header, _ = checkpoint.load_checkpoint(str(out / name))
        assert header["iteration"] <= 4 and header["config_digest"] == digest
