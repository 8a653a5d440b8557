"""Fuzz tests of the input boundary: the MCR and PPM readers, the checkpoint
reader, the checkpoint header's training state and the run-config parser.
Whatever the input, the only exceptions that may escape are ``DataError`` and
``ConfigurationError``; a header state that loads must resume, where only
``NumericalError`` may end the run."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoseg import checkpoint, data, trainer
from orthoseg.config import RunConfig
from orthoseg.errors import ConfigurationError, DataError, NumericalError
from orthoseg.network import Model

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def valid_files(root, v1_checkpoint):
    """id -> (reader, bytes of one small well-formed file it accepts)."""
    rng = np.random.default_rng(0)
    optical = {r: rng.integers(0, 256, (3, 4)).astype(np.uint8) for r in data.OPTICAL_ROLES}
    raster = data.Raster({**optical, "DSM": rng.normal(0, 1, (3, 4)).astype(np.float32),
                          "LABEL": rng.integers(0, 6, (3, 4)).astype(np.uint8)})
    data.write_mcr(root / "v.mcr", raster)
    data.write_ppm(root / "v.ppm", data.colorize(raster.channels["LABEL"]))
    header = {"config_text": "seed=1\n", "lr": 0.1}
    tensors = {"param:a": rng.normal(size=(2, 3)).astype(np.float32), "velocity:a": np.zeros(4)}
    checkpoint.save_checkpoint(str(root / "v.ckpt"), header, tensors)
    return {"mcr": (data.read_mcr, (root / "v.mcr").read_bytes()),
            "ppm": (data.read_ppm, (root / "v.ppm").read_bytes()),
            "checkpoint": (checkpoint.load_checkpoint, (root / "v.ckpt").read_bytes()),
            "checkpoint-v1": (checkpoint.load_checkpoint, v1_checkpoint(header, tensors))}


IDS = ["mcr", "ppm", "checkpoint", "checkpoint-v1"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory, v1_checkpoint):
    root = tmp_path_factory.mktemp("fuzz")
    return root, valid_files(root, v1_checkpoint)


def read_only_typed_errors(reader, path, raw):
    path.write_bytes(raw)
    try:
        reader(str(path))
    except (DataError, ConfigurationError):
        pass


def test_valid_files_read(fuzz_dir):
    root, valid = fuzz_dir
    for reader, raw in valid.values():
        path = root / "ok.bin"
        path.write_bytes(raw)
        reader(str(path))


@pytest.mark.parametrize("kind", IDS)
@FUZZ
@given(raw=st.binary(max_size=256), magic=st.booleans())
def test_arbitrary_bytes(fuzz_dir, kind, raw, magic):
    root, valid = fuzz_dir
    reader, seed = valid[kind]
    prefix = seed[:4] if magic else b""  # reach past the magic check
    read_only_typed_errors(reader, root / "arbitrary.bin", prefix + raw)


@pytest.mark.parametrize("kind", IDS)
@FUZZ
@given(cut=st.floats(0, 1, exclude_max=True))
def test_truncated(fuzz_dir, kind, cut):
    root, valid = fuzz_dir
    reader, raw = valid[kind]
    read_only_typed_errors(reader, root / "truncated.bin", raw[:int(cut * len(raw))])


@pytest.mark.parametrize("kind", IDS)
@FUZZ
@given(flips=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_byte_flipped(fuzz_dir, kind, flips):
    root, valid = fuzz_dir
    reader, raw = valid[kind]
    raw = bytearray(raw)
    for where, mask in flips:
        raw[int(where * len(raw))] ^= mask
    read_only_typed_errors(reader, root / "flipped.bin", bytes(raw))


NETWORK_KEYS = ["num_encoder_blocks", "primary_filters", "auxiliary_filters", "decoder_filters",
                "num_additional_residual_blocks", "num_classes", "sccb_dilations",
                "input_scale_divisor", "output_scale_divisor"]
VALUE_TEXT = st.text(alphabet="0123456789,:-+.e abc", max_size=24) | st.text(max_size=12)


@FUZZ
@given(text=st.text(max_size=200)
       | st.lists(st.tuples(st.sampled_from(NETWORK_KEYS), VALUE_TEXT), max_size=4).map(
           lambda pairs: "\n".join(f"{k}={v}" for k, v in pairs)))
def test_network_settings(text):
    try:
        RunConfig.parse(text).network_config()
    except ConfigurationError:
        pass


# the smallest network the config allows, so that a resumed iteration is cheap
TINY = dict(num_encoder_blocks=1, primary_filters="2", auxiliary_filters="2",
            decoder_filters=2, sccb_dilations="5:1,11:1")
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=6)


def key_paths(tree, prefix=()):
    """Every key path into the nested dicts of ``tree``."""
    for key, value in tree.items():
        yield prefix + (key,)
        if isinstance(value, dict):
            yield from key_paths(value, prefix + (key,))


@pytest.fixture(scope="module")
def saved_state(tmp_path_factory):
    root = tmp_path_factory.mktemp("header")
    cfg = RunConfig.desk(**TINY)
    path = str(root / "w.ckpt")
    state = trainer.init_state(Model.build(cfg.network_config(), seed=0), cfg)
    trainer.state_to_checkpoint(path, state, cfg.digest(), cfg.serialize())
    return root, cfg, *checkpoint.load_checkpoint(path)


HEADER_KEYS = ["config_digest", "config_text", "digest_algorithm", "fine_plateau_count",
               "fine_tuning_momentum", "frozen", "iteration", "lr", "momentum",
               "noise_rng_state", "noiserates", "phase", "seed", "tracker"]


@pytest.mark.parametrize("key", HEADER_KEYS)
@settings(FUZZ, max_examples=30)
@given(draw=st.data())
def test_checkpoint_header_values(saved_state, key, draw):
    """Any JSON value at any key path under ``key`` either loads as a state
    that resumes for one iteration, or raises ``DataError`` on load."""
    root, cfg, header, tensors = saved_state
    assert sorted(header) == HEADER_KEYS
    header = json.loads(json.dumps(header))
    *parents, last = draw.draw(st.sampled_from(
        [p for p in key_paths(header) if p[0] == key]))
    target = header
    for parent in parents:
        target = target[parent]
    target[last] = draw.draw(JSON)
    tensors = {name: arr.copy() for name, arr in tensors.items()}  # resuming updates them
    try:
        state = trainer.state_from_tensors(header, tensors, cfg.network_config())
    except DataError:
        return
    rng = np.random.default_rng(0)
    sample = (rng.normal(size=(3, 2, 2)).astype(np.float32),
              rng.normal(size=(3, 2, 2)).astype(np.float32), np.zeros((2, 2), dtype=np.int64))
    try:  # a fuzzed lr or momentum may overflow; that must end as NumericalError
        with np.errstate(all="ignore"):
            trainer.train_loop(cfg, None, [sample], [sample], str(root / "resume"),
                               max_iterations=state.iteration + 1, state=state)
    except NumericalError:
        pass
