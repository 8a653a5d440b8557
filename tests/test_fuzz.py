"""Fuzz tests of the input boundary: the MCR, PPM and PGM readers, the
checkpoint reader and the run-config parser.  Whatever the input, the only
exceptions that may escape are ``DataError`` and ``ConfigurationError``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orthoseg import checkpoint, data
from orthoseg.config import RunConfig
from orthoseg.errors import ConfigurationError, DataError

FUZZ = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def valid_files(root):
    """reader -> bytes of one small well-formed file it accepts."""
    rng = np.random.default_rng(0)
    optical = {r: rng.integers(0, 256, (3, 4)).astype(np.uint8) for r in data.OPTICAL_ROLES}
    raster = data.Raster({**optical, "DSM": rng.normal(0, 1, (3, 4)).astype(np.float32),
                          "LABEL": rng.integers(0, 6, (3, 4)).astype(np.uint8)})
    data.write_mcr(root / "v.mcr", raster)
    data.write_ppm(root / "v.ppm", data.colorize(raster.channels["LABEL"]))
    data.write_pgm(root / "v.pgm", raster.channels["IR"])
    checkpoint.save_checkpoint(str(root / "v.ckpt"), {"config_text": "seed=1\n", "lr": 0.1},
                               {"param:a": rng.normal(size=(2, 3)).astype(np.float32),
                                "velocity:a": np.zeros(4)})
    return {data.read_mcr: (root / "v.mcr").read_bytes(),
            data.read_ppm: (root / "v.ppm").read_bytes(),
            data.read_pgm: (root / "v.pgm").read_bytes(),
            checkpoint.load_checkpoint: (root / "v.ckpt").read_bytes()}


READERS = [data.read_mcr, data.read_ppm, data.read_pgm, checkpoint.load_checkpoint]
IDS = ["mcr", "ppm", "pgm", "checkpoint"]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    return root, valid_files(root)


def read_only_typed_errors(reader, path, raw):
    path.write_bytes(raw)
    try:
        reader(str(path))
    except (DataError, ConfigurationError):
        pass


def test_valid_files_read(fuzz_dir):
    root, valid = fuzz_dir
    for reader, raw in valid.items():
        path = root / "ok.bin"
        path.write_bytes(raw)
        reader(str(path))


@pytest.mark.parametrize("reader", READERS, ids=IDS)
@FUZZ
@given(raw=st.binary(max_size=256), magic=st.booleans())
def test_arbitrary_bytes(fuzz_dir, reader, raw, magic):
    root, valid = fuzz_dir
    prefix = valid[reader][:4] if magic else b""  # reach past the magic check
    read_only_typed_errors(reader, root / "arbitrary.bin", prefix + raw)


@pytest.mark.parametrize("reader", READERS, ids=IDS)
@FUZZ
@given(cut=st.floats(0, 1, exclude_max=True))
def test_truncated(fuzz_dir, reader, cut):
    root, valid = fuzz_dir
    raw = valid[reader]
    read_only_typed_errors(reader, root / "truncated.bin", raw[:int(cut * len(raw))])


@pytest.mark.parametrize("reader", READERS, ids=IDS)
@FUZZ
@given(flips=st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(1, 255)),
                      min_size=1, max_size=4))
def test_byte_flipped(fuzz_dir, reader, flips):
    root, valid = fuzz_dir
    raw = bytearray(valid[reader])
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
