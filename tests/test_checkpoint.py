"""Checkpoint container tests: byte layout, round trips, bounded loads and
digest gating."""

import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from orthoseg import checkpoint as ckpt
from orthoseg.errors import ConfigurationError, DataError


def sample_tensors():
    rng = np.random.default_rng(0)
    return {
        "param:a.weight": rng.normal(0, 1, (2, 3, 3, 3)).astype(np.float32),
        "param:a.bias": rng.normal(0, 1, (2,)).astype(np.float32),
        "velocity:a.weight": rng.normal(0, 1, (2, 3, 3, 3)).astype(np.float32),
        "stats": rng.normal(0, 1, (4,)).astype(np.float64),
    }


def test_round_trip_values_and_order(tmp_path):
    path = str(tmp_path / "t.ckpt")
    header = {"iteration": 3, "note": "x"}
    tensors = sample_tensors()
    ckpt.save_checkpoint(path, header, tensors)
    h2, t2 = ckpt.load_checkpoint(path)
    assert h2 == header
    assert list(t2) == list(tensors)
    for name, arr in tensors.items():
        assert t2[name].dtype == arr.dtype
        assert np.array_equal(t2[name], arr)


def test_save_load_save_bytewise(tmp_path):
    p1, p2 = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
    ckpt.save_checkpoint(p1, {"k": 1.5, "a": [1, 2]}, sample_tensors())
    h, t = ckpt.load_checkpoint(p1)
    ckpt.save_checkpoint(p2, h, t)
    assert Path(p1).read_bytes() == Path(p2).read_bytes()


def test_header_layout(tmp_path):
    path = str(tmp_path / "t.ckpt")
    ckpt.save_checkpoint(path, {"b": 2, "a": 1}, {})
    raw = Path(path).read_bytes()
    assert raw[:4] == b"OSCK"
    (version,) = struct.unpack("<I", raw[4:8])
    assert version == 1
    (hlen,) = struct.unpack("<I", raw[8:12])
    assert raw[12:12 + hlen] == b'{"a": 1, "b": 2}'  # sorted keys
    (count,) = struct.unpack("<I", raw[12 + hlen:16 + hlen])
    assert count == 0


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(DataError, match="not a checkpoint"):
        ckpt.load_checkpoint(str(path))


def test_truncated_payload_rejected(tmp_path):
    path = str(tmp_path / "t.ckpt")
    ckpt.save_checkpoint(path, {}, sample_tensors())
    raw = Path(path).read_bytes()
    Path(path).write_bytes(raw[:-10])
    with pytest.raises(DataError, match="truncated"):
        ckpt.load_checkpoint(path)


def test_every_truncation_raises_data_error(tmp_path):
    path = str(tmp_path / "t.ckpt")
    ckpt.save_checkpoint(path, {"k": 1}, {"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
    raw = Path(path).read_bytes()
    for cut in range(len(raw)):
        Path(path).write_bytes(raw[:cut])
        with pytest.raises(DataError):
            ckpt.load_checkpoint(path)


def raw_checkpoint(header_blob, records=b"", count=0):
    """Container bytes around an arbitrary header blob and record bytes."""
    return (b"OSCK" + struct.pack("<II", 1, len(header_blob)) + header_blob
            + struct.pack("<I", count) + records)


@pytest.mark.parametrize("blob,records,count,match", [
    (b"\xff\xfe", b"", 0, "malformed header"),
    (b"{not json", b"", 0, "malformed header"),
    (b"[1, 2]", b"", 0, "not a JSON object"),
    (b"{}", struct.pack("<H", 2) + b"\xff\xfe", 1, "not UTF-8"),
    (b"{}", struct.pack("<H", 1) + b"w" + struct.pack("BB", 9, 1), 1, "dtype code"),
    (b"{}", struct.pack("<H", 1) + b"w" + struct.pack("BB", 1, 200), 1, "rank"),
])
def test_malformed_container_raises_data_error(tmp_path, blob, records, count, match):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw_checkpoint(blob, records, count))
    with pytest.raises(DataError, match=match):
        ckpt.load_checkpoint(str(path))


def test_zero_size_extents_beyond_numpy_rejected(tmp_path):
    # zero bytes of payload, but more elements than numpy can index
    path = tmp_path / "zero.ckpt"
    record = struct.pack("<H", 1) + b"w" + struct.pack("<BB4I", 1, 4, 0, *[2**32 - 1] * 3)
    path.write_bytes(raw_checkpoint(b"{}", record, 1))
    with pytest.raises(DataError, match="unsupported extents"):
        ckpt.load_checkpoint(str(path))


def test_oversized_extent_rejected_before_allocating(tmp_path):
    path = tmp_path / "huge.ckpt"
    record = struct.pack("<H", 1) + b"w" + struct.pack("<BBII", 1, 2, 60000, 60000)
    path.write_bytes(raw_checkpoint(b"{}", record, 1))
    assert path.stat().st_size == 31
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match="truncated payload"):
            ckpt.load_checkpoint(str(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class Exploding:
    """An array-like whose conversion fails, as a write failing mid-payload."""

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


def test_failed_write_keeps_previous_checkpoint(tmp_path):
    path = str(tmp_path / "latest.ckpt")
    ckpt.save_checkpoint(path, {"iteration": 1}, sample_tensors())
    before = Path(path).read_bytes()
    tensors = dict(sample_tensors(), zz=Exploding())
    with pytest.raises(OSError, match="no space"):
        ckpt.save_checkpoint(path, {"iteration": 2}, tensors)
    assert Path(path).read_bytes() == before
    header, loaded = ckpt.load_checkpoint(path)
    assert header == {"iteration": 1}
    for name, arr in sample_tensors().items():
        assert np.array_equal(loaded[name], arr)
    assert os.listdir(tmp_path) == ["latest.ckpt"]


def test_check_digest():
    header = {"config_digest": "abc"}
    ckpt.check_digest(header, "abc")
    with pytest.raises(ConfigurationError, match="digest"):
        ckpt.check_digest(header, "def")
    ckpt.check_digest(header, "def", override=True)
