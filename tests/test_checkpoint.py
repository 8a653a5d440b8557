"""Checkpoint container tests: byte layout, round trips, bounded loads,
copy-on-write loads, rejected versions and digest gating."""

import hashlib
import os
import stat
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
    assert version == 2
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


def raw_checkpoint(header_blob, records=b"", count=0, version=2):
    """Container bytes around an arbitrary header blob and record bytes,
    zero-padded to a multiple of 64 bytes, as before a payload that follows
    the records."""
    raw = (b"OSCK" + struct.pack("<II", version, len(header_blob)) + header_blob
           + struct.pack("<I", count) + records)
    return raw + bytes(-len(raw) % 64)


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
    assert path.stat().st_size == 64
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


@pytest.mark.parametrize("header", [{}, {"config_digest": None}, {"config_digest": 7}],
                         ids=["missing", "null", "number"])
def test_check_digest_without_digest_string_is_data_error(header):
    with pytest.raises(DataError, match="no config digest"):
        ckpt.check_digest(header, "abc")
    ckpt.check_digest(header, "abc", override=True)


def payload_offsets(raw):
    """File offset of every payload, walked from the layout alone."""
    (hlen,) = struct.unpack_from("<I", raw, 8)
    (count,) = struct.unpack_from("<I", raw, 12 + hlen)
    pos, offsets = 16 + hlen, []
    for _ in range(count):
        (nlen,) = struct.unpack_from("<H", raw, pos)
        code, rank = struct.unpack_from("BB", raw, pos + 2 + nlen)
        shape = struct.unpack_from(f"<{rank}I", raw, pos + 4 + nlen)
        pos += 4 + nlen + 4 * rank
        padding = -pos % 64
        assert raw[pos:pos + padding] == bytes(padding)
        pos += padding
        offsets.append(pos)
        pos += int(np.prod(shape)) * (8 if code == 2 else 4)
    assert pos == len(raw)
    return offsets


def test_payloads_start_at_multiples_of_64(tmp_path):
    path = tmp_path / "t.ckpt"
    tensors = dict(sample_tensors(), empty=np.zeros((0, 3), dtype=np.float32),
                   odd=np.ones(3, dtype=np.float32))
    ckpt.save_checkpoint(str(path), {"k": "odd length"}, tensors)
    offsets = payload_offsets(path.read_bytes())
    assert len(offsets) == len(tensors)
    assert all(offset % 64 == 0 for offset in offsets)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_loaded_arrays_are_aligned_writable_views(tmp_path):
    path = str(tmp_path / "t.ckpt")
    ckpt.save_checkpoint(path, {}, sample_tensors())
    _, loaded = ckpt.load_checkpoint(path)
    for name, arr in loaded.items():
        assert arr.flags.aligned and arr.flags.writeable, name
        assert not arr.flags.owndata, name
        assert arr.ctypes.data % 64 == 0, name


def test_write_to_loaded_array_leaves_file_unchanged(tmp_path):
    path = str(tmp_path / "t.ckpt")
    ckpt.save_checkpoint(path, {}, sample_tensors())
    before = sha256(path)
    _, loaded = ckpt.load_checkpoint(path)
    loaded["param:a.weight"] += 1.0
    loaded["stats"][:] = 0.0
    del loaded
    assert sha256(path) == before
    _, again = ckpt.load_checkpoint(path)
    for name, arr in sample_tensors().items():
        assert np.array_equal(again[name], arr)


def test_save_over_loaded_path_keeps_loaded_values(tmp_path):
    path = str(tmp_path / "latest.ckpt")
    ckpt.save_checkpoint(path, {}, sample_tensors())
    _, loaded = ckpt.load_checkpoint(path)
    ckpt.save_checkpoint(path, {}, {name: arr + 1.0 for name, arr in sample_tensors().items()})
    for name, arr in sample_tensors().items():
        assert np.array_equal(loaded[name], arr)
    _, fresh = ckpt.load_checkpoint(path)
    assert np.array_equal(fresh["stats"], sample_tensors()["stats"] + 1.0)


def test_unknown_version_rejected(tmp_path):
    # version 1, whose payloads were not padded, no longer loads either
    for version in (1, 3):
        path = tmp_path / f"v{version}.ckpt"
        path.write_bytes(raw_checkpoint(b"{}", version=version))
        with pytest.raises(DataError, match=f"unsupported format version {version}"):
            ckpt.load_checkpoint(str(path))


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(b"")
    with pytest.raises(DataError, match="truncated magic"):
        ckpt.load_checkpoint(str(path))


def test_nonzero_padding_rejected(tmp_path):
    path = tmp_path / "t.ckpt"
    ckpt.save_checkpoint(str(path), {}, {"w": np.ones(3, dtype=np.float32)})
    raw = bytearray(path.read_bytes())
    (offset,) = payload_offsets(bytes(raw))
    raw[offset - 1] = 1
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="non-zero padding before w"):
        ckpt.load_checkpoint(str(path))


def test_save_syncs_directory_after_rename(tmp_path, monkeypatch):
    path = tmp_path / "latest.ckpt"
    synced = []
    fsync = os.fsync

    def spy(fd):
        synced.append((stat.S_ISDIR(os.fstat(fd).st_mode), os.fstat(fd).st_ino,
                       path.exists(), os.path.exists(f"{path}.tmp")))
        fsync(fd)

    monkeypatch.setattr(os, "fsync", spy)
    ckpt.save_checkpoint(str(path), {}, sample_tensors())
    assert len(synced) == 2
    assert synced[0][0] is False  # the file's data, before the rename
    # then the directory, after the rename replaced the temporary file
    assert synced[1] == (True, tmp_path.stat().st_ino, True, False)
