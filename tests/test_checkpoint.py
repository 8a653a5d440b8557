"""Checkpoint container tests: byte layout, round trips, bounded loads,
copy-on-write loads, rejected versions and digest gating; and failed writes
of every file writer."""

import hashlib
import json
import math
import os
import stat
import struct
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from orthoseg import checkpoint as ckpt
from orthoseg import data
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
    header = {"iteration": 3, "note": "x", "tensors": [1]}  # a key of the outer object
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
    w, s = np.arange(6, dtype=np.float32).reshape(2, 3), np.array([0.5])
    ckpt.save_checkpoint(path, {"b": 2, "a": 1}, {"w": w, "s": s})
    raw = Path(path).read_bytes()
    assert raw[:4] == b"OSCK"
    version, length = struct.unpack("<II", raw[4:12])
    assert version == 3
    assert raw[12:12 + length] == (b'{"header": {"a": 1, "b": 2}, '  # sorted keys
                                   b'"tensors": [["w", "<f4", [2, 3]], ["s", "<f8", [1]]]}')
    first, second = payload_offsets(raw)
    assert first == 128 and second == 192  # 12 + 80 bytes of JSON, then 24 of w
    assert raw[first:first + 24] == w.tobytes() and raw[second:] == s.astype("<f8").tobytes()


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


def raw_checkpoint(blob, payload=b"", version=3):
    """Container bytes around an arbitrary JSON blob, zero-padded to a
    multiple of 64 bytes as before a first payload, then ``payload``."""
    raw = b"OSCK" + struct.pack("<II", version, len(blob)) + blob
    return raw + bytes(-len(raw) % 64) + payload


def table(*entries):
    """The JSON blob of an empty header and the tensor table ``entries``."""
    return json.dumps({"header": {}, "tensors": entries}).encode("utf-8")


TABLE = "is not \\[name, dtype, extents\\]"


@pytest.mark.parametrize("blob,match", [
    pytest.param(b"\xff\xfe", "malformed header", id="not-utf8"),
    pytest.param(b'{"header": {}, "tensors": [["\xff", "<f4", [0]]]}', "malformed header",
                 id="name-not-utf8"),
    pytest.param(b"{not json", "malformed header", id="not-json"),
    pytest.param(b"[" * 100_000, "malformed header", id="nested-too-deep"),
    pytest.param(b"[1, 2]", "not a JSON object", id="not-an-object"),
    pytest.param(b'{"header": {}}', "not a JSON object", id="no-table"),
    pytest.param(b'{"header": {}, "tensors": [], "x": 1}', "not a JSON object", id="extra-key"),
    pytest.param(b'{"header": [], "tensors": []}', "not a JSON object", id="header-not-object"),
    pytest.param(b'{"header": {}, "tensors": {}}', "not a JSON object", id="table-not-list"),
    pytest.param(table({"w": 1}), TABLE, id="entry-not-list"),
    pytest.param(table(["w", "<f4"]), TABLE, id="entry-too-short"),
    pytest.param(table([7, "<f4", [1]]), TABLE, id="name-not-string"),
    pytest.param(table(["w", "<f4", 3]), TABLE, id="extents-not-list"),
    pytest.param(table(["w", "<i4", [1]]), "unknown dtype for w", id="dtype"),
    pytest.param(table(["w", ["<f4"], [1]]), "unknown dtype for w", id="dtype-not-string"),
    pytest.param(table(["w", "<f4", [1] * 33]), "rank 33 of w exceeds 32", id="rank"),
    pytest.param(table(["w", "<f4", [-1]]), "extents of w", id="negative-extent"),
    pytest.param(table(["w", "<f4", [True]]), "extents of w", id="bool-extent"),
    pytest.param(table(["w", "<f4", [1.0]]), "extents of w", id="float-extent"),
    pytest.param(table(["w", "<f4", [0]], ["w", "<f8", [0]]), "duplicate tensor name w",
                 id="duplicate-name"),
])
def test_malformed_container_raises_data_error(tmp_path, blob, match):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(raw_checkpoint(blob))
    with pytest.raises(DataError, match=match):
        ckpt.load_checkpoint(str(path))


def test_rank_32_loads(tmp_path):
    path = tmp_path / "rank32.ckpt"
    path.write_bytes(raw_checkpoint(table(["w", "<f4", [1] * 32]), b"\0\0\x80\x3f"))
    _, tensors = ckpt.load_checkpoint(str(path))
    assert tensors["w"].shape == (1,) * 32 and tensors["w"].item() == 1.0


def test_zero_size_extents_beyond_numpy_rejected(tmp_path):
    # zero bytes of payload, but more elements than numpy can index
    path = tmp_path / "zero.ckpt"
    for extents in ([0, 2**32 - 1, 2**32 - 1, 2**32 - 1], [0, 10**30]):
        path.write_bytes(raw_checkpoint(table(["w", "<f4", extents])))
        with pytest.raises(DataError, match="unsupported extents"):
            ckpt.load_checkpoint(str(path))


def test_oversized_extent_rejected_before_allocating(tmp_path):
    path = tmp_path / "huge.ckpt"
    for extents in ([60000, 60000], [10**30]):
        path.write_bytes(raw_checkpoint(table(["w", "<f4", extents])))
        assert path.stat().st_size == 128
        tracemalloc.start()
        try:
            with pytest.raises(DataError, match="truncated payload"):
                ckpt.load_checkpoint(str(path))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class Exploding:
    """A uint8 image-like whose conversion fails, as a write failing
    mid-payload."""

    dtype, shape = np.dtype("u1"), (2, 2, 3)

    def __array__(self, dtype=None, copy=None):
        raise OSError("no space left on device")


# writer -> write(path, fail): with ``fail`` set, the last payload explodes
# after the earlier bytes are written
WRITES = {
    "save_checkpoint": lambda path, fail: ckpt.save_checkpoint(
        path, {"iteration": 1}, dict(sample_tensors(), **({"zz": Exploding()} if fail else {}))),
    "write_mcr": lambda path, fail: data.write_mcr(path, SimpleNamespace(
        channels={"IR": np.full((2, 2), 7, np.uint8),
                  "LABEL": Exploding() if fail else np.zeros((2, 2), np.uint8)},
        height=2, width=2)),
    "write_ppm": lambda path, fail: data.write_ppm(
        path, Exploding() if fail else np.full((2, 2, 3), 9, np.uint8)),
}


@pytest.mark.parametrize("writer", WRITES)
def test_failed_write_keeps_previous_file(tmp_path, writer):
    path = str(tmp_path / "latest")
    WRITES[writer](path, False)
    before = Path(path).read_bytes()
    with pytest.raises(OSError, match="no space"):
        WRITES[writer](path, True)
    assert Path(path).read_bytes() == before
    assert os.listdir(tmp_path) == ["latest"]


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
    """File offset of every payload, walked from the layout alone: the JSON
    table, then each payload after the zero padding to a multiple of 64."""
    (length,) = struct.unpack_from("<I", raw, 8)
    pos, offsets = 12 + length, []
    for _, dtype, shape in json.loads(raw[12:pos])["tensors"]:
        padding = -pos % 64
        assert raw[pos:pos + padding] == bytes(padding)
        pos += padding
        offsets.append(pos)
        pos += math.prod(shape) * np.dtype(dtype).itemsize
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
    # versions 1 (unpadded payloads) and 2 (a binary record table) no longer load
    for version in (1, 2, 4):
        path = tmp_path / f"v{version}.ckpt"
        path.write_bytes(raw_checkpoint(table(), version=version))
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
