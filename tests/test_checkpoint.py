"""Checkpoint container tests: byte layout, round trips, digest gating and
partial weight import."""

import os
import struct
import tracemalloc

import numpy as np
import pytest

from orthoseg import checkpoint as ckpt
from orthoseg.config import RunConfig
from orthoseg.errors import ConfigurationError, DataError
from orthoseg.network import Model


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
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_header_layout(tmp_path):
    path = str(tmp_path / "t.ckpt")
    ckpt.save_checkpoint(path, {"b": 2, "a": 1}, {})
    raw = open(path, "rb").read()
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
    raw = open(path, "rb").read()
    open(path, "wb").write(raw[:-10])
    with pytest.raises(DataError, match="truncated"):
        ckpt.load_checkpoint(path)


def test_every_truncation_raises_data_error(tmp_path):
    path = str(tmp_path / "t.ckpt")
    ckpt.save_checkpoint(path, {"k": 1}, {"w": np.arange(6, dtype=np.float32).reshape(2, 3)})
    raw = open(path, "rb").read()
    for cut in range(len(raw)):
        open(path, "wb").write(raw[:cut])
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
    before = open(path, "rb").read()
    tensors = dict(sample_tensors(), zz=Exploding())
    with pytest.raises(OSError, match="no space"):
        ckpt.save_checkpoint(path, {"iteration": 2}, tensors)
    assert open(path, "rb").read() == before
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


def test_import_weights_round_trip(tmp_path):
    cfg = RunConfig.desk()
    src = Model.build(cfg.network_config(), seed=1)
    path = str(tmp_path / "w.ckpt")
    ckpt.save_checkpoint(path, {}, {f"param:{n}": t.data for n, t in src.params.items()})

    dst = Model.build(cfg.network_config(), seed=2)
    report = ckpt.import_weights(dst.params, path)
    assert not report.skipped
    assert sorted(report.imported) == sorted(src.params.names())
    for name, t in src.params.items():
        assert np.array_equal(dst.params[name].data, t.data)


def test_import_weights_reports_skips(tmp_path):
    cfg = RunConfig.desk()
    src = Model.build(cfg.network_config(), seed=1)
    path = str(tmp_path / "w.ckpt")
    tensors = {f"param:{n}": t.data for n, t in src.params.items()}
    tensors["param:extra.weight"] = np.zeros((1,), dtype=np.float32)
    ckpt.save_checkpoint(path, {}, tensors)

    narrow = RunConfig.desk(decoder_filters=16)
    dst = Model.build(narrow.network_config(), seed=2)
    report = ckpt.import_weights(dst.params, path)
    skipped = dict(report.skipped)
    assert "extra.weight" in skipped
    assert any("shape" in reason for reason in skipped.values())
    # encoder shapes are unchanged, so those still import
    assert "encoder.primary.block3.conv1.weight" in report.imported


def test_import_weights_name_map(tmp_path):
    path = str(tmp_path / "w.ckpt")
    arr = np.full((2, 2), 7.0, dtype=np.float32)
    ckpt.save_checkpoint(path, {}, {"param:old.layer.weight": arr})

    cfg = RunConfig.desk()
    dst = Model.build(cfg.network_config(), seed=0)

    class FakeParams(dict):
        def __contains__(self, k):
            return dict.__contains__(self, k)

    from orthoseg.autodiff import Tensor
    params = FakeParams()
    params["new.layer.weight"] = Tensor(np.zeros((2, 2), dtype=np.float32))
    report = ckpt.import_weights(params, path, name_map={"old.": "new."})
    assert report.imported == ["new.layer.weight"]
    assert np.array_equal(params["new.layer.weight"].data, arr)
