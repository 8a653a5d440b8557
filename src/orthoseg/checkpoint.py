"""Binary checkpoint container, format version 2.

Layout (all integers little-endian):
  magic "OSCK" | u32 format version | u32 header length | header JSON
  (sorted keys) | u32 tensor count | records.
Each record: u16 name length + UTF-8 name | u8 dtype code (1 = f32,
2 = f64) | u8 rank | u32 extents | zero padding | raw little-endian payload.
The padding (0 to 63 zero bytes) starts every payload at a multiple of 64
bytes from the start of the file. Only version 2 loads.

``load_checkpoint`` maps the file copy-on-write and returns each payload as
a view of the mapping. A page is read from disk only when it is first
touched, so a caller that uses only the parameters never reads the
velocities, and a write to a loaded array goes to a private page of this
process, never to the file. ``save_checkpoint`` writes through
``data.replace_file``, so arrays loaded before a save keep their values;
only another program rewriting the file in place could cause SIGBUS.

The header carries the run-config digest (sha256 of its canonical
serialization), schedule state and RNG state, making save -> load -> save
bytewise stable and training resume bit-exact.
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .data import MappedFile, replace_file
from .errors import ConfigurationError, DataError

MAGIC = b"OSCK"
FORMAT_VERSION = 2
_ALIGN = 64  # payload alignment

_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_MAX_RANK = 32  # the most dimensions any numpy version allocates


def save_checkpoint(path, header, tensors):
    """``header``: JSON-serializable dict; ``tensors``: name -> float array.

    Writes through ``data.replace_file``, so a failed or killed write leaves
    any previous checkpoint intact and a finished one survives a crash."""
    with replace_file(path) as f:
        f.write(MAGIC)
        f.write(struct.pack("<I", FORMAT_VERSION))
        blob = json.dumps(header, sort_keys=True).encode("utf-8")
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(tensors)))
        for name, arr in tensors.items():
            arr = np.asarray(arr)
            dt = np.dtype("<f8") if arr.dtype == np.float64 else np.dtype("<f4")
            nb = name.encode("utf-8")
            f.write(struct.pack("<H", len(nb)))
            f.write(nb)
            f.write(struct.pack("BB", _CODES[dt], arr.ndim))
            f.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
            f.write(bytes(-f.tell() % _ALIGN))
            f.write(np.ascontiguousarray(arr, dtype=dt))


def load_checkpoint(path):
    """Returns (header dict, ordered name -> array dict).

    The header and record table are parsed from one ``data.MappedFile``,
    with every extent checked against the file size, so a truncated or
    malformed file raises ``DataError`` before any payload is touched. The
    payloads are writable views of the mapping."""
    f = MappedFile(path)
    if f.unpack("4s", "magic")[0] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    (version,) = f.unpack("<I", "format version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    (hlen,) = f.unpack("<I", "header length")
    try:
        header = json.loads(f.bytes(hlen, "header").decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or bad JSON
        raise DataError(f"{path}: malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"{path}: header is not a JSON object")
    (count,) = f.unpack("<I", "tensor count")
    tensors = {}
    for _ in range(count):
        (nlen,) = f.unpack("<H", "record")
        try:
            name = f.bytes(nlen, "record").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: tensor name is not UTF-8") from exc
        code, rank = f.unpack("BB", f"record {name}")
        if code not in _DTYPES:
            raise DataError(f"{path}: unknown dtype code {code} for {name}")
        if rank > _MAX_RANK:
            raise DataError(f"{path}: rank {rank} of {name} exceeds {_MAX_RANK}")
        if name in tensors:
            raise DataError(f"{path}: duplicate tensor name {name}")
        shape = f.unpack(f"<{rank}I", f"record {name}")
        padding = f.bytes(-f.pos % _ALIGN, f"padding for {name}")
        if padding.count(0) != len(padding):
            raise DataError(f"{path}: non-zero padding before {name}")
        tensors[name] = f.array(_DTYPES[code], shape, f"payload for {name}")
    return header, tensors


def check_digest(header, expected_digest, override=False):
    """Raises unless ``header`` was saved under the run config whose digest
    is ``expected_digest``, or ``override`` is set: ``DataError`` when the
    header holds no digest string (a fault of the file), and
    ``ConfigurationError`` when it holds another config's digest."""
    if override:
        return
    got = header.get("config_digest")
    if not isinstance(got, str):
        raise DataError(f"checkpoint header holds no config digest string, but {got!r} "
                        "(pass the override flag to force)")
    if got != expected_digest:
        raise ConfigurationError(
            f"checkpoint config digest {got} does not match run config "
            f"{expected_digest} (pass the override flag to force)")
