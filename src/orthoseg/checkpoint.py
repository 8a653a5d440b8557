"""Binary checkpoint container, format version 3.

Layout: magic "OSCK" | u32 LE format version | u32 LE length n | n bytes of
UTF-8 JSON with sorted keys, ``{"header": {...}, "tensors": [[name, dtype,
[extents...]], ...]}`` with dtype "<f4" or "<f8" | each tensor's raw
little-endian payload in table order. Zero padding (0 to 63 bytes) before
each payload starts it at a multiple of 64 bytes from the start of the file,
so the offsets follow from the table and are not stored. Only version 3
loads.

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
FORMAT_VERSION = 3
_ALIGN = 64  # payload alignment

_DTYPES = {"<f4": np.dtype("<f4"), "<f8": np.dtype("<f8")}
_MAX_RANK = 32  # the most dimensions any numpy version allocates


def save_checkpoint(path, header, tensors):
    """``header``: JSON-serializable dict; ``tensors``: name -> float array.

    Writes through ``data.replace_file``, so a failed or killed write leaves
    any previous checkpoint intact and a finished one survives a crash."""
    with replace_file(path) as f:
        table = [[name, "<f8" if arr.dtype == np.float64 else "<f4", list(arr.shape)]
                 for name, arr in tensors.items()]
        blob = json.dumps({"header": header, "tensors": table}, sort_keys=True).encode("utf-8")
        f.write(MAGIC + struct.pack("<II", FORMAT_VERSION, len(blob)) + blob)
        for (_, dtype, _), arr in zip(table, tensors.values()):
            f.write(bytes(-f.tell() % _ALIGN))
            f.write(np.ascontiguousarray(arr, dtype=dtype))


def load_checkpoint(path):
    """Returns (header dict, ordered name -> array dict).

    The JSON and its tensor table are parsed from one ``data.MappedFile``,
    with every extent checked against the file size, so a truncated or
    malformed file raises ``DataError`` before any payload is touched. The
    payloads are writable views of the mapping."""
    f = MappedFile(path)
    if f.unpack("4s", "magic")[0] != MAGIC:
        raise DataError(f"{path}: not a checkpoint file")
    (version,) = f.unpack("<I", "format version")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported format version {version}")
    (length,) = f.unpack("<I", "header length")
    try:
        doc = json.loads(f.bytes(length, "header").decode("utf-8"))
    except (ValueError, RecursionError) as exc:  # bad UTF-8, bad or too deep JSON
        raise DataError(f"{path}: malformed header: {exc}") from exc
    if not (isinstance(doc, dict) and doc.keys() == {"header", "tensors"}
            and isinstance(doc["header"], dict) and isinstance(doc["tensors"], list)):
        raise DataError(f"{path}: header is not a JSON object of a header object "
                        "and a tensors list")
    tensors = {}
    for index, entry in enumerate(doc["tensors"]):
        if not (isinstance(entry, list) and len(entry) == 3 and isinstance(entry[0], str)
                and isinstance(entry[2], list)):
            raise DataError(f"{path}: tensor table entry {index} is not [name, dtype, extents]")
        name, dtype, shape = entry
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise DataError(f"{path}: unknown dtype for {name}")
        if len(shape) > _MAX_RANK:
            raise DataError(f"{path}: rank {len(shape)} of {name} exceeds {_MAX_RANK}")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise DataError(f"{path}: extents of {name} are not non-negative integers")
        if name in tensors:
            raise DataError(f"{path}: duplicate tensor name {name}")
        padding = f.bytes(-f.pos % _ALIGN, f"padding for {name}")
        if padding.count(0) != len(padding):
            raise DataError(f"{path}: non-zero padding before {name}")
        tensors[name] = f.array(_DTYPES[dtype], shape, f"payload for {name}")
    return doc["header"], tensors


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
