"""Binary checkpoint container.

Layout (all integers little-endian):
  magic "OSCK" | u32 format version | u32 header length | header JSON
  (sorted keys) | u32 tensor count | records.
Each record: u16 name length + UTF-8 name | u8 dtype code (1 = f32,
2 = f64) | u8 rank | u32 extents | raw little-endian payload.

The header carries the run-config digest (sha256 of its canonical
serialization), schedule state and RNG state, making save -> load -> save
bytewise stable and training resume bit-exact.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, DataError

MAGIC = b"OSCK"
FORMAT_VERSION = 1

_DTYPES = {1: np.dtype("<f4"), 2: np.dtype("<f8")}
_CODES = {np.dtype("<f4"): 1, np.dtype("<f8"): 2}
_MAX_RANK = 32  # the most dimensions any numpy version allocates


def save_checkpoint(path, header, tensors):
    """``header``: JSON-serializable dict; ``tensors``: name -> float array.

    Writes ``path + ".tmp"``, syncs it to disk and renames it over ``path``,
    so a failed or killed write leaves any previous checkpoint intact."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
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
                f.write(np.ascontiguousarray(arr, dtype=dt).tobytes())
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_checkpoint(path):
    """Returns (header dict, ordered name -> array dict).

    Each payload is read straight into its own array. Every extent is
    checked against the bytes left in the file before anything is
    allocated, so a truncated or malformed file raises ``DataError``."""
    with open(path, "rb") as f:
        left = os.fstat(f.fileno()).st_size

        def read(n, what):
            nonlocal left
            if n > left or len(buf := f.read(n)) != n:
                raise DataError(f"{path}: truncated {what}")
            left -= n
            return buf

        def unpack(fmt, what):
            return struct.unpack(fmt, read(struct.calcsize(fmt), what))

        if read(len(MAGIC), "magic") != MAGIC:
            raise DataError(f"{path}: not a checkpoint file")
        (version,) = unpack("<I", "format version")
        if version != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported format version {version}")
        (hlen,) = unpack("<I", "header length")
        try:
            header = json.loads(read(hlen, "header").decode("utf-8"))
        except ValueError as exc:  # bad UTF-8 or bad JSON
            raise DataError(f"{path}: malformed header: {exc}") from exc
        if not isinstance(header, dict):
            raise DataError(f"{path}: header is not a JSON object")
        (count,) = unpack("<I", "tensor count")
        tensors = {}
        for _ in range(count):
            (nlen,) = unpack("<H", "record")
            try:
                name = read(nlen, "record").decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"{path}: tensor name is not UTF-8") from exc
            code, rank = unpack("BB", f"record {name}")
            if code not in _DTYPES:
                raise DataError(f"{path}: unknown dtype code {code} for {name}")
            if rank > _MAX_RANK:
                raise DataError(f"{path}: rank {rank} of {name} exceeds {_MAX_RANK}")
            if name in tensors:
                raise DataError(f"{path}: duplicate tensor name {name}")
            shape = unpack(f"<{rank}I", f"record {name}")
            dt = _DTYPES[code]
            nbytes = math.prod(shape) * dt.itemsize
            if nbytes > left:
                raise DataError(f"{path}: truncated payload for {name}")
            try:
                arr = np.empty(shape, dtype=dt)
            except ValueError as exc:  # zero-size, yet too many elements to index
                raise DataError(f"{path}: unsupported extents {shape} for {name}") from exc
            if f.readinto(arr) != nbytes:
                raise DataError(f"{path}: truncated payload for {name}")
            left -= nbytes
            tensors[name] = arr
        return header, tensors


def check_digest(header, expected_digest, override=False):
    got = header.get("config_digest")
    if got != expected_digest and not override:
        raise ConfigurationError(
            f"checkpoint config digest {got} does not match run config "
            f"{expected_digest} (pass the override flag to force)")


@dataclass
class ImportReport:
    imported: list = field(default_factory=list)
    skipped: list = field(default_factory=list)  # (name, reason)


def import_weights(params, ckpt_path, name_map=None):
    """Copy shape-compatible parameter tensors from a checkpoint by mapped
    name; skipped entries are reported, not fatal."""
    _, tensors = load_checkpoint(ckpt_path)
    report = ImportReport()
    for key, arr in tensors.items():
        if not key.startswith("param:"):
            continue
        name = key[len("param:"):]
        mapped = name
        if name_map:
            for src, dst in name_map.items():
                if mapped.startswith(src):
                    mapped = dst + mapped[len(src):]
                    break
        if mapped not in params:
            report.skipped.append((name, "no matching parameter"))
            continue
        target = params[mapped]
        if target.data.shape != arr.shape:
            report.skipped.append((name, f"shape {arr.shape} != {target.data.shape}"))
            continue
        target.data[...] = arr.astype(target.data.dtype)
        report.imported.append(mapped)
    return report
