"""Warnings are errors in every test module except the acceptance criteria,
whose file is fixed with the criteria themselves. ``v1_checkpoint`` builds
checkpoint files of format version 1 by hand."""

import json
import struct

import numpy as np
import pytest


def pytest_collection_modifyitems(items):
    for item in items:
        if item.path.name != "test_acceptance.py":
            item.add_marker(pytest.mark.filterwarnings("error"))


def _v1_checkpoint(header, tensors):
    """Bytes of a version 1 checkpoint: records without payload padding."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    out = [b"OSCK", struct.pack("<II", 1, len(blob)), blob, struct.pack("<I", len(tensors))]
    for name, arr in tensors.items():
        code = 2 if arr.dtype == np.float64 else 1
        out += [struct.pack("<H", len(name.encode("utf-8"))), name.encode("utf-8"),
                struct.pack(f"<BB{arr.ndim}I", code, arr.ndim, *arr.shape),
                np.ascontiguousarray(arr, dtype="<f8" if code == 2 else "<f4").tobytes()]
    return b"".join(out)


@pytest.fixture(scope="session")
def v1_checkpoint():
    """``(header, tensors) -> bytes`` of a version 1 checkpoint file."""
    return _v1_checkpoint
