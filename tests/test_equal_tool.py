"""Smoke test of tools/equal.py: its probes run on this tree alone."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "equal.py"


@pytest.fixture(scope="module")
def equal():
    spec = importlib.util.spec_from_file_location("equal_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_probes_run_and_compare_equal_to_themselves(equal, tmp_path):
    out = equal.run_probes(str(tmp_path))
    for name, a in out.items():
        assert a.size and np.isfinite(a).all(), name
    probes = equal.by_probe(out)
    assert {"desk_forward_32", "desk_grads", "desk_stitch_150", "train30_params",
            "train30_losses", "train30_checkpoint_header", "train30_checkpoint",
            "paper_forward_128", "paper_windowed_256", "io_roundtrip"} <= probes.keys()
    assert "desk_grads/sccb.conv1.weight" in probes["desk_grads"]
    assert "train30_checkpoint/param:sccb.conv1.weight" in probes["train30_checkpoint"]
    assert probes["io_roundtrip"].keys() == {f"io_roundtrip/{role}" for role in
                                             ("IR", "R", "G", "B", "DSM", "LABEL", "pixels")}
    for name, arrays in probes.items():
        assert equal.compare(arrays, {k: a.copy() for k, a in arrays.items()}) == "equal", name


def test_compare_reports_differences(equal):
    a = np.array([1.0, 2.0, np.nan, 4.0], dtype=np.float32)
    b = a.copy()
    b[1] = 2.5
    # relative to the tensor's largest magnitude, 4, not to the entry
    assert equal.compare({"x": a}, {"x": b}) == "max abs 0.5, max rel 0.125, 1 of 4 differ"
    small, moved = np.array([[1e-3, 0.0], [1e-3, 1e-4]], dtype=np.float32)
    assert equal.compare({"p/a": a, "p/b": small}, {"p/a": a, "p/b": moved}) == (
        "max abs 0.0001, max rel 0.1, 1 of 6 differ")
    assert equal.compare({"x": a}, {"x": a[:3]}) == "shapes differ: (4,) vs (3,)"
    raw = np.zeros(8, dtype=np.uint8)
    assert equal.compare({"x": raw}, {"x": raw + np.arange(8, dtype=np.uint8) % 2}) == (
        "4 of 8 bytes differ")
