"""Smoke test of tools/forward_rss.py at desk widths, in this process."""

import importlib.util
from pathlib import Path

import pytest

from orthoseg.config import RunConfig
from orthoseg.network import Model

TOOL = Path(__file__).resolve().parents[1] / "tools" / "forward_rss.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("forward_rss_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_measure_reports_time_rss_and_digest():
    tool = load_tool()
    windowed, full = (tool.measure(RunConfig.desk(), 64, w) for w in (True, False))
    for seconds, rss_mb, digest, second, minflt, stime in (windowed, full):
        assert seconds > 0 and rss_mb > 0 and second > 0
        assert isinstance(minflt, int) and minflt >= 0 and stime >= 0
        assert len(digest) == 64 and int(digest, 16) >= 0
        assert len(tool._format((seconds, rss_mb, digest, second, minflt, stime))) == 6
    # at 64² the desk window, the kept 32² plus its margin, covers the input
    assert windowed[2] == full[2]


def test_measure_rejects_forwards_that_differ(monkeypatch):
    """A forward whose output changes from call to call is reported."""
    tool, forward, calls = load_tool(), Model.forward, []

    def drifting(self, *args, **kwargs):
        out = forward(self, *args, **kwargs)
        calls.append(None)
        out.data += len(calls)
        return out

    monkeypatch.setattr(Model, "forward", drifting)
    with pytest.raises(RuntimeError, match="second forward"):
        tool.measure(RunConfig.desk(), 32, False)
