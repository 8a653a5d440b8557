"""Smoke test of tools/forward_rss.py at desk widths, in this process."""

import importlib.util
from pathlib import Path

from orthoseg.config import RunConfig

TOOL = Path(__file__).resolve().parents[1] / "tools" / "forward_rss.py"


def test_measure_reports_time_rss_and_digest():
    spec = importlib.util.spec_from_file_location("forward_rss_tool", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    windowed, full = (tool.measure(RunConfig.desk(), 64, w) for w in (True, False))
    for seconds, rss_mb, digest in (windowed, full):
        assert seconds > 0 and rss_mb > 0
        assert len(digest) == 64 and int(digest, 16) >= 0
    # at 64² the desk window, the kept 32² plus its margin, covers the input
    assert windowed[2] == full[2]
