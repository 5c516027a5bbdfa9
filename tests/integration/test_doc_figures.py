"""Headline figures in README and ``docs/performance.md`` match the report.

The recorded benchmark report (``BENCH_query_engine.json``) is the source
of the fused-serving and warm-result-cache ratios the prose quotes.  When a
re-recording moves them, this test names the stale sentence instead of
letting the docs drift.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
DOCS = [ROOT / "README.md", ROOT / "docs" / "performance.md"]


@pytest.fixture(scope="module")
def report():
    return json.loads((ROOT / "BENCH_query_engine.json").read_text())


def _figures(text: str) -> dict:
    """The three headline ratios as written in one document."""
    patterns = {
        "fused_4": r"([\d.]+)×\**\s+requests/sec\s+at\s+4\s+outstanding",
        "fused_8": r"([\d.]+)×\**\s+at\s+8\s+outstanding",
        "warm_hit": r"([\d,]+)×\s+requests/sec\s+for\s+a\s+warm\s+hit",
    }
    found = {}
    for name, pattern in patterns.items():
        matches = set(re.findall(pattern, text))
        assert len(matches) == 1, f"{name}: expected one figure, found {matches}"
        found[name] = matches.pop()
    return found


@pytest.mark.parametrize("doc", DOCS, ids=lambda path: path.name)
def test_headline_ratios_match_report(doc, report):
    fusion = report["continuous_batching"]["outstanding"]
    expected = {
        "fused_4": f"{fusion['4']['fused_vs_unfused']:.2f}",
        "fused_8": f"{fusion['8']['fused_vs_unfused']:.2f}",
        "warm_hit": f"{round(report['result_cache']['warm_vs_disabled_speedup']):,}",
    }
    assert _figures(doc.read_text()) == expected
