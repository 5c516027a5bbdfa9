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


def test_backend_matrix_figures_match_report(report):
    """The backend-matrix prose quotes the recorded matrix, not an old one."""
    matrix = report["backend_matrix"]
    text = (ROOT / "docs" / "performance.md").read_text()
    backends = matrix["backends"]

    rates = re.findall(
        r"serial\s+([\d.]+)\s+expl/s,\s+thread\s+([\d.]+),\s+process\s+([\d.]+)"
        r"\s+at\s+`workers=(\d+)`",
        text,
    )
    assert rates == [
        (
            f"{backends['serial']['explanations_per_sec']:.3f}",
            f"{backends['thread']['explanations_per_sec']:.3f}",
            f"{backends['process']['explanations_per_sec']:.3f}",
            str(matrix["workers"]),
        )
    ]
    speedups = set(re.findall(r"process\s+([\d.]+)×\s+thread", text))
    assert speedups == {f"{matrix['process_vs_thread_speedup']:.2f}"}

    queries = {row["model_queries"] for row in backends.values()}
    assert len(queries) == 1, f"backends disagree on model_queries: {queries}"
    quoted = set(
        re.findall(r"`model_queries`\s+is\s+identical\s+across\s+the\s+three\s+rows\s+\(([\d,]+)\)", text)
    )
    assert quoted == {f"{queries.pop():,}"}
