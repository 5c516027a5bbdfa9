"""Headline figures in README and ``docs/performance.md`` match the report.

The recorded benchmark report (``BENCH_query_engine.json``) is the source
of the ratios the prose quotes.  When a re-recording moves them, this test
names the stale sentence instead of letting the docs drift.  The retired
A/B sections (sequential vs batched, the struct-of-arrays Γ engine, the
encoded pipeline) are no longer re-recorded; their prose is checked
against the frozen numbers so an edit to either side shows up.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
PERFORMANCE = ROOT / "docs" / "performance.md"
DOCS = [ROOT / "README.md", PERFORMANCE]


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


def _section(heading: str) -> str:
    """One ``## `` section of ``docs/performance.md``, heading included."""
    text = PERFORMANCE.read_text()
    start = text.index(f"## {heading}\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


def _table_rows(text: str) -> list:
    """Every markdown table row in ``text`` as a list of stripped cells."""
    return [
        [cell.strip() for cell in line.strip().strip("|").split("|")]
        for line in text.splitlines()
        if line.lstrip().startswith("|")
    ]


def _thousands(value: float) -> str:
    """``13373.6`` -> ``"13 374"``, the docs' thousands style."""
    return f"{round(value):,}".replace(",", " ")


def test_sequential_batched_table_matches_report(report):
    text = _section("Measured results")
    rows = _table_rows(text)
    for mode in ("sequential", "batched"):
        lane = report[mode]
        assert [
            mode,
            f"{lane['seconds']:.2f} s",
            f"{lane['explanations_per_sec']:.3f}",
            _thousands(lane["queries_per_sec"]),
            f"{lane['cache_hit_rate']:.1%}".replace("%", " %"),
        ] in rows, mode
    assert re.findall(r"\*\*([\d.]+)× explanations/sec\*\*", text) == [
        f"{report['explanations_per_sec_speedup']:.2f}"
    ]
    assert re.findall(r"shows\s+\*\*([\d.]+)×\*\*\s+for `predict_batch`", text) == [
        f"{report['model_microbench']['model_speedup']:.1f}"
    ]


def test_soa_engine_figures_match_report(report):
    """PR 9: 2.55 -> 4.34 expl/s (1.70x) and the per-engine Γ rates."""
    soa = report["soa_engine"]
    # Frozen key order: reference oracle, pre-SoA engine, wave engine.
    rates = soa["gamma_perturbations_per_sec"]
    reference_rate, pre_soa_rate, wave_rate = rates.values()
    text = _section("The struct-of-arrays Γ engine (PR 9)")
    rows = _table_rows(text)
    assert ["reference scalar oracle", "—", _thousands(reference_rate)] in rows
    assert [
        "pre-SoA baseline (pre-SoA Γ + numpy kernel)",
        f"{soa['baseline_pre_soa']['explanations_per_sec']:.2f}",
        _thousands(pre_soa_rate),
    ] in rows
    assert [
        "SoA defaults",
        f"{soa['soa']['explanations_per_sec']:.2f}",
        _thousands(wave_rate),
    ] in rows
    assert re.findall(r"explanations/sec is \*\*([\d.]+)×\*\*", text) == [
        f"{soa['explanations_per_sec_speedup']:.2f}"
    ]
    assert re.findall(r"\*\*([\d.]+)× perturbations/sec", text) == [
        f"{wave_rate / pre_soa_rate:.1f}"
    ]
    assert re.findall(r"\(([\d.]+)× over the scalar oracle\)", text) == [
        f"{wave_rate / reference_rate:.1f}"
    ]


def test_encoded_pipeline_figures_match_report(report):
    """PR 10: 1.52x on the analytical model, 1.27x on Ithemal."""
    encoded = report["encoded_pipeline"]
    analytical, ithemal = encoded["analytical"], encoded["ithemal"]
    text = _section("The columnar encoded pipeline (PR 10)")
    rows = _table_rows(text)
    for lane, label in (
        ("pr9_baseline", "`pr9_baseline` (materialised, no bound memo)"),
        ("materialized", "`materialized` (+ bound memo)"),
        ("encoded", "`encoded` (+ bound memo)"),
    ):
        assert [
            label,
            f"{analytical[lane]['explanations_per_sec']:.2f}",
            f"{ithemal[lane]['explanations_per_sec']:.2f}",
        ] in rows, lane
    assert re.findall(r"`pr9_baseline` it is\s+\*\*([\d.]+)×\*\*", text) == [
        f"{analytical['encoded_vs_pr9']:.2f}"
    ]
    assert re.findall(r"\*\*([\d.]+)×\*\*\s+end-to-end on the neural model", text) == [
        f"{ithemal['encoded_vs_pr9']:.2f}"
    ]
