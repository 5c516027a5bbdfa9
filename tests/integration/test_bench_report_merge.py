"""``benchmarks/bench_query_engine.py`` never drops recorded sections.

Sections retired from the benchmark (their A/B lanes compared engines the
library no longer ships) survive only as numbers in the report.  Every run
merges into an existing report, so those numbers — and each kept
section's ``cpus`` stamp — outlive any re-recording.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def test_run_keeps_retired_sections(tmp_path):
    retired = {"blocks": 12, "soa": {"explanations_per_sec": 4.3432}, "cpus": 1}
    report = tmp_path / "report.json"
    report.write_text(
        json.dumps({"soa_engine": retired, "explanations_per_sec_speedup": 6.46})
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [
            sys.executable,
            str(ROOT / "benchmarks" / "bench_query_engine.py"),
            "--quick",
            "--only",
            "socket",
            "--output",
            str(report),
        ],
        check=True,
        capture_output=True,
        env=env,
        timeout=120,
    )
    merged = json.loads(report.read_text())
    assert merged["soa_engine"] == retired
    assert merged["explanations_per_sec_speedup"] == 6.46
    assert merged["service_socket"]["cpus"] == (os.cpu_count() or 1)
