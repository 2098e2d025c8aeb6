"""Self-check of the traced run: counts repeat exactly for one seed.

    python3 -m pytest bench/check_counts.py

Two traced runs per workload with the same seed must report identical
``*.calls``, ``raster.Raster.bytes`` and ``raster.io_bytes``; every per-op
count must be the same for every op; each run must report every per-layer
metric of ``BENCHMARK.json``; and the seven layer shares plus
``bench.share`` must sum to 1. The file is not named ``test_*`` so that the
repository's own test run does not start these multi-second benchmark runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=175, check=True,
    )
    *_, report, result = done.stdout.strip().splitlines()
    return json.loads(report)["report"], json.loads(result)


def _counts(traced: dict) -> dict:
    return {
        name: value
        for name, value in traced.items()
        if name.endswith(".calls") or name in ("raster.Raster.bytes", "raster.io_bytes")
    }


@pytest.mark.parametrize("workload", ["wald-256", "wald-1024", "gan-step-64"])
def test_traced_counts_repeat_exactly(workload):
    (report_a, result_a), (report_b, result_b) = (
        _traced_run(workload, 11),
        _traced_run(workload, 11),
    )
    assert result_a["correct"] and result_b["correct"]
    assert _counts(report_a["traced"]) == _counts(report_b["traced"])
    assert report_a["traced"]["calls_vary"] == []

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result_a["metrics"]) == {m["name"] for m in spec["per_layer"]}
    shares = [v["value"] for k, v in result_a["metrics"].items() if k.endswith(".share")]
    assert len(shares) == 8
    assert sum(shares) == pytest.approx(1.0, abs=1e-9)
