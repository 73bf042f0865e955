"""Smoke test of the benchmark itself; run by path, not collected by Tier-1:

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_smoke.py

Runs the whole suite in ``--quick`` mode and checks that what it emits is what
``BENCHMARK.json`` declares.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import spec as declared

RUN = Path(__file__).resolve().parent / "run.py"


def test_quick_suite_emits_what_is_declared(tmp_path):
    spec = declared.load()
    out = tmp_path / "quick.json"
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, str(RUN), "--quick", "--out", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    elapsed = time.monotonic() - started
    assert done.returncode == 0, done.stdout[-4000:] + done.stderr[-4000:]
    with open(out, "r", encoding="utf-8") as handle:
        result = json.load(handle)

    assert sorted(result["workloads"]) == sorted(declared.workload_names(spec))
    end_to_end = set(declared.units(spec, "end_to_end"))
    per_layer = set(declared.units(spec, "per_layer"))
    for name, run in result["workloads"].items():
        assert set(run["end_to_end"]) == end_to_end, name
        assert set(run["per_layer"]) == per_layer, name
        for metric, row in run["end_to_end"].items():
            assert math.isfinite(row["value"]) and row["value"] > 0.0, (name, metric)
        for metric, value in run["per_layer"].items():
            assert math.isfinite(value), (name, metric)
        failed = [check for check in run["checks"] if not check[1]]
        assert not failed, (name, failed)
        # Every row is printed by name, with its unit.
        for metric in end_to_end | per_layer:
            assert f"{name} {metric} " in done.stdout, (name, metric)
    assert result["provenance"]["seed"] == 0
    assert elapsed < 60.0, f"--quick took {elapsed:.0f} s"
