"""What the benchmark declares, read from ``BENCHMARK.json``.

``run.py``, ``compare.py`` and ``test_smoke.py`` all take workload names,
metric names, units, directions and bounds from here, so the declaration in
``BENCHMARK.json`` is the only copy.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
BENCHMARK_JSON = ROOT / "BENCHMARK.json"

#: Errors, sheds, timeouts and unresolved tickets over ops attempted.  An
#: absolute limit, checked by run.py on every workload (a share that is
#: normally exactly 0 cannot carry a relative bound in BENCHMARK.json).
FAILED_SHARE_LIMIT = 0.001


def load() -> Dict[str, Any]:
    with open(BENCHMARK_JSON, "r", encoding="utf-8") as handle:
        return json.load(handle)


def workload_names(spec: Dict[str, Any]) -> List[str]:
    return [row["name"] for row in spec["workloads"]]


def units(spec: Dict[str, Any], group: str) -> Dict[str, str]:
    """``{metric name: unit}`` of ``end_to_end`` or ``per_layer``."""
    return {row["name"]: row["unit"] for row in spec[group]}
