"""Where a result came from, and the layer table in readable form."""

from __future__ import annotations

import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List

from measure import CPUS
from spec import ROOT

#: The benchmark's own outputs: rewritten by every run, so they do not make
#: the measured tree "dirty".
OWN_OUTPUTS = (
    "benchmarks/e2e/history.jsonl",
    "benchmarks/e2e/results",
    "benchmarks/e2e/LAYERS.md",
)


def _git(*args: str) -> str:
    try:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30, check=True
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""  # an exported tree has no history to ask


def _cpu_model() -> str:
    with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def _filesystem(path: Path) -> str:
    """Type of the filesystem the journals are written to."""
    best, kind = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts", "r", encoding="utf-8") as handle:
        for line in handle:
            _device, mount, fstype = line.split()[:3]
            if target.startswith(mount) and len(mount) > len(best):
                best, kind = mount, fstype
    return kind


def provenance(seed: int, seconds: int, journal_root: Path) -> Dict[str, Any]:
    import numpy

    commit = _git("rev-parse", "HEAD")
    excludes = [f":(exclude){path}" for path in OWN_OUTPUTS]
    return {
        "git_commit": commit or None,
        "git_dirty": bool(_git("status", "--porcelain", "--", ".", *excludes)) if commit else None,
        # Whether the program under test, not just the benchmark, differs
        # from the commit.
        "git_dirty_src": bool(_git("status", "--porcelain", "--", "src")) if commit else None,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "nproc": len(CPUS),
        "cpu_model": _cpu_model(),
        "journal_filesystem": _filesystem(journal_root.parent),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "seed": seed,
        "seconds": seconds,
    }


def history_line(payload: Dict[str, Any]) -> Dict[str, Any]:
    """One trajectory point: provenance and every end-to-end value."""
    return {
        **payload["provenance"],
        "workloads": {
            name: {
                "correct": result["correct"],
                "decision_digest": result["decision_digest"],
                **{metric: row["value"] for metric, row in result["end_to_end"].items()},
            }
            for name, result in payload["workloads"].items()
        },
    }


def layers_markdown(payload: Dict[str, Any]) -> str:
    """Per workload: self time per operation of every layer, largest first."""
    stamp = payload["provenance"]
    lines: List[str] = [
        "# Where a request's milliseconds go",
        "",
        f"Commit `{stamp['git_commit']}` (dirty: {stamp['git_dirty']}), seed {stamp['seed']}, "
        f"{stamp['nproc']} x {stamp['cpu_model']}, journal on {stamp['journal_filesystem']}.",
        "Read README.md, section \"Reading LAYERS.md\", for what the rows mean.",
    ]
    for name, result in payload["workloads"].items():
        table = result["layer_table"]
        if not table:
            continue
        layers = result["per_layer"]
        rtt = 1000.0 * result["clients"] / result["end_to_end"]["ops_per_s"]["value"]
        traced = sum(ms for _layer, ms in table)
        allocator = sum(ms for layer, ms in table if layer.startswith("allocation."))
        lines += [
            "",
            f"## {name}",
            "",
            f"Timed run: {rtt:.3f} ms per operation "
            f"(clients / ops_per_s).  Rows below: {traced:.3f} ms per operation; "
            f"the allocator rows are {100.0 * allocator / traced:.1f}% of it.  "
            f"`trace.unattributed_share` {layers['trace.unattributed_share']:+.3f}, "
            f"`trace.overhead_share` {layers['trace.overhead_share']:+.3f}.",
            "",
            "| layer (self time) | ms per op | share |",
            "|---|---:|---:|",
        ]
        lines += [
            f"| {layer} | {ms:.4f} | {100.0 * ms / traced:.1f}% |" for layer, ms in table
        ]
    return "\n".join(lines) + "\n"
