"""Flight recorder: a bounded per-process ring of structured wide events.

Every consequential decision on the admission path — admit/reject with the
reject reason, degradation-ladder transitions, two-phase reservation aborts,
WAL append errors, chaos injections — lands here as one structured event.
The ring is cheap enough to leave on (an append into a bounded deque under a
short lock) and small enough to dump whole: on a crash, a degradation
transition, or ``SIGUSR2`` the recorder writes its contents to a JSON file,
turning "the chaos referee failed" into a post-mortem artifact that replays
the exact decision sequence.

Dump files are named ``flight-<pid>-<seq>.json`` inside the configured
directory (``configure_flight_recorder``); ``svc-repro obs dump`` collects
them cluster-wide.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs.instruments import count

__all__ = [
    "FlightRecorder",
    "flight_recorder",
    "configure_flight_recorder",
    "reset_flight_recorder",
]

#: Ring capacity.  512 wide events ≈ the last few seconds of a busy shard —
#: enough to replay the decision sequence leading up to a failure.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Bounded ring of structured events with trigger-driven JSON dumps."""

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._seq = 0
        self._dump_seq = 0
        self.dump_dir: Optional[str] = None
        self.auto_dump = True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record(self, kind: str, **fields: Any) -> None:
        """Append one wide event; never raises (the hot path must not care)."""
        try:
            event = {
                "seq": None,  # assigned under the lock below
                "ts": time.time(),
                "pid": os.getpid(),
                "kind": str(kind),
            }
            event.update(fields)
            with self._lock:
                self._seq += 1
                event["seq"] = self._seq
                self._events.append(event)
            # Best-effort mirror into the metrics registry: the recorder
            # works even when obs is off.
            count("repro_flight_events_total", str(kind))
        except Exception:  # pragma: no cover - defensive, by contract
            pass

    # ------------------------------------------------------------------
    # Inspection and dumping
    # ------------------------------------------------------------------

    def events(self, limit: Optional[int] = None) -> List[Dict[str, Any]]:
        """Current ring contents, oldest first, JSON-serializable."""
        with self._lock:
            events = list(self._events)
        if limit is not None:
            events = events[-limit:]
        return [dict(event) for event in events]

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def dump_to(self, path: str, trigger: str = "manual") -> Dict[str, Any]:
        """Write the ring to ``path`` as one JSON document; returns the payload."""
        payload = {
            "pid": os.getpid(),
            "trigger": trigger,
            "dumped_at": time.time(),
            "capacity": self.capacity,
            "recorded_total": self._seq,
            "events": self.events(),
        }
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        tmp = f"{path}.tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)
        count("repro_flight_dumps_total", str(trigger))
        return payload

    def maybe_dump(self, trigger: str) -> Optional[str]:
        """Dump to the configured directory if one is set; never raises.

        Returns the written path, or ``None`` when no directory is
        configured, auto-dump is disabled, or the write failed.
        """
        if not self.auto_dump or not self.dump_dir:
            return None
        try:
            with self._lock:
                self._dump_seq += 1
                seq = self._dump_seq
            path = os.path.join(self.dump_dir, f"flight-{os.getpid()}-{seq}.json")
            self.dump_to(path, trigger=trigger)
            return path
        except Exception:  # pragma: no cover - dump failure must not cascade
            return None


_RECORDER: Optional[FlightRecorder] = None
_RECORDER_LOCK = threading.Lock()


def flight_recorder() -> FlightRecorder:
    """The process-global recorder (created on first use)."""
    global _RECORDER
    if _RECORDER is None:
        with _RECORDER_LOCK:
            if _RECORDER is None:
                _RECORDER = FlightRecorder()
    return _RECORDER


def configure_flight_recorder(
    dump_dir: Optional[str] = None, auto_dump: Optional[bool] = None
) -> FlightRecorder:
    recorder = flight_recorder()
    if dump_dir is not None:
        recorder.dump_dir = str(dump_dir)
    if auto_dump is not None:
        recorder.auto_dump = bool(auto_dump)
    return recorder


def reset_flight_recorder() -> None:
    """Drop the global recorder (tests only; the next use recreates it)."""
    global _RECORDER
    with _RECORDER_LOCK:
        _RECORDER = None
