"""Write-ahead journal and snapshot store for the admission service.

Layout of a durability directory::

    <dir>/wal.jsonl             append-only journal, one JSON record per line
    <dir>/snapshot-<seq>.json   periodic full-state snapshots

Journal records carry a monotonically increasing ``seq`` and an operation:
``admit`` (with the full serialized allocation, so replay re-commits
exactly what the live manager committed), ``release`` (by request id),
``reject`` (counter only — rejections never touch link state) and
``resize`` (accepted outcomes carry the post-resize allocation; replay
swaps it in for the old one).

Durability model: each record is written as a single ``write`` of one line
and flushed; with ``fsync=True`` it is also fsynced before the append call
returns.  A crash can therefore leave at most one torn line at the tail of
the file.  :meth:`Journal.replay` detects that (undecodable JSON or a
non-monotonic ``seq``) and stops at the last intact prefix — the recovery
semantics are "restore the longest consistent prefix of acknowledged
operations".

Snapshots bound replay work: recovery loads the newest decodable snapshot
the intact prefix covers (``next_seq - 1`` after the open) and applies only
journal records with ``seq`` greater than the snapshot's.  It still decodes
the whole file once after the open, to index idempotency keys.  The journal
is never truncated here (compaction is an operator concern); replay from
seq 0 must always reproduce the same state, which is what the oracle-replay
tests exercise.

Failure handling: a failed append (I/O error, failed fsync, torn write)
leaves bytes past the last known-good offset that can no longer be
trusted, because a record whose append raised was never acknowledged and
must not reappear on replay.  The append truncates back to the good offset
before it raises (and marks the tail *dirty* for the next append to repair
if that truncate itself fails), so while the process lives the on-disk
journal equals the sequence of successfully acknowledged appends.  A
process that dies inside the append truncates nothing: reopening trims a
torn line, but a complete line whose fsync never returned is kept — it
cannot be told from an acknowledged record.  The compiled
failpoints ``journal.write`` (error/crash/corrupt — corrupt writes a torn
half-line), ``journal.fsync`` (error before the fsync call) and
``snapshot.write`` (error, or corrupt = a truncated snapshot file) let the
chaos harness drive exactly these paths; see :mod:`repro.faults`.
"""

from __future__ import annotations

import json
import logging
import os
import re
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.faults.failpoints import (
    FAILPOINTS,
    FP_JOURNAL_FSYNC,
    FP_JOURNAL_WRITE,
    FP_SNAPSHOT_WRITE,
    MODE_CORRUPT,
    FailpointError,
)
from repro.service.codec import allocation_to_dict

logger = logging.getLogger(__name__)

WAL_NAME = "wal.jsonl"
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d+)\.json$")

OP_ADMIT = "admit"
OP_RELEASE = "release"
OP_REJECT = "reject"
#: Elastic resize of an active tenancy.  Accepted outcomes carry the full
#: post-resize allocation (replay = release old + re-commit new, exactly
#: what the live manager applied); rejected outcomes are counters only.
OP_RESIZE = "resize"
#: Free-form marker record (journal health probes); replay skips it.
OP_NOTE = "note"


@dataclass
class ReplaySummary:
    """What :meth:`Journal.replay` actually read."""

    records: int = 0
    last_seq: int = 0
    torn_tail: bool = False


class Journal:
    """Append-only JSONL write-ahead log with crash-tolerant replay."""

    def __init__(self, path: Path, fsync: bool = False) -> None:
        self.path = Path(path)
        self.fsync = fsync
        self._next_seq = self._recover_tail()
        self._file = open(self.path, "ab")
        self._good_offset = self.path.stat().st_size if self.path.exists() else 0
        self._tail_dirty = False

    def _recover_tail(self) -> int:
        """Truncate any torn tail so appends extend the intact prefix.

        Without this, records appended after a crash would sit beyond the
        torn line and be invisible to every future replay.
        """
        if not self.path.exists():
            return 1
        summary = ReplaySummary()
        for _record in self.iter_records(self.path, summary=summary):
            pass
        if summary.torn_tail:
            valid_bytes = self._intact_prefix_bytes(summary.records)
            logger.warning(
                "journal %s has a torn tail; truncating to %d intact record(s) "
                "(%d bytes)", self.path, summary.records, valid_bytes,
            )
            with open(self.path, "r+b") as handle:
                handle.truncate(valid_bytes)
        return summary.last_seq + 1

    def _intact_prefix_bytes(self, record_count: int) -> int:
        """Byte length of the first ``record_count`` lines of the WAL."""
        offset = 0
        with open(self.path, "rb") as handle:
            for _ in range(record_count):
                line = handle.readline()
                if not line:
                    break
                offset += len(line)
        return offset

    @property
    def next_seq(self) -> int:
        """The sequence number the next appended record will receive."""
        return self._next_seq

    def append(self, op: str, **fields: Any) -> int:
        """Durably append one record; returns its sequence number.

        On an ``Exception`` the record does not count as appended and its
        bytes are truncated away before the error propagates, so it is
        never replayed while the process survives the failed append — not
        even if nothing is appended afterwards (if the truncate fails too,
        the tail stays dirty and the next append repairs it).  Any other
        ``BaseException`` stands for the process dying mid-append
        (:class:`~repro.faults.failpoints.InjectedCrash`): a dead process
        truncates nothing, the bytes stay for :meth:`_recover_tail`, which
        trims a torn line but cannot tell a complete un-fsynced record
        from an acknowledged one.
        """
        if self._tail_dirty:
            self._repair_tail()
        seq = self._next_seq
        record = {"seq": seq, "op": op, **fields}
        data = (json.dumps(record, separators=(",", ":")) + "\n").encode("utf-8")
        # ``error`` raises before any byte is written; ``corrupt`` asks us
        # to simulate a torn write below; ``crash`` models dying right here.
        point = FAILPOINTS.hit(FP_JOURNAL_WRITE)
        try:
            if point is not None and point.mode == MODE_CORRUPT:
                self._file.write(data[: max(1, len(data) // 2)])
                self._file.flush()
                raise FailpointError(f"injected torn write at {self.path}")
            self._file.write(data)
            self._file.flush()
            if self.fsync:
                # A failed fsync leaves durability unknown: the bytes are
                # in the file but may never reach disk.  Treat the record
                # as not appended (dirty tail) — the conservative reading
                # every fsync-gated WAL must take.
                FAILPOINTS.hit(FP_JOURNAL_FSYNC)
                os.fsync(self._file.fileno())
        except Exception:
            self._tail_dirty = True
            try:
                self._repair_tail()
            except OSError:
                pass  # still dirty: the next append tries again
            raise
        except BaseException:  # process death: a dead process repairs nothing
            self._tail_dirty = True
            raise
        self._good_offset += len(data)
        self._next_seq = seq + 1
        return seq

    def _repair_tail(self) -> None:
        """Truncate bytes written by failed appends back to the good offset."""
        self._file.flush()
        self._file.seek(self._good_offset)
        self._file.truncate()
        self._tail_dirty = False
        logger.warning(
            "journal %s tail repaired after failed append (truncated to %d bytes)",
            self.path, self._good_offset,
        )

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    @staticmethod
    def iter_records(
        path: Path, summary: Optional[ReplaySummary] = None
    ) -> Iterator[Dict[str, Any]]:
        """Yield the intact records in order.

        Stops at the first torn or out-of-order line — everything after a
        corrupt record is untrusted because order can no longer be proven.
        """
        path = Path(path)
        if not path.exists():
            return
        expected: Optional[int] = None
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                try:
                    record = json.loads(line)
                    seq = int(record["seq"])
                    op = record["op"]
                except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                    if summary is not None:
                        summary.torn_tail = True
                    return
                if not isinstance(op, str) or (expected is not None and seq != expected):
                    if summary is not None:
                        summary.torn_tail = True
                    return
                expected = seq + 1
                if summary is not None:
                    summary.records += 1
                    summary.last_seq = seq
                yield record

    @classmethod
    def replay(cls, path: Path) -> List[Dict[str, Any]]:
        """All intact records as a list."""
        return list(cls.iter_records(path))


class DurabilityStore:
    """The service's persistence facade: one journal + rolling snapshots.

    ``snapshot_every`` takes a full snapshot after that many journal records
    (admits/releases/rejects combined); ``None`` disables automatic
    snapshots (they can still be taken explicitly).
    """

    def __init__(
        self,
        directory: Path,
        fsync: bool = False,
        snapshot_every: Optional[int] = None,
        keep_snapshots: int = 4,
    ) -> None:
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")
        if keep_snapshots < 1:
            raise ValueError(f"keep_snapshots must be >= 1, got {keep_snapshots}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = snapshot_every
        self.keep_snapshots = keep_snapshots
        self.journal = Journal(self.directory / WAL_NAME, fsync=fsync)
        self._records_since_snapshot = 0

    @property
    def wal_path(self) -> Path:
        return self.journal.path

    # ------------------------------------------------------------------
    # Service configuration (epsilon, mode, topology spec, ...)
    # ------------------------------------------------------------------

    def write_config(self, config: Dict[str, Any]) -> Path:
        """Atomically persist the service configuration next to the WAL."""
        path = self.directory / "config.json"
        fd, tmp_name = tempfile.mkstemp(prefix=".config-", suffix=".tmp", dir=self.directory)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(config, handle, indent=2)
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        return path

    def read_config(self) -> Optional[Dict[str, Any]]:
        path = self.directory / "config.json"
        if not path.exists():
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    # ------------------------------------------------------------------
    # Event logging
    # ------------------------------------------------------------------

    def log_admit(self, allocation, idempotency_key: Optional[str] = None) -> int:
        fields: Dict[str, Any] = {"allocation": allocation_to_dict(allocation)}
        if idempotency_key is not None:
            # Persisted inside the admit record so recovery can rebuild the
            # key -> decision index: a client retrying after a lost ack gets
            # the journaled admission back instead of a second allocation.
            fields["idem"] = idempotency_key
        return self._log(OP_ADMIT, **fields)

    def log_release(self, request_id: int) -> int:
        return self._log(OP_RELEASE, request_id=request_id)

    def log_resize(
        self,
        request_id: int,
        outcome: str,
        allocation=None,
        idempotency_key: Optional[str] = None,
    ) -> int:
        """Journal one resize decision.

        ``allocation`` is the tenant's allocation *after* an accepted
        resize (in-place or replaced); rejected resizes journal no
        allocation — the old one stays committed and replay only restores
        the tally.
        """
        fields: Dict[str, Any] = {"request_id": request_id, "outcome": outcome}
        if allocation is not None:
            fields["allocation"] = allocation_to_dict(allocation)
        if idempotency_key is not None:
            fields["idem"] = idempotency_key
        return self._log(OP_RESIZE, **fields)

    def log_reject(
        self,
        request_payload: Dict[str, Any],
        request_id: Optional[int] = None,
        idempotency_key: Optional[str] = None,
    ) -> int:
        fields: Dict[str, Any] = {"request": request_payload}
        if request_id is not None:
            fields["request_id"] = request_id
        if idempotency_key is not None:
            fields["idem"] = idempotency_key
        return self._log(OP_REJECT, **fields)

    def log_note(self, note: str) -> int:
        """Append a no-op marker record (used as a journal health probe).

        Replay and the oracle skip unknown/``note`` ops, so probing while
        degraded never perturbs recovered state.
        """
        return self._log(OP_NOTE, note=note)

    def _log(self, op: str, **fields: Any) -> int:
        seq = self.journal.append(op, **fields)
        self._records_since_snapshot += 1
        if logger.isEnabledFor(logging.DEBUG):
            request_id = fields.get("request_id")
            if request_id is None and isinstance(fields.get("allocation"), dict):
                request_id = fields["allocation"].get("request_id")
            logger.debug("journal seq=%d op=%s request_id=%s", seq, op, request_id)
        return seq

    def should_snapshot(self) -> bool:
        return (
            self.snapshot_every is not None
            and self._records_since_snapshot >= self.snapshot_every
        )

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------

    def write_snapshot(self, payload: Dict[str, Any], seq: Optional[int] = None) -> Path:
        """Atomically persist a snapshot covering the journal up to ``seq``.

        Written to a temp file in the same directory and renamed into place,
        so readers only ever see complete snapshots.  ``seq`` defaults to
        the last appended journal record.
        """
        if seq is None:
            seq = self.journal.next_seq - 1
        # ``error`` raises before anything touches disk; ``corrupt`` makes
        # us persist a truncated snapshot file — recovery must skip it and
        # fall back to an older snapshot or the bare journal.
        point = FAILPOINTS.hit(FP_SNAPSHOT_WRITE)
        body = json.dumps({"seq": seq, "state": payload})
        if point is not None and point.mode == MODE_CORRUPT:
            body = body[: max(1, len(body) // 2)]
        path = self.directory / f"snapshot-{seq}.json"
        fd, tmp_name = tempfile.mkstemp(
            prefix=".snapshot-", suffix=".tmp", dir=self.directory
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                handle.write(body)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(tmp_name, path)
        except BaseException:
            if os.path.exists(tmp_name):
                os.unlink(tmp_name)
            raise
        self._records_since_snapshot = 0
        self._prune_snapshots()
        logger.info("snapshot written: %s (covers journal seq <= %d)", path, seq)
        return path

    def _prune_snapshots(self) -> None:
        """Drop all but the newest ``keep_snapshots`` snapshot files."""
        for _seq, path in self.snapshot_paths()[self.keep_snapshots:]:
            try:
                path.unlink()
            except OSError:
                pass  # a reader may hold it open; retry at the next snapshot

    def snapshot_paths(self) -> List[Tuple[int, Path]]:
        """All snapshots as ``(seq, path)``, newest first."""
        found = []
        for entry in self.directory.iterdir():
            match = _SNAPSHOT_RE.match(entry.name)
            if match:
                found.append((int(match.group(1)), entry))
        found.sort(reverse=True)
        return found

    def latest_snapshot(
        self, max_seq: Optional[int] = None
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Newest decodable snapshot as ``(seq, state_payload)``, if any.

        Corrupt snapshot files are skipped (older ones are tried next) —
        the journal alone is always sufficient to recover.  ``max_seq``
        rejects snapshots claiming to cover journal records that do not
        exist (a snapshot that outlived a lost WAL tail cannot be trusted:
        recovery promises exactly the journal's consistent prefix).
        """
        for seq, path in self.snapshot_paths():
            if max_seq is not None and seq > max_seq:
                continue
            try:
                with open(path, "r", encoding="utf-8") as handle:
                    payload = json.load(handle)
                if payload.get("seq") != seq:
                    continue
                return seq, payload["state"]
            except (json.JSONDecodeError, KeyError, OSError):
                continue
        return None

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "DurabilityStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
