"""Write-ahead journal, checkpoints and WAL segments for the admission service.

Layout of a durability directory::

    <dir>/wal.jsonl             the WAL's first segment (a legacy single-file WAL)
    <dir>/wal-<seq>.jsonl       later segments; each starts at record ``seq``
    <dir>/wal[-<seq>].keys.json keyed decisions of a sealed segment (sidecar)
    <dir>/snapshot-<seq>.json   checkpoints: the recovery fold's state at ``seq``
    <dir>/config.json           the service configuration

Journal records carry a monotonically increasing ``seq`` and an operation:
``admit`` (with the full serialized allocation, so replay re-commits
exactly what the live manager committed), ``release`` (by request id),
``reject`` (counter only — rejections never touch link state) and
``resize`` (accepted outcomes carry the post-resize allocation; replay
swaps it in for the old one).

Durability model: each record is written as a single ``write`` of one line
and flushed; with ``fsync=True`` it is also fsynced before the append call
returns.  A crash can therefore leave at most one torn line at the tail of
the active segment.  :meth:`Journal.iter_records` detects that (undecodable
JSON or a non-monotonic ``seq``) and stops at the last intact prefix — the
recovery semantics are "restore the longest consistent prefix of
acknowledged operations".

Checkpoints bound what a restart reads.  :meth:`Journal.checkpoint` writes
the owner's fold state at the last appended seq ``S`` (temp file, fsync,
rename), reads it back, and only then *rolls*: the active segment is sealed
and the next one starts at ``S + 1``.  It keeps the newest ``keep``
checkpoints and hands every segment wholly behind the oldest of them to the
owner's ``discard_segment`` (the one way a segment leaves the directory), so a
corrupt newest checkpoint still finds an older one whose tail exists.  A
restart loads the newest decodable checkpoint and folds only the segments
after it — at most one checkpoint cadence of records when checkpoints land.

Idempotency keys stay out of checkpoints: sealing a segment leaves a
sidecar with just its keyed decisions (the owner's ``key_of`` projection of
each record), which outlives the segment until the decisions keyed after it
fill the window (``key_window``).  The window at a restart is
:meth:`KeyWindow.rebuild` of the sidecars, oldest first, then the active
segment's keyed records — the same window the live owner kept.

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
``snapshot.write`` (error, or corrupt = a truncated checkpoint file) let the
chaos harness drive exactly these paths; see :mod:`repro.faults`.  Under
``fsync=True`` the directory is fsynced after every segment create, rename
and unlink as well.
"""

from __future__ import annotations

import json
import logging
import os
import re
import shutil
import tempfile
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Set, Tuple, Union,
)

from repro.faults.failpoints import (
    FAILPOINTS,
    FP_JOURNAL_FSYNC,
    FP_JOURNAL_WRITE,
    FP_SNAPSHOT_WRITE,
    MODE_CORRUPT,
    FailpointError,
)
from repro.service.codec import CodecError, allocation_to_dict

logger = logging.getLogger(__name__)

WAL_NAME = "wal.jsonl"
SNAPSHOT_PREFIX = "snapshot"
#: Where :func:`archive_segment` keeps discarded segments (test oracles only).
ARCHIVE_DIR = "archive"
_NUMBERED_RE = re.compile(r"-(\d+)\.jsonl$")
#: Any owner's checkpoint (``<prefix>-<seq>.json``; sidecars end ``.keys.json``).
_CHECKPOINT_NAME_RE = re.compile(r"-\d+\.json$")

#: Journal records between automatic checkpoints: ``serve``'s default, and
#: the default of every shard and coordinator built with a directory.
DEFAULT_SNAPSHOT_EVERY = 256
#: Idempotency keys an owner remembers (oldest evicted beyond this); the
#: keyed decisions a restart must bring back.
IDEMPOTENCY_CAPACITY = 65536

OP_ADMIT = "admit"
OP_RELEASE = "release"
OP_REJECT = "reject"
#: Elastic resize of an active tenancy.  Accepted outcomes carry the full
#: post-resize allocation (replay = release old + re-commit new, exactly
#: what the live manager applied); rejected outcomes are counters only.
OP_RESIZE = "resize"
#: Free-form marker record (journal health probes); replay skips it.
OP_NOTE = "note"

#: One WAL source: a segment path (its whole WAL, see :func:`segment_paths`)
#: or an explicit list of segments in seq order.
Source = Union[Path, str, Iterable[Path]]


#: The two kinds of keyed decision: a submit or an adopt decides an
#: admission, a resize a resize.  A key answers only ops of its own kind.
KIND_ADMISSION = "admission"
KIND_RESIZE = "resize"
_KIND_NAMES = {KIND_ADMISSION: "an admission", KIND_RESIZE: "a resize"}
#: The outcome of a ``[None, FORGET, request_id]`` key entry: every key that
#: answers "admitted" with ``request_id`` leaves the window.
FORGET = "forget"


def keyed_decision(record: Dict[str, Any]) -> Optional[List[Any]]:
    """A service record's idempotency entry, ``[key, outcome, request_id]``
    (plus ``True`` for resize outcomes), or None for an unkeyed record."""
    key = record.get("idem")
    if key is None:
        return None
    op = record["op"]
    if op == OP_ADMIT:
        return [str(key), "admitted", record["allocation"].get("request_id")]
    if op == OP_REJECT:
        return [str(key), "rejected", None]
    if op == OP_RESIZE:
        # Resize keys keep their own outcome vocabulary (in_place/replaced/
        # rejected); the flag marks the entry's kind.
        return [
            str(key), str(record.get("outcome", "rejected")),
            record.get("request_id"), True,
        ]
    return None


class KeyEntry(NamedTuple):
    """What one idempotency key decided.

    ``outcome`` is None while a submit's ticket is pending; ``ticket_id`` is
    the live service's ticket, which a restart does not bring back.
    """

    kind: str
    outcome: Optional[str]
    request_id: Optional[int]
    ticket_id: Optional[int] = None


class KeyWindow:
    """The idempotency window: the last ``capacity`` keyed decisions.

    Entries are in decision order, the order of the journal records that
    carry them, and a hit never moves a key: that is the only order a restart
    can rebuild (:meth:`rebuild`), so the window a restart brings back is the
    one the live owner kept.  A key decided again after it left the window
    joins the newest end; beyond ``capacity`` the oldest decision goes.  A
    submit still waiting for its decision holds its key apart (:meth:`pend`):
    never evicted, counted against no capacity.  A key answers only ops of
    the kind it decided; :meth:`lookup` refuses the other kind.
    """

    def __init__(self, capacity: int = IDEMPOTENCY_CAPACITY) -> None:
        self.capacity = capacity
        #: key -> ``KeyEntry`` fields as a plain tuple (a restart builds
        #: thousands; a tuple costs a tenth of a ``KeyEntry``).
        self._decided: "OrderedDict[str, Tuple]" = OrderedDict()
        #: key -> ticket id of a submit not decided yet.
        self._pending: Dict[str, int] = {}
        #: request id -> keys that answer "admitted" with it; built by the
        #: first :meth:`forget_admissions` (only the coordinator forgets so).
        self._admitted_by: Optional[Dict[Any, Set[str]]] = None

    @classmethod
    def rebuild(
        cls, entries: Iterable[List[Any]], capacity: int = IDEMPOTENCY_CAPACITY
    ) -> "KeyWindow":
        """The window of a journal's key entries (``key_of`` projections),
        oldest first: each decides its key, or forgets a request's admitted
        keys (``[None, FORGET, request_id]``)."""
        window = cls(capacity)
        decided = window._decided
        for entry in entries:
            key = entry[0]
            if key is None:
                window.forget_admissions(entry[2])
                continue
            kind = KIND_RESIZE if len(entry) > 3 else KIND_ADMISSION
            value = (kind, entry[1], entry[2], None)
            if key in decided or window._admitted_by is not None:
                window._insert(key, value)
            else:  # the common case, inlined: a restart folds thousands
                decided[key] = value
                if len(decided) > capacity:
                    window._remove(next(iter(decided)))
        return window

    def __len__(self) -> int:
        return len(self._decided) + len(self._pending)

    def get(self, key: Optional[str]) -> Optional[KeyEntry]:
        """``key``'s decision, of either kind (None if it has none)."""
        value = self._decided.get(key)
        return KeyEntry(*value) if value is not None else None

    def lookup(self, key: Optional[str], kind: str) -> Optional[KeyEntry]:
        """What a repeated ``key`` answers an op of ``kind``: its decision or
        its pending submit, None for a key the window does not hold (or no
        key).

        A key that decided the other kind raises :class:`CodecError`: its
        decision does not answer this op, and running the op would decide
        one key twice.
        """
        entry = self.get(key)
        if entry is None:
            ticket_id = self._pending.get(key)
            if ticket_id is None:
                return None
            entry = KeyEntry(KIND_ADMISSION, None, None, ticket_id)
        if entry.kind != kind:
            raise CodecError(
                f"idempotency key {key!r} already decided {_KIND_NAMES[entry.kind]} "
                f"({entry.outcome or 'pending'}); {_KIND_NAMES[kind]} needs its own key"
            )
        return entry

    def pend(self, key: Optional[str], ticket_id: int) -> None:
        """Hold ``key`` for a submit whose ticket is not decided yet."""
        if key is not None:
            self._pending[key] = ticket_id

    def decide(
        self, key: Optional[str], kind: str, outcome: str,
        request_id: Optional[int], ticket_id: Optional[int] = None,
    ) -> None:
        """Record ``key``'s decision as the newest entry (no key: no-op)."""
        if key is not None:
            self._pending.pop(key, None)
            self._insert(key, (kind, outcome, request_id, ticket_id))

    def attach(self, key: str, ticket_id: int) -> None:
        """Point a decided key at the ticket that answers it now, in place."""
        self._decided[key] = (*self._decided[key][:3], ticket_id)

    def forget(self, key: Optional[str]) -> None:
        """Drop ``key`` (its decision was rolled back or never made)."""
        if key is not None:
            self._pending.pop(key, None)
            if key in self._decided:
                self._remove(key)

    def forget_admissions(self, request_id: Any) -> None:
        """Drop every key that answers "admitted" with ``request_id``."""
        if self._admitted_by is None:
            self._admitted_by = {}
            for key, entry in self._decided.items():
                self._index(key, entry)
        for key in list(self._admitted_by.get(request_id, ())):
            self._remove(key)

    def decisions(self) -> List[Tuple[str, str, Optional[str], Optional[int]]]:
        """``(key, kind, outcome, request_id)`` of every decision, oldest first."""
        return [(key, *value[:3]) for key, value in self._decided.items()]

    def _insert(self, key: str, entry: Tuple) -> None:
        decided = self._decided
        if key in decided:
            self._remove(key)
        decided[key] = entry
        if self._admitted_by is not None:
            self._index(key, entry)
        if len(decided) > self.capacity:
            self._remove(next(iter(decided)))

    def _index(self, key: str, entry: Tuple) -> None:
        if entry[1] == "admitted":
            self._admitted_by.setdefault(entry[2], set()).add(key)

    def _remove(self, key: str) -> None:
        _kind, outcome, request_id, _ticket = self._decided.pop(key)
        if self._admitted_by is not None and outcome == "admitted":
            keys = self._admitted_by[request_id]
            keys.discard(key)
            if not keys:
                del self._admitted_by[request_id]


def segment_paths(origin: Path) -> List[Path]:
    """The existing segments of the WAL named ``origin``, in seq order.

    ``origin`` itself comes first (the first segment, or a legacy
    single-file WAL), then every ``<stem>-<seq><suffix>`` beside it.
    """
    origin = Path(origin)
    pattern = re.compile(
        rf"^{re.escape(origin.stem)}-(\d+){re.escape(origin.suffix)}$"
    )
    numbered = []
    if origin.parent.is_dir():
        for entry in os.scandir(origin.parent):
            match = pattern.match(entry.name)
            if match:
                numbered.append((int(match.group(1)), Path(entry.path)))
    numbered.sort()
    return ([origin] if origin.exists() else []) + [path for _, path in numbered]


def _named_first_seq(path: Path) -> Optional[int]:
    """The first seq a numbered segment's name promises (None for an origin)."""
    match = _NUMBERED_RE.search(path.name)
    return int(match.group(1)) if match else None


def _sidecar_of(segment: Path) -> Path:
    return segment.with_name(f"{segment.stem}.keys.json")


def _sync_directory(directory: Path) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _write_atomically(path: Path, body: str, sync_file: bool, sync_dir: bool) -> None:
    """Temp file in ``path``'s directory, then rename: readers see all or nothing."""
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.stem}-", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(body)
            if sync_file:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise
    if sync_dir:
        _sync_directory(path.parent)


def remove_file(path: Path, fsync: bool) -> None:
    """Unlink ``path`` (then fsync its directory under ``fsync``)."""
    path.unlink()
    if fsync:
        _sync_directory(path.parent)


def archive_segment(path: Path) -> None:
    """Move a discarded segment into ``<dir>/archive`` instead of deleting it.

    Test oracles install this as an owner's ``discard_segment``: the archive
    plus the live segments are the never-compacted WAL that
    :func:`~repro.service.recovery.oracle_replay` and the coordinator fold
    replay from seq 1.
    """
    archive = path.parent / ARCHIVE_DIR
    archive.mkdir(exist_ok=True)
    os.replace(path, archive / path.name)


def never_compacted(
    directory: Path, destination: Path, keep_checkpoints: bool = False
) -> Path:
    """Copy ``directory`` (journal directories below it included) to
    ``destination`` as if nothing had been compacted.

    Every archived segment goes back beside the live ones, and, unless
    ``keep_checkpoints``, every checkpoint is removed, so a restart from the
    copy folds each WAL from seq 1 (test oracles only; sidecars stay, they
    hold the keys of the segments the archive brings back).
    """
    destination = Path(destination)
    shutil.copytree(directory, destination)
    for archive in sorted(destination.rglob(ARCHIVE_DIR)):
        if archive.is_dir():
            for segment in archive.iterdir():
                os.replace(segment, archive.parent / segment.name)
            archive.rmdir()
    if not keep_checkpoints:
        for path in destination.rglob("*.json"):
            if _CHECKPOINT_NAME_RE.search(path.name):
                path.unlink()
    return destination


def archived_segments(origin: Path) -> List[Path]:
    """Every segment of the WAL named ``origin``: archived ones, then live ones."""
    origin = Path(origin)
    return segment_paths(origin.parent / ARCHIVE_DIR / origin.name) + segment_paths(origin)


@dataclass
class ReplaySummary:
    """What :meth:`Journal.iter_records` actually read."""

    records: int = 0
    last_seq: int = 0
    torn_tail: bool = False


class Journal:
    """Append-only JSONL write-ahead log in segments, with checkpoints.

    ``path`` names the first segment; later segments sit beside it.
    ``key_of`` projects a record to its idempotency entry (or None) for the
    sidecars; checkpoints are ``<checkpoint_prefix>-<seq>.json``.
    """

    def __init__(
        self,
        path: Path,
        fsync: bool = False,
        *,
        key_of: Optional[Callable[[Dict[str, Any]], Optional[List[Any]]]] = None,
        checkpoint_prefix: str = SNAPSHOT_PREFIX,
        key_window: int = IDEMPOTENCY_CAPACITY,
    ) -> None:
        self.path = Path(path)
        self.directory = self.path.parent
        self.fsync = fsync
        self.checkpoint_prefix = checkpoint_prefix
        self.key_window = key_window
        self._key_of = key_of
        self._checkpoint_re = re.compile(rf"^{re.escape(checkpoint_prefix)}-(\d+)\.json$")
        #: Idempotency entries of the active segment, in record order.
        self._keys: List[List[Any]] = []
        self._sidecar_sizes: Dict[Path, int] = {}
        segments = self._segment_starts()
        self._active_first, self.active_path = segments[-1] if segments else (1, self.path)
        self._next_seq = self._recover_tail()
        # The active segment is opened (and created) by the first append, so
        # opening a journal writes nothing.
        self._file = None
        self._good_offset = self.active_path.stat().st_size if self.active_path.exists() else 0
        self._tail_dirty = False
        checkpoints = self.checkpoint_paths()
        newest = checkpoints[0][0] if checkpoints else 0
        #: Records appended since the newest checkpoint (the owners' cadence).
        self.since_checkpoint = max(0, self._next_seq - 1 - newest)

    def _segment_starts(self) -> List[Tuple[int, Path]]:
        """``(first seq, path)`` of every existing segment, in seq order."""
        return [
            (1 if path == self.path else _named_first_seq(path), path)
            for path in segment_paths(self.path)
        ]

    def _recover_tail(self) -> int:
        """Truncate any torn tail of the active segment so appends extend the
        intact prefix, and collect its idempotency entries.

        Without this, records appended after a crash would sit beyond the
        torn line and be invisible to every future replay.
        """
        if not self.active_path.exists():
            return self._active_first
        summary = ReplaySummary()
        for record in self.iter_records([self.active_path], summary=summary):
            self._collect_key(record)
        if summary.torn_tail:
            valid_bytes = self._intact_prefix_bytes(summary.records)
            logger.warning(
                "journal %s has a torn tail; truncating to %d intact record(s) "
                "(%d bytes)", self.active_path, summary.records, valid_bytes,
            )
            with open(self.active_path, "r+b") as handle:
                handle.truncate(valid_bytes)
        return summary.last_seq + 1 if summary.records else self._active_first

    def _intact_prefix_bytes(self, record_count: int) -> int:
        """Byte length of the first ``record_count`` lines of the active segment."""
        offset = 0
        with open(self.active_path, "rb") as handle:
            for _ in range(record_count):
                line = handle.readline()
                if not line:
                    break
                offset += len(line)
        return offset

    def _collect_key(self, record: Dict[str, Any]) -> None:
        if self._key_of is not None:
            entry = self._key_of(record)
            if entry is not None:
                self._keys.append(entry)

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
        if self._file is None:
            self._file = self._create(self.active_path)
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
                raise FailpointError(f"injected torn write at {self.active_path}")
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
        self.since_checkpoint += 1
        self._collect_key(record)
        return seq

    def _create(self, path: Path):
        """Open ``path`` for appends, fsyncing the directory if it is new.

        A failed directory fsync takes the new file back out: an empty
        segment left behind would name a seq the journal never reached.
        """
        created = not path.exists()
        handle = open(path, "ab")
        if created and self.fsync:
            try:
                _sync_directory(self.directory)
            except Exception:
                handle.close()
                path.unlink()
                raise
        return handle

    def _repair_tail(self) -> None:
        """Truncate bytes written by failed appends back to the good offset."""
        self._file.flush()
        self._file.seek(self._good_offset)
        self._file.truncate()
        self._tail_dirty = False
        logger.warning(
            "journal %s tail repaired after failed append (truncated to %d bytes)",
            self.active_path, self._good_offset,
        )

    def close(self) -> None:
        if self._file is not None and not self._file.closed:
            self._file.close()

    def __enter__(self) -> "Journal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Checkpoints, segments and sidecars
    # ------------------------------------------------------------------

    def checkpoint(
        self, state: Any, keep: int, discard: Callable[[Path], None]
    ) -> Path:
        """Persist ``state`` as the checkpoint at the last appended record,
        then roll and retire.

        Only a checkpoint that reads back decodable rolls the WAL and retires
        what lies wholly behind the oldest of the ``keep`` newest
        checkpoints, each segment through the owner's ``discard``; an
        unreadable one (``snapshot.write`` corrupt) is left for recovery to
        skip.
        """
        seq = self._next_seq - 1
        # ``error`` raises before anything touches disk; ``corrupt`` makes
        # us persist a truncated file.
        point = FAILPOINTS.hit(FP_SNAPSHOT_WRITE)
        body = json.dumps({"seq": seq, "state": state}, separators=(",", ":"))
        written = body
        if point is not None and point.mode == MODE_CORRUPT:
            written = body[: max(1, len(body) // 2)]
        path = self.directory / f"{self.checkpoint_prefix}-{seq}.json"
        _write_atomically(path, written, sync_file=True, sync_dir=self.fsync)
        self.since_checkpoint = 0
        # Reading back exactly the document ``json.dumps`` produced proves
        # it decodes, without decoding it a second time.
        with open(path, "r", encoding="utf-8") as handle:
            if handle.read() != body:
                logger.warning("checkpoint %s does not read back; keeping the WAL", path)
                return path
        self.roll()
        self._retire(keep, discard)
        logger.info("checkpoint written: %s (covers journal seq <= %d)", path, seq)
        return path

    def roll(self) -> None:
        """Seal the active segment (its sidecar first) and start the next one
        at ``next_seq``; a no-op while the active segment is empty."""
        if self._next_seq == self._active_first:
            return
        if self._tail_dirty:
            self._repair_tail()
        if self._keys:
            sidecar = _sidecar_of(self.active_path)
            _write_atomically(
                sidecar, json.dumps(self._keys, separators=(",", ":")),
                sync_file=self.fsync, sync_dir=self.fsync,
            )
            self._sidecar_sizes[sidecar] = len(self._keys)
        successor = self.path.with_name(
            f"{self.path.stem}-{self._next_seq}{self.path.suffix}"
        )
        # The successor opens before the sealed segment closes: a failed
        # create leaves this journal appending where it was.
        handle = self._create(successor)
        self.close()
        self._file = handle
        self.active_path, self._active_first = successor, self._next_seq
        self._good_offset = 0
        self._keys = []

    def _retire(self, keep: int, discard: Callable[[Path], None]) -> None:
        """Drop checkpoints beyond the newest ``keep``, the segments wholly
        behind the oldest kept one, and sidecars past the key window."""
        checkpoints = self.checkpoint_paths()
        for _seq, path in checkpoints[keep:]:
            remove_file(path, self.fsync)
        floor = checkpoints[: keep][-1][0]
        segments = self._segment_starts()
        for (_first, path), (successor_first, _next) in zip(segments, segments[1:]):
            if successor_first - 1 > floor:
                break
            discard(path)
        newer = len(self._keys)
        for _first, sidecar in reversed(self._sidecars()):
            if newer >= self.key_window:
                remove_file(sidecar, self.fsync)
                self._sidecar_sizes.pop(sidecar, None)
            else:
                newer += self._sidecar_size(sidecar)

    def _sidecars(self) -> List[Tuple[int, Path]]:
        """Sidecars of sealed segments, oldest first (the active segment's own
        is stale until it is sealed)."""
        pattern = re.compile(rf"^{re.escape(self.path.stem)}(?:-(\d+))?\.keys\.json$")
        found = []
        for entry in os.scandir(self.directory):
            match = pattern.match(entry.name)
            if match:
                first = int(match.group(1)) if match.group(1) else 1
                if first < self._active_first:
                    found.append((first, Path(entry.path)))
        found.sort()
        return found

    def _sidecar_size(self, sidecar: Path) -> int:
        if sidecar not in self._sidecar_sizes:
            self._sidecar_sizes[sidecar] = len(self._load_sidecar(sidecar))
        return self._sidecar_sizes[sidecar]

    @staticmethod
    def _load_sidecar(sidecar: Path) -> List[List[Any]]:
        try:
            with open(sidecar, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            logger.warning("idempotency sidecar %s unreadable: %s", sidecar, exc)
            return []

    def keyed_decisions(self) -> List[List[Any]]:
        """The idempotency entries a restart brings back, oldest first."""
        entries: List[List[Any]] = []
        for _first, sidecar in self._sidecars():
            loaded = self._load_sidecar(sidecar)
            self._sidecar_sizes[sidecar] = len(loaded)
            entries.extend(loaded)
        entries.extend(self._keys)
        return entries

    def checkpoint_paths(self) -> List[Tuple[int, Path]]:
        """All checkpoints as ``(seq, path)``, newest first."""
        found = []
        if self.directory.is_dir():
            for entry in os.scandir(self.directory):
                match = self._checkpoint_re.match(entry.name)
                if match:
                    found.append((int(match.group(1)), Path(entry.path)))
        found.sort(reverse=True)
        return found

    @staticmethod
    def _read_checkpoint(seq: int, path: Path) -> Optional[Any]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                payload = json.load(handle)
            return payload["state"] if payload.get("seq") == seq else None
        except (json.JSONDecodeError, KeyError, OSError, AttributeError):
            return None

    def covers(self, seq: int) -> bool:
        """Whether the segments on disk hold every record after ``seq``."""
        segments = self._segment_starts()
        return not segments or segments[0][0] <= seq + 1

    def latest_checkpoint(
        self, max_seq: Optional[int] = None
    ) -> Optional[Tuple[int, Any]]:
        """Newest decodable checkpoint whose tail is on disk, as ``(seq, state)``.

        Corrupt files are skipped (older ones are tried next).  ``max_seq``
        rejects checkpoints claiming to cover records that do not exist (one
        that outlived a lost WAL tail cannot be trusted: recovery promises
        exactly the journal's consistent prefix).
        """
        for seq, path in self.checkpoint_paths():
            if (max_seq is not None and seq > max_seq) or not self.covers(seq):
                continue
            state = self._read_checkpoint(seq, path)
            if state is not None:
                return seq, state
        return None

    def records_after(self, seq: int) -> Iterator[Dict[str, Any]]:
        """The intact records after ``seq``, read from the segments holding
        them (see :meth:`covers`)."""
        segments = self._segment_starts()
        start = 0
        for index, (first, _path) in enumerate(segments):
            if first <= seq + 1:
                start = index
        for record in self.iter_records([path for _first, path in segments[start:]]):
            if record["seq"] > seq:
                yield record

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------

    @staticmethod
    def iter_records(
        source: Source, summary: Optional[ReplaySummary] = None
    ) -> Iterator[Dict[str, Any]]:
        """Yield the intact records of ``source`` in order.

        A path stands for its whole WAL (:func:`segment_paths`).  Stops at
        the first torn or out-of-order line, or at a segment that does not
        continue the seq — everything after is untrusted because order can
        no longer be proven.
        """
        if isinstance(source, (str, os.PathLike)):
            paths = segment_paths(Path(source))
        else:
            paths = [Path(path) for path in source]
        expected: Optional[int] = None

        def torn() -> None:
            if summary is not None:
                summary.torn_tail = True

        for path in paths:
            named = _named_first_seq(path)
            if named is not None:
                if expected is not None and named != expected:
                    torn()
                    return
                expected = named
            if not path.exists():
                continue
            with open(path, "r", encoding="utf-8") as handle:
                for line in handle:
                    try:
                        record = json.loads(line)
                        seq = int(record["seq"])
                        op = record["op"]
                    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                        torn()
                        return
                    if not isinstance(op, str) or (expected is not None and seq != expected):
                        torn()
                        return
                    expected = seq + 1
                    if summary is not None:
                        summary.records += 1
                        summary.last_seq = seq
                    yield record

    @classmethod
    def replay(cls, source: Source) -> List[Dict[str, Any]]:
        """All intact records as a list."""
        return list(cls.iter_records(source))


class DurabilityStore:
    """The service's persistence facade: one segmented journal + checkpoints.

    ``snapshot_every`` checkpoints after that many journal records
    (admits/releases/rejects combined); ``None`` disables automatic
    checkpoints (they can still be taken explicitly).  ``keep_snapshots``
    checkpoints are kept; the WAL segments behind the oldest go through
    :meth:`discard_segment`.
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
        self.journal = Journal(self.directory / WAL_NAME, fsync=fsync, key_of=keyed_decision)

    @property
    def wal_path(self) -> Path:
        """The WAL's name (its first segment): :meth:`Journal.iter_records`
        reads every segment on disk from it."""
        return self.journal.path

    def discard_segment(self, path: Path) -> None:
        """The one way a WAL segment behind every kept checkpoint leaves."""
        remove_file(path, self.journal.fsync)

    # ------------------------------------------------------------------
    # Service configuration (epsilon, mode, topology spec, ...)
    # ------------------------------------------------------------------

    def write_config(self, config: Dict[str, Any]) -> Path:
        """Atomically persist the service configuration next to the WAL."""
        path = self.directory / "config.json"
        _write_atomically(path, json.dumps(config, indent=2), sync_file=False, sync_dir=False)
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
        if logger.isEnabledFor(logging.DEBUG):
            request_id = fields.get("request_id")
            if request_id is None and isinstance(fields.get("allocation"), dict):
                request_id = fields["allocation"].get("request_id")
            logger.debug("journal seq=%d op=%s request_id=%s", seq, op, request_id)
        return seq

    def should_snapshot(self) -> bool:
        return (
            self.snapshot_every is not None
            and self.journal.since_checkpoint >= self.snapshot_every
        )

    # ------------------------------------------------------------------
    # Checkpoints
    # ------------------------------------------------------------------

    def write_snapshot(self, payload: Dict[str, Any], seq: Optional[int] = None) -> Path:
        """Checkpoint ``payload`` as the state at the last appended record
        (see :meth:`Journal.checkpoint`); a ``seq`` naming any other record
        is refused, since the WAL rolls at the checkpoint."""
        if seq is not None and seq != self.journal.next_seq - 1:
            raise ValueError(
                f"a checkpoint covers the last record ({self.journal.next_seq - 1}), "
                f"not seq {seq}"
            )
        return self.journal.checkpoint(payload, self.keep_snapshots, self.discard_segment)

    def snapshot_paths(self) -> List[Tuple[int, Path]]:
        """All checkpoints as ``(seq, path)``, newest first."""
        return self.journal.checkpoint_paths()

    def latest_snapshot(
        self, max_seq: Optional[int] = None
    ) -> Optional[Tuple[int, Dict[str, Any]]]:
        """Newest usable checkpoint as ``(seq, state_payload)``, if any."""
        return self.journal.latest_checkpoint(max_seq)

    def close(self) -> None:
        self.journal.close()

    def __enter__(self) -> "DurabilityStore":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ArchivingStore(DurabilityStore):
    """A store that archives discarded segments (:func:`archive_segment`):
    the never-compacted WAL stays readable for test oracles and referees."""

    def discard_segment(self, path: Path) -> None:
        archive_segment(path)
