"""Crash recovery: checkpoint + journal tail -> reconstructed manager.

Recovery restores the longest consistent prefix of acknowledged operations:

1. load the newest decodable checkpoint (a full list of active allocations
   plus admission counters) that the journal's intact prefix covers and
   whose tail segments still exist — the store's open already found that
   prefix — and re-commit every allocation through
   :meth:`NetworkManager.adopt`;
2. fold the tail, the records after the checkpoint's seq: ``admit``
   re-commits the journaled allocation verbatim, ``release`` tears the
   tenancy down, ``reject`` only restores counters and the id cursor, and
   ``resize`` swaps the journaled post-resize allocation in for the
   tenant's old one (rejected resizes restore tallies only);
3. rebuild the idempotency window (:meth:`KeyWindow.rebuild
   <repro.service.journal.KeyWindow.rebuild>`) from the sealed segments'
   sidecars and the active segment's keyed records (collected by the
   store's open).

Because both paths re-apply the *exact* allocation the live manager
committed (not a re-run of the allocator), the reconstructed
:class:`NetworkState` is field-for-field identical to the pre-crash state
covered by the journal.  :func:`oracle_replay` is the single-threaded
referee used by tests: a from-scratch replay of a never-compacted journal
(:func:`~repro.service.journal.archived_segments`) using only
``NetworkState.commit``/``release``, against which both the live service and
the checkpointed recovery must agree.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.allocation.base import Allocation, Allocator
from repro.manager.network_manager import NetworkManager
from repro.network.link_state import NetworkState
from repro.service.codec import allocation_from_dict, allocation_to_dict
from repro.service.journal import (
    OP_ADMIT,
    OP_REJECT,
    OP_RELEASE,
    OP_RESIZE,
    DurabilityStore,
    Journal,
    KeyWindow,
    Source,
)
from repro.topology.tree import Tree


class RecoveryError(RuntimeError):
    """The journal and checkpoint disagree with each other or with the tree."""


@dataclass
class RecoveryReport:
    """What recovery did, for logging and assertions."""

    snapshot_seq: int = 0
    replayed_records: int = 0
    last_seq: int = 0
    #: The window of the last keyed decisions, oldest first: the sealed
    #: segments' sidecars, then the active segment.  A client retrying a
    #: pre-crash op is answered with the journaled decision instead of a
    #: second allocation, even when its segment is gone.
    idempotency_index: KeyWindow = field(default_factory=KeyWindow)

    @property
    def used_snapshot(self) -> bool:
        return self.snapshot_seq > 0


def snapshot_payload(manager: NetworkManager) -> Dict:
    """The checkpoint body for the manager's current state."""
    return {
        "epsilon": manager.epsilon,
        "admitted_count": manager.admitted_count,
        "rejected_count": manager.rejected_count,
        "next_request_id": manager.next_request_id,
        "resize_counts": dict(manager.resize_counts),
        "allocations": [
            allocation_to_dict(tenancy.allocation) for tenancy in manager.tenancies()
        ],
    }


def recover_manager(
    store: DurabilityStore,
    tree: Tree,
    epsilon: float = 0.05,
    allocator: Optional[Allocator] = None,
) -> Tuple[NetworkManager, RecoveryReport]:
    """Rebuild a :class:`NetworkManager` from a durability directory.

    ``epsilon``/``allocator`` configure the fresh manager; a checkpoint's
    recorded epsilon wins over the argument (the risk factor is part of the
    persisted state, not of the restart command line).
    """
    report = RecoveryReport()
    journal = store.journal
    # Opening the store already read the active segment to its last intact
    # record, so its seq bounds which checkpoints can be trusted.
    snapshot = store.latest_snapshot(max_seq=journal.next_seq - 1)
    if snapshot is not None:
        seq, payload = snapshot
        report.snapshot_seq = seq
        report.last_seq = seq
        manager = NetworkManager(
            tree, epsilon=float(payload.get("epsilon", epsilon)), allocator=allocator
        )
        try:
            for entry in payload["allocations"]:
                manager.adopt(allocation_from_dict(entry))
            manager.admitted_count = int(payload["admitted_count"])
            manager.rejected_count = int(payload["rejected_count"])
            for outcome, count in payload.get("resize_counts", {}).items():
                if outcome in manager.resize_counts:
                    manager.resize_counts[outcome] = int(count)
            next_id = int(payload["next_request_id"])
        except (KeyError, TypeError, ValueError) as exc:
            raise RecoveryError(f"snapshot-{seq} is malformed: {exc}") from exc
        if next_id > manager.next_request_id:
            manager.next_request_id = next_id
    else:
        manager = NetworkManager(tree, epsilon=epsilon, allocator=allocator)
    if not journal.covers(report.snapshot_seq):
        raise RecoveryError(
            f"no usable checkpoint, and the WAL segments after seq "
            f"{report.snapshot_seq} are gone"
        )
    for record in journal.records_after(report.snapshot_seq):
        _replay(manager, record)
        report.replayed_records += 1
        report.last_seq = record["seq"]
    report.idempotency_index = KeyWindow.rebuild(
        journal.keyed_decisions(), journal.key_window
    )
    return manager, report


def _replay(manager: NetworkManager, record: Dict[str, Any]) -> None:
    """Apply one journaled op exactly as the live manager applied it.

    Unknown ops are skipped: old journals must stay replayable by newer
    code, and extra record types must not poison recovery.
    """
    op = record["op"]
    if op == OP_ADMIT:
        _readopt(manager, record, "re-admit")
        manager.admitted_count += 1
    elif op == OP_RELEASE:
        manager.release(_active(manager, record, record["request_id"], "release"))
    elif op == OP_REJECT:
        manager.rejected_count += 1
        request_id = record.get("request_id")
        if request_id is not None and int(request_id) >= manager.next_request_id:
            manager.next_request_id = int(request_id) + 1
    elif op == OP_RESIZE:
        if "allocation" in record:
            # Swap exactly what the live manager committed: release the old
            # allocation, adopt the journaled post-resize one.  No admission
            # counters move — a resize is not an admission.
            request_id = record["allocation"]["request_id"]
            manager.release(_active(manager, record, request_id, "resize"))
            _readopt(manager, record, "re-apply resize of")
        outcome = str(record.get("outcome", ""))
        if outcome in manager.resize_counts:
            manager.resize_counts[outcome] += 1


def _readopt(manager: NetworkManager, record: Dict[str, Any], what: str) -> None:
    allocation = allocation_from_dict(record["allocation"])
    try:
        manager.adopt(allocation)
    except ValueError as exc:
        raise RecoveryError(
            f"journal seq {record['seq']}: cannot {what} request "
            f"{allocation.request_id}: {exc}"
        ) from exc


def _active(manager: NetworkManager, record: Dict[str, Any], request_id, what: str):
    tenancy = manager.get_tenancy(int(request_id))
    if tenancy is None:
        raise RecoveryError(
            f"journal seq {record['seq']}: {what} of unknown request {request_id}"
        )
    return tenancy


def oracle_replay(
    source: Source, tree: Tree, epsilon: float = 0.05
) -> Tuple[NetworkState, Dict[int, Allocation]]:
    """Single-threaded from-scratch replay of a whole journal.

    ``source`` is a WAL name or a list of segments from seq 1 (a
    never-compacted copy: :func:`~repro.service.journal.archived_segments`).
    Ignores checkpoints entirely and drives a bare :class:`NetworkState`
    through commit/release — the ground truth the recovered manager (and
    the pre-crash live state) must match field-for-field.  Returns the
    final state and the allocations still active at the end of the log.
    """
    state = NetworkState(tree, epsilon=epsilon)
    active: Dict[int, Allocation] = {}
    for record in Journal.iter_records(source):
        op = record["op"]
        if op == OP_ADMIT:
            allocation = allocation_from_dict(record["allocation"])
            if allocation.request_id in active:
                raise RecoveryError(
                    f"journal seq {record['seq']}: duplicate admit of "
                    f"request {allocation.request_id}"
                )
            state.commit(allocation)
            active[allocation.request_id] = allocation
        elif op == OP_RELEASE:
            request_id = int(record["request_id"])
            allocation = active.pop(request_id, None)
            if allocation is None:
                raise RecoveryError(
                    f"journal seq {record['seq']}: release of unknown request {request_id}"
                )
            state.release(allocation)
        elif op == OP_RESIZE and "allocation" in record:
            allocation = allocation_from_dict(record["allocation"])
            old = active.get(allocation.request_id)
            if old is None:
                raise RecoveryError(
                    f"journal seq {record['seq']}: resize of unknown request "
                    f"{allocation.request_id}"
                )
            state.release(old)
            state.commit(allocation)
            active[allocation.request_id] = allocation
    return state, active
