"""Online admission-control service layer.

Turns the in-memory :class:`~repro.manager.network_manager.NetworkManager`
into a runnable daemon: a thread-safe front-end with a worker pool
(:mod:`.concurrency`), the paper's online/batch request queue with
priorities and deadlines (:mod:`.queue`), an append-only write-ahead
journal with periodic snapshots and crash recovery (:mod:`.journal`,
:mod:`.recovery`), an asyncio TCP line-JSON server (:mod:`.server`,
:mod:`.aio`) and a matching retrying client (:mod:`.client`).  Fault behaviour — typed
errors (:mod:`.errors`), the degradation ladder (:mod:`.degrade`) and the
failpoints of :mod:`repro.faults` — is documented in DESIGN.md §7 and
docs/operations.md.  ``svc-repro serve`` is the CLI entry.
"""

from repro.service.client import RetryPolicy, ServiceClient
from repro.service.codec import (
    CodecError,
    allocation_from_dict,
    allocation_to_dict,
    network_state_to_dict,
    request_from_dict,
    request_to_dict,
)
from repro.service.concurrency import (
    OUTCOME_ADMITTED,
    OUTCOME_ERROR,
    OUTCOME_EXPIRED,
    OUTCOME_QUEUED,
    OUTCOME_REJECTED,
    AdmissionService,
    Ticket,
)
from repro.service.degrade import (
    STATE_FAST_FAIL,
    STATE_FULL,
    STATE_READ_ONLY,
    DegradationLadder,
)
from repro.service.errors import (
    RETRYABLE_CODES,
    DeadlineExceededError,
    DegradedError,
    OverloadedError,
    RetryExhaustedError,
    ServiceError,
)
from repro.service.journal import DurabilityStore, Journal
from repro.service.queue import MODE_BATCH, MODE_ONLINE, QueuedRequest
from repro.service.recovery import (
    RecoveryError,
    RecoveryReport,
    oracle_replay,
    recover_manager,
    snapshot_payload,
)
from repro.service.server import serve_main

__all__ = [
    "AdmissionService",
    "CodecError",
    "DeadlineExceededError",
    "DegradationLadder",
    "DegradedError",
    "DurabilityStore",
    "Journal",
    "MODE_BATCH",
    "MODE_ONLINE",
    "OUTCOME_ADMITTED",
    "OUTCOME_ERROR",
    "OUTCOME_EXPIRED",
    "OUTCOME_QUEUED",
    "OUTCOME_REJECTED",
    "OverloadedError",
    "QueuedRequest",
    "RecoveryError",
    "RecoveryReport",
    "RETRYABLE_CODES",
    "RetryExhaustedError",
    "RetryPolicy",
    "STATE_FAST_FAIL",
    "STATE_FULL",
    "STATE_READ_ONLY",
    "ServiceClient",
    "ServiceError",
    "Ticket",
    "allocation_from_dict",
    "allocation_to_dict",
    "network_state_to_dict",
    "oracle_replay",
    "recover_manager",
    "request_from_dict",
    "request_to_dict",
    "serve_main",
    "snapshot_payload",
]
