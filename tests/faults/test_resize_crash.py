"""Crash-during-resize: an acked resize is never lost, no tenant half-sizes.

The two failpoints bracket the WAL append inside
:meth:`AdmissionService.resize`:

* ``FP_RESIZE_BEFORE_JOURNAL`` fires before the manager mutates — a crash
  there leaves the old size both in memory and on disk, so recovery must
  come back at the **old** size.
* ``FP_RESIZE_AFTER_JOURNAL`` fires once the decision is journaled — the
  resize is durable even though the crash preempts the acknowledgement,
  so recovery must come back at the **new** size.

Either way the recovered tenancy is exactly one of the two sizes (never a
blend) and the link state equals a from-scratch commit of the recovered
allocations.
"""

import pytest

from repro.abstractions import HomogeneousSVC
from repro.faults.failpoints import (
    FAILPOINTS,
    FP_RESIZE_AFTER_JOURNAL,
    FP_RESIZE_BEFORE_JOURNAL,
    MODE_CRASH,
    InjectedCrash,
)
from repro.manager.network_manager import NetworkManager
from repro.network import NetworkState
from repro.service.codec import network_state_to_dict
from repro.service.concurrency import OUTCOME_ADMITTED, AdmissionService
from repro.service.journal import DurabilityStore
from repro.service.recovery import recover_manager

OLD_N, NEW_N = 4, 9


def crash_resize_at(failpoint, directory, tree):
    """Admit one tenant, then crash at ``failpoint`` while resizing it."""
    store = DurabilityStore(directory)
    manager = NetworkManager(tree)
    service = AdmissionService(manager, store=store, workers=1)
    service.start()
    ticket = service.submit(
        HomogeneousSVC(n_vms=OLD_N, mean=50.0, std=10.0), wait=True
    )
    assert ticket.outcome == OUTCOME_ADMITTED
    FAILPOINTS.arm(failpoint, MODE_CRASH, max_hits=1)
    with pytest.raises(InjectedCrash):
        service.resize(ticket.request_id, new_n=NEW_N)
    service.kill()
    store.close()
    FAILPOINTS.clear()
    return ticket.request_id


def recover(directory, tree):
    store = DurabilityStore(directory)
    recovered, _report = recover_manager(store, tree)
    store.close()
    return recovered


def assert_exact_and_consistent(recovered, request_id, expected_n):
    tenancy = recovered.tenancy(request_id)
    assert tenancy.n_vms == expected_n
    assert tenancy.request.n_vms == expected_n
    assert sum(tenancy.allocation.machine_counts.values()) == expected_n
    assert len(tenancy.vm_machines) == expected_n
    # Link state equals a from-scratch commit of the recovered allocations:
    # no residue of the other size anywhere.
    scratch = NetworkState(recovered.state.tree, epsilon=recovered.epsilon)
    for entry in recovered.tenancies():
        scratch.commit(entry.allocation)
    assert network_state_to_dict(recovered.state) == network_state_to_dict(scratch)


class TestCrashDuringResize:
    def test_crash_before_journal_recovers_old_size(self, tiny_tree, tmp_path):
        rid = crash_resize_at(FP_RESIZE_BEFORE_JOURNAL, tmp_path / "j", tiny_tree)
        recovered = recover(tmp_path / "j", tiny_tree)
        assert_exact_and_consistent(recovered, rid, OLD_N)
        assert sum(recovered.resize_counts.values()) == 0

    def test_crash_after_journal_recovers_new_size(self, tiny_tree, tmp_path):
        rid = crash_resize_at(FP_RESIZE_AFTER_JOURNAL, tmp_path / "j", tiny_tree)
        recovered = recover(tmp_path / "j", tiny_tree)
        assert_exact_and_consistent(recovered, rid, NEW_N)
        assert sum(recovered.resize_counts.values()) == 1

    def test_recovered_service_accepts_further_resizes(self, tiny_tree, tmp_path):
        rid = crash_resize_at(FP_RESIZE_AFTER_JOURNAL, tmp_path / "j", tiny_tree)
        store = DurabilityStore(tmp_path / "j")
        recovered, _report = recover_manager(store, tiny_tree)
        with AdmissionService(recovered, store=store, workers=1) as service:
            decision = service.resize(rid, new_n=2)
            assert decision["outcome"] in ("in_place", "replaced")
            assert recovered.tenancy(rid).n_vms == 2
        store.close()
