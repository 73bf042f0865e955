"""Tenant-lifecycle bug sweep: residue after churn, batch-context parity.

Two regressions pinned here:

* **Release-path residue** — a tenant that leaves (``release``) after
  arriving via either ``request`` or ``adopt`` must take *everything* with
  it: link state, the tenancy entry, and its rate-limiter registrations.
  The 1,000-cycle loop amplifies any per-cycle leak until it is visible.
* **Batch-context invalidation across releases** — a long-lived
  :class:`BatchContext` caches DP tables keyed by network state; a release
  moves the state underneath it without a ``note_commit``.  The context
  contract requires bit-identical decisions anyway, which the recorded
  interleaved trace checks against a sequential (context-free) replay.
"""

from __future__ import annotations

import random

from repro.abstractions import HomogeneousSVC
from repro.manager.network_manager import NetworkManager
from repro.service.codec import network_state_to_dict


class TestReleaseResidue:
    def test_thousand_adopt_release_cycles_leave_no_residue(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        pristine = network_state_to_dict(manager.state)

        seed_tenancy = manager.request(HomogeneousSVC(n_vms=5, mean=60.0, std=15.0))
        assert seed_tenancy is not None
        allocation = seed_tenancy.allocation
        manager.release(seed_tenancy)

        for cycle in range(1000):
            tenancy = manager.adopt(allocation)
            if cycle % 100 == 0:
                # vm_machines must be rebuilt consistently every adoption.
                assert len(tenancy.vm_machines) == 5
                counts = {}
                for machine in tenancy.vm_machines:
                    counts[machine] = counts.get(machine, 0) + 1
                assert counts == dict(allocation.machine_counts)
            manager.release(tenancy)
            assert manager.active_tenancies == 0

        assert network_state_to_dict(manager.state) == pristine

    def test_request_release_churn_leaves_no_residue(self, tiny_tree):
        manager = NetworkManager(tiny_tree, epsilon=0.05)
        pristine = network_state_to_dict(manager.state)
        rng = random.Random(7)
        live = []
        for _ in range(1000):
            if live and rng.random() < 0.5:
                manager.release(live.pop(rng.randrange(len(live))))
            else:
                tenancy = manager.request(
                    HomogeneousSVC(
                        n_vms=rng.randint(1, 6),
                        mean=float(rng.randint(20, 80)),
                        std=10.0,
                    )
                )
                if tenancy is not None:
                    live.append(tenancy)
        for tenancy in live:
            manager.release(tenancy)
        assert network_state_to_dict(manager.state) == pristine


class TestBatchContextAcrossReleases:
    def trace(self, rng):
        """A recorded admit/release trace; ``None`` marks a release slot."""
        ops = []
        for _ in range(40):
            if ops and rng.random() < 0.35:
                ops.append(None)
            else:
                ops.append(
                    HomogeneousSVC(
                        n_vms=rng.randint(1, 8),
                        mean=float(rng.randint(20, 90)),
                        std=float(rng.randint(5, 25)),
                    )
                )
        return ops

    def replay(self, tree, ops, use_batch):
        """Run the trace; releases always pick the oldest live tenant."""
        manager = NetworkManager(tree, epsilon=0.05)
        batch = manager.batch_context() if use_batch else None
        decisions = []
        live = []
        for op in ops:
            if op is None:
                if live:
                    manager.release(live.pop(0))
                decisions.append("release")
            else:
                tenancy = manager.request(op, batch=batch)
                if tenancy is None:
                    decisions.append(None)
                else:
                    live.append(tenancy)
                    decisions.append(
                        (tenancy.request_id, dict(tenancy.allocation.machine_counts))
                    )
        return decisions, network_state_to_dict(manager.state)

    def test_interleaved_releases_match_sequential_execution(self, tiny_tree):
        for seed in (1, 2, 3):
            ops = self.trace(random.Random(seed))
            batched = self.replay(tiny_tree, ops, use_batch=True)
            sequential = self.replay(tiny_tree, ops, use_batch=False)
            # Decision-for-decision and link-state parity: the DP caches in
            # the batch context must be invalidated by every release that
            # moves the state underneath them.
            assert batched[0] == sequential[0]
            assert batched[1] == sequential[1]
