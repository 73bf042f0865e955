"""Per-tenant fair queueing: DRR scheduling, quotas, starvation-freedom."""


import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.abstractions import HomogeneousSVC
from repro.manager.network_manager import NetworkManager
from repro.obs import instruments
from repro.service.client import ServiceClient
from repro.service.codec import CodecError, request_shape_key
from repro.service.concurrency import (
    MAX_TENANT_LENGTH,
    OTHER_TENANTS,
    OUTCOME_ADMITTED,
    TENANT_LABEL_CAP,
    AdmissionService,
)
from repro.service.errors import CODE_OVER_QUOTA, OverQuotaError, ServiceError
from repro.service.queue import DEFAULT_TENANT, FairRequestQueue, QueuedRequest
from repro.service.server import dispatch_command
from tests.service.conftest import served_front_door


def entry(ticket_id, tenant=DEFAULT_TENANT, priority=0, shape=None, deadline=None):
    return QueuedRequest(
        ticket_id=ticket_id,
        request=HomogeneousSVC(n_vms=2, mean=10.0, std=1.0),
        priority=priority,
        deadline=deadline,
        tenant=tenant,
        shape=shape,
    )


def drain_order(queue, now=0.0):
    order = []
    while True:
        popped, expired = queue.pop_ready(now)
        assert not expired
        if popped is None:
            return order
        order.append((popped.tenant, popped.ticket_id))


class TestDeficitRoundRobin:
    def test_single_tenant_is_fifo_within_priority(self):
        queue = FairRequestQueue()
        queue.push(entry(1))
        queue.push(entry(2, priority=5))
        queue.push(entry(3))
        assert [t for _, t in drain_order(queue)] == [2, 1, 3]

    def test_equal_weights_alternate(self):
        queue = FairRequestQueue()
        for ticket in range(6):
            queue.push(entry(ticket, tenant="a" if ticket < 3 else "b"))
        tenants = [tenant for tenant, _ in drain_order(queue)]
        # One pop per visit at weight 1: strict alternation once both wait.
        assert tenants == ["a", "b", "a", "b", "a", "b"]

    def test_weighted_tenant_gets_proportional_share(self):
        queue = FairRequestQueue(weights={"gold": 3})
        for ticket in range(12):
            queue.push(entry(ticket, tenant="gold" if ticket % 2 else "silver"))
        tenants = [tenant for tenant, _ in drain_order(queue)]
        # In any window where both tenants still have work, gold serves 3x.
        first_eight = tenants[:8]
        assert first_eight.count("gold") == 6
        assert first_eight.count("silver") == 2

    def test_idle_tenant_banks_no_credit(self):
        queue = FairRequestQueue(weights={"burst": 5})
        # burst drains completely, then re-arrives alongside steady.
        queue.push(entry(0, tenant="burst"))
        popped, _ = queue.pop_ready(0.0)
        assert popped.tenant == "burst"
        for ticket in range(1, 9):
            queue.push(entry(ticket, tenant="burst" if ticket % 2 else "steady"))
        tenants = [tenant for tenant, _ in drain_order(queue)]
        # Deficits were dropped on retirement: burst restarts from zero and
        # steady is served within the first weight-5 lap, not after 5 pops.
        assert "steady" in tenants[:6]

    def test_pop_compatible_only_matches_canonical_head(self):
        shape_a = request_shape_key(HomogeneousSVC(n_vms=2, mean=10.0, std=1.0))
        shape_b = request_shape_key(HomogeneousSVC(n_vms=3, mean=10.0, std=1.0))
        queue = FairRequestQueue()
        queue.push(entry(1, tenant="a", shape=shape_a))
        queue.push(entry(2, tenant="b", shape=shape_b))
        leader, _ = queue.pop_ready(0.0)
        assert leader.ticket_id == 1
        # The canonical next pop is tenant b (shape_b): a shape_a coalesce
        # attempt must NOT skip past it.
        popped, _ = queue.pop_compatible(shape_a, 0.0)
        assert popped is None
        popped, _ = queue.pop_compatible(shape_b, 0.0)
        assert popped is not None and popped.ticket_id == 2

    def test_pop_compatible_never_matches_none_shape(self):
        queue = FairRequestQueue()
        queue.push(entry(1, shape=None))
        popped, _ = queue.pop_compatible(None, 0.0)
        assert popped is None
        popped, _ = queue.pop_ready(0.0)
        assert popped.ticket_id == 1

    def test_expired_entries_are_drained_not_served(self):
        queue = FairRequestQueue()
        queue.push(entry(1, tenant="a", deadline=1.0))
        queue.push(entry(2, tenant="a"))
        popped, expired = queue.pop_ready(now=5.0)
        assert popped.ticket_id == 2
        assert [e.ticket_id for e in expired] == [1]

    def test_tenant_depths_cover_ready_and_parked(self):
        queue = FairRequestQueue(mode="batch")
        queue.push(entry(1, tenant="a"))
        queue.push(entry(2, tenant="a"))
        popped, _ = queue.pop_ready(0.0)
        queue.park(popped)
        assert queue.tenant_depths() == {"a": 2}
        assert queue.tenant_depth("a") == 2
        assert queue.tenant_depth("ghost") == 0

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            FairRequestQueue(weights={"a": 0})
        queue = FairRequestQueue()
        with pytest.raises(ValueError):
            queue.set_weight("a", -1)


@settings(max_examples=60, deadline=None)
@given(
    arrivals=st.lists(
        st.tuples(st.sampled_from(["a", "b", "c"]), st.integers(0, 2)),
        min_size=1,
        max_size=60,
    ),
    weights=st.fixed_dictionaries(
        {},
        optional={
            "a": st.integers(1, 4),
            "b": st.integers(1, 4),
            "c": st.integers(1, 4),
        },
    ),
)
def test_no_tenant_starves(arrivals, weights):
    """DRR property: every backlogged tenant is served within one lap.

    With W = sum of active weights, a tenant with weight >= 1 waits at most
    W consecutive pops before its next pop, for any arrival pattern and any
    weight assignment — the starvation-freedom claim in docs/service.md.
    """
    queue = FairRequestQueue(weights=weights)
    for ticket, (tenant, priority) in enumerate(arrivals):
        queue.push(entry(ticket, tenant=tenant, priority=priority))
    backlog = {tenant for tenant, _ in arrivals}
    lap_bound = sum(queue.weight_of(t) for t in backlog)
    served = drain_order(queue)
    assert len(served) == len(arrivals)
    gap = {tenant: 0 for tenant in backlog}
    remaining = {
        tenant: sum(1 for t, _ in arrivals if t == tenant) for tenant in backlog
    }
    for tenant, _ticket in served:
        for other in backlog:
            if remaining[other] <= 0:
                continue
            if other == tenant:
                gap[other] = 0
            else:
                gap[other] += 1
                assert gap[other] <= lap_bound, (
                    f"tenant {other!r} waited {gap[other]} pops "
                    f"(bound {lap_bound})"
                )
        remaining[tenant] -= 1


queue_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.sampled_from(["a", "b", "c"]),
            st.integers(0, 2),  # priority
            st.one_of(st.none(), st.integers(1, 12)),  # deadline
            st.sampled_from(["x", "y"]),  # shape
        ),
        st.tuples(st.sampled_from(["pop", "pop_park"])),
        st.tuples(st.just("pop_compatible"), st.sampled_from(["x", "y"])),
        st.tuples(st.sampled_from(["requeue", "expire", "drain"])),
    ),
    max_size=80,
)


@settings(max_examples=150, deadline=None)
@given(ops=queue_ops)
def test_live_counters_equal_a_scan(ops):
    """The O(1) counters equal a from-scratch scan after any op sequence.

    The clock advances one tick per op, so deadlines pass while entries sit
    in the heaps and the parking lot, and every path that removes an entry
    (pop, coalescing pop, pruning in ``_settle``, ``expire``, ``drain``) runs.
    """
    queue = FairRequestQueue(mode="batch", weights={"a": 2})
    for now, op in enumerate(ops):
        if op[0] == "push":
            _, tenant, priority, deadline, shape = op
            queue.push(
                entry(now, tenant=tenant, priority=priority, shape=shape,
                      deadline=None if deadline is None else now + deadline)
            )
        elif op[0] in ("pop", "pop_park"):
            popped, _expired = queue.pop_ready(now)
            if popped is not None and op[0] == "pop_park":
                queue.park(popped)
        elif op[0] == "pop_compatible":
            queue.pop_compatible(op[1], now)
        elif op[0] == "requeue":
            queue.requeue_parked()
        elif op[0] == "expire":
            queue.expire(now)
        else:
            queue.drain()

        waiting = [e for heap in queue._heaps.values() for _key, e in heap]
        assert queue.ready_count == len(waiting)
        assert queue.parked_count == len(queue._parked)
        assert len(queue) == len(waiting) + len(queue._parked)
        depths = {}
        for e in waiting + queue._parked:
            depths[e.tenant] = depths.get(e.tenant, 0) + 1
        assert queue.tenant_depths() == depths
        for tenant in "abc":
            assert queue.tenant_depth(tenant) == depths.get(tenant, 0)


class TestTenantQuota:
    def test_over_quota_shed_carries_code_and_retry_after(self, tiny_tree):
        service = AdmissionService(
            NetworkManager(tiny_tree), workers=1, tenant_quota=2
        )
        # Flag the service running without starting workers: the queue can
        # only fill, so the third submission from one tenant must shed.
        service._running = True
        try:
            for _ in range(2):
                service.submit(
                    HomogeneousSVC(n_vms=2, mean=10.0, std=1.0),
                    wait=False,
                    tenant="noisy",
                )
            with pytest.raises(OverQuotaError) as excinfo:
                service.submit(
                    HomogeneousSVC(n_vms=2, mean=10.0, std=1.0),
                    wait=False,
                    tenant="noisy",
                )
            assert excinfo.value.code == CODE_OVER_QUOTA
            assert excinfo.value.retry_after is not None
            assert excinfo.value.retry_after > 0.0
            # Other tenants are unaffected: the shed is per-tenant.
            ticket = service.submit(
                HomogeneousSVC(n_vms=2, mean=10.0, std=1.0),
                wait=False,
                tenant="quiet",
            )
            assert ticket.outcome is None  # queued, not shed
            stats = service.stats()
            assert stats["counters"]["shed"] == 1
            assert stats["tenants"]["depths"] == {"noisy": 2, "quiet": 1}
        finally:
            service.stop()

    def test_quota_drains_and_recovers(self, tiny_tree):
        with AdmissionService(
            NetworkManager(tiny_tree), workers=1, tenant_quota=1
        ) as service:
            # With workers running the slice drains, so sequential submits
            # from one tenant all land despite the quota of one.
            for _ in range(4):
                ticket = service.submit(
                    HomogeneousSVC(n_vms=2, mean=10.0, std=1.0), tenant="t"
                )
                assert ticket.outcome == OUTCOME_ADMITTED
                service.release(ticket.request_id)


MALFORMED_TENANTS = [7, ["a", "b"], {"name": "a"}, "", "x" * (MAX_TENANT_LENGTH + 1)]
MALFORMED_IDS = ["int", "list", "dict", "empty", "too_long"]
WIRE_REQUEST = {"kind": "homogeneous", "n_vms": 2, "mean": 10.0, "std": 1.0}


class TestTenantFromTheWire:
    """``tenant`` is client input: a bad one is a typed refusal, never state."""

    @pytest.mark.parametrize("tenant", MALFORMED_TENANTS, ids=MALFORMED_IDS)
    def test_dispatch_command_refuses_and_stats_still_answers(self, tiny_tree, tenant):
        with AdmissionService(NetworkManager(tiny_tree), workers=1) as service:
            command = {"op": "submit", "request": WIRE_REQUEST, "tenant": tenant}
            with pytest.raises(CodecError, match="tenant must be a string"):
                dispatch_command(service, command, lambda: None)
            stats = dispatch_command(service, {"op": "stats"}, lambda: None)["stats"]
            assert stats["counters"]["submitted"] == 0  # nothing was enqueued
            assert stats["tenants"]["weights"] == {}

    def test_live_front_door_refuses_and_stats_still_answers(self, tiny_tree):
        with AdmissionService(NetworkManager(tiny_tree), workers=1) as service:
            with served_front_door(service) as port:
                with ServiceClient(host="127.0.0.1", port=port) as client:
                    for tenant in MALFORMED_TENANTS:
                        with pytest.raises(ServiceError, match="tenant must be a string"):
                            client.call("submit", request=WIRE_REQUEST, tenant=tenant)
                    reply = client.call("submit", request=WIRE_REQUEST, tenant="gold")
                    assert reply["outcome"] == OUTCOME_ADMITTED
                    stats = client.stats()
        assert stats["counters"]["submitted"] == 1
        assert stats["tenants"]["weights"] == {"gold": 1}


@pytest.fixture
def registry():
    registry = instruments.reset_global_registry()
    yield registry
    instruments.reset_global_registry()


class TestTenantLabelCap:
    """Client-chosen tenant ids cannot grow the exposition or ``stats``."""

    def test_tenants_past_the_cap_report_as_other(self, tiny_tree, registry):
        service = AdmissionService(
            NetworkManager(tiny_tree),
            workers=1,
            max_queue_depth=None,
            tenant_quota=1,
            tenant_weights={"gold": 3},
        )
        service._running = True  # no workers: every submission stays queued
        request = HomogeneousSVC(n_vms=2, mean=10.0, std=1.0)
        tenants = [f"t{index}" for index in range(3 * TENANT_LABEL_CAP)]
        try:
            for tenant in tenants:
                service.submit(request, wait=False, tenant=tenant)
            # The weighted tenant held its place before any traffic, the
            # first cap - 1 arrivals took the rest; ``none`` is the preset.
            labelled = {"gold", *tenants[: TENANT_LABEL_CAP - 1]}
            for family in (
                "repro_service_tenant_queue_depth",
                "repro_service_tenant_shed_total",
            ):
                series = registry.snapshot()[family]["series"]
                assert len(series) <= TENANT_LABEL_CAP + 2, family
            depths = {
                entry["labels"]["tenant"]: entry["value"]
                for entry in registry.snapshot()[
                    "repro_service_tenant_queue_depth"
                ]["series"]
            }
            assert set(depths) == labelled | {OTHER_TENANTS, "none"}
            assert depths[OTHER_TENANTS] == len(tenants) - (TENANT_LABEL_CAP - 1)
            assert depths["t0"] == 1 and depths["gold"] == 0
            stats = service.stats()
            assert set(stats["tenants"]["weights"]) == labelled
            assert stats["tenants"]["weights"]["gold"] == 3
            # Pooled for reporting only: a capped tenant is still shed by
            # its own quota of one, and the shed is counted under ``other``.
            capped = tenants[-1]
            with pytest.raises(OverQuotaError):
                service.submit(request, wait=False, tenant=capped)
            shed = registry.get("repro_service_tenant_shed_total", tenant=OTHER_TENANTS)
            assert shed.value == 1
            assert registry.get("repro_service_tenant_shed_total", tenant=capped) is None
        finally:
            service.stop()

    def test_a_tenant_named_other_shares_the_pool(self, tiny_tree, registry):
        service = AdmissionService(NetworkManager(tiny_tree), workers=1)
        service._running = True
        try:
            service.submit(
                HomogeneousSVC(n_vms=2, mean=10.0, std=1.0),
                wait=False,
                tenant=OTHER_TENANTS,
            )
            depth = registry.get("repro_service_tenant_queue_depth", tenant=OTHER_TENANTS)
            assert depth.value == 1
            assert service.stats()["tenants"]["weights"] == {}
        finally:
            service.stop()
