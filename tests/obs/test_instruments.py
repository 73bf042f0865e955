"""Instrument facades: admission counters/traces, outage monitor, gauges."""

import itertools
import json

import pytest

from repro.abstractions.requests import HeterogeneousSVC, HomogeneousSVC
from repro.allocation import (
    SVCHeterogeneousAllocator,
    SVCHeterogeneousExactAllocator,
    SVCHomogeneousAllocator,
    svc_het_heuristic,
    svc_homogeneous,
)
from repro.allocation import base as allocation_base
from repro.manager.network_manager import NetworkManager
from repro.network import NetworkState
from repro.obs import instruments
from repro.obs.instruments import (
    PHASE_ALLOC,
    PHASE_BATCH_OCCUPANCY,
    PHASE_COMBINE,
    PHASE_PRUNE,
    PHASE_TABLE_BUILD,
    REASON_NO_FEASIBLE_MACHINE_LINK,
    REASON_NO_FEASIBLE_SUBTREE,
    REASON_NO_FREE_SLOTS,
    admission_instruments,
    bind_network_gauges,
    outage_monitor,
)
from repro.topology.builder import TINY_SPEC, DatacenterSpec, build_datacenter
from tests.conftest import build_star_tree


class TestAdmissionInstruments:
    def test_admit_and_reject_counters(self, fresh_registry):
        obs = admission_instruments()
        trace = obs.start("svc-dp")
        assert trace is not None  # sample_every=1 in the fixture
        trace.add_phase(PHASE_COMBINE, 0.001)
        obs.done("svc-dp", 0.002, admitted=True, trace=trace, n_vms=4)
        obs.start("svc-dp")
        obs.done("svc-dp", 0.001, admitted=False, reason=REASON_NO_FREE_SLOTS)

        requests = fresh_registry.get(
            "repro_admission_requests_total", allocator="svc-dp"
        )
        admitted = fresh_registry.get(
            "repro_admission_admitted_total", allocator="svc-dp"
        )
        rejected = fresh_registry.get(
            "repro_admission_rejected_total",
            allocator="svc-dp",
            reason=REASON_NO_FREE_SLOTS,
        )
        assert requests.value == 2
        assert admitted.value == 1
        assert rejected.value == 1
        phase = fresh_registry.get("repro_admission_phase_seconds", phase=PHASE_COMBINE)
        assert phase.count == 1
        assert obs.tracer.recent()[-1]["meta"]["n_vms"] == 4

    def test_cache_accounting(self, fresh_registry):
        obs = admission_instruments()
        obs.cache("machine", lookups=10, hits=7)
        obs.cache("machine", lookups=0, hits=0)  # no-op, not a divide-by-zero
        lookups = fresh_registry.get(
            "repro_admission_cache_lookups_total", cache="machine"
        )
        hits = fresh_registry.get("repro_admission_cache_hits_total", cache="machine")
        assert lookups.value == 10
        assert hits.value == 7

    def test_allocator_end_to_end_records_phases_and_caches(self, fresh_registry):
        # Drive the real fast-DP allocator: every request is traced
        # (sample_every=1), so phase histograms and cache counters move.
        manager = NetworkManager(build_datacenter(TINY_SPEC), epsilon=0.05)
        assert manager.request(HomogeneousSVC(n_vms=4, mean=100.0, std=30.0))
        assert (
            manager.request(HomogeneousSVC(n_vms=10**6, mean=100.0, std=30.0)) is None
        )
        hist = fresh_registry.get(
            "repro_admission_allocate_seconds", allocator="svc-dp"
        )
        assert hist.count == 2
        table_build = fresh_registry.get(
            "repro_admission_phase_seconds", phase=PHASE_TABLE_BUILD
        )
        assert table_build.count >= 1
        lookups = fresh_registry.get(
            "repro_admission_cache_lookups_total", cache="machine"
        )
        assert lookups.value > 0

    def test_exact_het_allocator_is_instrumented(self, fresh_registry):
        # The exact subset DP must feed the same counter/histogram families
        # as the other allocators — dispatcher stats and `svc-repro top`
        # undercounted while it bypassed repro.obs.
        tree = build_star_tree(slots=(2, 2), capacities=(1000.0, 1000.0))
        allocator = SVCHeterogeneousExactAllocator()
        state = NetworkState(tree, epsilon=0.05)
        assert allocator.allocate(state, HeterogeneousSVC.uniform(3, 100.0, 30.0), 1)
        # 6 VMs > 4 total slots: rejected before any table is built.
        assert allocator.allocate(state, HeterogeneousSVC.uniform(6, 100.0, 30.0), 2) is None
        # Saturate both uplinks: a 3-VM request must split but cannot.
        for link in state.links.values():
            if state.tree.node(link.link.child).is_machine:
                link.add_deterministic(999, link.capacity)
        assert allocator.allocate(state, HeterogeneousSVC.uniform(3, 100.0, 30.0), 3) is None

        name = allocator.name
        requests = fresh_registry.get("repro_admission_requests_total", allocator=name)
        admitted = fresh_registry.get("repro_admission_admitted_total", allocator=name)
        assert requests.value == 3
        assert admitted.value == 1
        for reason in (REASON_NO_FREE_SLOTS, REASON_NO_FEASIBLE_SUBTREE):
            rejected = fresh_registry.get(
                "repro_admission_rejected_total", allocator=name, reason=reason
            )
            assert rejected.value == 1, reason
        latency = fresh_registry.get("repro_admission_allocate_seconds", allocator=name)
        assert latency.count == 3

    def test_het_fast_path_records_caches_and_phases(self, fresh_registry):
        # The heterogeneous level walk shares machine/vertex/effective tables;
        # its cache counters and DP-phase timings must land in the registry.
        # Twenty VMs overflow a 16-slot rack, so the search ascends past the
        # racks and combines their tables (the backtrack's own folds are
        # PHASE_ALLOC, not a second PHASE_COMBINE entry).
        state = NetworkState(build_datacenter(TINY_SPEC), epsilon=0.05)
        allocator = SVCHeterogeneousAllocator()
        assert allocator.allocate(state, HeterogeneousSVC.uniform(20, 100.0, 30.0), 1)
        for cache in ("het_machine", "het_vertex", "het_eff"):
            lookups = fresh_registry.get(
                "repro_admission_cache_lookups_total", cache=cache
            )
            assert lookups is not None and lookups.value > 0, cache
            hits = fresh_registry.get("repro_admission_cache_hits_total", cache=cache)
            assert hits is not None and hits.value >= 0, cache
        combine = fresh_registry.get("repro_admission_phase_seconds", phase=PHASE_COMBINE)
        assert combine.count >= 1
        latency = fresh_registry.get(
            "repro_admission_allocate_seconds", allocator="svc-het"
        )
        assert latency.count == 1

    @pytest.mark.parametrize("name", ["svc-het", "svc-dp"])
    def test_a_sampled_admits_phases_never_overlap(self, fresh_registry, monkeypatch, name):
        # Every clock read is one tick after the last, so a phase is worth
        # the reads made inside it and disjoint phases cannot add up to more
        # than the decision they are phases of.  The het backtrack used to be
        # PHASE_ALLOC as a whole *and* PHASE_COMBINE per vertex on the path.
        ticks = itertools.count()
        for module in (allocation_base, svc_het_heuristic, svc_homogeneous):
            monkeypatch.setattr(module, "perf_counter", lambda: float(next(ticks)))
        # Twelve one-machine racks under one pod, all of them on the placement
        # path: thirteen double bookings, more than the unbooked ticks between
        # phases could hide.
        spec = DatacenterSpec(machines_per_rack=1, slots_per_machine=2, racks_per_pod=12, pods=1)
        state = NetworkState(build_datacenter(spec), epsilon=0.05)
        if name == "svc-het":
            placed = SVCHeterogeneousAllocator().allocate(
                state, HeterogeneousSVC.uniform(24, 20.0, 5.0), 1
            )
        else:
            placed = SVCHomogeneousAllocator().allocate(
                state, HomogeneousSVC(n_vms=24, mean=20.0, std=5.0), 1
            )
        assert placed is not None and len(placed.machine_counts) == 12
        phases = admission_instruments().tracer.recent()[-1]["phases_ms"]
        assert set(phases) == {
            PHASE_PRUNE, PHASE_TABLE_BUILD, PHASE_BATCH_OCCUPANCY, PHASE_COMBINE, PHASE_ALLOC
        }
        duration = fresh_registry.get("repro_admission_allocate_seconds", allocator=name)
        assert duration.count == 1
        spent = sum(
            fresh_registry.get("repro_admission_phase_seconds", phase=phase).total
            for phase in phases
        )
        assert 0 < spent <= duration.total

    def test_het_reject_proved_at_the_machine_links_has_its_own_reason(self, fresh_registry):
        def rejected(reason):
            return fresh_registry.get(
                "repro_admission_rejected_total", allocator="svc-het", reason=reason
            )

        # Every VM outgrows the 1 Gbps NIC: not "the datacenter is full".
        tree = build_datacenter(TINY_SPEC)
        allocator = SVCHeterogeneousAllocator()
        state = NetworkState(tree, epsilon=0.05)
        assert allocator.allocate(state, HeterogeneousSVC.uniform(6, 900.0, 300.0), 1) is None
        assert rejected(REASON_NO_FEASIBLE_MACHINE_LINK).value == 1
        assert rejected(REASON_NO_FEASIBLE_SUBTREE) is None
        # The proved path feeds every cache counter and times its phase.
        for cache in ("het_machine", "het_vertex", "het_eff"):
            lookups = fresh_registry.get("repro_admission_cache_lookups_total", cache=cache)
            assert lookups is not None and lookups.value > 0, cache
        prune = fresh_registry.get("repro_admission_phase_seconds", phase=PHASE_PRUNE)
        assert prune.count == 1
        # Twenty small VMs pass every NIC but overflow a 16-slot rack, and the
        # rack uplinks are reserved to the brim: a reject the tables decide.
        state = NetworkState(tree, epsilon=0.05)
        for rack in tree.nodes_at_level(1):
            state.links[rack].add_deterministic(999, state.links[rack].capacity)
        assert allocator.allocate(state, HeterogeneousSVC.uniform(20, 90.0, 30.0), 2) is None
        assert rejected(REASON_NO_FEASIBLE_MACHINE_LINK).value == 1
        assert rejected(REASON_NO_FEASIBLE_SUBTREE).value == 1

    def test_disabled_swaps_in_noop_facade(self, fresh_registry):
        instruments.configure(enabled=False)
        obs = admission_instruments()
        assert obs.start("svc-dp") is None
        obs.done("svc-dp", 0.001, admitted=True)  # must not touch the registry
        obs.cache("machine", 5, 5)
        assert fresh_registry.get(
            "repro_admission_requests_total", allocator="svc-dp"
        ) is None
        monitor = outage_monitor()
        monitor.record(5, 5)
        assert monitor.rate() == 0.0
        assert monitor.within_bound()


class TestOutageMonitor:
    def test_rate_and_bound(self, fresh_registry):
        monitor = outage_monitor()
        assert monitor.rate() == 0.0  # no load yet: no NaN, no crash
        monitor.record(outage_seconds=2, loaded_seconds=10)
        monitor.record(outage_seconds=0, loaded_seconds=10)
        assert monitor.rate() == 2 / 20
        monitor.set_epsilon(0.25)
        assert monitor.within_bound()
        assert not monitor.within_bound(epsilon=0.05)

    def test_rate_gauge_pulls_live_value(self, fresh_registry):
        monitor = outage_monitor()
        monitor.record(1, 4)
        gauge = fresh_registry.get("repro_outage_empirical_rate")
        assert gauge.value == 0.25


class TestNetworkGauges:
    def test_gauges_follow_manager_state(self, fresh_registry):
        manager = NetworkManager(build_datacenter(TINY_SPEC), epsilon=0.05)
        bind_network_gauges(fresh_registry, manager)
        tenancy = manager.request(HomogeneousSVC(n_vms=4, mean=100.0, std=30.0))
        assert tenancy is not None
        assert fresh_registry.get("repro_network_tenants").value == 1.0
        used = fresh_registry.get("repro_network_slots", state="used")
        assert used.value == 4.0
        occupancy = fresh_registry.get(
            "repro_network_link_occupancy", level="machine", stat="max"
        )
        assert occupancy is not None and occupancy.value >= 0.0
        manager.release(tenancy)
        assert fresh_registry.get("repro_network_tenants").value == 0.0
        assert fresh_registry.get("repro_network_slots", state="used").value == 0.0
        # The whole bound registry must stay JSON-clean with live callbacks.
        json.dumps(fresh_registry.snapshot())

    def test_headroom_gauges_track_mean_demand(self, fresh_registry):
        manager = NetworkManager(build_datacenter(TINY_SPEC), epsilon=0.05)
        bind_network_gauges(fresh_registry, manager)
        before = fresh_registry.get(
            "repro_network_headroom_mbps", level="machine", stat="min"
        ).value
        tenancy = manager.request(HomogeneousSVC(n_vms=3, mean=200.0, std=50.0))
        assert tenancy is not None
        after = fresh_registry.get(
            "repro_network_headroom_mbps", level="machine", stat="min"
        ).value
        # A spread tenant puts mean demand on some machine uplink, so the
        # worst-case headroom can only shrink (or stay equal if co-located).
        assert after <= before


class TestExperimentInstruments:
    def test_families_present_before_traffic(self, fresh_registry):
        instruments.experiment_instruments()
        completed = fresh_registry.get(
            "repro_experiment_cells_completed_total", experiment="none"
        )
        seconds = fresh_registry.get(
            "repro_experiment_cell_seconds", experiment="none"
        )
        assert completed.value == 0
        assert seconds.count == 0

    def test_cell_completed_records_count_and_wall_time(self, fresh_registry):
        obs = instruments.experiment_instruments()
        obs.cell_completed("fig8", 0.3)
        obs.cell_completed("fig8", 1.7)
        obs.cell_completed("fig9", 0.05)
        assert fresh_registry.get(
            "repro_experiment_cells_completed_total", experiment="fig8"
        ).value == 2
        histogram = fresh_registry.get(
            "repro_experiment_cell_seconds", experiment="fig8"
        )
        assert histogram.count == 2
        assert histogram.total == 2.0
        assert fresh_registry.get(
            "repro_experiment_cells_completed_total", experiment="fig9"
        ).value == 1

    def test_disabled_instrumentation_is_a_noop(self, fresh_registry):
        instruments.configure(enabled=False)
        obs = instruments.experiment_instruments()
        obs.cell_completed("fig8", 0.3)  # must not touch (or need) a registry
        instruments.configure(enabled=True)
        assert fresh_registry.get(
            "repro_experiment_cells_completed_total", experiment="fig8"
        ) is None
