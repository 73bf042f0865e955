"""The chaos referee detects what it claims to.

Every test recovers a real system of each kind — one journaled node, and
a coordinator over two journaled shards — from a short fault-free drive,
plants one violation behind the system's back, and asserts the referee
names it.  Together they emit every failure message the runner has.
"""

import itertools

import pytest

import repro.faults.harness as harness
from repro.abstractions import HomogeneousSVC
from repro.cluster.chaos import ClusterSystem
from repro.faults.harness import (
    Ack,
    Ledger,
    NodeSystem,
    Reply,
    referee,
    retry_unacked,
    run_schedule,
)


def small_request():
    return HomogeneousSVC(n_vms=2, mean=50.0, std=10.0)


def recovered_with_three_admits(system, directory):
    """Drive three acked admissions, kill, recover; the ledger."""
    system.start(directory, snapshot_every=5, fsync=False)
    ledger = Ledger()
    for index in range(3):
        reply = system.submit(f"k-{index}", small_request())
        assert reply.ack == Ack.ACKED and reply.outcome == "admitted"
        ledger.acked_active[f"k-{index}"] = reply.request_id
    system.kill()
    system.recover()
    assert referee(system, ledger, "clean") == []
    return ledger


@pytest.fixture(params=[NodeSystem, ClusterSystem], ids=["node", "cluster"])
def recovered(request, tmp_path):
    """A recovered system of each kind, and its ledger."""
    system = request.param()
    yield system, recovered_with_three_admits(system, tmp_path / "run")
    system.stop()


@pytest.fixture
def cluster(tmp_path):
    system = ClusterSystem()
    yield system, recovered_with_three_admits(system, tmp_path / "run")
    system.stop()


def planted(system, ledger):
    return "\n".join(referee(system, ledger, "planted"))


class TestSharedReferee:
    def test_clean_system_passes_both_stages(self, recovered):
        system, ledger = recovered
        assert retry_unacked(system, ledger) == []
        assert referee(system, ledger, "post-retry") == []

    def test_dropped_acked_admission(self, recovered):
        system, ledger = recovered
        request_id = ledger.acked_active["k-1"]
        if isinstance(system, ClusterSystem):
            system.coordinator._uninstall(request_id)
        else:
            system.manager.release(system.manager.get_tenancy(request_id))
        assert f"[planted] acked admission lost: k-1 (id {request_id})" in planted(
            system, ledger
        )

    def test_resurrected_release(self, recovered):
        system, ledger = recovered
        request_id = ledger.acked_active.pop("k-0")
        ledger.acked_released.append(request_id)
        assert f"acked release resurrected: id {request_id}" in planted(system, ledger)

    def test_state_diverging_from_oracle_replay(self, recovered):
        system, ledger = recovered
        label, _wal, _tree, manager = system.journals()[0]
        tenancy = next(manager.tenancies())
        manager.release(tenancy)  # never journaled
        report = planted(system, ledger)
        assert f"{label} state differs from oracle replay" in report
        assert f"{label} active set diverges" in report

    def test_occupancy_at_or_above_one(self, recovered):
        system, ledger = recovered
        label, _wal, _tree, manager = system.journals()[0]
        link = next(iter(manager.state.links.values()))
        link.deterministic_total = 2.0 * link.capacity
        assert f"{label} occupancy violates O_L < 1" in planted(system, ledger)

    def test_oracle_replay_that_raises(self, recovered, monkeypatch):
        system, ledger = recovered

        def broken(*_args):
            raise ValueError("unreadable")

        monkeypatch.setattr(harness, "oracle_replay", broken)
        assert "oracle replay raised ValueError: unreadable" in planted(system, ledger)


class TestRetryCheck:
    def test_unjournaled_key_admits_once(self, recovered):
        system, ledger = recovered
        ledger.unacked["fresh"] = small_request()
        assert retry_unacked(system, ledger) == []
        assert "fresh" in ledger.acked_active  # retried admits join the ledger

    def test_retry_that_forgets_its_key_diverges_and_double_admits(
        self, recovered, monkeypatch
    ):
        system, ledger = recovered
        submit, attempt = system.submit, itertools.count()
        monkeypatch.setattr(
            system, "submit", lambda key, request: submit(f"{key}/{next(attempt)}", request)
        )
        ledger.unacked["fresh"] = small_request()
        report = "\n".join(retry_unacked(system, ledger))
        assert "retries of fresh diverged" in report
        assert "fresh retry of fresh admitted 2 tenancies" in report

    def test_journaled_key_retried_as_new_double_admits(self, recovered, monkeypatch):
        system, ledger = recovered
        journaled_id = ledger.acked_active["k-2"]
        submit = system.submit
        monkeypatch.setattr(
            system, "submit", lambda key, request: submit(f"{key}/again", request)
        )
        ledger.unacked["k-2"] = small_request()
        report = "\n".join(retry_unacked(system, ledger))
        assert f"journal holds {journaled_id}" in report
        assert "retry of journaled k-2 double-admitted" in report

    def test_journaled_key_returning_another_outcome(self, recovered, monkeypatch):
        system, ledger = recovered
        monkeypatch.setattr(
            system, "submit", lambda key, request: Reply(Ack.ACKED, "rejected")
        )
        ledger.unacked["k-0"] = small_request()
        assert retry_unacked(system, ledger) == [
            "retry of journaled k-0 returned rejected, journal says admitted"
        ]

    def test_retry_that_never_decides(self, recovered, monkeypatch):
        system, ledger = recovered
        monkeypatch.setattr(system, "submit", lambda key, request: Reply(Ack.UNKNOWN))
        ledger.unacked["fresh"] = small_request()
        assert retry_unacked(system, ledger)[0].startswith(
            "retry of fresh did not decide"
        )


class TestClusterChecks:
    def test_missing_fragment(self, cluster):
        system, ledger = cluster
        gid = ledger.acked_active["k-0"]
        (shard_index, srid), = system.coordinator.fragments_of(gid).items()
        assert system.shard_list[shard_index].release(srid)  # journaled on the shard
        assert (
            f"gid {gid} fragment {srid} missing on shard {shard_index}"
            in planted(system, ledger)
        )

    def test_orphan_tenancy(self, cluster):
        system, ledger = cluster
        decision = system.shard_list[1].submit(small_request(), idempotency_key="stray")
        assert decision["outcome"] == "admitted"
        assert (
            f"shard 1 holds unaccounted tenancies [{decision['request_id']}]"
            in planted(system, ledger)
        )

    def test_replica_and_maps_disagree(self, cluster):
        system, ledger = cluster
        system.coordinator._gid_map.pop(ledger.acked_active["k-0"])
        assert "replica holds 3 tenancies, coordinator maps 2" in planted(
            system, ledger
        )

    def test_leaked_hold(self, cluster):
        system, ledger = cluster
        assert system.coordinator.ledger.reserve(10**6, {})
        assert "1 reservations leaked" in planted(system, ledger)

    def test_replica_link_sum_off_by_one(self, cluster):
        system, ledger = cluster
        link_id = system.partition.core_link_ids[0]
        system.coordinator.replica.state.links[link_id].mean_total += 1.0
        assert f"replica mean_total on core link {link_id} is" in planted(
            system, ledger
        )

    def test_replica_and_ledger_over_capacity(self, cluster):
        system, ledger = cluster
        link_id = system.partition.core_link_ids[0]
        link = system.coordinator.replica.state.links[link_id]
        link.deterministic_total = 2.0 * link.capacity
        report = planted(system, ledger)
        assert "replica occupancy violates O_L < 1" in report
        assert "ledger occupancy violates O_L < 1" in report


class TestRunnerFailures:
    def test_recovery_that_raises(self, tmp_path):
        class Unrecoverable(NodeSystem):
            def recover(self):
                raise OSError("disk gone")

        result = run_schedule(3, tmp_path / "run", Unrecoverable(), operations=5)
        assert result.failures == ["recovery raised OSError: disk gone"]

    def test_submit_that_hangs_without_a_crash(self, tmp_path):
        class Hanging(NodeSystem):
            def submit(self, key, request):
                return Reply(Ack.UNKNOWN)

        result = run_schedule(1, tmp_path / "run", Hanging(), operations=5)
        assert any("hung" in message for message in result.failures)
        assert not result.crashed
