"""Cluster chaos referee: a small in-suite sample of the CI sweep.

CI runs ``svc-repro cluster --chaos 200``; tier-1 keeps a three-seed
sample so a referee regression fails fast without the full sweep's cost.
"""

import pytest

from repro.cluster.chaos import cluster_chaos_plan, run_cluster_chaos_schedule


class TestPlanDeterminism:
    def test_same_seed_same_plan(self):
        first = cluster_chaos_plan(4242)
        second = cluster_chaos_plan(4242)
        assert first.describe() == second.describe()

    def test_some_crashes_move_into_the_coordinator(self):
        sites = {
            cluster_chaos_plan(seed).crash_site
            for seed in range(40)
            if cluster_chaos_plan(seed).crash_site is not None
        }
        assert any(
            site.startswith("cluster.coordinator.") for site in sites
        ), f"no coordinator crash sites in {sorted(sites)}"


@pytest.mark.parametrize("seed", [1000, 1001, 1002])
def test_schedule_holds_invariants(seed, tmp_path):
    result = run_cluster_chaos_schedule(
        seed, tmp_path / f"run{seed}", shards=2, operations=25
    )
    assert result.ok, f"seed {seed} violations: {result.failures}"
    # A planned crash may cut the workload short; some ops must still run.
    assert 0 < result.operations_run <= 25


def test_seed_18_failed_fsync_then_crash(tmp_path):
    """The one seed of the CI range (0-199) that failed before PR 15.

    With the default 40 operations the plan fails a coordinator ``radmit``
    at ``journal.fsync`` and crashes before the next coordinator append.
    The journal used to repair a failed append lazily, at the next append —
    so the un-acked record stayed in the file, recovery replayed it, and
    the client's retry was told it owned a tenancy that did not exist.  (At
    ``operations=25`` the plan differs and never reached the window.)
    """
    result = run_cluster_chaos_schedule(18, tmp_path / "run18", shards=2)
    assert result.ok, f"seed 18 violations: {result.failures}"
    assert result.crashed and result.unacked_keys > 0
