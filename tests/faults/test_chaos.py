"""The chaos harness itself: a sampled run of seeded fault schedules.

CI runs the full 200-schedule suite through ``svc-repro chaos``; this test
keeps a smaller always-on sample inside tier 1 so a regression in the
recovery contract fails fast, and unit-checks the plan generator.
"""


from repro.faults.harness import NodeSystem, run_schedule, run_suite
from repro.faults.schedule import CRASH_SITES, ChaosPlan


class TestChaosPlan:
    def test_plans_are_pure_functions_of_the_seed(self):
        for seed in range(30):
            assert (
                ChaosPlan.generate(seed).describe()
                == ChaosPlan.generate(seed).describe()
            )

    def test_plan_space_covers_crash_and_no_crash_schedules(self):
        plans = [ChaosPlan.generate(seed) for seed in range(60)]
        sites = {plan.crash_site for plan in plans}
        assert None in sites  # some schedules never crash
        assert sites & set(CRASH_SITES)  # most plant a crash

    def test_crash_armings_fire_exactly_once(self):
        for seed in range(100):
            plan = ChaosPlan.generate(seed)
            for arming in plan.armings:
                if arming["mode"] == "crash":
                    assert arming["max_hits"] == 1
                    assert arming["every"] >= 2


class TestChaosSchedules:
    def test_sampled_schedules_uphold_the_recovery_contract(self, tmp_path):
        results = run_suite(12, 9000, tmp_path, NodeSystem(), operations=30)
        failing = [r for r in results if not r.ok]
        assert not failing, "\n".join(
            f"seed={r.seed}: {r.failures}" for r in failing
        )
        # The sample must actually exercise the interesting paths.
        assert any(r.crashed for r in results)
        assert sum(r.acked_admits for r in results) > 0

    def test_single_schedule_report_is_serializable(self, tmp_path):
        import json

        result = run_schedule(9001, tmp_path / "one", NodeSystem(), operations=20)
        payload = json.dumps(result.describe())
        assert str(result.seed) in payload
