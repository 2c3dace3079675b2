"""Crash-recovery sweeps over the PDE stack via the crashsim harness.

Tier-1 runs the exhaustive in-order sweep of every scenario at seed 0;
``pytest -m crash`` adds the heavier seeds.
"""

import pytest

from repro.blockdev.faults import FaultPlan, inject
from repro.errors import PowerCutError
from repro.testing.crashsim import (
    SCENARIOS,
    Ext4FlushScenario,
    MetadataCommitScenario,
    SystemCrashScenario,
    ThinPoolScenario,
    count_workload_writes,
    crash_sweep,
    pool_invariants,
    stride_indices,
)


def assert_full_recovery(report):
    assert report.recovery_rate == 1.0, "\n" + report.render()
    assert report.attempted > 0
    assert report.crashes == report.attempted  # every swept index must cut


class TestSweepMachinery:
    def test_count_workload_writes_is_deterministic(self):
        a = count_workload_writes(ThinPoolScenario, seed=3)
        b = count_workload_writes(ThinPoolScenario, seed=3)
        assert a == b > 0

    def test_stride_indices(self):
        assert stride_indices(10, 3) == [0, 3, 6, 9]
        assert stride_indices(10, 3, offset=1) == [1, 4, 7]
        with pytest.raises(ValueError):
            stride_indices(10, 0)

    def test_report_records_failures_verbatim(self):
        class BrokenScenario(MetadataCommitScenario):
            name = "broken"

            def recover_and_check(self):
                return ["synthetic violation"]

        report = crash_sweep(BrokenScenario, indices=[0, 1], seed=0)
        assert report.recovery_rate == 0.0
        assert all(o.issues == ("synthetic violation",) for o in report.outcomes)
        assert "synthetic violation" in report.render()

    def test_scenario_registry_covers_all_layers(self):
        assert set(SCENARIOS) == {"metadata", "pool", "ext4", "system"}


class TestMetadataTwoPhaseCommit:
    """Satellite: exhaustive sweep — a previous generation is always intact."""

    def test_exhaustive_sweep_every_write_index(self):
        report = crash_sweep(MetadataCommitScenario, seed=0)
        assert_full_recovery(report)

    def test_exhaustive_sweep_other_seed(self):
        report = crash_sweep(MetadataCommitScenario, seed=17)
        assert_full_recovery(report)


class TestThinPoolSweep:
    def test_exhaustive_sweep(self):
        report = crash_sweep(ThinPoolScenario, seed=0)
        assert_full_recovery(report)

    def test_pool_invariants_flag_violations(self):
        scenario = ThinPoolScenario(seed=0)
        scenario.build()
        pool = scenario.pool
        assert pool_invariants(pool) == []
        # sabotage: double-map one physical block across two volumes
        thin = pool.get_thin(1)
        thin.write_block(0, b"\x01" * pool.block_size)
        pblock = pool.metadata.volumes[1].mappings[0]
        pool.metadata.volumes[2].mappings[9] = pblock
        issues = pool_invariants(pool)
        assert any("double-mapped" in issue for issue in issues)


class TestExt4JournalSweep:
    def test_exhaustive_sweep(self):
        report = crash_sweep(Ext4FlushScenario, seed=0)
        assert_full_recovery(report)


class TestSystemSweep:
    def test_exhaustive_sweep(self):
        report = crash_sweep(SystemCrashScenario, seed=0)
        assert report.attempted == report.total_writes
        assert_full_recovery(report)

    def test_crash_at_fast_switch_points(self):
        """Named crash sites inside switch_to_hidden recover cleanly too."""
        for site in (
            "system.switch.data-unmounted",
            "system.switch.hidden-mounted",
        ):
            scenario = SystemCrashScenario(seed=1)
            scenario.build()
            plan = FaultPlan(seed=2, crash_point=site)
            scenario.faulty.arm(plan)
            with pytest.raises(PowerCutError):
                with inject(plan):
                    scenario.workload()
            scenario.faulty.revive()
            assert scenario.recover_and_check() == []


@pytest.mark.crash
class TestExhaustiveCrashTier:
    """The slow tier: exhaustive sweeps across several seeds."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_metadata_exhaustive(self, seed):
        assert_full_recovery(crash_sweep(MetadataCommitScenario, seed=seed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pool_exhaustive(self, seed):
        assert_full_recovery(crash_sweep(ThinPoolScenario, seed=seed))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_ext4_exhaustive(self, seed):
        assert_full_recovery(crash_sweep(Ext4FlushScenario, seed=seed))

    @pytest.mark.parametrize("seed", [0, 1])
    def test_system_exhaustive(self, seed):
        assert_full_recovery(crash_sweep(SystemCrashScenario, seed=seed))
