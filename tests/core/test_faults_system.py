"""System-level fault tolerance: failover, rebalance, audit, storms."""

import pytest

from repro.core import ClueSystem, SystemConfig
from repro.engine.simulator import EngineConfig
from repro.faults import FaultSchedule
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.trafficgen import TrafficGenerator


@pytest.fixture(scope="module")
def system_rib():
    return generate_rib(13, RibParameters(size=3_000))


def fresh_system(system_rib, **config_kwargs):
    config = SystemConfig(
        engine=EngineConfig(chip_count=4), **config_kwargs
    )
    return ClueSystem(system_rib, config)


class TestFailoverAcceptance:
    def test_chip_death_mid_run(self, system_rib):
        """Kill 1 of 4 chips mid-run: conservation + correct next hops."""
        system = fresh_system(system_rib)
        schedule = FaultSchedule(seed=3).chip_down(1_000, chip=1)
        system.attach_faults(schedule)
        stats = system.process_traffic(
            TrafficGenerator(system_rib, seed=17), 10_000
        )
        assert stats.completions == stats.arrivals == 10_000
        assert system.engine.verify_completions()
        assert stats.failed_over_packets > 0
        assert stats.chip_failures == 1

    def test_rebalance_spreads_over_survivors(self, system_rib):
        system = fresh_system(system_rib)
        system.fail_chip(1)
        report = system.rebalance()
        assert report.survivor_chips == [0, 2, 3]
        assert report.is_even
        # The dead chip carries nothing; survivors split the table evenly
        # (each chip holds partitions_per_chip partitions of spread ≤ 1).
        sizes = [len(chip.table) for chip in system.engine.chips]
        assert sizes[1] == 0
        live = [sizes[i] for i in (0, 2, 3)]
        assert max(live) - min(live) <= system.config.partitions_per_chip
        assert sum(live) == len(system.pipeline.trie_stage.table.table)
        # Traffic after the rebalance is still answered correctly.
        system.process_traffic(TrafficGenerator(system_rib, seed=18), 3_000)
        assert system.engine.verify_completions()

    def test_recovery_then_rebalance_folds_chip_back(self, system_rib):
        system = fresh_system(system_rib)
        system.fail_chip(2)
        system.rebalance()
        system.recover_chip(2)
        report = system.rebalance()
        assert report.survivor_chips == [0, 1, 2, 3]
        assert all(len(chip.table) > 0 for chip in system.engine.chips)


class TestChipAudit:
    def test_clean_system_audits_clean(self, system_rib):
        system = fresh_system(system_rib)
        report = system.verify_chips()
        assert report.clean
        assert report.chips_checked == [0, 1, 2, 3]
        assert report.entries_checked >= len(
            system.pipeline.trie_stage.table.table
        )

    def test_detects_and_repairs_corruption(self, system_rib):
        system = fresh_system(system_rib)
        schedule = (
            FaultSchedule(seed=5).corrupt(0, chip=0).corrupt(0, chip=2)
        )
        system.attach_faults(schedule)
        system.process_traffic(TrafficGenerator(system_rib, seed=19), 100)
        assert system.engine.stats.corrupted_entries == 2
        detected = system.verify_chips(repair=False)
        assert detected.hops_repaired == 2
        repaired = system.verify_chips(repair=True)
        assert repaired.hops_repaired == 2
        assert system.verify_chips().clean
        assert system.report().chip_repairs == 2
        assert any(
            "repaired" in line for line in system.report().summary_lines()
        )

    def test_repairs_stray_and_missing(self, system_rib):
        system = fresh_system(system_rib)
        chip = system.engine.chips[0]
        prefix, hop = next(iter(chip.table.routes()))
        chip.table.delete(prefix)
        from repro.net.prefix import Prefix

        stray = Prefix.parse("240.0.0.0/5")
        system.engine.chips[1].table.insert(stray, 99)
        report = system.verify_chips()
        assert report.missing_restored == 1
        assert report.stray_removed == 1
        assert chip.table.get(prefix) == hop
        assert system.engine.chips[1].table.get(stray) is None

    def test_audit_step_round_robin(self, system_rib):
        system = fresh_system(system_rib)
        checked = [system.audit_step().chips_checked[0] for _ in range(5)]
        assert checked == [0, 1, 2, 3, 0]


class TestStormBackpressure:
    def test_storm_sheds_and_keeps_mirror_coherent(self, system_rib):
        system = fresh_system(system_rib, update_queue_capacity=32)
        schedule = FaultSchedule(seed=7).storm(10, count=200)
        system.attach_faults(schedule)
        system.process_traffic(TrafficGenerator(system_rib, seed=21), 2_000)
        stats = system.engine.stats
        assert stats.shed_updates > 0
        # Lookups stayed correct throughout the burst, and every update
        # the storm sink pumped reached the TCAM mirror at once.
        assert system.engine.verify_completions()
        assert system.pipeline.tcam_matches_table()
        system.drain_updates()
        assert system.pipeline.tcam_matches_table()

    def test_chips_track_table_through_storm(self, system_rib):
        system = fresh_system(system_rib, update_queue_capacity=16)
        schedule = FaultSchedule(seed=9).storm(0, count=60)
        system.attach_faults(schedule)
        system.process_traffic(TrafficGenerator(system_rib, seed=22), 500)
        system.drain_updates()
        # The live chip tables followed every diff through the burst —
        # the audit finds nothing to fix.
        assert system.verify_chips().clean

    def test_dred_exclusion_holds_after_faults(self, system_rib):
        system = fresh_system(system_rib)
        schedule = (
            FaultSchedule(seed=11)
            .chip_down(500, chip=3)
            .storm(800, count=50)
            .chip_up(2_000, chip=3)
        )
        system.attach_faults(schedule)
        system.process_traffic(TrafficGenerator(system_rib, seed=23), 4_000)
        system.drain_updates()
        assert system.check_dred_exclusion()
        assert system.engine.verify_completions()
