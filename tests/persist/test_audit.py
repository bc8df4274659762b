"""Invariant auditor: each check detects its own class of damage."""

import pytest

from repro.core import ClueSystem, SystemConfig
from repro.engine.simulator import EngineConfig
from repro.net.prefix import Prefix
from repro.persist.audit import (
    AUDIT_CHECKS,
    InvariantAuditor,
    InvariantViolationError,
)
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateGenerator


@pytest.fixture()
def system():
    return ClueSystem(
        generate_rib(5, RibParameters(size=150)),
        SystemConfig(engine=EngineConfig(chip_count=2)),
    )


def first_entry_of(chip):
    return next(iter(chip.table.routes()))


class TestCleanSystem:
    def test_full_pass_ok(self, system):
        report = InvariantAuditor(system).run()
        assert report.ok
        assert sorted(report.checks_run) == sorted(AUDIT_CHECKS)
        assert report.addresses_sampled == 256
        assert report.entries_checked > 0

    def test_step_rotation_covers_every_check(self, system):
        auditor = InvariantAuditor(system)
        seen = []
        for _ in range(len(AUDIT_CHECKS)):
            seen.extend(auditor.step().checks_run)
        assert sorted(seen) == sorted(AUDIT_CHECKS)

    def test_system_facade_counts_runs(self, system):
        report = system.audit_invariants(sample_size=64)
        assert report.ok
        assert system.recovery_stats.audit_runs == 1
        system.invariant_step()
        assert system.recovery_stats.audit_runs == 2
        assert system.recovery_stats.audit_violations == 0


class TestDetection:
    def test_overlap_breaks_disjointness(self, system):
        table = system.pipeline.trie_stage.table.table
        table[Prefix(0, 0)] = 9  # covers everything
        report = InvariantAuditor(system).run()
        assert any(v.check == "disjoint" for v in report.violations)

    def test_wrong_hops_break_equivalence(self, system):
        table = system.pipeline.trie_stage.table.table
        for prefix in list(table):
            table[prefix] += 1  # still disjoint, every answer wrong
        report = InvariantAuditor(system).run()
        assert any(v.check == "equivalence" for v in report.violations)

    def test_chip_drift_breaks_partition(self, system):
        chip = system.engine.chips[0]
        prefix, hop = first_entry_of(chip)
        chip.table.insert(prefix, hop + 1)  # simulated slot corruption
        report = InvariantAuditor(system).run()
        assert any(v.check == "partition" for v in report.violations)
        # Detection must not mutate: the drift is still there.
        assert chip.table.get(prefix) == hop + 1

    def test_unevenness_breaks_partition(self, system):
        sizes = [len(chip.table) for chip in system.engine.chips]
        assert max(sizes) > sum(sizes) / len(sizes)  # any natural skew
        report = InvariantAuditor(system, evenness_tolerance=1.0).run()
        assert any(
            v.check == "partition" and "spread" in v.detail
            for v in report.violations
        )

    def test_own_prefix_in_dred_breaks_exclusion(self, system):
        chip = system.engine.chips[1]
        prefix, hop = first_entry_of(chip)
        # A prefix the chip itself serves must never sit in its DRed.
        chip.dred.insert(prefix, hop, owner=0)
        report = InvariantAuditor(system).run()
        assert any(v.check == "dred-exclusion" for v in report.violations)

    def test_stale_dred_hop_breaks_freshness(self, system):
        owner = system.engine.chips[0]
        prefix, hop = first_entry_of(owner)
        # A cached copy whose hop no longer matches the compressed table.
        system.engine.chips[1].dred.insert(prefix, hop + 1, owner=0)
        report = InvariantAuditor(system).run()
        assert [v.check for v in report.violations] == ["dred-fresh"]
        assert "caches hop" in report.violations[0].detail

    def test_dred_entry_its_owner_lost_breaks_freshness(self, system):
        owner = system.engine.chips[0]
        prefix, hop = first_entry_of(owner)
        system.engine.chips[1].dred.insert(prefix, hop, owner=0)
        assert InvariantAuditor(system).run().ok
        owner.table.delete(prefix)
        report = InvariantAuditor(system).run()
        assert any(
            v.check == "dred-fresh" and "no longer holds" in v.detail
            for v in report.violations
        )

    def test_halt_raises(self, system):
        system.pipeline.trie_stage.table.table[Prefix(0, 0)] = 9
        with pytest.raises(InvariantViolationError, match="disjoint"):
            InvariantAuditor(system).run(halt=True)
        with pytest.raises(InvariantViolationError):
            system.audit_invariants(halt=True)
        assert system.recovery_stats.audit_violations > 0


class TestDredFreshness:
    """TTF3: a DRed entry for a changed prefix just gets deleted."""

    @pytest.fixture()
    def served(self):
        routes = generate_rib(11, RibParameters(size=2000))
        system = ClueSystem(
            routes,
            SystemConfig(
                engine=EngineConfig(
                    chip_count=4, dred_capacity=256, lookup_backend="fast"
                )
            ),
        )
        return system, routes

    def test_updates_between_lookups_leave_dred_fresh(self, served):
        system, routes = served
        updates = UpdateGenerator(routes, seed=12)
        traffic = TrafficGenerator(routes, seed=13)
        for _ in range(5):
            system.apply_updates(updates.take(50))
            system.process_lookups(traffic.take(1000))
        assert sum(len(chip.dred) for chip in system.engine.chips) > 0
        report = system.audit_invariants()
        assert report.ok, report.summary()

    def test_healing_pass_deletes_drifted_dred_copies(self, served):
        system, routes = served
        chip = system.engine.chips[1]
        prefix, hop = first_entry_of(chip)
        chip.table.insert(prefix, hop + 1)  # slot corruption
        traffic = TrafficGenerator(routes, seed=13)
        for _ in range(3):
            system.process_lookups([prefix.network] * 8 + traffic.take(64))
        cached = [
            other.dred._entries.get(prefix)
            for other in system.engine.chips
            if other.dred is not None
        ]
        assert any(
            entry is not None and entry.next_hop == hop + 1 for entry in cached
        ), "lookups should have cached the corrupted hop"
        system.verify_chips(repair=True)
        report = system.audit_invariants()
        assert report.ok, report.summary()


class TestIncrementalForm:
    def test_partition_step_audits_one_chip(self, system):
        auditor = InvariantAuditor(system)
        # Rotate to the partition check (index 2 in AUDIT_CHECKS).
        auditor.step()
        auditor.step()
        report = auditor.step()
        assert report.checks_run == ["partition"]
        # One chip's entries, not all chips'.
        total = sum(len(c.table) for c in system.engine.chips)
        assert 0 < report.entries_checked < total

    def test_budget_bounds_sampling(self, system):
        auditor = InvariantAuditor(system)
        auditor.step()  # disjoint
        report = auditor.step(budget=16)  # equivalence
        assert report.addresses_sampled <= 16

    def test_bad_parameters(self, system):
        with pytest.raises(ValueError):
            InvariantAuditor(system, sample_size=0)
        with pytest.raises(ValueError):
            InvariantAuditor(system, evenness_tolerance=0.5)
        with pytest.raises(ValueError):
            InvariantAuditor(system).step(budget=0)
