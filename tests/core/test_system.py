"""Tests for the integrated ClueSystem facade."""

import pytest

from repro.core import ClueSystem, SystemConfig
from repro.engine.simulator import EngineConfig
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateGenerator


@pytest.fixture(scope="module")
def system_rib():
    from repro.workload.ribgen import RibParameters, generate_rib

    return generate_rib(9, RibParameters(size=3_000))


class TestConstruction:
    def test_compression_applied(self, system_rib):
        system = ClueSystem(system_rib)
        report = system.compression_report()
        assert report.original_entries == len(system_rib)
        assert report.compressed_entries < len(system_rib)

    def test_partitions_even_and_mapped(self, system_rib):
        system = ClueSystem(system_rib)
        home = system.engine.home_of
        sizes = [0] * len(home.index.boundaries)
        for prefix in system.pipeline.trie_stage.table.table:
            sizes[home.index.home_of(prefix.network)] += 1
        assert max(sizes) - min(sizes) <= 1
        assert len(sizes) == 32
        assert sorted(set(home.mapping)) == [0, 1, 2, 3]

    def test_chips_union_is_compressed_table(self, system_rib):
        system = ClueSystem(system_rib)
        union = {}
        for chip in system.engine.chips:
            for prefix, hop in chip.table.routes():
                assert prefix not in union
                union[prefix] = hop
        assert union == system.pipeline.trie_stage.table.table

    def test_dred_banks_shared(self, system_rib):
        system = ClueSystem(system_rib)
        assert system.pipeline.dred_stage.caches == [
            chip.dred for chip in system.engine.chips
        ]

    def test_custom_config(self, system_rib):
        config = SystemConfig(
            engine=EngineConfig(chip_count=2), partitions_per_chip=4
        )
        system = ClueSystem(system_rib, config)
        assert len(system.engine.home_of.index.boundaries) == 8
        assert len(system.engine.chips) == 2


class TestOperation:
    def test_lookup(self, system_rib):
        system = ClueSystem(system_rib)
        prefix, hop = system_rib[0]
        assert system.lookup(prefix.network) is not None

    def test_traffic_processing(self, system_rib):
        system = ClueSystem(system_rib)
        stats = system.process_traffic(
            TrafficGenerator(system_rib, seed=1), 5_000
        )
        assert stats.completions == 5_000
        assert system.engine.verify_completions()

    def test_interleaved_updates_and_traffic(self, system_rib):
        system = ClueSystem(system_rib)
        traffic = TrafficGenerator(system_rib, seed=2)
        updates = UpdateGenerator(system_rib, seed=3)
        for _ in range(4):
            system.process_traffic(traffic, 2_000)
            assert system.engine.verify_completions()
            system.engine.reorder.released.clear()
            for message in updates.take(80):
                system.apply_update(message)
            # invariants after churn
            assert system.pipeline.tcam_matches_table()
            union = {}
            for chip in system.engine.chips:
                union.update(chip.table.as_dict())
            assert union == system.pipeline.trie_stage.table.table

    def test_range_spanning_entry_served_everywhere(self, system_rib, rng):
        """Regression: an update can emit an entry spanning several frozen
        partition ranges; every homed chip must be able to serve it."""
        system = ClueSystem(system_rib)
        from repro.net.prefix import Prefix
        from repro.workload.updategen import UpdateKind, UpdateMessage

        wide = Prefix(1, 2)  # 64.0.0.0/2 — spans many partitions
        system.apply_update(
            UpdateMessage(UpdateKind.ANNOUNCE, wide, 99, 0.0)
        )
        reference = system.pipeline.trie_stage.table.source
        for _ in range(400):
            address = wide.network + rng.randrange(wide.size)
            expected = reference.lookup(address)
            home_chip = system.engine.chips[system.engine.home_of(address)]
            assert home_chip.table.lookup(address) == expected

    @pytest.mark.parametrize("backend", ["trie", "fast"])
    def test_spanning_entry_withdrawn_from_every_replica(self, backend):
        """An entry that spans the chip boundary lives on both chips, and
        replacing it must delete every replica, not just the first."""
        from repro.net.prefix import Prefix
        from repro.workload.updategen import UpdateKind, UpdateMessage

        quarters = [
            Prefix.parse(f"{octet}.0.0.0/2") for octet in (0, 64, 128, 192)
        ]
        system = ClueSystem(
            list(zip(quarters, [1, 1, 2, 2])),
            SystemConfig(
                engine=EngineConfig(chip_count=2, lookup_backend=backend),
                partitions_per_chip=1,
            ),
        )

        def announce(prefix, hop):
            system.apply_update(
                UpdateMessage(UpdateKind.ANNOUNCE, prefix, hop, 0.0)
            )

        announce(quarters[2], 1)
        announce(quarters[3], 1)
        root = Prefix.root()
        assert [chip.table.get(root) for chip in system.engine.chips] == [1, 1]
        announce(quarters[2], 2)
        assert system.verify_chips(repair=False).clean

    def test_report_lines(self, system_rib):
        system = ClueSystem(system_rib)
        system.process_traffic(TrafficGenerator(system_rib, seed=4), 1_000)
        lines = system.report().summary_lines()
        assert any("compression" in line for line in lines)
        assert any("lookup" in line for line in lines)
