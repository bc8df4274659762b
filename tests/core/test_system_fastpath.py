"""ClueSystem under the ``fast`` lookup backend.

The integrated system must behave identically on every backend — same
engine statistics, same lookups, same snapshots — while the fast backend
actually takes the fused turbo loop for calm all-chips-alive traffic.
These tests drive the full facade (traffic, updates, rebalance, failover,
checkpoint/restore) rather than the bare engine.
"""

import tracemalloc

import pytest

from repro.core import ClueSystem, SystemConfig
from repro.engine.simulator import EngineConfig
from repro.serve.chaos import apply_to_reference
from repro.trie.trie import BinaryTrie
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateGenerator


@pytest.fixture(scope="module")
def system_rib():
    return generate_rib(21, RibParameters(size=3_000))


def fast_system(system_rib, **engine_knobs):
    return ClueSystem(
        system_rib,
        SystemConfig(
            engine=EngineConfig(lookup_backend="fast", **engine_knobs)
        ),
    )


def trie_system(system_rib):
    return ClueSystem(system_rib)


class TestTrafficParity:
    def test_stats_fingerprint_matches_trie(self, system_rib):
        results = {}
        for name, builder in (("fast", fast_system), ("trie", trie_system)):
            system = builder(system_rib)
            stats = system.process_traffic(
                TrafficGenerator(system_rib, seed=5), 4_000
            )
            assert system.engine.verify_completions()
            results[name] = stats.fingerprint()
        assert results["fast"] == results["trie"]

    def test_control_plane_lookup_unchanged(self, system_rib):
        fast = fast_system(system_rib)
        trie = trie_system(system_rib)
        for prefix, _hop in system_rib[:300]:
            assert fast.lookup(prefix.network) == trie.lookup(prefix.network)


class TestUpdatesUnderFastBackend:
    def test_updates_apply_and_parity_survives(self, system_rib):
        """Traffic after an update stream must still match the trie
        system applying the identical updates."""
        fingerprints = {}
        for name, builder in (("fast", fast_system), ("trie", trie_system)):
            system = builder(system_rib)
            traffic = TrafficGenerator(system_rib, seed=7)
            system.process_traffic(traffic, 2_000)
            samples = system.apply_updates(
                UpdateGenerator(system_rib, seed=9).take(200)
            )
            assert len(samples) == 200
            # (verify_completions is not applicable here: completions
            # recorded before the updates are checked against the *new*
            # reference table.  Cross-backend fingerprint equality is the
            # correctness bar.)
            stats = system.process_traffic(traffic, 2_000)
            fingerprints[name] = stats.fingerprint()
        assert fingerprints["fast"] == fingerprints["trie"]

    def test_request_sized_calls_match_reference_loop(self, system_rib):
        """The call shape ``repro serve`` runs: many small ``run()`` calls
        on one engine — DRed full, arrival credit carried from one call
        to the next, routes announced and withdrawn in between.  The
        fused loop must equal the reference loop (an observer forces it)
        after every call, and both must answer like a plain trie."""
        fused = fast_system(system_rib, dred_capacity=64)
        reference = fast_system(system_rib, dred_capacity=64)
        reference.engine.on_cycle = lambda cycle: None
        oracle = BinaryTrie.from_routes(system_rib)
        traffic = TrafficGenerator(system_rib, seed=37)
        updates = UpdateGenerator(system_rib, seed=41)
        sizes = (1, 7, 256, 1024)
        carried_credit = 0
        for call in range(60):
            if call % 5 == 4:
                batch = updates.take(4)
                fused.apply_updates(batch)
                reference.apply_updates(batch)
                apply_to_reference(oracle, batch)
            carried_credit += fused.engine._arrival_credit > 0.0
            addresses = traffic.take(sizes[call % len(sizes)])
            answers = fused.process_lookups(addresses)
            assert answers == reference.process_lookups(addresses)
            assert (
                fused.engine.stats.fingerprint()
                == reference.engine.stats.fingerprint()
            )
            for address, hop in zip(addresses, answers):
                expected = oracle.lookup(address)
                # Don't-care compression may answer unrouted space.
                assert expected is None or hop == expected
        stats = fused.engine.stats
        assert stats.dred_hits > 0 and stats.bounced > 0
        assert carried_credit >= 50
        assert all(
            len(chip.dred) == chip.dred.capacity
            for chip in fused.engine.chips
        )

    def test_parity_survives_rebalance(self, system_rib):
        """Rebalance reloads every chip table and flushes the DReds; the
        fused loop must pick the new tables up and match the trie system
        doing the same."""
        fingerprints = {}
        for name, builder in (("fast", fast_system), ("trie", trie_system)):
            system = builder(system_rib)
            system.apply_updates(
                UpdateGenerator(system_rib, seed=11).take(100)
            )
            report = system.rebalance()
            assert report.partition_sizes
            stats = system.process_traffic(
                TrafficGenerator(system_rib, seed=13), 2_000
            )
            assert stats.completions == stats.arrivals
            fingerprints[name] = stats.fingerprint()
        assert fingerprints["fast"] == fingerprints["trie"]


class TestPerCallCost:
    def test_one_address_call_allocates_no_home_table(self, system_rib):
        """``repro serve``'s one-address call: step II reads the engine's
        flattened home index, so the call builds no per-call /16 table
        (65,536 slots, ~0.5 MB)."""
        system = fast_system(system_rib)
        addresses = TrafficGenerator(system_rib, seed=43).take(1026)
        system.process_lookups(addresses[:1024])
        system.process_lookups(addresses[1024:1025])
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            system.process_lookups(addresses[1025:])
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024


class TestFailoverUnderFastBackend:
    def test_chip_death_falls_back_and_recovers(self, system_rib):
        fingerprints = {}
        for name, builder in (("fast", fast_system), ("trie", trie_system)):
            system = builder(system_rib)
            system.fail_chip(1)
            stats = system.process_traffic(
                TrafficGenerator(system_rib, seed=17), 2_000
            )
            assert system.engine.verify_completions()
            assert stats.failed_over_packets > 0
            system.recover_chip(1)
            stats = system.process_traffic(
                TrafficGenerator(system_rib, seed=17), 1_000
            )
            fingerprints[name] = stats.fingerprint()
        assert fingerprints["fast"] == fingerprints["trie"]


class TestSnapshotRoundTrip:
    def test_backend_survives_capture_restore(self, system_rib):
        """Also after a chip death and a survivor rebalance, where the
        restored system must take the snapshot's placement, not the one
        its constructor computes."""
        from repro.engine.fastlpm import FastLpmTable

        for failed_chip in (None, 2):
            system = fast_system(system_rib)
            oracle = BinaryTrie.from_routes(system_rib)
            system.process_traffic(
                TrafficGenerator(system_rib, seed=19), 1_500
            )
            if failed_chip is not None:
                system.fail_chip(failed_chip)
                system.rebalance()
            batch = UpdateGenerator(system_rib, seed=23).take(50)
            system.apply_updates(batch)
            apply_to_reference(oracle, batch)
            fingerprint = system.state_fingerprint()
            state = system.capture_state()

            restored = ClueSystem.from_state(state)
            assert restored.config.engine.lookup_backend == "fast"
            assert restored.state_fingerprint() == fingerprint
            home = restored.engine.home_of
            assert home.index.boundaries == state["boundaries"]
            assert home.mapping == state["partition_to_chip"]
            assert failed_chip not in home.mapping
            # The restored chips actually run the fast tables.
            assert all(
                type(chip.table) is FastLpmTable
                for chip in restored.engine.chips
            )
            addresses = TrafficGenerator(system_rib, seed=53).take(1_500)
            answers = restored.process_lookups(addresses)
            assert answers == system.process_lookups(addresses)
            for address, hop in zip(addresses, answers):
                expected = oracle.lookup(address)
                assert expected is None or hop == expected
            restored.process_traffic(
                TrafficGenerator(system_rib, seed=29), 1_000
            )
            assert restored.engine.verify_completions(covered_only=True)

    def test_lookups_leave_the_fingerprint_alone(self, system_rib):
        """DRed is soft state: traffic refills it without touching the
        fingerprint, which digests only what the journal determines."""
        system = fast_system(system_rib, dred_capacity=64)
        before = system.state_fingerprint()
        occupancy = [len(chip.dred) for chip in system.engine.chips]
        system.process_lookups(
            TrafficGenerator(system_rib, seed=31).take(2_000)
        )
        assert [len(chip.dred) for chip in system.engine.chips] != occupancy
        assert system.state_fingerprint() == before

    def test_snapshot_dred_is_ignored_on_restore(self, system_rib):
        """A snapshot written with DRed content (the older format) loads
        with cold DReds, as a rebooted line card does."""
        system = fast_system(system_rib, dred_capacity=64)
        system.process_lookups(
            TrafficGenerator(system_rib, seed=37).take(2_000)
        )
        state = system.capture_state()
        assert all("dred" not in chip_state for chip_state in state["chips"])
        for chip, chip_state in zip(system.engine.chips, state["chips"]):
            chip_state["dred"] = [
                [str(prefix), entry.next_hop, entry.owner]
                for prefix, entry in chip.dred._entries.items()
            ]
        assert any(chip_state["dred"] for chip_state in state["chips"])

        restored = ClueSystem.from_state(state)
        assert all(len(chip.dred) == 0 for chip in restored.engine.chips)
        assert restored.state_fingerprint() == system.state_fingerprint()
        oracle = BinaryTrie.from_routes(system_rib)
        addresses = TrafficGenerator(system_rib, seed=41).take(2_000)
        answers = restored.process_lookups(addresses)
        for address, hop in zip(addresses, answers):
            expected = oracle.lookup(address)
            assert expected is None or hop == expected

    def test_trie_snapshot_restores_as_trie(self, system_rib):
        system = trie_system(system_rib)
        restored = ClueSystem.from_state(system.capture_state())
        assert restored.config.engine.lookup_backend == "trie"
