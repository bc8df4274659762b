"""Tests for the flattened stride-table lookup backend (fastlpm)."""

import pytest

from repro.engine.fastlpm import (
    LOOKUP_BACKENDS,
    BackendMismatchError,
    FastLpmTable,
    VerifyingLpmTable,
    make_lookup_table,
)
from repro.engine.simulator import EngineConfig
from repro.net.prefix import Prefix
from repro.trie.trie import BinaryTrie

from tests.conftest import random_routes


def bits(pattern):
    return Prefix.from_bits(pattern)


def probe_addresses(routes, rng, extra=500):
    """Boundary addresses of every route plus a random sample."""
    addresses = []
    for prefix, _hop in routes:
        addresses.append(prefix.network)
        addresses.append(prefix.broadcast)
    addresses.extend(rng.randrange(1 << 32) for _ in range(extra))
    return addresses


class TestParity:
    def test_matches_trie_on_random_tables(self, rng):
        for _ in range(10):
            routes = random_routes(rng, 40, max_len=28, hops=9)
            trie = BinaryTrie.from_routes(routes)
            fast = FastLpmTable(routes)
            for address in probe_addresses(routes, rng):
                assert fast.lookup_prefix(address) == trie.lookup_prefix(
                    address
                ), f"divergence at {address:#010x}"
                assert fast.lookup(address) == trie.lookup(address)

    def test_matches_trie_on_real_rib(self, small_rib, small_trie, rng):
        fast = FastLpmTable(small_rib)
        for address in probe_addresses(small_rib[:200], rng, extra=2_000):
            assert fast.lookup_prefix(address) == small_trie.lookup_prefix(
                address
            )

    def test_default_route_and_empty_table(self):
        empty = FastLpmTable([])
        assert empty.lookup(0) is None
        assert empty.lookup_prefix(0xFFFFFFFF) is None
        default = FastLpmTable([(Prefix.root(), 7)])
        assert default.lookup(0) == 7
        assert default.lookup(0xFFFFFFFF) == 7

    def test_host_routes(self):
        host = Prefix(0x01020304, 32)
        table = FastLpmTable([(host, 5), (Prefix(0x01, 8), 1)])
        assert table.lookup(0x01020304) == 5
        assert table.lookup(0x01020305) == 1


class TestIncrementalUpdates:
    def test_insert_delete_parity_under_churn(self, rng):
        routes = random_routes(rng, 30, max_len=26, hops=9)
        trie = BinaryTrie.from_routes(routes)
        fast = FastLpmTable(routes)
        rebuilds_before = fast.rebuilds
        pool = [prefix for prefix, _hop in routes] + [
            Prefix(rng.randrange(1 << length), length)
            for length in (4, 12, 20, 28)
            for _ in range(5)
        ]
        for step in range(120):
            prefix = rng.choice(pool)
            if rng.random() < 0.5:
                hop = rng.randint(1, 9)
                assert fast.insert(prefix, hop) == trie.insert(prefix, hop)
            else:
                assert fast.delete(prefix) == trie.delete(prefix)
            address = prefix.network + rng.randrange(prefix.size)
            assert fast.lookup_prefix(address) == trie.lookup_prefix(address)
        # Spot-check the whole space after the churn.
        for address in probe_addresses(list(trie.routes()), rng):
            assert fast.lookup_prefix(address) == trie.lookup_prefix(address)
        # Updates repaint incrementally, never recompile.
        assert fast.rebuilds == rebuilds_before
        assert fast.repaints > 0

    def test_repaint_counter_tracks_changes(self):
        # Every content change (and only those) triggers exactly one
        # repaint.
        table = FastLpmTable([(bits("0"), 1)])
        before = table.repaints
        table.insert(bits("01"), 2)
        table.insert(bits("01"), 3)  # overwrite still counts
        assert table.repaints == before + 2
        table.delete(bits("01"))
        assert table.repaints == before + 3
        table.delete(bits("01"))  # absent: no content change
        assert table.repaints == before + 3

    def test_delete_uncovers_shorter_route(self):
        table = FastLpmTable([(bits("1"), 1), (bits("101"), 2)])
        address = 0b101 << 29
        assert table.lookup(address) == 2
        table.delete(bits("101"))
        assert table.lookup(address) == 1
        table.delete(bits("1"))
        assert table.lookup(address) is None


class TestMappingInterface:
    def test_mirrors_trie_contract(self, rng):
        routes = random_routes(rng, 20, max_len=8, hops=3)
        trie = BinaryTrie.from_routes(routes)
        fast = FastLpmTable(routes)
        assert len(fast) == len(trie)
        assert dict(fast.routes()) == dict(trie.routes())
        assert fast.as_dict() == trie.as_dict()
        prefix, hop = routes[0]
        assert prefix in fast
        assert fast.get(prefix) == hop
        assert fast.get(Prefix(0x3FFFFFFF, 30)) is None

    def test_structural_queries_delegate_to_shadow_trie(self):
        fast = FastLpmTable([(bits("0"), 1), (bits("00"), 2)])
        # node_count / effective_hop live on BinaryTrie, not FastLpmTable.
        assert fast.node_count() >= 3
        assert fast.effective_hop(bits("000")) == 2
        with pytest.raises(AttributeError):
            fast._no_such_private_attribute

    def test_slot_stats(self):
        shallow = FastLpmTable([(bits("1"), 1)])
        assert shallow.slot_stats()["level2_blocks"] == 0
        deep = FastLpmTable([(Prefix(0x01020300, 30), 1)])
        stats = deep.slot_stats()
        assert stats["level2_blocks"] == 1
        assert stats["level3_blocks"] == 1


class TestFactoryAndConfig:
    def test_factory_builds_each_backend(self):
        routes = [(bits("1"), 1)]
        assert isinstance(make_lookup_table(routes, "trie"), BinaryTrie)
        assert isinstance(make_lookup_table(routes, "fast"), FastLpmTable)
        assert isinstance(
            make_lookup_table(routes, "verify"), VerifyingLpmTable
        )

    def test_factory_rejects_unknown_backend(self):
        with pytest.raises(ValueError, match="unknown lookup backend"):
            make_lookup_table([], "warp")

    def test_engine_config_validates_backend(self):
        for backend in LOOKUP_BACKENDS:
            EngineConfig(lookup_backend=backend)
        with pytest.raises(ValueError, match="unknown lookup backend"):
            EngineConfig(lookup_backend="warp")


class TestVerifyBackend:
    def test_agreement_passes_and_counts(self, rng):
        routes = random_routes(rng, 25, max_len=24, hops=5)
        table = VerifyingLpmTable(routes)
        for address in probe_addresses(routes, rng, extra=100):
            table.lookup_prefix(address)
            table.lookup(address)
        assert table.checked > 0

    def test_divergence_raises(self):
        table = VerifyingLpmTable([(bits("1"), 1)])
        # Corrupt one side only: the next cross-checked lookup must trip.
        table.trie.insert(bits("11"), 9)
        with pytest.raises(BackendMismatchError):
            table.lookup(0b11 << 30)

    def test_mutations_keep_sides_in_step(self):
        table = VerifyingLpmTable([])
        assert table.insert(bits("0"), 1) is True
        assert table.insert(bits("0"), 2) is False
        assert table.lookup(0) == 2
        assert table.delete(bits("0")) is True
        assert table.lookup(0) is None
