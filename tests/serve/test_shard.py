"""ShardSet: sharded lookups/updates, durable build + crash + restore."""

import json

import pytest

from repro.net.prefix import Prefix
from repro.serve.shard import META_FILE, ShardSet
from repro.trie.trie import BinaryTrie
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateGenerator, UpdateKind, UpdateMessage


def announce(text, hop, ts=0.0):
    return UpdateMessage(UpdateKind.ANNOUNCE, Prefix.parse(text), hop, ts)


def withdraw(text, ts=0.0):
    return UpdateMessage(UpdateKind.WITHDRAW, Prefix.parse(text), None, ts)


class TestLookups:
    @pytest.mark.parametrize("shard_count", [1, 3])
    def test_matches_reference_trie(self, serve_rib, fast_config, shard_count):
        shards = ShardSet.build(
            serve_rib, shard_count=shard_count, config=fast_config
        )
        reference = BinaryTrie.from_routes(serve_rib)
        addresses = TrafficGenerator(serve_rib, seed=11).take(2_048)
        expected = [reference.lookup(address) for address in addresses]
        assert shards.lookup(addresses) == expected

    def test_results_in_request_order(self, serve_rib, fast_config):
        shards = ShardSet.build(serve_rib, shard_count=3, config=fast_config)
        addresses = TrafficGenerator(serve_rib, seed=12).take(512)
        # Reversing the batch must reverse the answers: positions map
        # one-to-one even when the batch scatters across shards.
        forward = shards.lookup(addresses)
        assert shards.lookup(list(reversed(addresses))) == forward[::-1]


class TestStatsRows:
    def test_row_reports_a_stale_live_dred_entry(self, serve_rib, fast_config):
        shards = ShardSet.build(serve_rib, shard_count=1, config=fast_config)
        shards.lookup(TrafficGenerator(serve_rib, seed=13).take(2_048))
        [row] = shards.stats()
        assert row["dred_entries"] > 0
        assert row["dred_violations"] == {}

        # Leave a wrong hop behind in chip 0's DRed, as a partial TTF3
        # invalidation would: a prefix chip 1 holds, cached stale.
        system = shards.workers[0].system
        chips = system.engine.chips
        prefix, hop = next(iter(chips[1].table.routes()))
        chips[0].dred.insert(prefix, hop + 1, owner=1)
        [row] = shards.stats()
        assert set(row["dred_violations"]) == {"dred-fresh"}
        assert str(prefix) in row["dred_violations"]["dred-fresh"]


class TestUpdates:
    def test_announce_then_withdraw_visible_in_lookups(
        self, serve_rib, fast_config
    ):
        shards = ShardSet.build(serve_rib, shard_count=2, config=fast_config)
        prefix = "203.0.113.0/24"
        address = Prefix.parse(prefix).network + 7
        before = shards.lookup([address])[0]

        ack = shards.update([announce(prefix, 41)])
        assert ack.accepted >= 1 and ack.shed == 0 and not ack.durable
        shards.drain()
        assert shards.lookup([address]) == [41]

        shards.update([withdraw(prefix, ts=1.0)])
        shards.drain()
        assert shards.lookup([address]) == [before]

    def test_spanning_update_delivered_to_all_covering_shards(
        self, serve_rib, fast_config
    ):
        shards = ShardSet.build(serve_rib, shard_count=3, config=fast_config)
        ack = shards.update([announce("0.0.0.0/0", 77)])
        # One delivery per covering shard — all three for a default route.
        assert ack.accepted == 3
        shards.drain()
        probes = TrafficGenerator(serve_rib, seed=13).take(256)
        miss_address = next(
            a for a in range(2**32 - 1, 0, -1)
            if BinaryTrie.from_routes(serve_rib).lookup(a) is None
        )
        assert shards.lookup([miss_address]) == [77]
        assert None not in shards.lookup(probes)


class TestDurability:
    def test_meta_file_written_and_required(
        self, serve_rib, fast_config, tmp_path
    ):
        state = tmp_path / "state"
        shards = ShardSet.build(
            serve_rib, shard_count=2, config=fast_config, journal_dir=state
        )
        meta = json.loads((state / META_FILE).read_text())
        assert meta["shards"] == 2
        assert meta["boundaries"] == shards.router.boundaries
        assert shards.durable
        shards.drain()

        with pytest.raises(ValueError):
            ShardSet.restore(tmp_path / "nowhere")
        (state / META_FILE).write_text("{\"version\": 99}")
        with pytest.raises(ValueError):
            ShardSet.restore(state)

    def test_crash_and_restore_matches_reference_run(
        self, serve_rib, fast_config, tmp_path
    ):
        """Journal-before-apply: a hard crash loses nothing acked.

        Small pump budget + small queue overload the scheduler, so the
        drill exercises sheds and a backed-up queue, not just the happy
        path.
        """
        from dataclasses import replace

        config = replace(fast_config, update_queue_capacity=32)
        batches = [
            UpdateGenerator(serve_rib, seed=21).take(24) for _ in range(6)
        ]

        live = ShardSet.build(
            serve_rib, shard_count=2, config=config,
            journal_dir=tmp_path / "state",
        )
        sheds = 0
        for batch in batches:
            sheds += live.update(batch, pump_budget=4).shed
        assert sheds > 0, "drill never entered overload; tighten the knobs"
        fp_live = live.fingerprint()
        for worker in live.workers:
            worker.manager.crash()

        restored, reports = ShardSet.restore(tmp_path / "state", config=config)
        assert len(reports) == 2
        assert restored.fingerprint() == fp_live

        reference = ShardSet.build(serve_rib, shard_count=2, config=config)
        for batch in batches:
            reference.update(batch, pump_budget=4)
        assert reference.fingerprint() == fp_live
