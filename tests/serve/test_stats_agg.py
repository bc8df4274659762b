"""Cross-process stats aggregation: serialize → ship → merge == local.

The multi-process front never touches a worker's counters directly — it
reads serialized snapshots off the control channel and folds them.  The
whole scheme is only honest if that fold is lossless: merged
:class:`ServeStats` must equal what one process would have counted, the
per-range hit rows must survive the JSON hop intact, and the reshard
policy must reach the same verdict from shipped counters as from live
in-process workers.
"""

import json

from repro.net.prefix import Prefix
from repro.serve import (
    ShardSet,
    choose_reshard,
    choose_reshard_from_loads,
)
from repro.serve.chaos import shard_load_rows
from repro.serve.stats import ServeStats
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateKind, UpdateMessage


def _wire(obj):
    """The control-channel hop: everything crosses as JSON bytes."""
    return json.loads(json.dumps(obj))


class TestServeStatsRoundTrip:
    def test_as_dict_from_dict_is_identity(self):
        stats = ServeStats(
            requests_total=7,
            lookup_requests=3,
            lookups_total=3_072,
            updates_accepted=41,
            busy_responses=2,
            worker_crashes=1,
            worker_restarts=1,
        )
        assert ServeStats.from_dict(_wire(stats.as_dict())) == stats

    def test_from_dict_tolerates_skewed_builds(self):
        # A parent and worker from adjacent builds must still aggregate:
        # unknown keys are dropped, missing ones default to zero.
        data = {"lookups_total": 5, "counter_from_the_future": 9}
        stats = ServeStats.from_dict(data)
        assert stats.lookups_total == 5
        assert stats.requests_total == 0

    def test_merged_snapshots_equal_single_process_totals(self):
        per_worker = [
            ServeStats(requests_total=10, lookups_total=1_024, busy_responses=1),
            ServeStats(requests_total=4, lookups_total=512, updates_shed=3),
            ServeStats(requests_total=1, updates_accepted=8),
        ]
        single = ServeStats()
        for snapshot in per_worker:
            single.merge(snapshot)
        shipped = ServeStats.merged(
            _wire([snapshot.as_dict() for snapshot in per_worker])
        )
        assert shipped == single


class TestShardRowAggregation:
    def test_shipped_rows_reproduce_inprocess_hit_counters(
        self, serve_rib, fast_config
    ):
        shards = ShardSet.build(serve_rib, shard_count=3, config=fast_config)
        for seed in (5, 11):
            shards.lookup(TrafficGenerator(serve_rib, seed=seed).take(2_048))
        shards.update(
            [
                UpdateMessage(
                    UpdateKind.ANNOUNCE, Prefix.parse("198.51.100.0/24"), 7, 0.0
                )
            ]
        )
        rows = _wire(shards.stats())  # what STATS ships per worker

        assert [row["shard"] for row in rows] == [0, 1, 2]
        for row, worker in zip(rows, shards.workers):
            assert row["lookup_hits"] == worker.lookup_hits
            assert row["update_hits"] == worker.update_hits
        assert (
            sum(row["lookup_hits"] for row in rows) == 2 * 2_048
        ), "every address lands on exactly one shard"

        pruned = shard_load_rows(rows)
        assert {key for row in pruned for key in row} == {
            "shard", "range", "lookup_hits", "update_hits",
            "dred_entries", "dred_violations",
        }
        # Each live shard judged its own warm DRed, and found it clean.
        assert sum(row["dred_entries"] for row in pruned) > 0
        assert all(row["dred_violations"] == {} for row in pruned)

    def test_reshard_policy_identical_over_shipped_counters(
        self, serve_rib, fast_config
    ):
        shards = ShardSet.build(serve_rib, shard_count=3, config=fast_config)
        # Concentrate traffic on shard 0's range to force a hot verdict.
        boundaries = shards.router.boundaries
        hot_addresses = [boundaries[1] // 2 + i for i in range(512)]
        for _ in range(4):
            shards.lookup(hot_addresses)
        shards.lookup(
            [boundaries[1] + 1, boundaries[2] + 1]
        )  # a trickle elsewhere

        live = choose_reshard(shards)
        rows = _wire(shards.stats())
        shipped = choose_reshard_from_loads(
            [row["lookup_hits"] + row["update_hits"] for row in rows]
        )
        assert live == shipped == ("split", 0)

    def test_reshard_policy_edge_verdicts(self):
        assert choose_reshard_from_loads([]) is None
        assert choose_reshard_from_loads([0, 0]) is None
        assert choose_reshard_from_loads([90, 5, 5]) == ("split", 0)
        # No hot shard, but an adjacent cold pair under the threshold.
        assert choose_reshard_from_loads([10, 5, 45, 40]) == ("merge", 0)
        assert choose_reshard_from_loads([50, 50]) is None
