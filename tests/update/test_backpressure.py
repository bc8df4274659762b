"""Tests for update-storm backpressure: UpdateQueue and UpdateScheduler."""

import pytest

from repro.engine.queues import UpdateQueue
from repro.update.pipeline import ClueUpdatePipeline, UpdateScheduler
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.updategen import (
    UpdateGenerator,
    UpdateParameters,
    UpdateKind,
)


@pytest.fixture()
def routes():
    return generate_rib(21, RibParameters(size=400))


def structural_updates(routes, count, seed=3):
    """Announce-new/withdraw mix — every message changes the table."""
    generator = UpdateGenerator(
        routes,
        seed=seed,
        parameters=UpdateParameters(
            modify_fraction=0.0,
            new_prefix_fraction=0.6,
            withdraw_fraction=0.4,
        ),
    )
    return generator.take(count)


class TestUpdateQueue:
    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            UpdateQueue(0)

    def test_shed_accounting(self):
        queue = UpdateQueue(2)
        assert queue.offer("a") and queue.offer("b")
        assert not queue.offer("c")
        assert queue.offered == 3
        assert queue.accepted == 2
        assert queue.shed == 1
        assert queue.peak_occupancy == 2
        assert queue.occupancy == 1.0

    def test_fifo_order(self):
        queue = UpdateQueue(4)
        for item in ("a", "b", "c"):
            queue.offer(item)
        assert [queue.pop() for _ in range(3)] == ["a", "b", "c"]
        assert queue.is_empty


class TestSchedulerCalm:
    def test_calm_pump_applies_fully(self, routes):
        pipeline = ClueUpdatePipeline(routes)
        scheduler = UpdateScheduler(pipeline, capacity=64)
        for message in structural_updates(routes, 10):
            assert scheduler.offer(message)
        assert scheduler.pump(budget=10) == 10
        assert scheduler.stats.applied == 10
        assert pipeline.tcam_matches_table()

    def test_on_diff_callback(self, routes):
        pipeline = ClueUpdatePipeline(routes)
        diffs = []
        scheduler = UpdateScheduler(
            pipeline, capacity=16, on_diff=diffs.append
        )
        for message in structural_updates(routes, 5):
            scheduler.offer(message)
        scheduler.pump(budget=5)
        assert len(diffs) == 5


class TestSchedulerStorm:
    def test_flood_sheds_and_applies_every_pumped_update(self, routes):
        pipeline = ClueUpdatePipeline(routes)
        scheduler = UpdateScheduler(pipeline, capacity=8)
        messages = structural_updates(routes, 12)
        accepted = sum(scheduler.offer(message) for message in messages)
        assert accepted == 8
        assert scheduler.stats.shed == 4
        # A full queue changes nothing about how a pumped update runs:
        # trie, TCAM mirror and DRed all take it at once.
        scheduler.pump(budget=2)
        assert pipeline.totals.updates == 2
        assert pipeline.tcam_matches_table()

    def test_mirror_matches_table_after_every_pump_under_overload(
        self, routes
    ):
        pipeline = ClueUpdatePipeline(routes)
        scheduler = UpdateScheduler(pipeline, capacity=8)
        messages = iter(structural_updates(routes, 60))
        for _round in range(10):
            for message in [next(messages) for _ in range(6)]:
                scheduler.offer(message)
            scheduler.pump(budget=2)
            assert pipeline.tcam_matches_table()
        assert scheduler.stats.shed > 0

    def test_drain_restores_mirror(self, routes):
        pipeline = ClueUpdatePipeline(routes)
        scheduler = UpdateScheduler(pipeline, capacity=16)
        for message in structural_updates(routes, 16):
            scheduler.offer(message)
        applied = scheduler.drain()
        assert applied == 16
        assert scheduler.queue.is_empty
        assert pipeline.tcam_matches_table()

    def test_dred_invalidation_not_deferred(self, routes):
        """A full queue must not delay purging stale DRed entries."""
        from repro.engine.dred import DredCache
        from repro.workload.updategen import UpdateMessage

        # Learn which compressed entry a withdrawal actually removes.
        message = victim = None
        for prefix, _ in routes[:20]:
            probe = ClueUpdatePipeline(routes)
            candidate = UpdateMessage(
                UpdateKind.WITHDRAW, prefix, None, 0.001
            )
            probe.apply(candidate)
            if probe.last_diff.removes:
                message = candidate
                victim = probe.last_diff.removes[0][0]
                break
        assert message is not None, "no withdrawal removed an entry"

        pipeline = ClueUpdatePipeline(routes)
        bank = DredCache(64, chip_index=0, exclude_own=False)
        pipeline.dred_stage.caches = [bank]
        bank.insert(victim, 1, owner=1)
        assert victim in bank
        scheduler = UpdateScheduler(pipeline, capacity=1)
        scheduler.offer(message)
        assert scheduler.queue.is_full
        scheduler.pump(budget=1)
        assert scheduler.stats.applied == 1
        assert victim not in bank
