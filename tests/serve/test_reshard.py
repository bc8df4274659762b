"""Live resharding: planning, the staged migration, crash resolution.

The campaign's ``reshard`` cells (one per SIGKILLed migration stage)
cover the subprocess kill matrix; these tests pin the in-process contract —
plan geometry, the coordinator's stage machine, the journaled
crash-resume matrix, and the server RPC wiring.
"""

import json
import shutil

import pytest

from repro.serve.reshard import (
    RESHARD_FILE,
    MigrationState,
    ReshardCoordinator,
    ReshardError,
    choose_reshard,
    epoch_dir_name,
    plan_merge,
    plan_split,
    read_state,
    resolve_reshard,
    write_state,
)
from repro.serve.shard import ShardSet
from repro.trie.trie import BinaryTrie
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateGenerator, UpdateKind


def build_set(serve_rib, config, tmp_path, shards=2, name="state"):
    return ShardSet.build(
        serve_rib, shard_count=shards, config=config,
        journal_dir=tmp_path / name,
    )


def mirror(reference, batch):
    for message in batch:
        if message.kind is UpdateKind.ANNOUNCE:
            reference.insert(message.prefix, message.next_hop)
        else:
            reference.remove_route(message.prefix)


def assert_covered_parity(shard_set, reference, seed=29, count=512):
    """Sampled *covered* addresses only: DONT_CARE compression answers
    arbitrarily for addresses no route covers, so random 32-bit probes
    would report false mismatches."""
    routes = list(reference.routes())
    addresses = TrafficGenerator(routes, seed=seed).take(count)
    expected = [reference.lookup(address) for address in addresses]
    assert shard_set.lookup(addresses) == expected


class TestPlanning:
    def test_split_inserts_one_boundary_inside_the_range(
        self, serve_rib, fast_config, tmp_path
    ):
        shards = build_set(serve_rib, fast_config, tmp_path)
        old = list(shards.router.boundaries)
        new = plan_split(shards, 0)
        assert len(new) == len(old) + 1
        assert new == sorted(new)
        assert old[0] < new[1] < old[1]
        assert new[0] == 0 and new[2:] == old[1:]
        shards.drain()

    def test_split_honours_an_explicit_cut(
        self, serve_rib, fast_config, tmp_path
    ):
        shards = build_set(serve_rib, fast_config, tmp_path)
        hi = shards.router.boundaries[1]
        assert plan_split(shards, 0, at=hi // 2)[1] == hi // 2
        with pytest.raises(ReshardError):
            plan_split(shards, 0, at=hi + 1)  # outside shard 0's range
        with pytest.raises(ReshardError):
            plan_split(shards, 0, at=0)  # degenerate empty left half
        with pytest.raises(ReshardError):
            plan_split(shards, 7)
        shards.drain()

    def test_merge_drops_the_shared_boundary(
        self, serve_rib, fast_config, tmp_path
    ):
        shards = build_set(serve_rib, fast_config, tmp_path, shards=3)
        old = list(shards.router.boundaries)
        assert plan_merge(shards, 0) == [old[0]] + old[2:]
        assert plan_merge(shards, 1) == old[:2]
        with pytest.raises(ReshardError):
            plan_merge(shards, 2)  # the last shard has no right neighbour
        shards.drain()

    def test_choose_reshard_reads_the_hit_counters(
        self, serve_rib, fast_config, tmp_path
    ):
        shards = build_set(serve_rib, fast_config, tmp_path, shards=4)
        workers = shards.workers
        assert choose_reshard(shards) is None  # zero load: no opinion

        workers[1].lookup_hits = 900
        for worker in (workers[0], workers[2], workers[3]):
            worker.lookup_hits = 50
        assert choose_reshard(shards) == ("split", 1)

        # Balanced load: neither hot enough to split nor cold enough
        # to merge.
        for worker in workers:
            worker.lookup_hits, worker.update_hits = 100, 0
        assert choose_reshard(shards) is None

        # Two busy shards, two idle neighbours: no shard is hot enough
        # to split alone, and the idle pair is cold enough to merge.
        for worker, hits in zip(workers, (50, 50, 450, 450)):
            worker.lookup_hits = hits
        assert choose_reshard(shards) == ("merge", 0)
        shards.drain()


class TestCoordinator:
    def test_split_preserves_lpm_and_replays_byte_identically(
        self, serve_rib, fast_config, tmp_path
    ):
        root = tmp_path / "state"
        shards = build_set(serve_rib, fast_config, tmp_path)
        reference = BinaryTrie.from_routes(serve_rib)
        generator = UpdateGenerator(serve_rib, seed=31)
        for _ in range(4):
            batch = generator.take(24)
            shards.update(batch)
            mirror(reference, batch)

        coordinator = ReshardCoordinator(shards, "split", 0)
        new_set = coordinator.run_to_completion()
        assert new_set.epoch == 2
        assert new_set.router.shard_count == 3
        assert coordinator.state.stage == "done"

        # Updates keep applying on the new topology.
        batch = generator.take(24)
        new_set.update(batch)
        mirror(reference, batch)
        new_set.flush()

        # Byte-identical replay across the epoch boundary: fingerprint
        # first (lookups mutate DRed), then restore a copy of the root —
        # restore must follow reshard.json into the epoch directory.
        live_fp = new_set.fingerprint()
        scratch = tmp_path / "scratch"
        shutil.copytree(root, scratch)
        restored, _reports = ShardSet.restore(scratch, config=fast_config)
        assert restored.epoch == 2
        assert restored.router.boundaries == new_set.router.boundaries
        assert restored.fingerprint() == live_fp

        assert_covered_parity(new_set, reference)
        assert_covered_parity(restored, reference)
        for target in (new_set, restored):
            for worker in target.workers:
                worker.manager.close()

    def test_merge_then_chained_restore(
        self, serve_rib, fast_config, tmp_path
    ):
        """split then merge: restore resolves the journal chain through
        nested epoch directories to the deepest committed topology."""
        root = tmp_path / "state"
        shards = build_set(serve_rib, fast_config, tmp_path, shards=2)
        reference = BinaryTrie.from_routes(serve_rib)

        three = ReshardCoordinator(shards, "split", 0).run_to_completion()
        assert three.epoch == 2 and three.router.shard_count == 3
        merged = ReshardCoordinator(three, "merge", 1).run_to_completion()
        assert merged.epoch == 3 and merged.router.shard_count == 2
        merged.flush()
        live_fp = merged.fingerprint()

        scratch = tmp_path / "scratch"
        shutil.copytree(root, scratch)
        restored, _reports = ShardSet.restore(scratch, config=fast_config)
        assert restored.epoch == 3
        assert restored.router.boundaries == merged.router.boundaries
        assert restored.fingerprint() == live_fp
        assert_covered_parity(restored, reference)
        for target in (merged, restored):
            for worker in target.workers:
                worker.manager.close()

    def test_abandoned_migration_rolls_back_on_restore(
        self, serve_rib, fast_config, tmp_path
    ):
        """A migration that dies pre-commit leaves only its journal; the
        next restore deletes the partial epoch and serves the old state."""
        root = tmp_path / "state"
        shards = build_set(serve_rib, fast_config, tmp_path)
        shards.flush()
        old_fp = shards.fingerprint()
        old_boundaries = list(shards.router.boundaries)

        coordinator = ReshardCoordinator(shards, "split", 0)
        coordinator.prepare()
        coordinator.copy()
        coordinator.begin_catchup()
        # "Crash": release the in-process handles without any stage
        # transition — on disk this is exactly a kill mid-catchup.
        for worker in coordinator.new_set.workers:
            worker.manager.close()
        for worker in shards.workers:
            worker.manager.end_shipping()

        scratch = tmp_path / "scratch"
        shutil.copytree(root, scratch)
        restored, _reports = ShardSet.restore(scratch, config=fast_config)
        assert restored.epoch == 1
        assert restored.router.boundaries == old_boundaries
        assert restored.fingerprint() == old_fp
        assert not (scratch / epoch_dir_name(2)).exists()
        assert read_state(scratch).stage == "rolled-back"
        for target in (shards, restored):
            for worker in target.workers:
                worker.manager.close()

    def test_abort_cleans_up_and_prepare_refuses_leftovers(
        self, serve_rib, fast_config, tmp_path
    ):
        root = tmp_path / "state"
        shards = build_set(serve_rib, fast_config, tmp_path)
        coordinator = ReshardCoordinator(shards, "split", 0)
        coordinator.prepare()
        coordinator.copy()
        coordinator.abort("test abort")
        assert coordinator.state.stage == "rolled-back"
        assert read_state(root).reason == "test abort"
        assert not (root / epoch_dir_name(2)).exists()

        # A rolled-back journal does not block the next migration...
        follow_up = ReshardCoordinator(shards, "split", 0)
        follow_up.prepare()
        # ...but an in-flight one does.
        with pytest.raises(ReshardError):
            ReshardCoordinator(shards, "split", 0).prepare()
        follow_up.abort("cleanup")
        shards.drain()

    def test_rejects_bad_requests(self, serve_rib, fast_config, tmp_path):
        durable = build_set(serve_rib, fast_config, tmp_path)
        with pytest.raises(ReshardError):
            ReshardCoordinator(durable, "rotate", 0)
        with pytest.raises(ReshardError):
            ReshardCoordinator(durable, "split", 9)
        durable.drain()

        ephemeral = ShardSet.build(
            serve_rib, shard_count=2, config=fast_config
        )
        with pytest.raises(ReshardError):
            ReshardCoordinator(ephemeral, "split", 0)


class TestResolveReshard:
    def _state(self, stage, epoch_to=2):
        return MigrationState(
            stage=stage,
            action="split",
            shard=0,
            epoch_from=epoch_to - 1,
            epoch_to=epoch_to,
            epoch_dir=epoch_dir_name(epoch_to),
            old_boundaries=[0],
            new_boundaries=[0, 1 << 31],
        )

    def test_no_journal_resolves_to_the_root(self, tmp_path):
        assert resolve_reshard(tmp_path) == tmp_path

    @pytest.mark.parametrize("stage", ["prepare", "copy", "catchup"])
    def test_pre_commit_stages_roll_back(self, tmp_path, stage):
        epoch = tmp_path / epoch_dir_name(2)
        epoch.mkdir()
        (epoch / "junk").write_text("partial")
        write_state(tmp_path, self._state(stage))
        assert resolve_reshard(tmp_path) == tmp_path
        assert not epoch.exists()
        after = read_state(tmp_path)
        assert after.stage == "rolled-back"
        assert after.reason == "crash before cutover commit"

    @pytest.mark.parametrize("stage", ["cutover", "retire", "done"])
    def test_post_commit_stages_roll_forward(self, tmp_path, stage):
        epoch = tmp_path / epoch_dir_name(2)
        epoch.mkdir()
        (epoch / "serve.json").write_text("{}")
        write_state(tmp_path, self._state(stage))
        assert resolve_reshard(tmp_path) == epoch
        assert read_state(tmp_path).stage == "done"

    def test_roll_forward_without_topology_is_an_error(self, tmp_path):
        write_state(tmp_path, self._state("cutover"))
        with pytest.raises(ReshardError):
            resolve_reshard(tmp_path)

    def test_chained_journals_resolve_to_the_deepest_epoch(self, tmp_path):
        second = tmp_path / epoch_dir_name(2)
        third = second / epoch_dir_name(3)
        third.mkdir(parents=True)
        (second / "serve.json").write_text("{}")
        (third / "serve.json").write_text("{}")
        write_state(tmp_path, self._state("done", epoch_to=2))
        write_state(second, self._state("cutover", epoch_to=3))
        assert resolve_reshard(tmp_path) == third

    def test_malformed_journals_are_loud(self, tmp_path):
        (tmp_path / RESHARD_FILE).write_text("not json")
        with pytest.raises(ReshardError):
            resolve_reshard(tmp_path)
        (tmp_path / RESHARD_FILE).write_text(json.dumps({"version": 99}))
        with pytest.raises(ReshardError):
            resolve_reshard(tmp_path)
        state = self._state("defragmenting")
        data = state.as_dict()
        (tmp_path / RESHARD_FILE).write_text(json.dumps(data))
        with pytest.raises(ReshardError):
            resolve_reshard(tmp_path)


class TestServerRPC:
    def test_split_over_the_wire_then_lookups_on_the_new_epoch(
        self, serve_rib, fast_config, tmp_path
    ):
        import time

        from repro.serve.client import ServeClient
        from repro.serve.server import ServeConfig, ServerThread

        shards = build_set(serve_rib, fast_config, tmp_path)
        reference = BinaryTrie.from_routes(serve_rib)
        with ServerThread(shards, ServeConfig()) as thread:
            client = ServeClient("127.0.0.1", thread.server.port, timeout=30.0)
            try:
                started = client.reshard({"action": "split", "shard": 0})
                assert started["started"] and started["epoch_to"] == 2
                deadline = time.monotonic() + 30.0
                status = {}
                while time.monotonic() < deadline:
                    status = client.reshard({"action": "status"})
                    if not status["in_progress"]:
                        break
                    time.sleep(0.02)
                assert status["reshard"]["stage"] == "done"
                assert client.health()["epoch"] == 2
                assert client.health()["shards"] == 3

                routes = list(reference.routes())
                addresses = TrafficGenerator(routes, seed=33).take(256)
                expected = [reference.lookup(a) for a in addresses]
                assert client.lookup(addresses) == expected

                ranges = [row["range"] for row in client.stats()["shards"]]
                assert len(ranges) == 3
                assert ranges[0][0] == 0 and ranges[-1][1] == 1 << 32
            finally:
                client.close()

    def test_reshard_refused_without_journals(self, serve_rib, fast_config):
        from repro.serve.client import ServeClient, ServeClientError
        from repro.serve.server import ServeConfig, ServerThread

        shards = ShardSet.build(serve_rib, shard_count=2, config=fast_config)
        with ServerThread(shards, ServeConfig()) as thread:
            client = ServeClient("127.0.0.1", thread.server.port, timeout=30.0)
            try:
                with pytest.raises(ServeClientError):
                    client.reshard({"action": "split", "shard": 0})
                with pytest.raises(ServeClientError):
                    client.reshard({"action": "sideways"})
            finally:
                client.close()
