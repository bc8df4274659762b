"""Multi-process serving plane: supervisor, worker fleet, parent front.

Three spawned topologies total (each costs two subprocess builds), so
the shared read-mostly assertions ride one module-scoped front while the
drain/restore and crash drills get their own.  Everything else — spec
argv synthesis, restart budgets, config validation — is pure in-process.
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.engine.simulator import EngineConfig
from repro.net.prefix import Prefix
from repro.serve import (
    ProcessFront,
    ProcessSupervisor,
    ServeClient,
    ServeConfig,
    ServerThread,
    ShardSet,
    WorkerSpec,
    plan_shards,
)
from repro.serve.client import ServerBusyError
from repro.serve.procs import WorkerError
from repro.serve.router import ShardRouter
from repro.trie.trie import BinaryTrie
from repro.workload.traces import save_table
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateKind, UpdateMessage


def _worker_config() -> SystemConfig:
    """The engine config a default :class:`WorkerSpec` spawns with."""
    spec = WorkerSpec(shard_count=1)
    return SystemConfig(
        engine=EngineConfig(
            chip_count=spec.chips,
            dred_capacity=spec.dred,
            queue_capacity=spec.queue,
            lookup_backend=spec.backend,
        ),
        update_queue_capacity=spec.update_queue,
    )


def _spawn_front(table, state_dir, routes):
    """A started 2-worker durable front; caller owns shutdown."""
    plan = plan_shards(routes, 2, mode=_worker_config().compression_mode)
    spec = WorkerSpec(
        shard_count=2, table=str(table), journal=str(state_dir)
    )
    supervisor = ProcessSupervisor(spec, plan.router.boundaries)
    front = ProcessFront(supervisor, ServeConfig(inflight_window=8))
    return front, supervisor


@pytest.fixture(scope="module")
def proc_table(tmp_path_factory, serve_rib):
    path = tmp_path_factory.mktemp("procs") / "table.txt"
    save_table(serve_rib, path)
    return path


@pytest.fixture(scope="module")
def proc_front(tmp_path_factory, proc_table, serve_rib):
    state = tmp_path_factory.mktemp("procs-state") / "state"
    front, supervisor = _spawn_front(proc_table, state, serve_rib)
    with ServerThread(server=front) as thread:
        yield thread, supervisor


@pytest.fixture()
def proc_client(proc_front):
    thread, _ = proc_front
    with ServeClient("127.0.0.1", thread.server.port) as conn:
        yield conn


class TestProcessFront:
    """Order matters: the fingerprint pin runs before any update."""

    def test_fingerprint_matches_inprocess_build(
        self, proc_client, serve_rib
    ):
        local = ShardSet.build(
            serve_rib, shard_count=2, config=_worker_config()
        )
        assert proc_client.fingerprint() == local.fingerprint()

    def test_lookup_matches_reference_trie(self, proc_client, serve_rib):
        reference = BinaryTrie.from_routes(serve_rib)
        addresses = TrafficGenerator(serve_rib, seed=17).take(1_024)
        expected = [reference.lookup(address) for address in addresses]
        assert proc_client.lookup(addresses) == expected
        assert proc_client.lookup([]) == []

    def test_advertised_worker_ports_answer_their_range(
        self, proc_front, serve_rib
    ):
        """``serve.json`` advertises each worker's own port so a
        sharding-aware client can skip the front: a range-local batch
        sent straight to a worker gets the reference answers."""
        _, supervisor = proc_front
        meta = json.loads(
            Path(supervisor.spec.journal, "serve.json").read_text()
        )
        endpoints = meta["workers"]["endpoints"]
        assert len(endpoints) == 2
        router = ShardRouter(meta["boundaries"])
        reference = BinaryTrie.from_routes(serve_rib)
        addresses = TrafficGenerator(serve_rib, seed=19).take(1_024)
        for shard, (host, port) in enumerate(endpoints):
            local = [a for a in addresses if router.shard_of(a) == shard]
            assert local, "the traffic must reach every range"
            with ServeClient(host, port) as direct:
                assert direct.lookup(local) == [
                    reference.lookup(a) for a in local
                ]

    def test_update_ack_durable_and_visible(self, proc_client):
        prefix = Prefix.parse("198.51.100.0/24")
        ack = proc_client.update(
            [UpdateMessage(UpdateKind.ANNOUNCE, prefix, 63, 0.0)]
        )
        assert ack.accepted == 1 and ack.shed == 0
        assert ack.durable, "worker journals before acking"
        assert proc_client.lookup([prefix.network + 1]) == [63]

    def test_health_reports_process_topology(self, proc_front, proc_client):
        thread, supervisor = proc_front
        health = proc_client.health()
        assert health["mode"] == "processes"
        assert health["shards"] == 2
        assert health["durable"] is True
        assert health["boundaries"] == supervisor.boundaries
        rows = health["workers"]
        assert [row["shard"] for row in rows] == [0, 1]
        assert all(row["alive"] for row in rows)
        assert [(row["host"], row["port"]) for row in rows] == (
            supervisor.endpoints()
        )

    def test_stats_aggregates_worker_rows(self, proc_client):
        stats = proc_client.stats()
        assert stats["draining"] is False
        rows = stats["shards"]
        assert [row["shard"] for row in rows] == [0, 1]
        for row in rows:
            assert row["range"][0] < row["range"][1]
        merged = stats["workers_serve"]
        assert merged["lookup_requests"] > 0
        # The parent's own counters are the client-facing layer; the
        # worker aggregate counts the fanned-out sub-requests.
        assert stats["serve"]["lookups_total"] > 0

    def test_flush_and_checkpoint_fan_out(self, proc_client):
        assert "flushed" in proc_client.flush()
        checkpoints = proc_client.checkpoint()["checkpoints"]
        assert len(checkpoints) == 2

    def test_reshard_rejected_with_worker_processes(self, proc_client):
        from repro.serve.client import ServeClientError

        with pytest.raises(ServeClientError, match="not supported"):
            proc_client.reshard({"action": "split", "shard": 0})


class TestDrainRestore:
    def test_drain_checkpoints_every_worker_journal(
        self, tmp_path, proc_table, serve_rib
    ):
        state = tmp_path / "state"
        front, _ = _spawn_front(proc_table, state, serve_rib)
        prefix = Prefix.parse("203.0.113.0/24")
        with ServerThread(server=front) as thread:
            with ServeClient("127.0.0.1", thread.server.port) as client:
                ack = client.update(
                    [UpdateMessage(UpdateKind.ANNOUNCE, prefix, 41, 0.0)]
                )
                assert ack.durable
                live_fingerprint = client.fingerprint()
        # ServerThread.stop() drained: every worker flushed, wrote a
        # final checkpoint, and exited 0 before the parent returned.
        meta = json.loads((state / "serve.json").read_text())
        assert meta["workers"]["mode"] == "processes"
        restored, reports = ShardSet.restore(state)
        assert restored.fingerprint() == live_fingerprint
        assert len(reports) == 2
        assert restored.lookup([prefix.network + 1]) == [41]


class TestWorkerCrash:
    def test_killed_worker_sheds_busy_then_restores(
        self, tmp_path, proc_table, serve_rib
    ):
        state = tmp_path / "state"
        front, supervisor = _spawn_front(proc_table, state, serve_rib)
        router = ShardRouter(supervisor.boundaries)
        hot = supervisor.boundaries[1] + 4_096
        cold = supervisor.boundaries[1] - 4_096
        assert router.shard_of(hot) == 1 and router.shard_of(cold) == 0
        prefix = Prefix(hot >> 8, 24)
        assert router.shards_covering(prefix) == range(1, 2)
        with ServerThread(server=front) as thread:
            with ServeClient("127.0.0.1", thread.server.port) as client:
                ack = client.update(
                    [UpdateMessage(UpdateKind.ANNOUNCE, prefix, 77, 0.0)]
                )
                assert ack.durable
                os.kill(supervisor.workers[1].proc.pid, signal.SIGKILL)
                # The dead shard's range sheds BUSY immediately — the
                # parent never hangs on the corpse — while the sibling
                # keeps serving.
                saw_busy = False
                try:
                    client.lookup([hot])
                except ServerBusyError as exc:
                    saw_busy = True
                    assert "worker" in str(exc)
                assert client.lookup([cold]) is not None
                deadline = time.monotonic() + 90.0
                hops = None
                while time.monotonic() < deadline:
                    try:
                        hops = client.lookup([hot])
                        break
                    except ServerBusyError as exc:
                        saw_busy = True
                        assert "worker" in str(exc)
                        time.sleep(0.2)
                assert saw_busy, "a SIGKILLed worker must shed, not serve"
                assert hops == [77], "restart must replay the journal"
                stats = client.stats()
                assert stats["serve"]["worker_crashes"] >= 1
                assert stats["serve"]["worker_restarts"] >= 1
                health = client.health()
                assert all(row["alive"] for row in health["workers"])


class TestSpecAndSupervisorUnits:
    def test_cli_args_build_mode(self, tmp_path):
        spec = WorkerSpec(
            shard_count=2, table="t.txt", journal=str(tmp_path)
        )
        args = spec.cli_args(1)
        assert args[:5] == ["serve", "--shards", "2", "--shard-index", "1"]
        assert "--table" in args and "--restore" not in args
        assert "--journal" in args and "--sync-every" in args

    def test_cli_args_restore_mode_for_respawn(self, tmp_path):
        spec = WorkerSpec(
            shard_count=2, table="t.txt", journal=str(tmp_path)
        )
        args = spec.cli_args(0, restore=True)
        assert "--restore" in args and "--table" not in args

    def test_cli_args_reject_impossible_modes(self):
        with pytest.raises(WorkerError):
            WorkerSpec(shard_count=1).cli_args(0)  # no table, no journal
        with pytest.raises(WorkerError):
            WorkerSpec(shard_count=1, table="t").cli_args(0, restore=True)

    def test_supervisor_rejects_boundary_mismatch(self):
        with pytest.raises(WorkerError, match="boundaries"):
            ProcessSupervisor(WorkerSpec(shard_count=2, table="t"), [0])

    def test_memory_only_workers_never_restart(self):
        supervisor = ProcessSupervisor(
            WorkerSpec(shard_count=1, table="t"), [0], restart_limit=3
        )
        # A journal-less respawn would silently forget acked updates.
        assert supervisor.restart_limit == 0
        assert not supervisor.can_restart(0)

    def test_front_rejects_replication_config(self):
        supervisor = ProcessSupervisor(
            WorkerSpec(shard_count=1, table="t"), [0]
        )
        with pytest.raises(ValueError, match="replication"):
            ProcessFront(
                supervisor, ServeConfig(replicate_to="127.0.0.1:1")
            )
