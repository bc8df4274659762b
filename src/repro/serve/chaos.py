"""Process-level drills: SIGKILL real replica processes mid-stream.

SIGKILL semantics only exist at the process level, so the campaign's
``ha`` and ``reshard`` topologies run real ``python -m repro.cli serve``
subprocesses.  This module owns their choreography: a :class:`Cluster`
spawns primaries and backups over the cell's routes and sends the cell's
update batches through an :class:`~repro.serve.client.HAClient` (every
acked update is reported to the caller, so its reference trie mirrors
exactly the acked stream), and the two drills fire process kills into
that stream:

* :func:`run_cell` — a quorum-replicated primary/backup pair, killed by
  the fault schedule's ``kill-primary``/``kill-backup`` events (DESIGN.md
  §12.5);
* :func:`run_reshard_cell` — one durable server splitting a shard under
  load, killed mid-COPY, mid-CATCHUP or mid-CUTOVER (DESIGN.md §14.4).

Each drill returns its survivor — the port of a serving primary and the
state directory whose journal must reproduce it — with the cluster still
up.  Judging the survivor is not done here: the campaign runner gathers
its evidence and the shared oracle layer (:mod:`repro.campaign.oracles`)
judges it like any other cell's.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.schedule import FaultKind, FaultSchedule
from repro.net.prefix import Prefix
from repro.serve.client import (
    HAClient,
    ServeClient,
    ServeClientError,
    ServerBusyError,
)
from repro.serve.procs import ServerProcess
from repro.serve.replicate import latest_epoch_dir
from repro.serve.reshard import read_state
from repro.serve.router import ReplicaMap
from repro.trie.trie import BinaryTrie
from repro.workload.traces import save_faults, save_table
from repro.workload.updategen import UpdateKind, UpdateMessage

Route = Tuple[Prefix, int]


class ChaosError(Exception):
    """A drill could not run its choreography."""


@dataclass
class ChaosConfig:
    """Geometry and patience shared by every process a drill spawns."""

    shards: int = 2
    chips: int = 2
    heartbeat_timeout: float = 2.0
    startup_timeout: float = 60.0


# -- reference model -----------------------------------------------------


def apply_to_reference(trie: BinaryTrie, batch: Sequence[UpdateMessage]) -> None:
    """Mirror one acked batch onto the global reference trie."""
    for message in batch:
        if message.kind is UpdateKind.ANNOUNCE:
            assert message.next_hop is not None
            trie.insert(message.prefix, message.next_hop)
        else:
            trie.remove_route(message.prefix)


class Cluster:
    """One drill's subprocess state: workdir, table, update stream.

    ``batches`` is the cell's update stream; :meth:`send` reports every
    acked update to ``on_ack``.  ``probes`` are the lookup addresses the
    drills interleave with updates, taken round-robin.  Use it as a
    context manager so no code path can leak processes: teardown reaps
    every child even when individual kills fail.
    """

    def __init__(
        self,
        config: ChaosConfig,
        name: str,
        root: Path,
        routes: Sequence[Route],
        batches: Sequence[List[UpdateMessage]] = (),
        on_ack: Optional[Callable[[UpdateMessage], None]] = None,
        probes: Sequence[int] = (),
        backend: str = "fast",
    ) -> None:
        self.config = config
        self.name = name
        self.backend = backend
        self.dir = root / name
        self.dir.mkdir(parents=True)
        self.table = self.dir / "table.txt"
        save_table(routes, self.table)
        self.batches = list(batches)
        self.on_ack = on_ack
        self._probes = list(probes)
        self._probe_at = 0
        self.procs: List[ServerProcess] = []

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # -- spawning -------------------------------------------------------

    def _spawn(self, label: str, args: List[str]) -> ServerProcess:
        proc = ServerProcess(
            f"{self.name}/{label}",
            ["serve", "--host", "127.0.0.1", "--sync-every", "4", *args],
        )
        self.procs.append(proc)
        proc.wait_port(self.config.startup_timeout)
        return proc

    def _engine_flags(self) -> List[str]:
        # The restore path rebuilds with an explicit config, so every
        # spawn must agree on the engine geometry and lookup backend.
        return [
            "--chips", str(self.config.chips),
            "--dred", "128",
            "--queue", "128",
            "--update-queue", "1024",
            "--backend", self.backend,
        ]

    def spawn_backup(self, label: str, port: int = 0) -> ServerProcess:
        return self._spawn(
            label,
            [
                "--backup", str(self.dir / label),
                "--port", str(port),
                "--heartbeat-timeout", str(self.config.heartbeat_timeout),
            ],
        )

    def spawn_primary(
        self,
        label: str,
        backup_port: int,
        faults: Optional[Path] = None,
    ) -> ServerProcess:
        args = [
            "--table", str(self.table),
            "--port", "0",
            "--shards", str(self.config.shards),
            *self._engine_flags(),
            "--journal", str(self.dir / label),
            "--replicate-to", f"127.0.0.1:{backup_port}",
            "--ack-mode", "quorum",
            "--heartbeat-interval", "0.2",
        ]
        if faults is not None:
            args += ["--faults", str(faults)]
        return self._spawn(label, args)

    def spawn_solo(self, label: str) -> ServerProcess:
        """A standalone durable primary (no replication) — the reshard
        drill's single server, journaling under ``dir/label``."""
        return self._spawn(
            label,
            [
                "--table", str(self.table),
                "--port", "0",
                "--shards", str(self.config.shards),
                *self._engine_flags(),
                "--journal", str(self.dir / label),
            ],
        )

    def spawn_restored(self, label: str, state_dir: Path) -> ServerProcess:
        return self._spawn(
            label,
            [
                "--restore",
                "--journal", str(state_dir),
                "--port", "0",
                *self._engine_flags(),
            ],
        )

    def ha_client(self, *ports: int, **options) -> HAClient:
        replicas = ReplicaMap.parse(
            ",".join(f"127.0.0.1:{port}" for port in ports)
        )
        return HAClient(replicas, timeout=15.0, **options)

    # -- driving --------------------------------------------------------

    def send(self, client: HAClient, batch: List[UpdateMessage]) -> None:
        """Send one update batch and report its acked updates."""
        ack = client.update(batch)
        if ack.shed:
            raise ChaosError(
                f"{self.name}: driver overran the update queue "
                f"({ack.shed} shed) — enlarge --update-queue"
            )
        if self.on_ack is not None:
            for message in batch:
                self.on_ack(message)

    def probe(self, client: HAClient, count: int) -> None:
        """Best-effort lookups: they advance engine cycles (so armed chip
        faults fire) and fill DRed; updates are the acked contract."""
        if not self._probes:
            return
        addresses = [
            self._probes[(self._probe_at + i) % len(self._probes)]
            for i in range(count)
        ]
        self._probe_at += count
        try:
            client.lookup(addresses)
        except (ServeClientError, ServerBusyError, OSError):
            pass

    # -- teardown -------------------------------------------------------

    def shutdown(self) -> None:
        """Reap every spawned process; one bad kill never strands the rest."""
        errors = []
        for proc in self.procs:
            try:
                proc.kill()
            except OSError as exc:  # pragma: no cover - kernel races only
                errors.append(f"{proc.label}: {exc}")
        if errors:
            raise ChaosError(
                "failed to reap subprocess(es): " + "; ".join(errors)
            )


def _epoch_dir(cluster: Cluster, label: str) -> Path:
    epoch = latest_epoch_dir(cluster.dir / label)
    if epoch is None:
        raise ChaosError(f"{cluster.name}: {label} never bootstrapped an epoch")
    return epoch


# -- the ha drill --------------------------------------------------------


def run_cell(cluster: Cluster, schedule: FaultSchedule) -> Tuple[int, Path]:
    """The ``ha`` drill: a quorum-replicated pair, killed by the schedule.

    Spawns a backup and a quorum-replicating primary (the schedule's
    engine events armed on the primary), then sends the cluster's
    batches.  Before batch ``i`` it fires every process kill scheduled at
    ``i``; kills at or past the last batch fire after it:

    * ``kill-primary`` — SIGKILL the primary, mid-batch when a batch
      follows; the client rides the failover onto the promoting backup;
    * ``kill-backup`` while the primary lives — SIGKILL the backup; the
      primary acks the next batch alone, then a fresh backup
      re-bootstraps on the dead one's port and catches up;
    * ``kill-backup`` after the primary died — the backup dies while
      promoting; a server restored from its epoch journal takes the rest
      of the stream.

    Lookup probes run every third batch, before and after the failover.
    The schedule must kill the primary: the drill judges the survivor of
    a failover.
    """
    kills = schedule.process_kills()
    if not any(event.kind is FaultKind.KILL_PRIMARY for event in kills):
        raise ChaosError(
            f"{cluster.name}: an ha drill needs a kill-primary event — "
            f"it judges the survivor of a failover"
        )
    last = len(cluster.batches)
    engine_events = schedule.engine_only()
    faults_file: Optional[Path] = None
    if engine_events.events:
        faults_file = cluster.dir / "faults.txt"
        save_faults(engine_events, faults_file)

    backups = 1
    backup_label = "backup"
    backup = cluster.spawn_backup(backup_label)
    primary = cluster.spawn_primary("primary", backup.port, faults=faults_file)
    client = cluster.ha_client(primary.port, backup.port)
    primary_killed = rebootstrap = False
    survivor: Optional[Tuple[int, Path]] = None
    try:
        for index in range(last + 1):
            if rebootstrap:
                # The primary redials the dead backup's address; the
                # fresh backup's bootstrap snapshot carries everything
                # acked while no backup was alive.
                backups += 1
                backup_label = f"backup{backups}"
                backup = cluster.spawn_backup(backup_label, port=backup.port)
                _await_replication(primary.port, cluster.config.startup_timeout)
                rebootstrap = False
            for event in kills:
                if min(event.cycle, last) != index:
                    continue
                if event.kind is FaultKind.KILL_PRIMARY:
                    if index < last:
                        # Mid-batch: the kill lands while the next update
                        # is in flight (retry-after-partial-commit).
                        threading.Timer(0.02, primary.kill).start()
                    else:
                        primary.kill()
                    primary_killed = True
                elif not primary_killed:
                    backup.kill()  # the primary keeps serving alone
                    rebootstrap = True
                else:
                    # Feed EOF starts the promotion; SIGKILL lands while
                    # it is (or just finished) promoting — either way
                    # the local epoch journal is all that survives.
                    primary.wait(cluster.config.startup_timeout)
                    time.sleep(0.2)
                    backup.kill()
                    epoch = _epoch_dir(cluster, backup_label)
                    restored = cluster.spawn_restored("restored", epoch)
                    client.close()
                    client = cluster.ha_client(restored.port)
                    survivor = (restored.port, epoch)
            if index == last:
                break
            if index % 3 == 0:
                cluster.probe(client, 32)
            cluster.send(client, cluster.batches[index])
    finally:
        client.close()
    primary.wait(cluster.config.startup_timeout)
    if primary.alive:
        raise ChaosError(f"{cluster.name}: primary survived its SIGKILL")
    if survivor is None:
        survivor = (backup.port, _epoch_dir(cluster, backup_label))
    return survivor


def _await_replication(primary_port: int, timeout: float) -> None:
    """Poll the primary's health until its shipper is caught up."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with ServeClient("127.0.0.1", primary_port, timeout=10.0) as client:
            replication = client.health().get("replication") or {}
        if replication.get("alive") and (
            replication.get("acked") == replication.get("shipped")
        ):
            return
        time.sleep(0.25)
    raise ChaosError(
        f"primary on port {primary_port} never re-established replication"
    )


# -- the reshard drill (DESIGN.md §14) -----------------------------------

#: Stages a reshard drill may SIGKILL the server in.  ``copy`` and
#: ``catchup`` land before the cutover commit (restart must roll back);
#: ``cutover`` lands after it (restart must roll forward).
RESHARD_KILL_STAGES = ("copy", "catchup", "cutover")


def run_reshard_cell(cluster: Cluster, kill_stage: str) -> Tuple[int, Path]:
    """Split a shard under live load, SIGKILL mid-``kill_stage``, restart.

    One standalone durable primary takes the first quarter of the
    cluster's batches, then splits shard 0 while one batch per observed
    migration stage flows; a watcher thread polls the journaled
    ``reshard.json`` and SIGKILLs the server the moment it enters
    ``kill_stage``.  The restarted server resolves the migration journal
    — rollback for ``copy``/``catchup``, roll-forward for ``cutover`` —
    and a rolled-back drill re-issues the split, so **every** run ends
    in the post-migration topology, which then takes the last quarter
    of the batches, interleaved with lookup probes.  A batch whose ack
    died with the kill is re-sent verbatim after restart (at-least-once;
    idempotent at the route level), so the acked stream stays exactly
    the applied one.
    """
    if kill_stage not in RESHARD_KILL_STAGES:
        raise ChaosError(
            f"{cluster.name}: unknown reshard kill stage {kill_stage!r}; "
            f"pick from {RESHARD_KILL_STAGES}"
        )
    config = cluster.config
    primary = cluster.spawn_solo("primary")
    state_dir = cluster.dir / "primary"
    pending = deque(cluster.batches)
    quarter = max(1, len(pending) // 4)

    killed = threading.Event()

    def watch_and_kill() -> None:
        deadline = time.monotonic() + config.startup_timeout
        while time.monotonic() < deadline and primary.alive:
            state = read_state(state_dir)
            if state is not None and state.stage == kill_stage:
                primary.kill()
                killed.set()
                return
            time.sleep(0.005)

    def send_acked(target: HAClient, batch: List[UpdateMessage]) -> bool:
        """Send and report; False means the server died under us."""
        try:
            cluster.send(target, batch)
        except (ServeClientError, ServerBusyError, OSError):
            return False
        return True

    # Enough failover budget to ride the 0.4s cutover pause via
    # redirect-retry, little enough that a real kill surfaces fast.
    client = cluster.ha_client(
        primary.port, failover_attempts=6, failover_backoff=0.05
    )
    # Warm traffic before the migration starts, so the split has
    # journaled history beneath it.
    for _ in range(min(quarter, len(pending))):
        if not send_acked(client, pending.popleft()):
            raise ChaosError(f"{cluster.name}: server died during warmup")

    with ServeClient("127.0.0.1", primary.port, timeout=15.0) as admin:
        started = admin.reshard(
            {
                "action": "split",
                "shard": 0,
                # Linger in every stage so the watcher reliably observes
                # the target one; force real catch-up rounds so traffic
                # genuinely interleaves with the migration.
                "stage_delay": 0.6,
                "cutover_pause": 0.4,
                "min_catchup_rounds": 4,
            }
        )
    if not started.get("started"):
        raise ChaosError(f"{cluster.name}: reshard refused: {started}")
    watcher = threading.Thread(target=watch_and_kill, daemon=True)
    watcher.start()

    # Live load across the migration: one update batch per stage the
    # drill observes, lookup probes throughout.
    unacked: Optional[List[UpdateMessage]] = None
    sent_in: object = None
    deadline = time.monotonic() + config.startup_timeout
    while not killed.is_set() and time.monotonic() < deadline:
        cluster.probe(client, 16)
        state = read_state(state_dir)
        stage = state.stage if state is not None else None
        if stage != sent_in and len(pending) > quarter:
            sent_in = stage
            batch = pending.popleft()
            if not send_acked(client, batch):
                # The kill landed with this batch in flight; its ack is
                # unknown, so it must be re-sent after restart.
                unacked = batch
                break
        time.sleep(0.01)
    watcher.join(timeout=config.startup_timeout)
    client.close()
    if not killed.is_set():
        raise ChaosError(
            f"{cluster.name}: never observed reshard stage "
            f"{kill_stage!r}; server output:\n{primary.tail()}"
        )

    # Restart on the same state; ShardSet.restore resolves the
    # migration journal (rollback or roll-forward).
    restored = cluster.spawn_restored("restored", state_dir)
    rclient = cluster.ha_client(restored.port, failover_backoff=0.05)
    if unacked is not None and not send_acked(rclient, unacked):
        raise ChaosError(
            f"{cluster.name}: restarted server refused the re-sent "
            f"in-flight batch"
        )

    with ServeClient("127.0.0.1", restored.port, timeout=15.0) as admin:
        rolled_back = int(admin.health().get("epoch", 0)) == 1
        if kill_stage == "cutover" and rolled_back:
            raise ChaosError(
                f"{cluster.name}: kill landed after the cutover commit "
                f"but restart rolled the migration back"
            )
        if rolled_back:
            _reissue_split(cluster, admin)

        # Post-migration traffic: lookups interleaved with the updates.
        while pending:
            cluster.probe(rclient, 16)
            if not send_acked(rclient, pending.popleft()):
                raise ChaosError(
                    f"{cluster.name}: restarted server died during "
                    f"post-migration traffic"
                )
        rclient.close()

        health = admin.health()
    if int(health.get("epoch", 0)) != 2:
        raise ChaosError(
            f"{cluster.name}: expected topology epoch 2 after the "
            f"drill, found {health.get('epoch')}"
        )
    if int(health.get("shards", 0)) != config.shards + 1:
        raise ChaosError(
            f"{cluster.name}: expected {config.shards + 1} shards after "
            f"the split, found {health.get('shards')}"
        )
    return restored.port, state_dir


def _reissue_split(cluster: Cluster, admin: ServeClient) -> None:
    """Pre-commit kill: the old topology serves; re-issue the split (no
    drill delays this time) and wait it out."""
    out = admin.reshard({"action": "split", "shard": 0})
    if not out.get("started"):
        raise ChaosError(f"{cluster.name}: re-issued reshard refused: {out}")
    status: Dict[str, object] = {}
    deadline = time.monotonic() + cluster.config.startup_timeout
    while time.monotonic() < deadline:
        status = admin.reshard({"action": "status"})
        if not status.get("in_progress"):
            break
        time.sleep(0.05)
    stage = (status.get("reshard") or {}).get("stage")
    if stage != "done":
        raise ChaosError(
            f"{cluster.name}: re-issued reshard ended at stage "
            f"{stage!r}, not done"
        )


def shard_load_rows(rows: Sequence[Dict]) -> List[Dict[str, object]]:
    """Prune full shard reports down to the per-range load view and the
    live DRed audit."""
    return [
        {
            "shard": row.get("shard", index),
            "range": row.get("range"),
            "lookup_hits": row.get("lookup_hits", 0),
            "update_hits": row.get("update_hits", 0),
            "dred_entries": row.get("dred_entries", 0),
            "dred_violations": row.get("dred_violations", {}),
        }
        for index, row in enumerate(rows)
    ]
