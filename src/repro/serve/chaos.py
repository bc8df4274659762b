"""Cluster chaos campaign: kill real replica processes, prove the invariants.

``repro-clue chaos`` runs a matrix of failure scenarios against *real*
server processes (``python -m repro.cli serve``) — SIGKILL semantics
only exist at the process level, so unlike the in-process crash drills
this module spawns primaries and backups as subprocesses, composes the
existing :class:`~repro.faults.schedule.FaultSchedule` machinery with
the new process-level kill events, and drives acked update traffic
through an :class:`~repro.serve.client.HAClient` across each kill.

After every scenario three standing invariants are asserted on the
survivor:

1. **No acked update lost** — every batch the client got an ack for is
   present in the survivor's forwarding state.  The campaign runs with
   ``ack_mode=quorum``, where an ack means "durable on both replicas";
   the driver retries unacked batches through failover (updates are
   idempotent at the route level), so after the run the acked set is
   exactly the applied set.
2. **Shard-local LPM == global LPM** — sampled covered addresses answer
   identically on the sharded survivor and a single global reference
   trie built from the initial RIB plus every acked batch.
3. **Byte-identical replay** — the survivor's live fingerprint equals
   the fingerprint of a clean :meth:`ShardSet.restore` over a copy of
   its own state directory: the journaled offer sequence alone
   reproduces the survivor byte for byte.

The scenario matrix: SIGKILL the primary mid-storm (with chip faults
armed), SIGKILL the backup during promotion (then restore it from its
epoch journal), backup death during catch-up (re-bootstrap a fresh
backup, then fail over onto it), and three live-resharding drills
(DESIGN.md §14) that split a shard under load and SIGKILL the server
mid-COPY, mid-CATCHUP, or mid-CUTOVER — restart must roll the journaled
migration back (pre-commit) or forward (post-commit), and the same
three invariants must hold across the topology-epoch boundary.
"""

from __future__ import annotations

import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.faults.schedule import FaultSchedule
from repro.net.prefix import Prefix
from repro.serve.client import (
    FailoverError,
    HAClient,
    ServeClient,
    ServeClientError,
    ServerBusyError,
)
from repro.serve.procs import ServerProcess
from repro.serve.replicate import latest_epoch_dir
from repro.serve.reshard import read_state
from repro.serve.router import ReplicaMap
from repro.serve.shard import ShardSet
from repro.trie.trie import BinaryTrie
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.traces import save_faults, save_table
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateGenerator, UpdateKind, UpdateMessage

Route = Tuple[Prefix, int]

class ChaosError(Exception):
    """A scenario could not run or an invariant did not hold."""


@dataclass
class ChaosConfig:
    """Campaign knobs; ``--quick`` shrinks everything for CI smoke."""

    quick: bool = False
    seed: int = 7
    rib_size: int = 500
    shards: int = 2
    chips: int = 2
    batches: int = 24
    batch_size: int = 24
    lookup_probes: int = 4
    sample_addresses: int = 384
    heartbeat_timeout: float = 2.0
    startup_timeout: float = 60.0
    workdir: Optional[Path] = None

    def __post_init__(self) -> None:
        if self.quick:
            self.rib_size = min(self.rib_size, 300)
            self.batches = min(self.batches, 10)
            self.batch_size = min(self.batch_size, 16)
            self.sample_addresses = min(self.sample_addresses, 192)


@dataclass
class ScenarioResult:
    """One scenario's verdict plus the evidence behind it."""

    name: str
    ok: bool
    acked_batches: int = 0
    acked_updates: int = 0
    failovers: int = 0
    checked_addresses: int = 0
    skipped_addresses: int = 0
    fingerprint_match: bool = False
    detail: str = ""
    #: Per-range ``{shard, range, lookup_hits, update_hits}`` rows from
    #: the survivor — the load-accounting view reshard decisions run on.
    shard_loads: List[Dict[str, object]] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "ok": self.ok,
            "acked_batches": self.acked_batches,
            "acked_updates": self.acked_updates,
            "failovers": self.failovers,
            "checked_addresses": self.checked_addresses,
            "skipped_addresses": self.skipped_addresses,
            "fingerprint_match": self.fingerprint_match,
            "detail": self.detail,
            "shard_loads": self.shard_loads,
        }


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
    """Shared per-cell state: workdir, RIB, stream, reference.

    Public since the campaign runner reuses it: one :class:`Cluster` is
    one HA cell's worth of subprocess state — spawn helpers, the acked
    update stream, the reference trie it is mirrored onto, and a
    teardown that reaps every child even when individual kills fail.
    Use it as a context manager so no code path can leak processes.

    ``generator``/``backend`` parameterize what the chaos scenarios
    hard-coded: the campaign drives profile-built update streams against
    any lookup backend, the scenarios keep their original defaults.
    """

    def __init__(
        self,
        config: ChaosConfig,
        name: str,
        root: Path,
        generator: Optional[UpdateGenerator] = None,
        backend: str = "fast",
    ) -> None:
        self.config = config
        self.name = name
        self.backend = backend
        self.dir = root / name
        self.dir.mkdir(parents=True)
        self.routes: List[Route] = generate_rib(
            config.seed, RibParameters(size=config.rib_size)
        )
        self.table = self.dir / "table.txt"
        save_table(self.routes, self.table)
        self.generator = generator or UpdateGenerator(
            self.routes, seed=config.seed + 1
        )
        self.reference = BinaryTrie.from_routes(self.routes)
        self.acked_batches = 0
        self.acked_updates = 0
        self.procs: List[ServerProcess] = []

    def __enter__(self) -> "Cluster":
        return self

    def __exit__(self, *_exc) -> None:
        self.shutdown()

    # -- spawning -------------------------------------------------------

    def spawn_backup(self, label: str, port: int = 0) -> ServerProcess:
        proc = ServerProcess(
            f"{self.name}/{label}",
            [
                "serve",
                "--backup", str(self.dir / label),
                "--host", "127.0.0.1",
                "--port", str(port),
                "--heartbeat-timeout", str(self.config.heartbeat_timeout),
                "--sync-every", "4",
            ],
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

    def spawn_primary(
        self,
        label: str,
        backup_port: int,
        faults: Optional[Path] = None,
    ) -> ServerProcess:
        args = [
            "serve",
            "--table", str(self.table),
            "--host", "127.0.0.1",
            "--port", "0",
            "--shards", str(self.config.shards),
            *self._engine_flags(),
            "--journal", str(self.dir / label),
            "--sync-every", "4",
            "--replicate-to", f"127.0.0.1:{backup_port}",
            "--ack-mode", "quorum",
            "--heartbeat-interval", "0.2",
        ]
        if faults is not None:
            args += ["--faults", str(faults)]
        proc = ServerProcess(f"{self.name}/{label}", args)
        self.procs.append(proc)
        proc.wait_port(self.config.startup_timeout)
        return proc

    def spawn_solo(self, label: str, port: int = 0) -> ServerProcess:
        """A standalone durable primary (no replication) — the reshard
        drills' single server, journaling under ``dir/label``."""
        proc = ServerProcess(
            f"{self.name}/{label}",
            [
                "serve",
                "--table", str(self.table),
                "--host", "127.0.0.1",
                "--port", str(port),
                "--shards", str(self.config.shards),
                *self._engine_flags(),
                "--journal", str(self.dir / label),
                "--sync-every", "4",
            ],
        )
        self.procs.append(proc)
        proc.wait_port(self.config.startup_timeout)
        return proc

    def spawn_restored(self, label: str, state_dir: Path) -> ServerProcess:
        proc = ServerProcess(
            f"{self.name}/{label}",
            [
                "serve",
                "--restore",
                "--journal", str(state_dir),
                "--host", "127.0.0.1",
                "--port", "0",
                *self._engine_flags(),
                "--sync-every", "4",
            ],
        )
        self.procs.append(proc)
        proc.wait_port(self.config.startup_timeout)
        return proc

    def ha_client(self, *ports: int) -> HAClient:
        replicas = ReplicaMap.parse(
            ",".join(f"127.0.0.1:{port}" for port in ports)
        )
        return HAClient(replicas, timeout=15.0)

    # -- driving --------------------------------------------------------

    def drive(
        self,
        client: HAClient,
        batches: int,
        on_batch: Optional[Callable[[int], None]] = None,
        lookups_every: int = 0,
        lookups_until: Optional[int] = None,
    ) -> None:
        """Send ``batches`` acked update batches, mirroring each ack.

        ``on_batch`` fires *before* batch ``i`` is sent (the kill hook);
        ``lookups_every`` interleaves lookup probes so armed chip-fault
        schedules actually advance engine cycles; ``lookups_until``
        stops the probes at that batch — probes that would land on the
        failed-over survivor are skipped, because lookups legitimately
        mutate its DRed LRU outside the journal and would (correctly)
        break the byte-identical replay check.  Every batch is retried
        through failover until acked, so the reference and the cluster
        agree batch for batch.
        """
        probe = TrafficGenerator(self.routes, seed=self.config.seed + 2)
        for index in range(batches):
            if on_batch is not None:
                on_batch(index)
            if (
                lookups_every
                and index % lookups_every == 0
                and (lookups_until is None or index < lookups_until)
            ):
                try:
                    client.lookup(probe.take(32))
                except FailoverError:
                    pass  # probes are best-effort; updates are the contract
            batch = self.generator.take(self.config.batch_size)
            ack = client.update(batch)
            if ack.shed:
                raise ChaosError(
                    f"{self.name}: driver overran the update queue "
                    f"({ack.shed} shed) — enlarge --update-queue"
                )
            apply_to_reference(self.reference, batch)
            self.acked_batches += 1
            self.acked_updates += len(batch)

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


#: Backwards-compatible alias (the class was private before the campaign
#: runner started reusing it).
_Cluster = Cluster


# -- invariant verification ----------------------------------------------


def verify_survivor(
    cluster: _Cluster,
    port: int,
    state_dir: Path,
    uncertain: Sequence[Prefix] = (),
) -> Tuple[int, int, bool]:
    """Assert the three standing invariants against one survivor.

    Returns ``(checked, skipped, fingerprint_match)``; raises
    :class:`ChaosError` on any violation.  Order matters: the
    fingerprint is fetched *before* any verification lookup, because
    lookups legitimately mutate DRed (the LRU is forwarding state).
    """
    config = cluster.config
    client = ServeClient("127.0.0.1", port, timeout=30.0)
    try:
        health = client.health()
        if health.get("role") != "primary" or health.get("status") != "ok":
            raise ChaosError(
                f"{cluster.name}: survivor on port {port} is "
                f"{health.get('role')}/{health.get('status')}, not a "
                f"serving primary"
            )
        live_fingerprint = client.fingerprint()

        # Invariant 3: byte-identical replay of the survivor's own
        # journaled offer sequence.
        replay_dir = cluster.dir / "replay-copy"
        if replay_dir.exists():
            shutil.rmtree(replay_dir)
        shutil.copytree(state_dir, replay_dir)
        restored, _reports = ShardSet.restore(replay_dir)
        replay_fingerprint = restored.fingerprint()
        for worker in restored.workers:
            if worker.manager is not None:
                worker.manager.close()
        if replay_fingerprint != live_fingerprint:
            raise ChaosError(
                f"{cluster.name}: survivor fingerprint "
                f"{live_fingerprint[:16]}… != clean replay "
                f"{replay_fingerprint[:16]}… — the journal does not "
                f"reproduce the survivor"
            )

        # Invariants 1+2: sampled covered addresses must answer exactly
        # what the global reference trie (initial RIB + acked batches)
        # answers.  Addresses under a prefix whose batch was sent but
        # never acked are skipped — their state is legitimately
        # indeterminate under at-least-once delivery.
        routes = list(cluster.reference.routes())
        checked = skipped = 0
        if routes:
            sampler = TrafficGenerator(routes, seed=config.seed + 3)
            addresses = sampler.take(config.sample_addresses)
            for start in range(0, len(addresses), 256):
                chunk = addresses[start:start + 256]
                hops = client.lookup(chunk)
                for address, hop in zip(chunk, hops):
                    expected = cluster.reference.lookup(address)
                    if expected is None or any(
                        p.network <= address <= p.broadcast
                        for p in uncertain
                    ):
                        skipped += 1
                        continue
                    if hop != expected:
                        raise ChaosError(
                            f"{cluster.name}: address {address:#010x} "
                            f"answers {hop}, reference says {expected} — "
                            f"an acked update was lost or shard-local "
                            f"LPM diverged from global LPM"
                        )
                    checked += 1
        return checked, skipped, True
    finally:
        client.close()


# -- generic kill-primary cell -------------------------------------------


def run_cell(
    config: ChaosConfig,
    root: Path,
    name: str,
    schedule: FaultSchedule,
    generator: Optional[UpdateGenerator] = None,
    backend: str = "fast",
) -> ScenarioResult:
    """One generic kill-primary HA cell; the campaign runner's executor.

    Spawns a backup + quorum-replicating primary, arms the schedule's
    engine-level events on the primary, drives acked update batches
    (``generator`` overrides the default stream — that is how campaign
    workload profiles plug in), SIGKILLs the primary at the batch index
    of the schedule's ``kill-primary`` event, rides the failover, and
    asserts the three standing invariants against the backup survivor.

    The schedule *must* contain a ``kill-primary`` event: only a backup
    that never served lookups can pass the byte-identical replay check
    (a primary's DRed LRU is legitimately mutated outside the journal),
    so a no-kill HA cell would be structurally unverifiable.
    """
    kills = {e.cycle: e.kind for e in schedule.process_kills()}
    if not kills:
        raise ChaosError(
            f"{name}: an HA cell needs a kill-primary event — the backup "
            f"must be the survivor for replay verification to apply"
        )
    if any(kind.value == "kill-backup" for kind in kills.values()):
        raise ChaosError(
            f"{name}: kill-backup needs a bespoke scenario "
            f"(re-bootstrap choreography); run_cell only kills primaries"
        )
    kill_at = min(kills)
    with Cluster(
        config, name, root, generator=generator, backend=backend
    ) as cluster:
        engine_events = schedule.engine_only()
        faults_file: Optional[Path] = None
        if engine_events.events:
            faults_file = cluster.dir / "faults.txt"
            save_faults(engine_events, faults_file)

        backup = cluster.spawn_backup("backup")
        primary = cluster.spawn_primary(
            "primary", backup.port, faults=faults_file
        )
        client = cluster.ha_client(primary.port, backup.port)

        def on_batch(index: int) -> None:
            if index in kills:
                # Fire mid-batch: the kill lands while the next update
                # is in flight, exercising retry-after-partial-commit.
                threading.Timer(0.02, primary.kill).start()

        cluster.drive(
            client,
            config.batches,
            on_batch=on_batch,
            lookups_every=3,
            lookups_until=kill_at,
        )
        failovers = client.failovers
        client.close()
        if primary.alive:
            raise ChaosError("primary survived its SIGKILL")

        epoch = latest_epoch_dir(cluster.dir / "backup")
        if epoch is None:
            raise ChaosError("backup never bootstrapped an epoch")
        checked, skipped, fp_ok = verify_survivor(
            cluster, backup.port, epoch
        )
        return ScenarioResult(
            name=cluster.name,
            ok=True,
            acked_batches=cluster.acked_batches,
            acked_updates=cluster.acked_updates,
            failovers=failovers,
            checked_addresses=checked,
            skipped_addresses=skipped,
            fingerprint_match=fp_ok,
        )


# -- reshard drills (DESIGN.md §14) --------------------------------------

#: Stages a reshard drill may SIGKILL the server in.  ``copy`` and
#: ``catchup`` land before the cutover commit (restart must roll back);
#: ``cutover`` lands after it (restart must roll forward).
RESHARD_KILL_STAGES = ("copy", "catchup", "cutover")


def run_reshard_cell(
    config: ChaosConfig,
    root: Path,
    name: str,
    kill_stage: str,
    generator: Optional[UpdateGenerator] = None,
    backend: str = "fast",
) -> ScenarioResult:
    """Split a shard under live load, SIGKILL mid-``kill_stage``, restart.

    One standalone durable primary splits shard 0 while acked update
    traffic flows; a watcher thread polls the journaled ``reshard.json``
    and SIGKILLs the server the moment it enters ``kill_stage``.  The
    restarted server resolves the migration journal — rollback for
    ``copy``/``catchup``, roll-forward for ``cutover`` — and a rolled
    back drill re-issues the split, so **every** run ends in the
    post-migration topology.  A batch whose ack died with the kill is
    re-sent verbatim after restart (at-least-once; idempotent at the
    route level), keeping the reference trie exactly the acked set.
    Then the three standing invariants are asserted across the epoch
    boundary, plus the topology itself (epoch bumped, one more shard).
    """
    if kill_stage not in RESHARD_KILL_STAGES:
        raise ChaosError(
            f"{name}: unknown reshard kill stage {kill_stage!r}; "
            f"pick from {RESHARD_KILL_STAGES}"
        )
    with Cluster(
        config, name, root, generator=generator, backend=backend
    ) as cluster:
        primary = cluster.spawn_solo("primary")
        state_dir = cluster.dir / "primary"
        old_shards = config.shards

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

        # Enough failover budget to ride the 0.4s cutover pause via
        # redirect-retry, little enough that a real kill surfaces fast.
        client = HAClient(
            ReplicaMap.parse(f"127.0.0.1:{primary.port}"),
            timeout=15.0,
            failover_attempts=6,
            failover_backoff=0.05,
        )
        probe = TrafficGenerator(cluster.routes, seed=config.seed + 2)

        def send_acked(target: HAClient, batch: List[UpdateMessage]) -> bool:
            """Ack-and-mirror; False means the server died under us."""
            try:
                ack = target.update(batch)
            except (ServeClientError, ServerBusyError, OSError):
                return False
            if ack.shed:
                raise ChaosError(
                    f"{cluster.name}: driver overran the update queue "
                    f"({ack.shed} shed) — enlarge --update-queue"
                )
            apply_to_reference(cluster.reference, batch)
            cluster.acked_batches += 1
            cluster.acked_updates += len(batch)
            return True

        # Warm traffic before the migration starts, so the split has
        # journaled history beneath it.
        warm = max(2, config.batches // 4)
        for _ in range(warm):
            if not send_acked(client, cluster.generator.take(config.batch_size)):
                raise ChaosError(f"{cluster.name}: server died during warmup")

        admin = ServeClient("127.0.0.1", primary.port, timeout=15.0)
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
        admin.close()
        watcher = threading.Thread(target=watch_and_kill, daemon=True)
        watcher.start()

        # Live load across the migration: updates are the acked contract,
        # lookup probes keep DRed exercised (that state dies with the
        # kill, so it cannot disturb the replay check).
        unacked: Optional[List[UpdateMessage]] = None
        deadline = time.monotonic() + config.startup_timeout
        while not killed.is_set():
            if time.monotonic() > deadline:
                break
            try:
                client.lookup(probe.take(16))
            except (ServeClientError, ServerBusyError, OSError):
                pass
            batch = cluster.generator.take(config.batch_size)
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
        if primary.alive:
            raise ChaosError(f"{cluster.name}: primary survived its SIGKILL")

        # Restart on the same state; ShardSet.restore resolves the
        # migration journal (rollback or roll-forward).
        restored = cluster.spawn_restored("restored", state_dir)
        rclient = HAClient(
            ReplicaMap.parse(f"127.0.0.1:{restored.port}"),
            timeout=15.0,
            failover_backoff=0.05,
        )
        if unacked is not None and not send_acked(rclient, unacked):
            raise ChaosError(
                f"{cluster.name}: restarted server refused the re-sent "
                f"in-flight batch"
            )

        admin = ServeClient("127.0.0.1", restored.port, timeout=15.0)
        epoch_after_restart = int(admin.health().get("epoch", 0))
        rolled_back = epoch_after_restart == 1
        if kill_stage == "cutover" and rolled_back:
            raise ChaosError(
                f"{cluster.name}: kill landed after the cutover commit "
                f"but restart rolled the migration back"
            )
        if rolled_back:
            # Pre-commit kill: the old topology serves; re-issue the
            # split (no drill delays this time) and wait it out.
            out = admin.reshard({"action": "split", "shard": 0})
            if not out.get("started"):
                raise ChaosError(
                    f"{cluster.name}: re-issued reshard refused: {out}"
                )
            status: Dict[str, object] = {}
            wait_deadline = time.monotonic() + config.startup_timeout
            while time.monotonic() < wait_deadline:
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

        # Post-migration traffic — updates only: every lookup from here
        # would mutate the survivor's DRed outside the journal and
        # (correctly) break the byte-identical replay check.
        for _ in range(max(2, config.batches // 4)):
            if not send_acked(rclient, cluster.generator.take(config.batch_size)):
                raise ChaosError(
                    f"{cluster.name}: restarted server died during "
                    f"post-migration traffic"
                )
        rclient.close()

        health = admin.health()
        shard_loads = shard_load_rows(admin.stats().get("shards", []))
        admin.close()
        if int(health.get("epoch", 0)) != 2:
            raise ChaosError(
                f"{cluster.name}: expected topology epoch 2 after the "
                f"drill, found {health.get('epoch')}"
            )
        if int(health.get("shards", 0)) != old_shards + 1:
            raise ChaosError(
                f"{cluster.name}: expected {old_shards + 1} shards after "
                f"the split, found {health.get('shards')}"
            )

        checked, skipped, fp_ok = verify_survivor(
            cluster, restored.port, state_dir
        )
        return ScenarioResult(
            name=cluster.name,
            ok=True,
            acked_batches=cluster.acked_batches,
            acked_updates=cluster.acked_updates,
            failovers=1,  # the restart is the drill's one failover
            checked_addresses=checked,
            skipped_addresses=skipped,
            fingerprint_match=fp_ok,
            shard_loads=shard_loads,
        )


def shard_load_rows(rows: Sequence[Dict]) -> List[Dict[str, object]]:
    """Prune full shard reports down to the per-range load view."""
    return [
        {
            "shard": row.get("shard", index),
            "range": row.get("range"),
            "lookup_hits": row.get("lookup_hits", 0),
            "update_hits": row.get("update_hits", 0),
        }
        for index, row in enumerate(rows)
    ]


# -- scenarios -----------------------------------------------------------


def _scenario_kill_primary_mid_storm(
    config: ChaosConfig, root: Path
) -> ScenarioResult:
    """SIGKILL the primary while an update storm (and chip faults) rage."""
    kill_at = max(2, config.batches // 2)
    # Compose engine faults with the process kill in ONE schedule —
    # the runner executes the kill, the primary arms the rest.
    schedule = (
        FaultSchedule(seed=config.seed)
        .chip_down(40, 0)
        .chip_up(300, 0)
        .corrupt(120, config.chips - 1)
        .stall(200, config.chips - 1, 16)
        .kill_primary(kill_at)
    )
    return run_cell(config, root, "kill-primary-mid-storm", schedule)


def _scenario_kill_during_promotion(
    config: ChaosConfig, root: Path
) -> ScenarioResult:
    """Kill the primary, then kill the backup while it promotes; the
    backup's epoch journal must restore to a serving primary with every
    acked update intact."""
    cluster = Cluster(config, "kill-during-promotion", root)
    try:
        backup = cluster.spawn_backup("backup")
        primary = cluster.spawn_primary("primary", backup.port)
        client = cluster.ha_client(primary.port, backup.port)
        cluster.drive(client, config.batches)
        client.close()

        primary.kill()
        # Feed EOF triggers promotion immediately; SIGKILL lands while
        # it is (or just finished) promoting — either way the *local*
        # epoch journal is all that survives.
        time.sleep(0.2)
        backup.kill()

        epoch = latest_epoch_dir(cluster.dir / "backup")
        if epoch is None:
            raise ChaosError("backup never bootstrapped an epoch")
        restored = cluster.spawn_restored("restored", epoch)
        checked, skipped, fp_ok = verify_survivor(
            cluster, restored.port, epoch
        )
        return ScenarioResult(
            name=cluster.name,
            ok=True,
            acked_batches=cluster.acked_batches,
            acked_updates=cluster.acked_updates,
            checked_addresses=checked,
            skipped_addresses=skipped,
            fingerprint_match=fp_ok,
        )
    finally:
        cluster.shutdown()


def _scenario_backup_death_during_catchup(
    config: ChaosConfig, root: Path
) -> ScenarioResult:
    """Kill the backup mid-stream, re-bootstrap a fresh one on the same
    port, wait for catch-up, then kill the primary and fail over."""
    cluster = Cluster(config, "backup-death-during-catchup", root)
    try:
        phase = max(2, config.batches // 4)
        backup1 = cluster.spawn_backup("backup1")
        primary = cluster.spawn_primary("primary", backup1.port)
        client = cluster.ha_client(primary.port, backup1.port)

        cluster.drive(client, phase)
        backup1.kill()  # catch-up link dies; primary keeps serving
        cluster.drive(client, phase)
        client.close()

        # A fresh backup takes over the dead one's address (that is the
        # endpoint the primary redials); its bootstrap snapshot carries
        # everything acked while no backup was alive.
        backup2 = cluster.spawn_backup("backup2", port=backup1.port)
        _await_replication(primary.port, timeout=30.0)
        client = cluster.ha_client(primary.port, backup2.port)
        cluster.drive(client, phase)

        primary.kill()
        cluster.drive(client, phase)  # rides the failover onto backup2
        failovers = client.failovers
        client.close()

        epoch = latest_epoch_dir(cluster.dir / "backup2")
        if epoch is None:
            raise ChaosError("backup2 never bootstrapped an epoch")
        checked, skipped, fp_ok = verify_survivor(
            cluster, backup2.port, epoch
        )
        return ScenarioResult(
            name=cluster.name,
            ok=True,
            acked_batches=cluster.acked_batches,
            acked_updates=cluster.acked_updates,
            failovers=failovers,
            checked_addresses=checked,
            skipped_addresses=skipped,
            fingerprint_match=fp_ok,
        )
    finally:
        cluster.shutdown()


def _scenario_reshard_split_copy_kill(
    config: ChaosConfig, root: Path
) -> ScenarioResult:
    """SIGKILL mid-COPY: restart must roll the migration back, then the
    re-issued split completes on the recovered topology."""
    return run_reshard_cell(config, root, "reshard-split-copy-kill", "copy")


def _scenario_reshard_split_catchup_kill(
    config: ChaosConfig, root: Path
) -> ScenarioResult:
    """SIGKILL mid-CATCHUP (live deltas streaming): still pre-commit, so
    restart rolls back and the re-issued split completes."""
    return run_reshard_cell(
        config, root, "reshard-split-catchup-kill", "catchup"
    )


def _scenario_reshard_split_cutover_kill(
    config: ChaosConfig, root: Path
) -> ScenarioResult:
    """SIGKILL after the cutover commit but before RETIRE: restart must
    roll *forward* into the new epoch."""
    return run_reshard_cell(
        config, root, "reshard-split-cutover-kill", "cutover"
    )


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


SCENARIOS = {
    "kill-primary-mid-storm": _scenario_kill_primary_mid_storm,
    "kill-during-promotion": _scenario_kill_during_promotion,
    "backup-death-during-catchup": _scenario_backup_death_during_catchup,
    "reshard-split-copy-kill": _scenario_reshard_split_copy_kill,
    "reshard-split-catchup-kill": _scenario_reshard_split_catchup_kill,
    "reshard-split-cutover-kill": _scenario_reshard_split_cutover_kill,
}


def run_campaign(
    config: Optional[ChaosConfig] = None,
    scenarios: Optional[Sequence[str]] = None,
    log: Callable[[str], None] = print,
) -> List[ScenarioResult]:
    """Run the scenario matrix; returns one result per scenario.

    A scenario failure (invariant violation or setup error) is captured
    in its result, not raised — the campaign always completes so CI can
    report every scenario's verdict at once.
    """
    config = config or ChaosConfig()
    names = list(scenarios) if scenarios else list(SCENARIOS)
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        raise ValueError(
            f"unknown scenario(s) {unknown}; pick from {sorted(SCENARIOS)}"
        )
    owns_workdir = config.workdir is None
    root = Path(
        config.workdir
        if config.workdir is not None
        else tempfile.mkdtemp(prefix="repro-chaos-")
    )
    results: List[ScenarioResult] = []
    try:
        for name in names:
            log(f"chaos: {name} ...")
            started = time.monotonic()
            try:
                result = SCENARIOS[name](config, root)
            except (ChaosError, Exception) as exc:  # noqa: BLE001
                result = ScenarioResult(
                    name=name, ok=False, detail=f"{type(exc).__name__}: {exc}"
                )
            elapsed = time.monotonic() - started
            verdict = "ok" if result.ok else f"FAIL ({result.detail})"
            log(
                f"chaos: {name}: {verdict} — {result.acked_batches} acked "
                f"batches, {result.failovers} failover(s), "
                f"{result.checked_addresses} addresses checked "
                f"[{elapsed:.1f}s]"
            )
            results.append(result)
    finally:
        if owns_workdir:
            shutil.rmtree(root, ignore_errors=True)
    return results
