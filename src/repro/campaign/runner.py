"""Campaign execution: one executor per topology, one oracle layer for all.

Every executor follows the same phases:

1. **Update phase** — the workload profile's update stream is driven
   through the topology's *acked* entry point (journaled offers for
   durable cells), each accepted update mirrored onto the reference
   trie, then the cell is quiesced (drain/flush) so nothing is left
   half-applied in a queue.
2. **Traffic phase** — the workload profile's packet stream runs
   through the data path, advancing engine cycles so the armed fault
   schedule actually fires.
3. **Heal (optional)** — profiles modelling a box with its background
   audit on (``self_heal``) run one ``verify_chips`` repair pass.
4. **Replay pair** — durable cells flush, take the live state
   fingerprint, and restore a *copy* of the state directory: the two
   fingerprints must match.  The fingerprint covers only what the
   journal determines (DRed is soft state), so traffic before it is
   fine.
5. **Judgement** — the shared oracle layer (:mod:`repro.campaign.oracles`).

The process-level drills (``ha``, ``reshard``) interleave their kills
and lookup probes with the update phase; their replay pair is taken at
the survivor once the drill is over, and the engine-internal oracles
judge the in-process restore, which is fingerprint-equal to it.  No
executor writes a verdict itself: the data-path oracles merely run
early, while the server is still up.

A cell that raises mid-flight is *captured*, not propagated: its result
carries the error and the campaign moves on — CI wants every cell's
verdict, not the first traceback.
"""

from __future__ import annotations

import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.oracles import FAIL, CellEvidence, OracleVerdict, judge
from repro.campaign.spec import Cell, CampaignSpec
from repro.core.config import SystemConfig
from repro.core.system import ClueSystem
from repro.engine.simulator import EngineConfig
from repro.faults.profiles import FaultProfile, fault_profile
from repro.net.prefix import Prefix
from repro.persist.manager import PersistenceManager, StorageAudit
from repro.trie.trie import BinaryTrie
from repro.workload.profiles import (
    FileWorkload,
    WorkloadProfile,
    file_workload,
    is_file_workload,
    workload_profile,
)
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.updategen import UpdateKind, UpdateMessage

Route = Tuple[Prefix, int]


@dataclass
class CellResult:
    """One cell's verdict plus everything needed to reproduce it."""

    cell_id: str
    ok: bool
    verdicts: List[OracleVerdict] = field(default_factory=list)
    error: str = ""
    duration_s: float = 0.0
    acked_updates: int = 0
    shed_updates: int = 0
    packets: int = 0
    repro: str = ""
    #: Per-range ``{shard, range, lookup_hits, update_hits}`` rows.
    shard_loads: List[Dict[str, object]] = field(default_factory=list)
    #: Source path + SHA-256 per trace kind, for ``file:`` workloads.
    workload_provenance: Optional[Dict[str, Dict[str, object]]] = None

    @property
    def failed_oracles(self) -> List[str]:
        return [v.name for v in self.verdicts if v.status == FAIL]

    def as_dict(self) -> Dict[str, object]:
        return {
            "cell": self.cell_id,
            "ok": self.ok,
            "oracles": [v.as_dict() for v in self.verdicts],
            "failed_oracles": self.failed_oracles,
            "error": self.error,
            "duration_s": round(self.duration_s, 3),
            "acked_updates": self.acked_updates,
            "shed_updates": self.shed_updates,
            "packets": self.packets,
            "repro": self.repro,
            "shard_loads": self.shard_loads,
            "workload_provenance": self.workload_provenance,
        }


@dataclass
class CampaignResult:
    """Everything one campaign run produced."""

    name: str
    spec_path: str
    results: List[CellResult] = field(default_factory=list)
    excluded: List[Tuple[str, str]] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def failed(self) -> List[CellResult]:
        return [result for result in self.results if not result.ok]

    def as_dict(self) -> Dict[str, object]:
        return {
            "campaign": self.name,
            "spec": self.spec_path,
            "ok": self.ok,
            "cells": len(self.results),
            "failed_cells": len(self.failed),
            "excluded": [
                {"cell": cell_id, "reason": reason}
                for cell_id, reason in self.excluded
            ],
            "duration_s": round(self.duration_s, 3),
            "results": [result.as_dict() for result in self.results],
        }


# -- shared cell machinery -----------------------------------------------


class _CellContext:
    """Derived per-cell state every executor starts from."""

    def __init__(self, cell: Cell) -> None:
        self.cell = cell
        self.fault: FaultProfile = fault_profile(cell.fault)
        self.provenance: Optional[Dict[str, Dict[str, object]]] = None
        self._file_packets: Optional[List[int]] = None
        if is_file_workload(cell.workload):
            # File-sourced cell: the table (and whatever traces exist)
            # come from ingested files; the ``fig15`` generators fill
            # any gaps over the file-sourced table.  Updates pass
            # through the consistency filter so an arbitrary real trace
            # can never desync the reference trie.
            source: FileWorkload = file_workload(cell.workload)
            self.workload: WorkloadProfile = workload_profile("fig15")
            self.routes: List[Route] = source.load_routes()
            if not self.routes:
                raise ValueError(
                    f"{source.table_path}: file workload table is empty"
                )
            self.provenance = source.provenance()
            file_updates = source.load_updates()
            if file_updates is None:
                self.updates: List[UpdateMessage] = (
                    self.workload.take_updates(
                        self.routes, cell.seed + 1, cell.budget.updates
                    )
                )
            else:
                from repro.ingest.normalize import filter_consistent_updates

                self.updates = filter_consistent_updates(
                    self.routes, file_updates
                )[: cell.budget.updates]
            file_packets = source.load_packets()
            if file_packets:
                self._file_packets = file_packets
        else:
            self.workload = workload_profile(cell.workload)
            self.routes = generate_rib(
                cell.seed, RibParameters(size=cell.budget.rib_size)
            )
            self.updates = self.workload.take_updates(
                self.routes, cell.seed + 1, cell.budget.updates
            )
        self.reference = BinaryTrie.from_routes(self.routes)
        self.batches = max(
            1, (len(self.updates) + cell.budget.batch_size - 1)
            // cell.budget.batch_size,
        )
        self.schedule = self.fault.build(
            cell.seed, cell.budget.chips, self.batches
        ).validate(cell.budget.chips)
        self.acked_updates = 0
        self.shed_updates = 0
        #: Prefixes of acked updates, newest ack wins (for spot checks).
        self._acked: Dict[Prefix, Optional[int]] = {}

    def system_config(self) -> SystemConfig:
        budget = self.cell.budget
        return SystemConfig(
            engine=EngineConfig(
                chip_count=budget.chips,
                dred_capacity=128,
                queue_capacity=128,
                lookup_backend=self.cell.backend,
            ),
            update_queue_capacity=1024,
        )

    def update_batches(self) -> List[List[UpdateMessage]]:
        size = self.cell.budget.batch_size
        return [
            self.updates[start : start + size]
            for start in range(0, len(self.updates), size)
        ]

    def mirror(self, message: UpdateMessage) -> None:
        """One *acked* update: apply to the reference, remember for spot checks."""
        if message.kind is UpdateKind.ANNOUNCE:
            assert message.next_hop is not None
            self.reference.insert(message.prefix, message.next_hop)
            self._acked[message.prefix] = message.next_hop
        else:
            self.reference.remove_route(message.prefix)
            self._acked[message.prefix] = None
        self.acked_updates += 1

    def acked_prefixes(self, cap: int = 128) -> List[Tuple[Prefix, Optional[int]]]:
        items = list(self._acked.items())
        return items[-cap:]

    def traffic(self) -> List[int]:
        if self._file_packets is not None:
            count = self.cell.budget.packets
            trace = self._file_packets
            return [trace[index % len(trace)] for index in range(count)]
        return self.workload.traffic_generator(
            self.routes, self.cell.seed + 2
        ).take(self.cell.budget.packets)


def _capture_replay(
    manager: PersistenceManager, state_dir: Path, scratch: Path
) -> Tuple[str, str]:
    """(live, replayed-from-copy) fingerprints at the end of the cell."""
    live = manager.system.state_fingerprint()
    manager.sync()
    if scratch.exists():
        shutil.rmtree(scratch)
    shutil.copytree(state_dir, scratch)
    restored, _report = PersistenceManager.restore(scratch)
    try:
        replayed = restored.system.state_fingerprint()
    finally:
        restored.close()
    return live, replayed


# -- in-process executor -------------------------------------------------


def _run_inproc(cell: Cell, workdir: Path) -> CellEvidence:
    """``inproc`` and ``inproc-durable``: one bare ClueSystem."""
    ctx = _CellContext(cell)
    system = ClueSystem(ctx.routes, ctx.system_config())
    manager: Optional[PersistenceManager] = None
    state_dir = workdir / "state"
    if cell.durable:
        manager = PersistenceManager(
            system,
            state_dir,
            checkpoint_every=max(8, len(ctx.updates) // 2),
        )
    if ctx.schedule.events:
        system.attach_faults(ctx.schedule)

    # Phase 1: acked updates, mirrored per accepted offer, then quiesce.
    offer = manager.offer_update if manager is not None else system.offer_update
    pump = manager.pump_updates if manager is not None else system.pump_updates
    for batch in ctx.update_batches():
        for message in batch:
            if offer(message):
                ctx.mirror(message)
            else:
                ctx.shed_updates += 1
        pump(max(1, len(batch)))
    if manager is not None:
        manager.drain_updates()
    else:
        system.drain_updates()

    # Phase 2: traffic through the data path (fault schedule fires here).
    packets = ctx.traffic()
    for start in range(0, len(packets), 256):
        system.process_lookups(packets[start : start + 256])

    # Phase 3: optional healing audit (models the background repair).
    if ctx.fault.self_heal:
        system.verify_chips(repair=True)

    # Phase 4: the replay pair.
    replay = None
    storage_audits = []
    if manager is not None:
        replay = _capture_replay(manager, state_dir, workdir / "replay-copy")
        storage_audits.append(manager.verify_storage())
        manager.close()
    return CellEvidence(
        cell=cell,
        reference=ctx.reference,
        provenance=ctx.provenance,
        lookup_fn=system.process_lookups,
        systems=[system],
        acked_prefixes=ctx.acked_prefixes(),
        acked_updates=ctx.acked_updates,
        shed_updates=ctx.shed_updates,
        external_updates=ctx.fault.external_updates,
        replay=replay,
        storage_audits=storage_audits,
    )


# -- evidence shared by the serving executors -----------------------------


def _restore_copy(
    state_dir: Path, scratch: Path
) -> Tuple[str, List[ClueSystem], List[StorageAudit]]:
    """Restore a copy of ``state_dir`` in-process.

    Returns the copy's fingerprint, its per-shard systems and the storage
    audit of each shard's journal.  A copy fingerprint-equal to a live
    server stands in for that server's engine internals.
    """
    from repro.serve.shard import ShardSet

    if scratch.exists():
        shutil.rmtree(scratch)
    shutil.copytree(state_dir, scratch)
    restored, _reports = ShardSet.restore(scratch)
    managers = [w.manager for w in restored.workers if w.manager is not None]
    try:
        fingerprint = restored.fingerprint()
        audits = [manager.verify_storage() for manager in managers]
    finally:
        for manager in managers:
            manager.close()
    return fingerprint, [worker.system for worker in restored.workers], audits


def _wire_phases(ctx: _CellContext, client) -> None:
    """The update and traffic phases of a cell driven over the wire."""
    # Phase 1: acked update batches over the wire, then MSG_FLUSH.
    for batch in ctx.update_batches():
        ack = client.update(batch)
        if ack.shed:
            # Acceptance is aggregated over the wire, so a shed makes
            # the acked set ambiguous; budgets are sized to keep the
            # bounded queue from ever shedding.
            raise RuntimeError(
                f"update queue shed {ack.shed} of {len(batch)}; "
                f"shrink budget.batch_size or updates"
            )
        for message in batch:
            ctx.mirror(message)
    client.flush()

    # Phase 2: traffic over the wire.
    packets = ctx.traffic()
    for start in range(0, len(packets), 256):
        client.lookup(packets[start : start + 256])


def _wire_evidence(
    ctx: _CellContext,
    client,
    state_dir: Path,
    workdir: Path,
    systems: Optional[List[ClueSystem]] = None,
) -> CellEvidence:
    """The end of a cell on a live server: flush, take its fingerprint,
    restore a copy of ``state_dir`` (the replay pair), then run the
    data-path oracles while the server is still up.

    The engine-internal oracles judge ``systems`` when the engines are
    in-process, else the restored copy; the storage audits are the
    copy's, until a serving executor replaces them with its post-drain
    ones.
    """
    from repro.campaign import oracles as oracle_module
    from repro.serve.chaos import shard_load_rows

    client.flush()
    live = client.fingerprint()
    replayed, restored, audits = _restore_copy(
        state_dir, workdir / "replay-copy"
    )
    evidence = CellEvidence(
        cell=ctx.cell,
        reference=ctx.reference,
        provenance=ctx.provenance,
        lookup_fn=client.lookup,
        systems=restored if systems is None else systems,
        acked_prefixes=ctx.acked_prefixes(),
        acked_updates=ctx.acked_updates,
        shed_updates=ctx.shed_updates,
        external_updates=ctx.fault.external_updates,
        replay=(live, replayed),
        storage_audits=audits,
        shard_loads=shard_load_rows(client.stats().get("shards", [])),
    )
    # The data path dies with the server: detach it once its oracles ran.
    for name in ("zero-acked-loss", "lpm-equivalence"):
        evidence.prechecked[name] = oracle_module._ORACLES[name](evidence)
    evidence.lookup_fn = None
    return evidence


# -- in-process network serve executor -----------------------------------


def _run_serve(cell: Cell, workdir: Path, shard_count: int) -> CellEvidence:
    """``serve-1``/``serve-2``: a real TCP server over a journaled ShardSet."""
    from repro.serve.client import ServeClient
    from repro.serve.server import ServeConfig, ServerThread
    from repro.serve.shard import ShardSet

    ctx = _CellContext(cell)
    state_dir = workdir / "state"
    shards = ShardSet.build(
        ctx.routes,
        shard_count=shard_count,
        config=ctx.system_config(),
        journal_dir=state_dir,
    )
    engine_schedule = ctx.schedule.engine_only()
    if engine_schedule.events:
        for worker in shards.workers:
            worker.system.attach_faults(engine_schedule)

    with ServerThread(shards, ServeConfig()) as thread:
        client = ServeClient("127.0.0.1", thread.server.port, timeout=30.0)
        try:
            _wire_phases(ctx, client)

            # Phase 3: healing audit, directly on the in-process shards.
            if ctx.fault.self_heal:
                for worker in shards.workers:
                    worker.system.verify_chips(repair=True)

            # The live shards are in-process: judge them, not the copy.
            evidence = _wire_evidence(
                ctx,
                client,
                state_dir,
                workdir,
                systems=[worker.system for worker in shards.workers],
            )
        finally:
            client.close()
    # The drain (ServerThread exit) checkpointed and closed each journal;
    # audit the final on-disk state it left behind.
    evidence.storage_audits = [
        worker.manager.verify_storage()
        for worker in shards.workers
        if worker.manager is not None
    ]
    return evidence


# -- multi-process serve executor -----------------------------------------


def _run_serve_procs(cell: Cell, workdir: Path) -> CellEvidence:
    """``serve-2proc``: two shard worker *processes* behind a front.

    The same phase discipline as ``serve-1``/``serve-2``, but every
    engine lives in its own worker process (``serve --workers
    processes``): updates and traffic travel client → parent front →
    worker, the engine fault schedule rides in via ``--faults``, and the
    drain fans out so each worker checkpoints and exits before the
    parent does.  The engine-internal oracles judge the end-of-cell
    restore, which is fingerprint-equal to the workers;
    storage-audit judges the journal directory the workers left behind.
    """
    from repro.serve.procs import ProcessFront, ProcessSupervisor, WorkerSpec
    from repro.serve.client import ServeClient
    from repro.serve.router import plan_shards
    from repro.serve.server import ServeConfig, ServerThread
    from repro.workload.traces import save_faults, save_table

    ctx = _CellContext(cell)
    budget = cell.budget
    state_dir = workdir / "state"
    table_path = workdir / "table.txt"
    save_table(ctx.routes, table_path)
    faults_path: Optional[Path] = None
    engine_schedule = ctx.schedule.engine_only()
    if engine_schedule.events:
        faults_path = workdir / "faults.json"
        save_faults(engine_schedule, faults_path)
    config = ctx.system_config()
    plan = plan_shards(ctx.routes, 2, mode=config.compression_mode)
    spec = WorkerSpec(
        shard_count=2,
        table=str(table_path),
        journal=str(state_dir),
        chips=budget.chips,
        dred=config.engine.dred_capacity,
        queue=config.engine.queue_capacity,
        update_queue=config.update_queue_capacity,
        backend=cell.backend,
        faults=str(faults_path) if faults_path is not None else None,
    )
    supervisor = ProcessSupervisor(spec, plan.router.boundaries)
    front = ProcessFront(supervisor, ServeConfig())
    with ServerThread(server=front) as thread:
        client = ServeClient("127.0.0.1", thread.server.port, timeout=30.0)
        try:
            # Worker faults fire during the traffic phase.  The live
            # fingerprint is cross-process; the replayed one a clean
            # single-process restore of the shared journal directory.
            # The per-range hit counters arrive merged from the worker
            # STATS snapshots — the same rows the reshard policy reads.
            _wire_phases(ctx, client)
            evidence = _wire_evidence(ctx, client, state_dir, workdir)
        finally:
            client.close()
    # The drain (ServerThread exit) fanned out to every worker: each
    # flushed, checkpointed and closed its journal before exiting.
    # Audit the final on-disk state the worker processes left behind.
    audits = []
    for index in range(2):
        manager, _report = PersistenceManager.restore(
            state_dir / f"shard-{index}"
        )
        try:
            audits.append(manager.verify_storage())
        finally:
            manager.close()
    evidence.storage_audits = audits
    return evidence


# -- subprocess drill executors ------------------------------------------


def _run_drill(
    cell: Cell,
    workdir: Path,
    drill: Callable[..., Tuple[int, Path]],
) -> CellEvidence:
    """Run one process-level drill and gather evidence from its survivor.

    The drill (:mod:`repro.serve.chaos`) drives the cell's update batches
    and lookup probes across its kills and returns the port and state
    directory of the serving primary it leaves behind.  A copy of that
    directory is restored in-process: the copy is fingerprint-equal to
    the survivor, so the engine-internal and storage oracles judging the
    copy judge the survivor.
    """
    from repro.serve.chaos import ChaosConfig, Cluster

    ctx = _CellContext(cell)
    with Cluster(
        ChaosConfig(chips=cell.budget.chips),
        cell.id.replace("/", "_"),
        workdir,
        ctx.routes,
        ctx.update_batches(),
        on_ack=ctx.mirror,
        probes=ctx.traffic(),
        backend=cell.backend,
    ) as cluster:
        port, state_dir = drill(cluster, ctx)
        client = cluster.ha_client(port)
        try:
            evidence = _wire_evidence(ctx, client, state_dir, workdir)
        finally:
            client.close()
    return evidence


def _run_ha(cell: Cell, workdir: Path) -> CellEvidence:
    """``ha``: primary + backup subprocesses, killed by the fault schedule."""
    from repro.serve.chaos import run_cell

    return _run_drill(
        cell, workdir, lambda cluster, ctx: run_cell(cluster, ctx.schedule)
    )


def _run_reshard(cell: Cell, workdir: Path) -> CellEvidence:
    """``reshard``: split a shard under load, SIGKILL mid-migration.

    The cell seed picks which migration stage eats the SIGKILL, so a
    matrix with a few reshard cells covers rollback (``copy``,
    ``catchup``) and roll-forward (``cutover``) deterministically.
    """
    from repro.serve.chaos import RESHARD_KILL_STAGES, run_reshard_cell

    stage = RESHARD_KILL_STAGES[cell.seed % len(RESHARD_KILL_STAGES)]
    return _run_drill(
        cell, workdir, lambda cluster, _ctx: run_reshard_cell(cluster, stage)
    )


# -- campaign driver -----------------------------------------------------


_EXECUTORS: Dict[str, Callable[[Cell, Path], CellEvidence]] = {
    "inproc": _run_inproc,
    "inproc-durable": _run_inproc,
    "serve-1": lambda cell, workdir: _run_serve(cell, workdir, 1),
    "serve-2": lambda cell, workdir: _run_serve(cell, workdir, 2),
    "serve-2proc": _run_serve_procs,
    "ha": _run_ha,
    "reshard": _run_reshard,
}


def execute_cell(
    cell: Cell, workdir: Path, spec_path: Optional[str] = None
) -> CellResult:
    """Run one cell end to end; never raises — errors land in the result."""
    started = time.monotonic()
    result = CellResult(
        cell_id=cell.id, ok=False, repro=cell.repro_command(spec_path)
    )
    cell_dir = workdir / cell.id.replace("/", "_")
    cell_dir.mkdir(parents=True, exist_ok=True)
    try:
        evidence = _EXECUTORS[cell.topology](cell, cell_dir)
        result.verdicts = judge(evidence)
        result.acked_updates = evidence.acked_updates
        result.shed_updates = evidence.shed_updates
        result.packets = cell.budget.packets
        result.shard_loads = list(evidence.shard_loads)
        result.workload_provenance = evidence.provenance
        result.ok = all(verdict.ok for verdict in result.verdicts)
    except Exception as exc:  # noqa: BLE001 - campaign must not abort
        result.error = f"{type(exc).__name__}: {exc}"
        result.ok = False
    result.duration_s = time.monotonic() - started
    return result


def run_campaign(
    spec: CampaignSpec,
    spec_path: Optional[str] = None,
    subset: Optional[str] = None,
    cells: Optional[Sequence[str]] = None,
    max_cells: Optional[int] = None,
    workdir: Optional[Path] = None,
    log: Callable[[str], None] = print,
) -> CampaignResult:
    """Expand the spec and execute every selected cell."""
    import tempfile

    selected, excluded = spec.expand(
        subset=subset, cells=cells, max_cells=max_cells
    )
    owns_workdir = workdir is None
    root = Path(
        workdir
        if workdir is not None
        else tempfile.mkdtemp(prefix="repro-campaign-")
    )
    campaign = CampaignResult(
        name=spec.name, spec_path=spec_path or "", excluded=excluded
    )
    started = time.monotonic()
    try:
        for index, cell in enumerate(selected, start=1):
            log(f"campaign: [{index}/{len(selected)}] {cell.id} ...")
            result = execute_cell(cell, root, spec_path)
            verdict = "ok" if result.ok else "FAIL"
            names = ", ".join(result.failed_oracles) or result.error
            suffix = f" ({names})" if not result.ok else ""
            log(
                f"campaign: [{index}/{len(selected)}] {cell.id}: "
                f"{verdict}{suffix} [{result.duration_s:.1f}s]"
            )
            campaign.results.append(result)
    finally:
        campaign.duration_s = time.monotonic() - started
        if owns_workdir:
            shutil.rmtree(root, ignore_errors=True)
    return campaign
