"""Shard workers: one :class:`ClueSystem` per address-range shard.

A :class:`ShardSet` is the serving plane's whole forwarding state — the
routing of batches to shards, the per-shard CLUE systems, and (in
durable mode) one :class:`PersistenceManager` per shard journaling into
``<dir>/shard-<i>``.  It is deliberately synchronous and deterministic:
the network server calls into it from a single event loop, and the
crash-drill reference run calls the *same* methods with the same batches
— byte-identical state fingerprints on both sides come from sharing this
code path, not from careful bookkeeping in two places.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.core.config import SystemConfig
from repro.core.system import ClueSystem
from repro.net.prefix import Prefix
from repro.persist.manager import PersistenceManager
from repro.serve.protocol import UpdateAck
from repro.serve.router import ShardRouter, plan_shards
from repro.workload.updategen import UpdateMessage

Route = Tuple[Prefix, int]
PathLike = Union[str, Path]

#: Metadata file written next to the per-shard state directories.
META_FILE = "serve.json"
META_VERSION = 1

#: One past the last IPv4 address: the open upper bound of the space.
ADDRESS_SPACE = 1 << 32


def combine_fingerprints(fingerprints: Sequence[str]) -> str:
    """One digest over per-shard state fingerprints, in shard order.

    This is *the* cross-process fingerprint contract: the parent front
    combines fingerprints it gathered from worker processes with exactly
    the bytes :meth:`ShardSet.fingerprint` hashes in-process, so a
    single-process restore of the shared journal directory reproduces
    the multi-process serving fingerprint byte for byte.
    """
    digest = hashlib.sha256()
    for fingerprint in fingerprints:
        digest.update(fingerprint.encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


class ShardWorker:
    """One shard: a CLUE system plus its optional durability manager.

    ``span`` is the shard's global address range ``[start, end)``.  It
    matters when the worker is hosted alone in its own process: the
    local router only knows one shard, so the global range (and the
    global ``index``) must travel with the worker for stats rows and
    reshard policy to stay topology-accurate.
    """

    def __init__(
        self,
        index: int,
        system: ClueSystem,
        manager: Optional[PersistenceManager] = None,
        span: Optional[Tuple[int, int]] = None,
    ) -> None:
        self.index = index
        self.system = system
        self.manager = manager
        self.span = span
        #: Per-range load accounting: how many lookup addresses and
        #: update messages this shard's range has absorbed.  The reshard
        #: controller's split/merge decisions read these, so they count
        #: *deliveries to this range*, not wire requests.
        self.lookup_hits = 0
        self.update_hits = 0

    @property
    def durable(self) -> bool:
        return self.manager is not None

    def lookup_batch(self, addresses: Sequence[int]) -> List[Optional[int]]:
        self.lookup_hits += len(addresses)
        return self.system.process_lookups(addresses)

    def update_batch(
        self,
        messages: Sequence[UpdateMessage],
        pump_budget: Optional[int] = None,
    ) -> UpdateAck:
        """Offer a batch through the backpressured path; pump once.

        Durable shards group-commit (journal + single fsync) before
        returning, so the resulting ack may be forwarded to the client
        as-is.  The pump budget defaults to the batch size; a smaller
        budget (``--pump-budget``) lets the queue back up — that is how
        the overload crash drill gets offers shed.
        """
        messages = list(messages)
        self.update_hits += len(messages)
        if self.manager is not None:
            accepted, shed, applied = self.manager.commit_batch(
                messages, budget=pump_budget
            )
            return UpdateAck(accepted, shed, applied, durable=True)
        accepted = 0
        for message in messages:
            if self.system.offer_update(message):
                accepted += 1
        budget = pump_budget if pump_budget is not None else max(1, len(messages))
        applied = self.system.pump_updates(budget)
        return UpdateAck(accepted, len(messages) - accepted, applied, False)

    def checkpoint(self) -> Optional[str]:
        if self.manager is None:
            return None
        return str(self.manager.checkpoint())

    def report_dict(self) -> Dict[str, object]:
        """The shard's STATS row, with its live DRed judged.

        ``dred_violations`` maps each failed DRed check (``dred-exclusion``,
        ``dred-fresh``) to its first witness.  Only the live process can
        say: a restore starts with cold DReds.
        """
        from repro.persist.audit import InvariantAuditor

        report = self.system.report().as_dict()
        report["shard"] = self.index
        report["durable"] = self.durable
        report["lookup_hits"] = self.lookup_hits
        report["update_hits"] = self.update_hits
        report["dred_entries"] = sum(
            len(chip.dred)
            for chip in self.system.engine.chips
            if chip.dred is not None
        )
        violations: Dict[str, str] = {}
        for violation in InvariantAuditor(self.system).check_dred().violations:
            violations.setdefault(violation.check, violation.detail)
        report["dred_violations"] = violations
        return report

    def flush(self) -> int:
        """Apply every queued update, *keep serving*.

        The quiesce point the campaign oracles need: after a flush the
        engine state is a pure function of the acked update stream (no
        update half-applied in the queue), but — unlike :meth:`drain` —
        the shard stays open for more traffic.  Durable shards journal
        the drain, so replay reproduces the same quiesce boundary.
        """
        if self.manager is not None:
            applied = self.manager.drain_updates()
            self.manager.sync()
            return applied
        return self.system.drain_updates()

    def drain(self) -> int:
        """Apply everything queued; durable shards also checkpoint and
        close (part of graceful shutdown)."""
        if self.manager is not None:
            applied = self.manager.drain_updates()
            self.manager.checkpoint()
            self.manager.close()
            return applied
        return self.system.drain_updates()


class ShardSet:
    """All shards of one serving instance, plus the router between them."""

    def __init__(self, router: ShardRouter, workers: List[ShardWorker]) -> None:
        if len(workers) != router.shard_count:
            raise ValueError(
                f"{len(workers)} workers for {router.shard_count} shards"
            )
        self.router = router
        self.workers = workers

    # -- construction ---------------------------------------------------

    @classmethod
    def build(
        cls,
        routes: Sequence[Route],
        shard_count: int = 1,
        config: Optional[SystemConfig] = None,
        journal_dir: Optional[PathLike] = None,
        checkpoint_every: int = 0,
        sync_interval: int = 64,
    ) -> "ShardSet":
        """Shard a routing table and build one CLUE system per shard.

        With ``journal_dir`` each shard journals into its own
        ``shard-<i>`` subdirectory and a ``serve.json`` metadata file
        records the sharding so :meth:`restore` can rebuild the same
        topology without the original table.
        """
        config = config or SystemConfig()
        plan = plan_shards(routes, shard_count, mode=config.compression_mode)
        workers = []
        for index, subset in enumerate(plan.routes_per_shard):
            system = ClueSystem(subset, config)
            manager = None
            if journal_dir is not None:
                manager = PersistenceManager(
                    system,
                    Path(journal_dir) / f"shard-{index}",
                    checkpoint_every=checkpoint_every,
                    sync_interval=sync_interval,
                )
            workers.append(ShardWorker(index, system, manager))
        shard_set = cls(plan.router, workers)
        if journal_dir is not None:
            shard_set._write_meta(Path(journal_dir))
        return shard_set

    @property
    def epoch(self) -> int:
        """The topology epoch this shard set serves (bumped by reshard)."""
        return self.router.epoch

    def _write_meta(self, directory: Path) -> None:
        self.write_meta(
            directory,
            shards=len(self.workers),
            boundaries=self.router.boundaries,
            epoch=self.router.epoch,
        )

    @staticmethod
    def write_meta(
        directory: PathLike,
        shards: int,
        boundaries: Sequence[int],
        epoch: int = 1,
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        """Write ``serve.json``; ``extra`` adds advisory keys.

        :meth:`read_meta` only consumes the four required keys, so extra
        keys (the multi-process front records its worker endpoints here)
        never break an older reader.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        meta: Dict[str, object] = {
            "version": META_VERSION,
            "shards": shards,
            "boundaries": list(boundaries),
            "epoch": epoch,
        }
        if extra:
            meta.update(extra)
        (directory / META_FILE).write_text(
            json.dumps(meta, sort_keys=True), encoding="ascii"
        )

    @staticmethod
    def read_meta(directory: PathLike) -> Dict[str, object]:
        """Parse ``serve.json``: the topology a journal directory holds."""
        meta_path = Path(directory) / META_FILE
        if not meta_path.is_file():
            raise ValueError(f"no {META_FILE} under {directory}")
        try:
            meta = json.loads(meta_path.read_text(encoding="ascii"))
            parsed: Dict[str, object] = {
                "version": int(meta["version"]),
                "shards": int(meta["shards"]),
                "boundaries": [int(b) for b in meta["boundaries"]],
                "epoch": int(meta.get("epoch", 1)),
            }
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise ValueError(f"malformed {meta_path}: {exc!r}") from exc
        if parsed["version"] != META_VERSION:
            raise ValueError(
                f"{meta_path} is v{parsed['version']}; "
                f"this build reads v{META_VERSION}"
            )
        return parsed

    @classmethod
    def restore(
        cls,
        journal_dir: PathLike,
        config: Optional[SystemConfig] = None,
        checkpoint_every: int = 0,
        sync_interval: int = 64,
    ) -> Tuple["ShardSet", List[object]]:
        """Rebuild every shard from its journal + snapshots.

        Returns ``(shard_set, recovery_reports)``; shard topology comes
        from ``serve.json``, per-shard state from the usual snapshot +
        journal-replay recovery of :class:`PersistenceManager`.

        A directory holding a ``reshard.json`` migration journal is
        resolved first: a crash before the cutover commit rolls the
        partial epoch back, a crash after it rolls forward into the new
        epoch directory — either way restore lands on exactly one
        committed topology.
        """
        from repro.serve.reshard import resolve_reshard

        directory = resolve_reshard(Path(journal_dir))
        meta = cls.read_meta(directory)
        shard_count = int(meta["shards"])
        boundaries = list(meta["boundaries"])  # type: ignore[arg-type]
        epoch = int(meta["epoch"])
        workers = []
        reports = []
        for index in range(shard_count):
            manager, report = PersistenceManager.restore(
                directory / f"shard-{index}",
                config=config,
                checkpoint_every=checkpoint_every,
                sync_interval=sync_interval,
            )
            workers.append(ShardWorker(index, manager.system, manager))
            reports.append(report)
        return cls(ShardRouter(boundaries, epoch), workers), reports

    # -- single-shard worker processes ----------------------------------

    @staticmethod
    def _worker_span(boundaries: Sequence[int], index: int) -> Tuple[int, int]:
        end = (
            boundaries[index + 1]
            if index + 1 < len(boundaries)
            else ADDRESS_SPACE
        )
        return (boundaries[index], end)

    @classmethod
    def build_worker(
        cls,
        routes: Sequence[Route],
        shard_count: int,
        index: int,
        config: Optional[SystemConfig] = None,
        journal_dir: Optional[PathLike] = None,
        checkpoint_every: int = 0,
        sync_interval: int = 64,
    ) -> "ShardSet":
        """Build shard ``index`` of an ``shard_count``-way plan, alone.

        The multi-process serving plane spawns one process per shard;
        each re-derives the *identical* plan (:func:`plan_shards` is
        deterministic over the same table), keeps only its own subset,
        and journals into the shared directory's ``shard-<index>`` — the
        exact layout :meth:`build` would have written, so a plain
        single-process :meth:`restore` of the whole directory rebuilds
        the same state.  The parent owns ``serve.json``; a worker never
        writes it (two workers racing the metadata file would be the
        only nondeterminism in the plan).
        """
        if not 0 <= index < shard_count:
            raise ValueError(
                f"shard index {index} out of range for {shard_count} shard(s)"
            )
        config = config or SystemConfig()
        plan = plan_shards(routes, shard_count, mode=config.compression_mode)
        system = ClueSystem(plan.routes_per_shard[index], config)
        manager = None
        if journal_dir is not None:
            manager = PersistenceManager(
                system,
                Path(journal_dir) / f"shard-{index}",
                checkpoint_every=checkpoint_every,
                sync_interval=sync_interval,
            )
        worker = ShardWorker(
            index,
            system,
            manager,
            span=cls._worker_span(plan.router.boundaries, index),
        )
        return cls(ShardRouter([0], epoch=plan.router.epoch), [worker])

    @classmethod
    def restore_worker(
        cls,
        journal_dir: PathLike,
        index: int,
        config: Optional[SystemConfig] = None,
        checkpoint_every: int = 0,
        sync_interval: int = 64,
    ) -> Tuple["ShardSet", List[object]]:
        """Restore shard ``index`` alone from a shared journal directory.

        Topology comes from ``serve.json`` exactly like :meth:`restore`,
        but only this shard's journal is replayed.  Unlike
        :meth:`restore` this does **not** resolve a pending reshard
        journal: concurrent workers racing the rollback would corrupt
        it, so the supervisor resolves once before spawning anyone.
        """
        directory = Path(journal_dir)
        meta = cls.read_meta(directory)
        shard_count = int(meta["shards"])
        boundaries = list(meta["boundaries"])  # type: ignore[arg-type]
        if not 0 <= index < shard_count:
            raise ValueError(
                f"shard index {index} out of range: {directory} holds "
                f"{shard_count} shard(s)"
            )
        manager, report = PersistenceManager.restore(
            directory / f"shard-{index}",
            config=config,
            checkpoint_every=checkpoint_every,
            sync_interval=sync_interval,
        )
        worker = ShardWorker(
            index,
            manager.system,
            manager,
            span=cls._worker_span(boundaries, index),
        )
        return (
            cls(ShardRouter([0], epoch=int(meta["epoch"])), [worker]),
            [report],
        )

    # -- data plane -----------------------------------------------------

    def lookup(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """Answer one batch, routing each address to its home shard.

        Results come back in request order regardless of how the batch
        scattered over shards.
        """
        if len(self.workers) == 1:
            return self.workers[0].lookup_batch(addresses)
        shard_of = self.router.shard_of
        buckets: List[List[int]] = [[] for _ in self.workers]
        positions: List[List[int]] = [[] for _ in self.workers]
        for position, address in enumerate(addresses):
            shard = shard_of(address)
            buckets[shard].append(address)
            positions[shard].append(position)
        results: List[Optional[int]] = [None] * len(addresses)
        for shard, worker in enumerate(self.workers):
            if not buckets[shard]:
                continue
            for position, hop in zip(
                positions[shard], worker.lookup_batch(buckets[shard])
            ):
                results[position] = hop
        return results

    # -- control plane --------------------------------------------------

    def update(
        self,
        messages: Sequence[UpdateMessage],
        pump_budget: Optional[int] = None,
    ) -> UpdateAck:
        """Route one update batch to the shards each prefix overlaps.

        Shards are visited in index order with each shard's sub-batch in
        arrival order — a deterministic function of the batch, which the
        crash drill relies on.  A boundary-spanning prefix is delivered
        to every covering shard, so the aggregated counters are
        per-shard deliveries (same convention as the unsharded system's
        chip replication).
        """
        if len(self.workers) == 1:
            return self.workers[0].update_batch(messages, pump_budget)
        batches: List[List[UpdateMessage]] = [[] for _ in self.workers]
        for message in messages:
            for shard in self.router.shards_covering(message.prefix):
                batches[shard].append(message)
        accepted = shed = applied = 0
        durable = True
        for shard, worker in enumerate(self.workers):
            if not batches[shard]:
                continue
            ack = worker.update_batch(batches[shard], pump_budget)
            accepted += ack.accepted
            shed += ack.shed
            applied += ack.applied
            durable = durable and ack.durable
        return UpdateAck(accepted, shed, applied, durable)

    # -- admin ----------------------------------------------------------

    @property
    def durable(self) -> bool:
        return all(worker.durable for worker in self.workers)

    def shard_fingerprints(self) -> List[str]:
        return [worker.system.state_fingerprint() for worker in self.workers]

    def fingerprint(self) -> str:
        """One digest over every shard's state fingerprint, in order."""
        return combine_fingerprints(self.shard_fingerprints())

    def checkpoint(self) -> List[Optional[str]]:
        return [worker.checkpoint() for worker in self.workers]

    def stats(self) -> List[Dict[str, object]]:
        boundaries = self.router.boundaries
        rows = []
        for worker in self.workers:
            row = worker.report_dict()
            if worker.span is not None:
                # Worker-process mode: the local router is single-shard,
                # so the global range travels on the worker itself.
                start, end = worker.span
            else:
                start, end = self._worker_span(boundaries, worker.index)
            row["range"] = [start, end]
            rows.append(row)
        return rows

    def flush(self) -> int:
        """Quiesce every shard without closing it (see ShardWorker.flush)."""
        return sum(worker.flush() for worker in self.workers)

    def drain(self) -> int:
        """Drain every shard (queued updates, journals)."""
        return sum(worker.drain() for worker in self.workers)
