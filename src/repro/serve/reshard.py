"""Live resharding: crash-safe online shard split/merge (DESIGN.md §14).

A serving instance's shard topology is frozen at build time, but load is
not: a hot range concentrates lookups and updates on one worker while
cold neighbours idle.  This module migrates a live :class:`ShardSet` to
a new topology **while it keeps serving**, through a staged state
machine journaled to ``reshard.json`` next to the live ``serve.json``:

    PREPARE   validate the request, compute the new boundaries, journal
              the intent (action, old/new boundaries, target epoch).
    COPY      quiesce-without-stopping (flush every source shard), take
              the journal watermark via ``begin_shipping`` — the same
              snapshot-bootstrap contract the replication shipper uses —
              and build the new epoch's shards from the sources' route
              sets under ``epoch-<NNNN>/``, each with its own fresh
              :class:`PersistenceManager`.
    CATCHUP   repeatedly drain ``collect_shipment`` from the sources and
              re-apply each journal record to the covering new shards;
              traffic keeps landing on the old topology and keeps being
              journaled, so nothing is missed and nothing blocks.
    CUTOVER   one synchronous block: final flush + final catch-up round,
              fsync the new shards, then atomically commit the stage
              record.  The commit write *is* the cutover: a crash before
              it rolls back, a crash after it rolls forward.
    RETIRE    close the source shards' managers; the superseded state
              directory is left in place for post-mortem.

Crash-resume matrix (applied by :func:`resolve_reshard`, which
:meth:`ShardSet.restore` runs before reading any metadata):

    ========== =========================================================
    stage      restart behaviour
    ========== =========================================================
    prepare    roll back: delete the partial epoch dir, serve the old
    copy       topology (nothing was promised yet)
    catchup
    cutover    roll forward: the new epoch was durable before the commit
    retire     record, so serve it and finish the bookkeeping
    done
    rolled-back serve the old topology (a previous abort already cleaned)
    ========== =========================================================

Records are re-applied through :func:`repro.persist.manager.apply_record`,
as a backup replica applies them, with one twist: records are *routed*.  A source shard's record applies to the new
shards whose ranges overlap the source's range (intersected with the
prefix's covering set for offer/apply records).  A merge can deliver the
same boundary-spanning offer twice — once from each source journal —
which is safe for the same reason client retries are: announces are
no-op modifies and withdraws are no-ops at the route level, and the new
shards journal whatever they apply, so replay stays byte-identical.
"""

from __future__ import annotations

import json
import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.compress.labels import CompressionMode
from repro.compress.onrtc import compress
from repro.partition.even import even_partition
from repro.partition.index_logic import RangeIndex
from repro.persist import codec
from repro.persist.journal import JournalError
from repro.persist.manager import PersistenceManager, apply_record
from repro.serve.router import ShardRouter
from repro.serve.shard import ShardSet, ShardWorker
from repro.trie.trie import BinaryTrie

PathLike = Union[str, Path]

#: Migration journal, written atomically next to the live ``serve.json``.
RESHARD_FILE = "reshard.json"
RESHARD_VERSION = 1

#: Address space ceiling (exclusive) of the last shard's range.
ADDRESS_SPACE = 1 << 32

STAGE_PREPARE = "prepare"
STAGE_COPY = "copy"
STAGE_CATCHUP = "catchup"
STAGE_CUTOVER = "cutover"
STAGE_RETIRE = "retire"
STAGE_DONE = "done"
STAGE_ROLLED_BACK = "rolled-back"

#: Stages whose crash-recovery verdict is "roll back".
ROLLBACK_STAGES = (STAGE_PREPARE, STAGE_COPY, STAGE_CATCHUP)
#: Stages whose crash-recovery verdict is "roll forward".
FORWARD_STAGES = (STAGE_CUTOVER, STAGE_RETIRE, STAGE_DONE)


class ReshardError(Exception):
    """The migration cannot proceed (bad plan, wrong state, lost data)."""


def epoch_dir_name(epoch: int) -> str:
    """Directory name of one topology epoch (``epoch-0002`` …)."""
    return f"epoch-{epoch:04d}"


@dataclass
class MigrationState:
    """The journaled state of one migration (the ``reshard.json`` body)."""

    stage: str
    action: str
    shard: int
    epoch_from: int
    epoch_to: int
    epoch_dir: str
    old_boundaries: List[int]
    new_boundaries: List[int]
    reason: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": RESHARD_VERSION,
            "stage": self.stage,
            "action": self.action,
            "shard": self.shard,
            "epoch_from": self.epoch_from,
            "epoch_to": self.epoch_to,
            "epoch_dir": self.epoch_dir,
            "old_boundaries": list(self.old_boundaries),
            "new_boundaries": list(self.new_boundaries),
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "MigrationState":
        try:
            if int(data["version"]) != RESHARD_VERSION:
                raise ValueError(
                    f"reshard journal v{data['version']}; this build "
                    f"reads v{RESHARD_VERSION}"
                )
            return cls(
                stage=str(data["stage"]),
                action=str(data["action"]),
                shard=int(data["shard"]),
                epoch_from=int(data["epoch_from"]),
                epoch_to=int(data["epoch_to"]),
                epoch_dir=str(data["epoch_dir"]),
                old_boundaries=[int(b) for b in data["old_boundaries"]],
                new_boundaries=[int(b) for b in data["new_boundaries"]],
                reason=str(data.get("reason", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ReshardError(f"malformed reshard journal: {exc}") from exc


def write_state(root: PathLike, state: MigrationState) -> None:
    """Atomically persist the migration state (write + fsync + rename).

    The rename is the crash-consistency hinge: a reader either sees the
    previous stage or the new one, never a torn file.  The CUTOVER write
    in particular *is* the migration's commit record.
    """
    root = Path(root)
    tmp = root / (RESHARD_FILE + ".tmp")
    with open(tmp, "w", encoding="ascii") as handle:
        json.dump(state.as_dict(), handle, sort_keys=True)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, root / RESHARD_FILE)
    dir_fd = os.open(root, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


def read_state(root: PathLike) -> Optional[MigrationState]:
    """The migration journal under ``root``, or ``None`` when absent."""
    path = Path(root) / RESHARD_FILE
    if not path.is_file():
        return None
    try:
        data = json.loads(path.read_text(encoding="ascii"))
    except (OSError, json.JSONDecodeError) as exc:
        raise ReshardError(f"unreadable {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ReshardError(f"{path} is not a JSON object")
    return MigrationState.from_dict(data)


def resolve_reshard(root: PathLike, _depth: int = 0) -> Path:
    """The directory holding the committed topology under ``root``.

    Applies the crash-resume matrix: an uncommitted migration is rolled
    back (partial epoch directory deleted, stage set to ``rolled-back``),
    a committed one is rolled forward (stage advanced to ``done`` and the
    epoch directory resolved — recursively, since the new epoch may have
    started a migration of its own before a crash).
    """
    root = Path(root)
    if _depth > 64:  # a cycle here means a corrupted journal chain
        raise ReshardError(f"reshard journal chain too deep under {root}")
    state = read_state(root)
    if state is None or state.stage == STAGE_ROLLED_BACK:
        return root
    epoch_path = root / state.epoch_dir
    if state.stage in ROLLBACK_STAGES:
        shutil.rmtree(epoch_path, ignore_errors=True)
        state.stage = STAGE_ROLLED_BACK
        if not state.reason:
            state.reason = "crash before cutover commit"
        write_state(root, state)
        return root
    if state.stage not in FORWARD_STAGES:
        raise ReshardError(
            f"unknown reshard stage {state.stage!r} in {root / RESHARD_FILE}"
        )
    if not (epoch_path / "serve.json").is_file():
        raise ReshardError(
            f"reshard journal claims stage {state.stage} but "
            f"{epoch_path} holds no topology"
        )
    if state.stage != STAGE_DONE:
        state.stage = STAGE_DONE
        write_state(root, state)
    return resolve_reshard(epoch_path, _depth + 1)


# -- planning -------------------------------------------------------------


def _source_routes(worker: ShardWorker) -> List[Tuple]:
    """The worker's current raw route set (post-applied updates)."""
    return list(worker.system.pipeline.trie_stage.table.source.routes())


def plan_split(
    shard_set: ShardSet,
    shard: int,
    at: Optional[int] = None,
    mode: CompressionMode = CompressionMode.DONT_CARE,
) -> List[int]:
    """New boundaries that split one shard's range in two.

    Without an explicit ``at``, the cut comes from even-partitioning the
    shard's own compressed table — the same machinery ``plan_shards``
    uses at build time, so the two halves carry near-equal TCAM
    populations.  Falls back to the range midpoint when the compressed
    table is too small to split evenly.
    """
    boundaries = shard_set.router.boundaries
    if not 0 <= shard < len(boundaries):
        raise ReshardError(
            f"no shard {shard} in a {len(boundaries)}-shard topology"
        )
    lo = boundaries[shard]
    hi = boundaries[shard + 1] if shard + 1 < len(boundaries) else ADDRESS_SPACE
    if hi - lo < 2:
        raise ReshardError(
            f"shard {shard} range [{lo:#x}, {hi:#x}) is too narrow to split"
        )
    cut = at
    if cut is None:
        routes = _source_routes(shard_set.workers[shard])
        compressed = sorted(
            compress(BinaryTrie.from_routes(routes), mode).items(),
            key=lambda route: route[0].sort_key(),
        )
        if len(compressed) >= 2:
            result = even_partition(compressed, 2)
            candidate = RangeIndex.from_partition(result).boundaries[1]
            if lo < candidate < hi:
                cut = candidate
        if cut is None:
            cut = lo + (hi - lo) // 2
    if not lo < cut < hi:
        raise ReshardError(
            f"split point {cut:#x} outside shard {shard} range "
            f"[{lo:#x}, {hi:#x})"
        )
    return boundaries[: shard + 1] + [cut] + boundaries[shard + 1:]


def plan_merge(shard_set: ShardSet, shard: int) -> List[int]:
    """New boundaries that merge ``shard`` with its right neighbour."""
    boundaries = shard_set.router.boundaries
    if not 0 <= shard < len(boundaries) - 1:
        raise ReshardError(
            f"cannot merge shard {shard} with its right neighbour in a "
            f"{len(boundaries)}-shard topology"
        )
    return boundaries[: shard + 1] + boundaries[shard + 2:]


def choose_reshard(
    shard_set: ShardSet,
    hot_share: float = 0.6,
    cold_share: float = 0.15,
) -> Optional[Tuple[str, int]]:
    """Pick a migration from the per-range hit counters, or ``None``.

    A shard absorbing at least ``hot_share`` of the total load is split;
    otherwise the coldest adjacent pair is merged when its combined share
    is at most ``cold_share``.  Deterministic (ties go to the lowest
    index), so campaign drills and the auto CLI agree on the decision.
    """
    return choose_reshard_from_loads(
        [
            worker.lookup_hits + worker.update_hits
            for worker in shard_set.workers
        ],
        hot_share=hot_share,
        cold_share=cold_share,
    )


def choose_reshard_from_loads(
    loads: Sequence[int],
    hot_share: float = 0.6,
    cold_share: float = 0.15,
) -> Optional[Tuple[str, int]]:
    """The :func:`choose_reshard` policy over bare per-range loads.

    The multi-process front has no in-process workers to read counters
    from — it aggregates ``lookup_hits + update_hits`` out of the
    per-worker STATS rows and feeds the merged list here, so the policy
    decision is identical to what the in-process topology would pick.
    """
    total = sum(loads)
    if total <= 0:
        return None
    hottest = max(range(len(loads)), key=lambda i: (loads[i], -i))
    if loads[hottest] / total >= hot_share:
        return ("split", hottest)
    if len(loads) >= 2:
        pair = min(
            range(len(loads) - 1), key=lambda i: (loads[i] + loads[i + 1], i)
        )
        if (loads[pair] + loads[pair + 1]) / total <= cold_share:
            return ("merge", pair)
    return None


# -- the migration controller ---------------------------------------------


@dataclass
class ReshardProgress:
    """Counters one migration accumulates (the status-RPC body)."""

    rounds: int = 0
    records_applied: int = 0
    duplicates_possible: bool = False


class ReshardCoordinator:
    """One staged migration of a live :class:`ShardSet`.

    The coordinator is synchronous and single-threaded by design: the
    server drives it from its event loop between requests, so every
    stage method runs with the shard set quiescent for the duration of
    the call — the same determinism contract the rest of the serving
    plane relies on.  Use :meth:`run_to_completion` outside a server.
    """

    def __init__(
        self,
        shards: ShardSet,
        action: str,
        shard: int,
        at: Optional[int] = None,
        reason: str = "",
        checkpoint_every: int = 0,
        sync_interval: int = 64,
    ) -> None:
        if action not in ("split", "merge"):
            raise ReshardError(f"unknown reshard action {action!r}")
        if not shards.durable:
            raise ReshardError(
                "resharding replays journal records; every shard needs a "
                "PersistenceManager (serve with --journal)"
            )
        self.shards = shards
        self.action = action
        self.shard = shard
        self.checkpoint_every = checkpoint_every
        self.sync_interval = sync_interval
        self.progress = ReshardProgress()
        self.new_set: Optional[ShardSet] = None
        manager = shards.workers[0].manager
        assert manager is not None
        #: The directory holding the live ``serve.json`` — shard state
        #: dirs are always directly beneath it.
        self.root = Path(manager.directory).parent
        if action == "split":
            new_boundaries = plan_split(shards, shard, at=at)
        else:
            new_boundaries = plan_merge(shards, shard)
        self.state = MigrationState(
            stage=STAGE_PREPARE,
            action=action,
            shard=shard,
            epoch_from=shards.epoch,
            epoch_to=shards.epoch + 1,
            epoch_dir=epoch_dir_name(shards.epoch + 1),
            old_boundaries=list(shards.router.boundaries),
            new_boundaries=new_boundaries,
            reason=reason,
        )
        #: New shards whose range overlaps each source shard's range —
        #: the routing table for re-applied journal records.
        self._targets = self._overlap_targets(
            shards.router.boundaries, new_boundaries
        )
        self._shipping = False

    @staticmethod
    def _overlap_targets(
        old_boundaries: Sequence[int], new_boundaries: Sequence[int]
    ) -> List[List[int]]:
        def ranges(boundaries: Sequence[int]) -> List[Tuple[int, int]]:
            ends = list(boundaries[1:]) + [ADDRESS_SPACE]
            return list(zip(boundaries, ends))

        old_ranges = ranges(old_boundaries)
        new_ranges = ranges(new_boundaries)
        return [
            [
                j
                for j, (new_lo, new_hi) in enumerate(new_ranges)
                if new_lo < old_hi and old_lo < new_hi
            ]
            for old_lo, old_hi in old_ranges
        ]

    # -- stage transitions ------------------------------------------------

    def _set_stage(self, stage: str) -> None:
        self.state.stage = stage
        write_state(self.root, self.state)

    def prepare(self) -> None:
        """Journal the intent; everything before this leaves no trace."""
        leftover = read_state(self.root)
        if leftover is not None and leftover.stage not in (
            STAGE_DONE,
            STAGE_ROLLED_BACK,
        ):
            raise ReshardError(
                f"a migration is already journaled at stage "
                f"{leftover.stage!r}; restart the server to resolve it"
            )
        self._set_stage(STAGE_PREPARE)

    def copy(self) -> None:
        """Snapshot-bootstrap the new epoch from the quiesced sources.

        Reuses the replication shipping contract: each source is flushed
        (journaled quiesce), ``begin_shipping`` marks the watermark the
        snapshot covers, and every record journaled afterwards
        accumulates for the catch-up rounds.
        """
        from repro.core.system import ClueSystem

        self._set_stage(STAGE_COPY)
        for worker in self.shards.workers:
            assert worker.manager is not None
            worker.flush()
            worker.manager.begin_shipping()
        self._shipping = True

        union: Dict = {}
        for worker in self.shards.workers:
            for prefix, hop in _source_routes(worker):
                union[prefix] = hop
        new_router = ShardRouter(
            self.state.new_boundaries, epoch=self.state.epoch_to
        )
        routes_per_shard: List[List[Tuple]] = [
            [] for _ in range(new_router.shard_count)
        ]
        for prefix, hop in sorted(
            union.items(), key=lambda route: route[0].sort_key()
        ):
            for j in new_router.shards_covering(prefix):
                routes_per_shard[j].append((prefix, hop))
        for j, subset in enumerate(routes_per_shard):
            if not subset:
                raise ReshardError(
                    f"new shard {j} would receive no routes; refusing a "
                    f"topology that cannot build a CLUE pipeline"
                )

        epoch_path = self.root / self.state.epoch_dir
        if epoch_path.exists():
            shutil.rmtree(epoch_path)
        config = self.shards.workers[0].system.config
        new_workers: List[ShardWorker] = []
        for j, subset in enumerate(routes_per_shard):
            system = ClueSystem(subset, config)
            manager = PersistenceManager(
                system,
                epoch_path / f"shard-{j}",
                checkpoint_every=self.checkpoint_every,
                sync_interval=self.sync_interval,
            )
            new_workers.append(ShardWorker(j, system, manager))
        new_set = ShardSet(new_router, new_workers)
        new_set._write_meta(epoch_path)
        self.new_set = new_set

    def begin_catchup(self) -> None:
        self._set_stage(STAGE_CATCHUP)

    def catchup_round(self) -> int:
        """Drain every source's shipment into the new shards.

        Returns the number of records re-applied; the caller loops until
        a round comes back empty (then cutover closes the race window
        synchronously).
        """
        assert self.new_set is not None
        applied = 0
        for worker in self.shards.workers:
            assert worker.manager is not None
            for _seq, kind, payload in worker.manager.collect_shipment():
                self._apply_record(worker.index, kind, payload)
                applied += 1
        self.progress.rounds += 1
        self.progress.records_applied += applied
        return applied

    def _apply_record(self, source: int, kind: str, payload: str) -> None:
        assert self.new_set is not None
        targets = self._targets[source]
        if kind in ("offer", "apply"):
            prefix = codec.decode_message(payload).prefix
            covering = self.new_set.router.shards_covering(prefix)
            if len(targets) > 1:
                self.progress.duplicates_possible = True
            targets = [j for j in targets if j in covering]
        for j in targets:
            manager = self.new_set.workers[j].manager
            assert manager is not None
            try:
                apply_record(manager, kind, payload)
            except JournalError as exc:
                raise ReshardError(f"source shard {source}: {exc}") from exc

    def cutover(self) -> ShardSet:
        """Commit the migration; returns the new shard set to install.

        One synchronous block — no request can interleave: flush the
        sources (their queues drain into journal records), apply the
        final shipment, fsync the new shards, then write the CUTOVER
        record.  The rename inside :func:`write_state` is the atomic
        commit: before it a crash rolls back, after it the new epoch is
        the topology of record.
        """
        assert self.new_set is not None
        for worker in self.shards.workers:
            worker.flush()
        self.catchup_round()
        for worker in self.new_set.workers:
            assert worker.manager is not None
            worker.manager.sync()
        self._set_stage(STAGE_CUTOVER)
        return self.new_set

    def retire(self) -> None:
        """Close the sources; the old state directory stays for post-mortem."""
        self._set_stage(STAGE_RETIRE)
        for worker in self.shards.workers:
            assert worker.manager is not None
            worker.manager.end_shipping()
            worker.manager.close()
        self._shipping = False
        self._set_stage(STAGE_DONE)

    def abort(self, reason: str) -> None:
        """Roll back a live migration (the non-crash error path)."""
        if self._shipping:
            for worker in self.shards.workers:
                if worker.manager is not None:
                    worker.manager.end_shipping()
            self._shipping = False
        if self.new_set is not None:
            for worker in self.new_set.workers:
                if worker.manager is not None:
                    worker.manager.close()
            self.new_set = None
        shutil.rmtree(self.root / self.state.epoch_dir, ignore_errors=True)
        self.state.reason = reason
        self._set_stage(STAGE_ROLLED_BACK)

    # -- convenience ------------------------------------------------------

    def run_to_completion(self, max_rounds: int = 64) -> ShardSet:
        """Drive every stage back to back (tests and offline tooling)."""
        try:
            self.prepare()
            self.copy()
            self.begin_catchup()
            for _ in range(max_rounds):
                if self.catchup_round() == 0:
                    break
            new_set = self.cutover()
            self.retire()
            return new_set
        except ReshardError as exc:
            self.abort(str(exc))
            raise

    def snapshot(self) -> Dict[str, object]:
        """Status-RPC view of the migration."""
        return {
            "stage": self.state.stage,
            "action": self.state.action,
            "shard": self.state.shard,
            "epoch_from": self.state.epoch_from,
            "epoch_to": self.state.epoch_to,
            "old_boundaries": list(self.state.old_boundaries),
            "new_boundaries": list(self.state.new_boundaries),
            "rounds": self.progress.rounds,
            "records_applied": self.progress.records_applied,
            "reason": self.state.reason,
        }
