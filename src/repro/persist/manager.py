"""PersistenceManager — crash consistency for a live :class:`ClueSystem`.

The write path is classic redo logging: every control-plane operation is
appended to the :class:`~repro.persist.journal.Journal` *before* it runs
(`journal-before-apply`), and every ``checkpoint_every`` operations the
full state is serialized through :class:`~repro.persist.snapshot.SnapshotStore`.
Restore loads the newest valid snapshot, rebuilds the system
deterministically (:meth:`ClueSystem.from_state`), replays the journal
suffix with ``seq`` greater than the snapshot's, re-proves the control
plane's invariants, and reports a TTF-style *time to recovered*.

Replay is exact because every journaled operation is deterministic given
the state it runs against: ONRTC diffs are pure functions of the trie,
admission and shedding depend only on queue occupancy, and DRed
invalidation depends only on the diff.  :func:`apply_record` is the one
interpreter of a journal record; restore, a backup replica and a
resharding migration all run records through it.

Operations must be routed through the manager (it wraps the system's
update entry points); anything applied behind its back is invisible to
the journal and unrecoverable — same contract as any WAL.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Tuple, Union

from repro.persist import codec
from repro.persist.audit import AuditReport
from repro.persist.journal import Journal, JournalError
from repro.persist.snapshot import SnapshotError, SnapshotStore, load_snapshot

PathLike = Union[str, Path]

JOURNAL_DIR = "journal"
SNAPSHOT_DIR = "snapshots"

#: Record kinds that execute nothing: checkpoints, and the two flush
#: kinds older journals carry from when a full update queue deferred
#: TCAM-mirror writes.
_MARKER_KINDS = ("checkpoint", "flush", "flush-auto")


def apply_record(target, kind: str, payload: str) -> bool:
    """Run one journal record against ``target``; False for a marker.

    ``target`` is a :class:`~repro.core.system.ClueSystem` (restore
    replay) or a :class:`PersistenceManager` (a replica or migration
    target, which journals the record again): both expose the same
    update methods.  An unknown kind raises :class:`JournalError`.
    """
    if kind == "apply":
        target.apply_update(codec.decode_message(payload))
    elif kind == "offer":
        target.offer_update(codec.decode_message(payload))
    elif kind == "pump":
        target.pump_updates(int(payload))
    elif kind == "drain":
        target.drain_updates()
    elif kind in _MARKER_KINDS:
        return False
    else:
        raise JournalError(f"unknown kind {kind!r}")
    return True


@dataclass
class RecoveryReport:
    """What one :meth:`PersistenceManager.restore` did."""

    snapshot_path: str
    snapshot_seq: int
    #: Journal records replayed on top of the snapshot.
    replayed_records: int
    #: Snapshots that were skipped as corrupt/inconsistent (newest first).
    skipped_snapshots: List[str] = field(default_factory=list)
    #: Wall time from "restore requested" to "invariants re-proved".
    time_to_recovered_us: float = 0.0
    #: The post-restore invariant audit.
    audit: Optional[AuditReport] = None

    def summary(self) -> str:
        lines = [
            f"restored from {self.snapshot_path} (seq {self.snapshot_seq}), "
            f"{self.replayed_records} journal records replayed, "
            f"time to recovered {self.time_to_recovered_us:.0f} us"
        ]
        for skipped in self.skipped_snapshots:
            lines.append(f"  skipped snapshot: {skipped}")
        if self.audit is not None:
            lines.append(f"  invariants: {self.audit.summary()}")
        return "\n".join(lines)


@dataclass
class StorageAudit:
    """What :meth:`PersistenceManager.verify_storage` found on disk.

    The campaign runner's journal/snapshot oracle: after a cell drives a
    durable topology, the state directory itself must still be a valid
    recovery basis — every journal record readable with contiguous
    sequences, at least one snapshot loading with a verified digest, and
    the journal suffix actually covering the newest usable snapshot.
    """

    journal_records: int = 0
    journal_first_seq: int = 0
    journal_last_seq: int = 0
    valid_snapshots: int = 0
    #: ``path.name: reason`` for snapshots that failed digest/header checks.
    corrupt_snapshots: List[str] = field(default_factory=list)
    #: Human-readable violations; empty means the storage is sound.
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def summary(self) -> str:
        verdict = "ok" if self.ok else "FAILED"
        line = (
            f"storage {verdict}: {self.journal_records} journal records "
            f"(seq {self.journal_first_seq}..{self.journal_last_seq}), "
            f"{self.valid_snapshots} valid snapshots"
        )
        if self.corrupt_snapshots:
            line += f", {len(self.corrupt_snapshots)} corrupt"
        for problem in self.problems:
            line += f"\n  problem: {problem}"
        return line


class PersistenceManager:
    """Journal-before-apply wrapper plus checkpoint/restore for one system.

    ``checkpoint_every=N`` snapshots the state after every N journaled
    operations (0 disables automatic checkpoints).  A fresh manager takes
    an initial checkpoint immediately: the journal alone cannot bootstrap
    a system (the initial RIB is not an update), so restore always needs
    at least one snapshot beneath the log.
    """

    def __init__(
        self,
        system,
        directory: PathLike,
        sync_interval: int = 64,
        segment_records: int = 4096,
        checkpoint_every: int = 0,
        keep_snapshots: int = 2,
        initial_checkpoint: bool = True,
        _journal: Optional[Journal] = None,
        _snapshots: Optional[SnapshotStore] = None,
    ) -> None:
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        self.system = system
        self.directory = Path(directory)
        self.checkpoint_every = checkpoint_every
        resuming = _journal is not None
        if not resuming:
            self._guard_fresh_directory()
        self.journal = _journal or Journal(
            self.directory / JOURNAL_DIR,
            segment_records=segment_records,
            sync_interval=sync_interval,
        )
        self.snapshots = _snapshots or SnapshotStore(
            self.directory / SNAPSHOT_DIR, keep=keep_snapshots
        )
        self._ops_since_checkpoint = 0
        #: In-memory tail of appended records a replication shipper has
        #: not collected yet (None = shipping disabled).
        self._ship_log: Optional[List[Tuple[int, str, str]]] = None
        if not resuming and initial_checkpoint:
            self.checkpoint()

    def _guard_fresh_directory(self) -> None:
        """Refuse to silently shadow existing state with a new journal."""
        for sub in (JOURNAL_DIR, SNAPSHOT_DIR):
            path = self.directory / sub
            if path.is_dir() and any(path.iterdir()):
                raise ValueError(
                    f"persistent state already exists under {path}; "
                    f"use PersistenceManager.restore() to resume it"
                )

    # -- journal-before-apply update path ------------------------------

    def _append(self, kind: str, payload: str = "") -> None:
        record = self.journal.append(kind, payload)
        if self._ship_log is not None:
            self._ship_log.append((record.seq, kind, payload))
        stats = self.system.recovery_stats
        stats.journal_records += 1
        stats.journal_syncs = self.journal.sync_count

    def _journal_op(self, kind: str, payload: str = "") -> None:
        self._append(kind, payload)
        self._ops_since_checkpoint += 1

    def apply_update(self, message):
        """Journal, then run one update through the direct pipeline path."""
        self._journal_op("apply", codec.encode_message(message))
        sample = self.system.apply_update(message)
        self._maybe_checkpoint()
        return sample

    def offer_update(self, message) -> bool:
        """Journal, then admit one update through the bounded queue."""
        self._journal_op("offer", codec.encode_message(message))
        accepted = self.system.offer_update(message)
        self._maybe_checkpoint()
        return accepted

    def pump_updates(self, budget: int = 8) -> int:
        """Journal, then apply up to ``budget`` queued updates."""
        self._journal_op("pump", str(budget))
        applied = self.system.pump_updates(budget)
        self._maybe_checkpoint()
        return applied

    def drain_updates(self) -> int:
        """Journal, then apply every queued update."""
        self._journal_op("drain")
        applied = self.system.drain_updates()
        self._maybe_checkpoint()
        return applied

    def commit_batch(self, messages, budget: Optional[int] = None):
        """Group-commit one update batch; durable before the return.

        The serving plane's ack path: every message is journaled and
        offered through the bounded queue (shed messages still leave a
        journal record — replay re-sheds them identically), one ``pump``
        with a deterministic budget (the batch size unless overridden)
        advances the pipeline, and a single force-fsync makes the whole
        batch durable.  Exactly one fsync per batch is what keeps the
        durable-ack path fast under storms.

        Returns ``(accepted, shed, applied)``.
        """
        messages = list(messages)
        accepted = 0
        for message in messages:
            if self.offer_update(message):
                accepted += 1
        if budget is None:
            budget = max(1, len(messages))
        applied = self.pump_updates(budget)
        self.sync()
        return accepted, len(messages) - accepted, applied

    # -- journal shipping (replication export) --------------------------

    @property
    def last_seq(self) -> int:
        """Sequence of the newest journaled record."""
        return self.journal.last_seq

    def begin_shipping(self) -> int:
        """Start buffering appended records for a replication shipper.

        Returns the journal sequence a bootstrap snapshot taken *now*
        covers; every record appended after this call accumulates in an
        in-memory tail — shipping one batch then costs O(batch), not a
        re-read of every segment — until :meth:`collect_shipment` drains
        it.  The journal is synced first so the shipped stream never
        outruns primary durability.
        """
        self.journal.sync()
        self._ship_log = []
        return self.journal.last_seq

    def collect_shipment(self) -> List[Tuple[int, str, str]]:
        """Drain the buffered tail as ``[(seq, kind, payload), ...]``."""
        if self._ship_log is None:
            return []
        batch, self._ship_log = self._ship_log, []
        return batch

    def end_shipping(self) -> None:
        """Stop buffering (the shipper detached)."""
        self._ship_log = None

    # -- checkpointing --------------------------------------------------

    def _maybe_checkpoint(self) -> None:
        if (
            self.checkpoint_every
            and self._ops_since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()

    def checkpoint(self) -> Path:
        """Snapshot the state at the current journal position.

        The journal is synced first so the snapshot never claims a
        position the log cannot prove; afterwards, segments made wholly
        obsolete by the *oldest retained* snapshot are truncated away.
        """
        self.journal.sync()
        state = self.system.capture_state()
        seq = self.journal.last_seq
        path = self.snapshots.write(state, seq)
        self._append("checkpoint", str(seq))
        self.journal.sync()
        self.journal.truncate_through(self.snapshots.oldest_seq())
        self.system.recovery_stats.snapshots_written += 1
        self._ops_since_checkpoint = 0
        return path

    def sync(self) -> None:
        """Force-fsync the journal (everything so far is durable)."""
        self.journal.sync()
        self.system.recovery_stats.journal_syncs = self.journal.sync_count

    def close(self) -> None:
        """Durable shutdown (no checkpoint; the journal is enough)."""
        self.journal.close()

    # -- storage audit ---------------------------------------------------

    def verify_storage(self) -> StorageAudit:
        """Audit the on-disk journal + snapshots as a recovery basis.

        Read-only apart from an initial :meth:`sync` (the buffered tail
        must be on disk before it can be audited).  Walks every retained
        journal record — the iterator itself enforces checksums and
        sequence contiguity — and attempts to load every snapshot, then
        cross-checks that the newest usable snapshot sits inside the
        journal's retained window, i.e. that :meth:`restore` would
        succeed from what is on disk right now.
        """
        audit = StorageAudit()
        if self.journal._handle is not None:
            self.sync()
        first = last = 0
        try:
            for record in self.journal.records():
                if not first:
                    first = record.seq
                last = record.seq
                audit.journal_records += 1
        except JournalError as exc:
            audit.problems.append(f"journal unreadable: {exc}")
        audit.journal_first_seq = first
        audit.journal_last_seq = last
        newest_valid = -1
        for path in self.snapshots.paths():
            try:
                seq, _state = load_snapshot(path)
            except SnapshotError as exc:
                audit.corrupt_snapshots.append(f"{path.name}: {exc}")
                continue
            audit.valid_snapshots += 1
            newest_valid = max(newest_valid, seq)
        if newest_valid < 0:
            audit.problems.append("no usable snapshot on disk")
            return audit
        if last and newest_valid > last:
            audit.problems.append(
                f"newest snapshot seq {newest_valid} beyond the "
                f"journal's last record {last}"
            )
        if first and newest_valid + 1 < first:
            audit.problems.append(
                f"journal starts at seq {first}, leaving a replay gap "
                f"after the newest snapshot (seq {newest_valid})"
            )
        return audit

    def crash(self, power_loss: bool = False) -> None:
        """Die ungracefully, for crash drills.

        ``power_loss=True`` additionally destroys the unsynced journal
        tail — the strictest model restore must survive.
        """
        self.journal.crash(power_loss=power_loss)

    # -- restore --------------------------------------------------------

    @classmethod
    def restore(
        cls,
        directory: PathLike,
        config=None,
        sync_interval: int = 64,
        segment_records: int = 4096,
        checkpoint_every: int = 0,
        keep_snapshots: int = 2,
        audit_sample: int = 256,
        halt_on_violation: bool = False,
    ) -> Tuple["PersistenceManager", RecoveryReport]:
        """Rebuild the system from disk; returns ``(manager, report)``.

        Walks snapshots newest-first: a snapshot that fails its digest,
        or turns out internally inconsistent when rebuilt, is skipped and
        the predecessor is tried (the journal retains the longer suffix
        that predecessor needs).  Raises
        :class:`~repro.persist.snapshot.SnapshotError` when no snapshot
        is usable and :class:`~repro.persist.journal.JournalError` when
        the journal itself is damaged or holds an unknown record kind.
        """
        from repro.core.system import ClueSystem

        start = time.perf_counter()
        directory = Path(directory)
        snapshots = SnapshotStore(directory / SNAPSHOT_DIR, keep=keep_snapshots)
        # Opening the journal performs WAL recovery (torn-tail truncation).
        journal = Journal(
            directory / JOURNAL_DIR,
            segment_records=segment_records,
            sync_interval=sync_interval,
        )
        skipped: List[str] = []
        system = None
        used_seq = 0
        used_path: Optional[Path] = None
        replayed = 0
        for path in reversed(snapshots.paths()):
            try:
                seq, state = load_snapshot(path)
                candidate = ClueSystem.from_state(state, config)
            except ValueError as exc:
                # SnapshotError (bad digest/header) and from_state's
                # inconsistency errors both land here: fall back.
                skipped.append(f"{path.name}: {exc}")
                continue
            replayed = cls._replay(candidate, journal, after_seq=seq)
            system, used_seq, used_path = candidate, seq, path
            break
        if system is None:
            detail = "; ".join(skipped) if skipped else "none found"
            raise SnapshotError(
                f"no usable snapshot under {directory}: {detail}"
            )
        audit = system.audit_invariants(
            sample_size=audit_sample, halt=halt_on_violation
        )
        elapsed_us = (time.perf_counter() - start) * 1e6
        stats = system.recovery_stats
        stats.restores += 1
        stats.replayed_updates += replayed
        stats.time_to_recovered_us = elapsed_us
        manager = cls(
            system,
            directory,
            checkpoint_every=checkpoint_every,
            _journal=journal,
            _snapshots=snapshots,
        )
        manager._ops_since_checkpoint = replayed
        report = RecoveryReport(
            snapshot_path=str(used_path),
            snapshot_seq=used_seq,
            replayed_records=replayed,
            skipped_snapshots=skipped,
            time_to_recovered_us=elapsed_us,
            audit=audit,
        )
        return manager, report

    @staticmethod
    def _replay(system, journal: Journal, after_seq: int) -> int:
        """Re-execute the journal suffix; returns executed record count."""
        replayed = 0
        for record in journal.records(after_seq=after_seq):
            try:
                replayed += apply_record(system, record.kind, record.payload)
            except JournalError as exc:
                raise JournalError(f"record {record.seq}: {exc}") from exc
        return replayed
