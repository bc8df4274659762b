"""Primary/backup replication via journal shipping (DESIGN.md §12).

The serving plane's durability story (PR 2/PR 4) ends at the primary's
own disk; this module extends it across a replica pair.  The primary
streams every shard's committed journal records to a backup over the
same length-prefixed protocol the data plane uses (``MSG_REPLICATE`` /
``MSG_REPLICATE_OK``); the backup applies each record through its own
:class:`~repro.persist.manager.PersistenceManager` — journal-before-apply
again, so the backup is itself crash-consistent — and answers with its
applied watermark.

Ack semantics (``ack_mode``):

* ``primary`` — the client's durable ack means "fsynced on the primary".
  Shipping is asynchronous (bounded in-flight window); the ack's
  ``replicated`` flag stays ``False`` because the primary will not claim
  more than the backup has confirmed.
* ``quorum`` — the primary waits for the backup's watermark ack before
  answering the client; ``replicated=True`` then means the batch survives
  the loss of either replica.

The watermark ordering invariant in both modes: records are shipped only
after the primary's fsync (an ack never precedes primary durability) and
``replicated`` is set only from an explicit backup ack (an ack never
claims more than the backup has applied).

Promotion: on primary death (replication-feed EOF, heartbeat timeout, or
an explicit admin ``MSG_FAILOVER``) the backup verifies each shard's
state fingerprint against the last one shipped at its watermark and
takes over the address range as a normal serving primary.  The "journal
tail replay" of the design happens in two places: shipped records are
applied (and locally journaled) eagerly while following, and a backup
that itself dies mid-promotion replays its *local* epoch journal through
the ordinary :meth:`ShardSet.restore` path on restart.
"""

from __future__ import annotations

import select
import socket
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Deque, Dict, List, Optional, Tuple, Union

from repro.persist.journal import JournalError
from repro.persist.manager import PersistenceManager, apply_record
from repro.serve import protocol
from repro.serve.protocol import ProtocolError, ReplicateAck
from repro.serve.router import ShardRouter
from repro.serve.shard import ShardSet, ShardWorker

PathLike = Union[str, Path]

EPOCH_PREFIX = "epoch-"

#: Backup roles, in lifecycle order.
ROLE_SYNCING = "syncing"
ROLE_FOLLOWING = "following"
ROLE_PROMOTING = "promoting"
ROLE_PRIMARY = "primary"


class ReplicationError(Exception):
    """The replica pair cannot make progress (divergence, gaps, loss)."""


@dataclass
class ReplicationConfig:
    """Knobs of one replication link."""

    #: ``primary`` or ``quorum`` — see the module docstring.
    ack_mode: str = "primary"
    connect_timeout: float = 5.0
    io_timeout: float = 30.0
    #: Ship the primary's per-shard state fingerprint with every record
    #: batch so the backup verifies convergence continuously.  Must be
    #: off when un-journaled chip faults are armed on the primary (their
    #: effects never ship, so the fingerprints legitimately differ).
    ship_fingerprints: bool = True
    #: ``primary``-mode flow control: unacked REPLICATE frames allowed in
    #: flight before the shipper blocks for one ack.
    max_unacked: int = 64
    #: Seconds between reconnect attempts after the backup dies.
    reconnect_backoff: float = 1.0

    def __post_init__(self) -> None:
        if self.ack_mode not in ("primary", "quorum"):
            raise ValueError(
                f"ack_mode must be 'primary' or 'quorum', not {self.ack_mode!r}"
            )


@dataclass
class ShipperStats:
    """Counters one :class:`JournalShipper` accumulates."""

    bootstraps: int = 0
    batches_shipped: int = 0
    records_shipped: int = 0
    heartbeats: int = 0
    failures: int = 0


class JournalShipper:
    """Primary side: streams committed journal records to one backup.

    The shipper runs synchronously inside the server's event loop (the
    update path is synchronous by design); ``quorum`` mode blocks for
    the backup's watermark ack per shipped batch, ``primary`` mode keeps
    a bounded in-flight window and drains acks opportunistically.
    A dead backup degrades the link instead of the service: shipping
    stops, acks report ``replicated=False``, and every later ship
    attempt retries the connection (backoff-limited) with a fresh
    bootstrap snapshot.
    """

    def __init__(
        self,
        host: str,
        port: int,
        shards: ShardSet,
        config: Optional[ReplicationConfig] = None,
    ) -> None:
        if not shards.durable:
            raise ValueError(
                "replication ships journal records; every shard needs a "
                "PersistenceManager (serve with --journal)"
            )
        self.host = host
        self.port = port
        self.shards = shards
        self.config = config or ReplicationConfig()
        self.stats = ShipperStats()
        self.alive = False
        #: Highest primary seq shipped / acked, per shard.
        self.shipped: List[int] = [0] * len(shards.workers)
        self.acked: List[int] = [0] * len(shards.workers)
        self._sock: Optional[socket.socket] = None
        self._next_request_id = 0
        #: request ids of REPLICATE frames whose ack is outstanding,
        #: paired with the (shard, seq) the ack will confirm.
        self._pending: Deque[Tuple[int, int, int]] = deque()
        self._last_attempt = 0.0

    # -- connection lifecycle -------------------------------------------

    def connect(self) -> None:
        """Connect and bootstrap the backup; raises on failure."""
        self._last_attempt = time.monotonic()
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.config.connect_timeout
        )
        sock.settimeout(self.config.io_timeout)
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._pending.clear()
        shards_payload = []
        for worker in self.shards.workers:
            assert worker.manager is not None
            seq = worker.manager.begin_shipping()
            entry = {
                "index": worker.index,
                "seq": seq,
                "state": worker.system.capture_state(),
            }
            if self.config.ship_fingerprints:
                entry["fingerprint"] = worker.system.state_fingerprint()
            shards_payload.append(entry)
            self.shipped[worker.index] = seq
            self.acked[worker.index] = 0
        payload = protocol.encode_replicate(
            {
                "kind": protocol.REPLICATE_BOOTSTRAP,
                "boundaries": self.shards.router.boundaries,
                "ack_mode": self.config.ack_mode,
                "shards": shards_payload,
            }
        )
        try:
            ack = self._send_and_wait(payload)
        except (OSError, ProtocolError, ReplicationError) as exc:
            self._mark_dead()
            raise ReplicationError(f"bootstrap failed: {exc}") from exc
        for worker in self.shards.workers:
            self.acked[worker.index] = self.shipped[worker.index]
        del ack
        self.alive = True
        self.stats.bootstraps += 1

    def try_connect(self) -> bool:
        """Backoff-limited reconnect; swallows failures."""
        if self.alive:
            return True
        if (
            time.monotonic() - self._last_attempt
            < self.config.reconnect_backoff
        ):
            return False
        try:
            self.connect()
        except (OSError, ReplicationError):
            self.stats.failures += 1
            return False
        return True

    def _mark_dead(self) -> None:
        if self.alive or self._sock is not None:
            self.alive = False
            if self._sock is not None:
                try:
                    self._sock.close()
                except OSError:
                    pass
                self._sock = None
            self._pending.clear()
            # Stop buffering: a dead link must not grow memory without
            # bound; reconnect re-bootstraps from a fresh snapshot.
            for worker in self.shards.workers:
                if worker.manager is not None:
                    worker.manager.end_shipping()

    def close(self) -> None:
        self._mark_dead()

    # -- shipping -------------------------------------------------------

    def ship(self) -> bool:
        """Ship every shard's freshly committed records.

        Returns ``True`` only when the link is up *and* every shipped
        record has been acked by the backup — the ``replicated`` verdict
        a quorum ack forwards to the client.  Called after each durable
        commit (post-fsync, pre-client-ack) and from the heartbeat.
        """
        if not self.alive and not self.try_connect():
            return False
        quorum = self.config.ack_mode == "quorum"
        try:
            for worker in self.shards.workers:
                assert worker.manager is not None
                batch = worker.manager.collect_shipment()
                if not batch:
                    continue
                entry: Dict = {
                    "kind": protocol.REPLICATE_RECORDS,
                    "shard": worker.index,
                    "records": list(batch),
                }
                if self.config.ship_fingerprints:
                    entry["fingerprint"] = worker.system.state_fingerprint()
                last_seq = batch[-1][0]
                payload = protocol.encode_replicate(entry)
                if quorum:
                    ack = self._send_and_wait(payload)
                    if ack.shard != worker.index or ack.applied_seq < last_seq:
                        raise ReplicationError(
                            f"backup acked shard {ack.shard} seq "
                            f"{ack.applied_seq}, shipped shard "
                            f"{worker.index} through {last_seq}"
                        )
                    self.acked[worker.index] = ack.applied_seq
                else:
                    self._send_async(payload, worker.index, last_seq)
                self.shipped[worker.index] = last_seq
                self.stats.batches_shipped += 1
                self.stats.records_shipped += len(batch)
            if not quorum:
                self._drain_acks(block=len(self._pending) > self.config.max_unacked)
        except (OSError, ProtocolError, ReplicationError):
            self.stats.failures += 1
            self._mark_dead()
            return False
        return self.alive and self.acked == self.shipped

    def heartbeat(self) -> None:
        """Keep the link warm: ship stragglers, then one heartbeat frame.

        The backup times out on silence (its promotion watchdog), so an
        idle primary must keep frames flowing; the heartbeat also drains
        outstanding ``primary``-mode acks, advancing the watermark the
        health endpoint reports.
        """
        if not self.alive and not self.try_connect():
            return
        self.ship()
        if not self.alive:
            return
        try:
            payload = protocol.encode_replicate(
                {"kind": protocol.REPLICATE_HEARTBEAT}
            )
            if self.config.ack_mode == "quorum":
                self._send_and_wait(payload)
            else:
                self._send_async(payload, -1, 0)
                self._drain_acks(block=False)
            self.stats.heartbeats += 1
        except (OSError, ProtocolError, ReplicationError):
            self.stats.failures += 1
            self._mark_dead()

    # -- wire helpers ---------------------------------------------------

    def _send(self, payload: bytes) -> int:
        assert self._sock is not None
        request_id = self._next_request_id
        self._next_request_id = (request_id + 1) & 0xFFFFFFFF
        self._sock.sendall(
            protocol.encode_frame(protocol.MSG_REPLICATE, request_id, payload)
        )
        return request_id

    def _send_async(self, payload: bytes, shard: int, seq: int) -> None:
        request_id = self._send(payload)
        self._pending.append((request_id, shard, seq))

    def _send_and_wait(self, payload: bytes) -> ReplicateAck:
        request_id = self._send(payload)
        # Acks come back in request order; drain any leftovers from an
        # earlier primary-mode phase first.
        while True:
            frame = self._read_frame()
            if self._pending and frame.request_id == self._pending[0][0]:
                self._settle(frame)
                continue
            if frame.request_id != request_id:
                raise ReplicationError(
                    f"backup answered request {frame.request_id}, "
                    f"expected {request_id}"
                )
            return self._decode_ack(frame)

    def _drain_acks(self, block: bool) -> None:
        assert self._sock is not None
        while self._pending:
            if not block:
                readable, _, _ = select.select([self._sock], [], [], 0)
                if not readable:
                    return
            frame = self._read_frame()
            self._settle(frame)
            block = False  # one blocking ack is enough to free the window

    def _settle(self, frame) -> None:
        expected_id, shard, seq = self._pending.popleft()
        if frame.request_id != expected_id:
            raise ReplicationError(
                f"backup answered request {frame.request_id}, "
                f"expected {expected_id}"
            )
        ack = self._decode_ack(frame)
        if shard >= 0:
            if ack.shard != shard or ack.applied_seq < seq:
                raise ReplicationError(
                    f"backup acked shard {ack.shard} seq {ack.applied_seq}, "
                    f"shipped shard {shard} through {seq}"
                )
            self.acked[shard] = max(self.acked[shard], ack.applied_seq)

    def _read_frame(self):
        assert self._sock is not None
        frame = protocol.read_frame_blocking(self._sock)
        if frame is None:
            raise ReplicationError("backup closed the replication link")
        return frame

    @staticmethod
    def _decode_ack(frame) -> ReplicateAck:
        if frame.type == protocol.MSG_ERROR:
            raise ReplicationError(
                f"backup refused: {protocol.decode_text(frame.payload)}"
            )
        if frame.type != protocol.MSG_REPLICATE_OK:
            raise ReplicationError(
                f"unexpected replication response type {frame.type:#x}"
            )
        return protocol.decode_replicate_ack(frame.payload)

    # -- introspection --------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """Health-endpoint view of the link."""
        return {
            "alive": self.alive,
            "ack_mode": self.config.ack_mode,
            "shipped": list(self.shipped),
            "acked": list(self.acked),
            "bootstraps": self.stats.bootstraps,
            "batches_shipped": self.stats.batches_shipped,
            "records_shipped": self.stats.records_shipped,
            "failures": self.stats.failures,
        }


# -- backup side ---------------------------------------------------------


def _epoch_name(index: int) -> str:
    return f"{EPOCH_PREFIX}{index:04d}"


def epoch_dirs(directory: PathLike) -> List[Path]:
    """Existing bootstrap epochs under a backup directory, oldest first."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return sorted(
        path for path in root.iterdir()
        if path.is_dir() and path.name.startswith(EPOCH_PREFIX)
    )


def latest_epoch_dir(directory: PathLike) -> Optional[Path]:
    """The newest epoch (the one a post-crash restore should replay)."""
    epochs = epoch_dirs(directory)
    return epochs[-1] if epochs else None


@dataclass
class PromotionReport:
    """What one backup promotion did (the admin-failover response body)."""

    epoch: str
    shards: int
    watermarks: List[int]
    fingerprints_verified: bool
    reason: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "shards": self.shards,
            "watermarks": list(self.watermarks),
            "fingerprints_verified": self.fingerprints_verified,
            "reason": self.reason,
        }


@dataclass
class BackupReplica:
    """Backup side: bootstrap, follow the journal stream, promote.

    Each bootstrap starts a fresh *epoch* directory (``epoch-<n>``)
    holding one ``shard-<i>`` state directory per shard plus the usual
    ``serve.json`` topology metadata — so a backup killed at any point
    restarts through the ordinary :meth:`ShardSet.restore` over the
    newest epoch, replaying its local journal exactly like a primary
    would.
    """

    directory: Path
    checkpoint_every: int = 0
    sync_interval: int = 64
    role: str = ROLE_SYNCING
    shard_set: Optional[ShardSet] = None
    epoch_dir: Optional[Path] = None
    #: Highest primary journal seq applied, per shard.
    applied_seqs: List[int] = field(default_factory=list)
    #: Last state fingerprint shipped (and verified) per shard.
    fingerprints: List[Optional[str]] = field(default_factory=list)
    #: Monotonic time of the last frame from the primary.
    last_feed: float = field(default_factory=time.monotonic)
    records_applied: int = 0

    def __post_init__(self) -> None:
        self.directory = Path(self.directory)

    # -- protocol entry points ------------------------------------------

    def handle(self, data: Dict) -> ReplicateAck:
        """Dispatch one decoded MSG_REPLICATE payload."""
        self.last_feed = time.monotonic()
        kind = data["kind"]
        if kind == protocol.REPLICATE_BOOTSTRAP:
            return self._bootstrap(data)
        if kind == protocol.REPLICATE_RECORDS:
            return self._apply_records(data)
        return ReplicateAck(-1, max(self.applied_seqs, default=0))

    def _bootstrap(self, data: Dict) -> ReplicateAck:
        from repro.core.system import ClueSystem

        try:
            boundaries = [int(b) for b in data["boundaries"]]
            shard_entries = list(data["shards"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplicationError(f"malformed bootstrap: {exc!r}") from exc
        epochs = epoch_dirs(self.directory)
        index = 1
        if epochs:
            index = int(epochs[-1].name[len(EPOCH_PREFIX):]) + 1
        epoch = self.directory / _epoch_name(index)
        workers: List[ShardWorker] = []
        applied: List[int] = [0] * len(shard_entries)
        fingerprints: List[Optional[str]] = [None] * len(shard_entries)
        for entry in shard_entries:
            shard_index = int(entry["index"])
            try:
                system = ClueSystem.from_state(entry["state"])
            except ValueError as exc:
                raise ReplicationError(
                    f"shard {shard_index} bootstrap state rejected: {exc}"
                ) from exc
            shipped_fp = entry.get("fingerprint")
            if shipped_fp is not None:
                local_fp = system.state_fingerprint()
                if local_fp != shipped_fp:
                    raise ReplicationError(
                        f"shard {shard_index} bootstrap fingerprint "
                        f"mismatch: primary {shipped_fp}, rebuilt {local_fp}"
                    )
                fingerprints[shard_index] = shipped_fp
            manager = PersistenceManager(
                system,
                epoch / f"shard-{shard_index}",
                checkpoint_every=self.checkpoint_every,
                sync_interval=self.sync_interval,
            )
            workers.append(ShardWorker(shard_index, system, manager))
            applied[shard_index] = int(entry["seq"])
        workers.sort(key=lambda worker: worker.index)
        shard_set = ShardSet(ShardRouter(boundaries), workers)
        shard_set._write_meta(epoch)
        self.shard_set = shard_set
        self.epoch_dir = epoch
        self.applied_seqs = applied
        self.fingerprints = fingerprints
        self.role = ROLE_FOLLOWING
        return ReplicateAck(-1, max(applied, default=0))

    def _apply_records(self, data: Dict) -> ReplicateAck:
        if self.shard_set is None or self.role != ROLE_FOLLOWING:
            raise ReplicationError(
                f"record batch while {self.role} (bootstrap first)"
            )
        shard = int(data["shard"])
        if not 0 <= shard < len(self.shard_set.workers):
            raise ReplicationError(f"unknown shard {shard}")
        worker = self.shard_set.workers[shard]
        manager = worker.manager
        assert manager is not None
        for seq, kind, payload in data["records"]:
            seq = int(seq)
            if seq <= self.applied_seqs[shard]:
                continue  # duplicate delivery after a primary retry
            if seq != self.applied_seqs[shard] + 1:
                raise ReplicationError(
                    f"shard {shard}: journal gap "
                    f"({self.applied_seqs[shard]} -> {seq})"
                )
            try:
                apply_record(manager, kind, payload)
            except JournalError as exc:
                raise ReplicationError(f"shard {shard}: {exc}") from exc
            self.applied_seqs[shard] = seq
            self.records_applied += 1
        shipped_fp = data.get("fingerprint")
        if shipped_fp is not None:
            local_fp = worker.system.state_fingerprint()
            if local_fp != shipped_fp:
                raise ReplicationError(
                    f"shard {shard} diverged at seq "
                    f"{self.applied_seqs[shard]}: primary {shipped_fp}, "
                    f"replica {local_fp}"
                )
            self.fingerprints[shard] = shipped_fp
        # The shipped batch must be durable *here* before the ack: a
        # quorum ack claims the update survives the loss of either side.
        manager.sync()
        return ReplicateAck(shard, self.applied_seqs[shard])

    # -- promotion ------------------------------------------------------

    def promote(self, reason: str = "admin failover") -> PromotionReport:
        """Verify the watermark fingerprints and take over the range.

        Raises :class:`ReplicationError` (leaving the replica in its
        previous role) when a shard's state does not match the last
        fingerprint the primary shipped — serving a diverged table would
        silently violate LPM equivalence, which is worse than staying a
        refusing backup.
        """
        if self.shard_set is None:
            raise ReplicationError("cannot promote before a bootstrap")
        if self.role == ROLE_PRIMARY:
            raise ReplicationError("already promoted")
        self.role = ROLE_PROMOTING
        verified = False
        try:
            for worker in self.shard_set.workers:
                expected = self.fingerprints[worker.index]
                if expected is None:
                    continue
                actual = worker.system.state_fingerprint()
                if actual != expected:
                    raise ReplicationError(
                        f"shard {worker.index} fingerprint {actual} does "
                        f"not match the shipped watermark {expected}"
                    )
                verified = True
        except ReplicationError:
            self.role = ROLE_FOLLOWING
            raise
        self.role = ROLE_PRIMARY
        assert self.epoch_dir is not None
        return PromotionReport(
            epoch=self.epoch_dir.name,
            shards=len(self.shard_set.workers),
            watermarks=list(self.applied_seqs),
            fingerprints_verified=verified,
            reason=reason,
        )

    # -- introspection --------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        return {
            "role": self.role,
            "epoch": self.epoch_dir.name if self.epoch_dir else None,
            "applied_seqs": list(self.applied_seqs),
            "records_applied": self.records_applied,
        }
