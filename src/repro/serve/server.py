"""The asyncio serving plane: lookups and durable updates over TCP.

One event loop owns every shard (python's GIL would serialise the CPU
work anyway; a single loop keeps the update path deterministic, which
the crash-consistency contract needs).  Each connection gets a bounded
inflight window: requests beyond it are answered ``MSG_BUSY`` instead of
queueing without limit — the same shed-don't-stall philosophy as the
PR 1 update-storm backpressure, applied one layer up.  Responses always
leave in request order, BUSY included, so a pipelining client can match
them positionally.

Replication (DESIGN.md §12): a primary started with ``replicate_to``
ships every committed journal batch to a backup through a
:class:`~repro.serve.replicate.JournalShipper`; a server started with
``backup_dir`` refuses the data plane (``BUSY "backup"``) and feeds a
:class:`~repro.serve.replicate.BackupReplica` from incoming
``MSG_REPLICATE`` frames instead.  The backup promotes itself — and
starts serving as an ordinary primary — when the replication feed hits
EOF (the primary died), when the heartbeat goes silent past
``heartbeat_timeout``, or when an admin sends ``MSG_FAILOVER``.

Graceful drain (SIGTERM or an admin DRAIN request):

1. stop accepting connections;
2. answer BUSY to newly arriving data-plane requests, finish everything
   already admitted to a window, and read each connection to EOF (a
   grace period bounds how long a silent client can hold the process);
3. flush every shard — queued updates, a final checkpoint, journal
   close — and ship the trailing records to the
   backup, so a planned drain hands over a fully caught-up replica;
4. exit 0.

Nothing admitted is dropped: every request is acked or explicitly
refused, which the serve-smoke CI job asserts.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import signal
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Dict, Optional, Set

from repro.serve import protocol
from repro.serve.protocol import Frame, ProtocolError
from repro.serve.replicate import (
    ROLE_FOLLOWING,
    ROLE_PRIMARY,
    BackupReplica,
    JournalShipper,
    ReplicationConfig,
    ReplicationError,
)
from repro.serve.reshard import ReshardCoordinator, ReshardError, choose_reshard
from repro.serve.shard import ShardSet
from repro.serve.stats import ServeStats


@dataclass
class ServeConfig:
    """Network-layer knobs (the CLUE knobs live in :class:`SystemConfig`)."""

    host: str = "127.0.0.1"
    port: int = 0
    #: Unanswered data-plane requests one connection may have queued;
    #: the next one is answered BUSY ("window").
    inflight_window: int = 8
    #: Seconds drain waits for clients to close before force-closing.
    drain_grace: float = 5.0
    #: Scheduler pump budget per update batch (None = the batch size);
    #: small budgets let the queue back up until offers are shed.
    pump_budget: Optional[int] = None
    #: File to write the bound port to (ephemeral-port discovery).
    port_file: Optional[str] = None
    #: ``host:port`` of a backup to ship committed journal records to.
    replicate_to: Optional[str] = None
    #: ``primary`` or ``quorum`` — when a client ack claims replication.
    ack_mode: str = "primary"
    #: Ship state fingerprints for continuous divergence checks; turn
    #: off when un-journaled chip faults are armed on the primary.
    ship_fingerprints: bool = True
    #: Start as a backup replica journaling epochs under this directory
    #: (mutually exclusive with serving a shard set from the start).
    backup_dir: Optional[str] = None
    #: Backup: promote automatically on feed EOF / heartbeat timeout.
    auto_promote: bool = True
    #: Primary: seconds between replication heartbeats.
    heartbeat_interval: float = 1.0
    #: Backup: seconds of feed silence before the watchdog promotes.
    heartbeat_timeout: float = 5.0
    #: Backup-side persistence cadence (mirrors ShardSet.build knobs).
    backup_checkpoint_every: int = 0
    backup_sync_interval: int = 64


class FrameServer:
    """The connection/backpressure machinery every serving role shares.

    Subclasses implement :meth:`_dispatch` — which may return encoded
    response ``bytes`` directly *or* a coroutine resolving to them (the
    multi-process front awaits worker RPCs mid-dispatch; responses still
    leave each connection strictly in request order because the respond
    loop awaits inline) — plus optional hooks:

    * :meth:`_before_bind` / :meth:`_after_bind` — resources around the
      listening socket (replication links, worker processes);
    * :meth:`_busy_reason` — why a data-plane frame is shed right now;
    * :meth:`_shed_response` — encode the shed verdict (BUSY/REDIRECT);
    * :meth:`_connection_lost` — per-connection teardown bookkeeping;
    * :meth:`_drain_resources` — flush owned state during shutdown.
    """

    def __init__(self, config: Optional[ServeConfig] = None):
        self.config = config or ServeConfig()
        self.stats = ServeStats()
        self.draining = False
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[asyncio.Task] = set()
        self._stopped: Optional[asyncio.Event] = None
        self._shutdown_task: Optional[asyncio.Task] = None
        self._background: Set[asyncio.Task] = set()

    # -- lifecycle ------------------------------------------------------

    async def start(self, install_signal_handlers: bool = True) -> None:
        self._stopped = asyncio.Event()
        await self._before_bind()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file:
            with open(self.config.port_file, "w", encoding="ascii") as handle:
                handle.write(f"{self.port}\n")
        self._after_bind()
        if install_signal_handlers:
            loop = asyncio.get_running_loop()
            for signum in (signal.SIGTERM, signal.SIGINT):
                try:
                    loop.add_signal_handler(signum, self._request_shutdown)
                except NotImplementedError:  # pragma: no cover - non-POSIX
                    pass

    async def _before_bind(self) -> None:
        """Bring up resources that must exist before accepting clients."""

    def _after_bind(self) -> None:
        """Spawn background tasks once the port is bound."""

    def _spawn(self, coro) -> None:
        task = asyncio.get_running_loop().create_task(coro)
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    def _request_shutdown(self) -> None:
        if self._shutdown_task is None:
            self._shutdown_task = asyncio.get_running_loop().create_task(
                self.shutdown()
            )

    async def shutdown(self) -> None:
        """Graceful drain; idempotent."""
        if self.draining:
            return
        self.draining = True
        assert self._server is not None and self._stopped is not None
        self._server.close()
        await self._server.wait_closed()
        for task in list(self._background):
            task.cancel()
        if self._background:
            await asyncio.gather(*self._background, return_exceptions=True)
        if self._connections:
            _done, pending = await asyncio.wait(
                set(self._connections), timeout=self.config.drain_grace
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        await self._drain_resources()
        self._stopped.set()

    async def _drain_resources(self) -> None:
        """Flush whatever the role owns (shards, workers, shippers)."""

    async def run(self, install_signal_handlers: bool = True) -> int:
        """Start, serve until drained, return the process exit code."""
        await self.start(install_signal_handlers=install_signal_handlers)
        assert self._stopped is not None
        await self._stopped.wait()
        return 0

    async def wait_stopped(self) -> None:
        assert self._stopped is not None
        await self._stopped.wait()

    # -- connection handling --------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self.stats.connections_total += 1
        self.stats.connections_active += 1
        window = self.config.inflight_window
        # The queue carries (frame, busy_reason) in arrival order; the
        # writer coroutine answers strictly in that order.  Its bound is
        # above the window so BUSY verdicts never stall the reader, yet
        # a client that stops reading responses still hits TCP
        # backpressure here instead of growing an unbounded buffer.
        queue: asyncio.Queue = asyncio.Queue(maxsize=window * 4 + 8)
        state = {"inflight": 0, "dead": False, "feed": False}
        responder = asyncio.create_task(self._respond_loop(writer, queue, state))
        try:
            while not state["dead"]:
                try:
                    frame = await protocol.read_frame_async(reader)
                except (ProtocolError, ConnectionError, OSError):
                    self.stats.protocol_errors += 1
                    break
                if frame is None:
                    break
                busy_reason = None
                if frame.type in (protocol.MSG_LOOKUP, protocol.MSG_UPDATE):
                    busy_reason = self._busy_reason(frame, state)
                    if busy_reason is None:
                        if state["inflight"] >= window:
                            busy_reason = "window"
                        else:
                            state["inflight"] += 1
                await queue.put((frame, busy_reason))
        except asyncio.CancelledError:
            pass
        finally:
            await queue.put(None)
            try:
                await responder
            except asyncio.CancelledError:
                pass
            self.stats.connections_active -= 1
            self._connections.discard(task)
            self._connection_lost(state)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _busy_reason(self, frame: Frame, state: Dict) -> Optional[str]:
        """Why a data-plane frame is shed before dispatch, or ``None``."""
        return "draining" if self.draining else None

    def _connection_lost(self, state: Dict) -> None:
        """Bookkeeping when a connection's reader loop finishes."""

    async def _respond_loop(self, writer, queue, state: Dict) -> None:
        while True:
            item = await queue.get()
            if item is None:
                return
            frame, busy_reason = item
            if state["dead"]:
                continue  # keep consuming so the reader never blocks
            if busy_reason is not None:
                response = self._shed_response(frame, busy_reason)
            else:
                response = self._dispatch(frame, state)
                if asyncio.iscoroutine(response):
                    response = await response
                if frame.type in (protocol.MSG_LOOKUP, protocol.MSG_UPDATE):
                    state["inflight"] -= 1
            writer.write(response)
            try:
                await writer.drain()
            except (ConnectionError, OSError):
                state["dead"] = True

    def _shed_response(self, frame: Frame, busy_reason: str) -> bytes:
        self.stats.busy_responses += 1
        return protocol.encode_frame(
            protocol.MSG_BUSY,
            frame.request_id,
            protocol.encode_text(busy_reason),
        )

    def _dispatch(self, frame: Frame, state: Optional[Dict] = None):
        """Answer one admitted frame; bytes or a coroutine of bytes."""
        raise NotImplementedError

    @staticmethod
    def _admin_ok(frame: Frame, data: Dict[str, object]) -> bytes:
        return protocol.encode_frame(
            protocol.MSG_ADMIN_OK, frame.request_id, protocol.encode_json(data)
        )

    @staticmethod
    def _error(frame: Frame, message: str) -> bytes:
        return protocol.encode_frame(
            protocol.MSG_ERROR, frame.request_id, protocol.encode_text(message)
        )


class ClueServer(FrameServer):
    """Serves one :class:`ShardSet` until told to drain.

    ``shards`` may be ``None`` only for a backup (``backup_dir`` set):
    the shard set then arrives over the wire with the bootstrap frame
    and becomes servable at promotion.
    """

    def __init__(
        self,
        shards: Optional[ShardSet],
        config: Optional[ServeConfig] = None,
    ):
        super().__init__(config)
        self.shards = shards
        self.replica: Optional[BackupReplica] = None
        self.shipper: Optional[JournalShipper] = None
        #: Live migration controller (one at a time), and the snapshot of
        #: the last finished/aborted one for the status RPC.
        self.coordinator: Optional[ReshardCoordinator] = None
        self.last_reshard: Optional[Dict[str, object]] = None
        #: True only inside the optional pre-cutover pause: data-plane
        #: requests are answered MSG_REDIRECT instead of served.
        self.redirecting = False
        if self.config.backup_dir is not None:
            if shards is not None:
                raise ValueError("a backup bootstraps over the wire; "
                                 "do not pass shards")
            if self.config.replicate_to is not None:
                raise ValueError("chained replication is not supported")
            self.replica = BackupReplica(
                Path(self.config.backup_dir),
                checkpoint_every=self.config.backup_checkpoint_every,
                sync_interval=self.config.backup_sync_interval,
            )
        elif shards is None:
            raise ValueError("a server needs shards unless it is a backup")
        self._live_feeds: Set[int] = set()

    @property
    def role(self) -> str:
        """``primary`` | ``syncing`` | ``following`` | ``promoting``."""
        if self.replica is not None and self.replica.role != ROLE_PRIMARY:
            return self.replica.role
        return ROLE_PRIMARY

    # -- lifecycle hooks ------------------------------------------------

    async def _before_bind(self) -> None:
        if self.config.replicate_to is not None:
            assert self.shards is not None
            host, _, port = self.config.replicate_to.rpartition(":")
            self.shipper = JournalShipper(
                host or "127.0.0.1",
                int(port),
                self.shards,
                ReplicationConfig(
                    ack_mode=self.config.ack_mode,
                    ship_fingerprints=self.config.ship_fingerprints,
                ),
            )
            # The first connect must succeed: starting a "replicated"
            # service with no backup listening is an operator error.
            self.shipper.connect()

    def _after_bind(self) -> None:
        if self.shipper is not None:
            self._spawn(self._heartbeat_loop())
        if self.replica is not None and self.config.auto_promote:
            self._spawn(self._watchdog_loop())

    async def _drain_resources(self) -> None:
        if self.shards is not None:
            self.shards.drain()
        if self.shipper is not None:
            # The drain wrote trailing records (queue flush, final
            # checkpoint); hand the backup a fully caught-up journal.
            self.shipper.ship()
            self.shipper.close()

    # -- replication background tasks -----------------------------------

    async def _heartbeat_loop(self) -> None:
        """Primary: keep the replication link warm and acks drained."""
        while not self.draining:
            await asyncio.sleep(self.config.heartbeat_interval)
            if self.shipper is not None and not self.draining:
                self.shipper.heartbeat()

    async def _watchdog_loop(self) -> None:
        """Backup: promote when the feed goes silent too long."""
        timeout = self.config.heartbeat_timeout
        while not self.draining:
            await asyncio.sleep(max(0.05, min(1.0, timeout / 4)))
            replica = self.replica
            if replica is None or replica.role != ROLE_FOLLOWING:
                continue
            if time.monotonic() - replica.last_feed > timeout:
                self._try_promote("heartbeat timeout")

    def _try_promote(self, reason: str) -> Optional[Dict[str, object]]:
        """Promote if still eligible; never raises (watchdog/EOF path)."""
        replica = self.replica
        if (
            replica is None
            or replica.role != ROLE_FOLLOWING
            or self.draining
        ):
            return None
        try:
            return self._promote(reason)
        except ReplicationError as exc:
            print(f"promotion refused ({reason}): {exc}", flush=True)
            return None

    def _promote(self, reason: str) -> Dict[str, object]:
        assert self.replica is not None
        try:
            report = self.replica.promote(reason)
        except ReplicationError:
            self.stats.replication_errors += 1
            raise
        self.shards = self.replica.shard_set
        self.stats.promotions += 1
        print(
            f"promoted to primary ({reason}): epoch {report.epoch}, "
            f"watermarks {report.watermarks}",
            flush=True,
        )
        return report.as_dict()

    # -- connection hooks -----------------------------------------------

    def _busy_reason(self, frame: Frame, state: Dict) -> Optional[str]:
        if self.draining:
            return "draining"
        if self.role != ROLE_PRIMARY:
            # A backup owns no address range yet; shed with a reason the
            # client can turn into failover.
            return "backup"
        if self.redirecting:
            # Mid-cutover pause: shed with an epoch-carrying redirect so
            # the client refreshes and retries.
            return "resharding"
        return None

    def _shed_response(self, frame: Frame, busy_reason: str) -> bytes:
        if busy_reason == "resharding":
            self.stats.redirect_responses += 1
            return protocol.encode_frame(
                protocol.MSG_REDIRECT,
                frame.request_id,
                protocol.encode_redirect(self._redirect()),
            )
        return super()._shed_response(frame, busy_reason)

    def _connection_lost(self, state: Dict) -> None:
        if state["feed"]:
            self._live_feeds.discard(id(state))
            if not self._live_feeds and self.config.auto_promote:
                # The primary's replication connection died (SIGKILL
                # closes the socket); take over its address range.
                self._try_promote("replication feed lost")

    # -- request dispatch (synchronous on purpose) ----------------------

    def _dispatch(self, frame: Frame, state: Optional[Dict] = None) -> bytes:
        self.stats.requests_total += 1
        try:
            if frame.type == protocol.MSG_LOOKUP:
                return self._do_lookup(frame)
            if frame.type == protocol.MSG_UPDATE:
                return self._do_update(frame)
            if frame.type == protocol.MSG_REPLICATE:
                return self._do_replicate(frame, state)
            self.stats.admin_requests += 1
            if frame.type == protocol.MSG_STATS:
                return self._admin_ok(frame, self._stats_snapshot())
            if frame.type == protocol.MSG_HEALTH:
                return self._admin_ok(frame, self._health_snapshot())
            if frame.type == protocol.MSG_CHECKPOINT:
                return self._do_checkpoint(frame)
            if frame.type == protocol.MSG_FINGERPRINT:
                return self._do_fingerprint(frame)
            if frame.type == protocol.MSG_FAILOVER:
                return self._do_failover(frame)
            if frame.type == protocol.MSG_FLUSH:
                return self._do_flush(frame)
            if frame.type == protocol.MSG_RESHARD:
                return self._do_reshard(frame)
            if frame.type == protocol.MSG_DRAIN:
                self._request_shutdown()
                return self._admin_ok(frame, {"draining": True})
            return self._error(frame, f"unknown request type {frame.type:#x}")
        except ProtocolError as exc:
            self.stats.protocol_errors += 1
            return self._error(frame, str(exc))

    def _do_lookup(self, frame: Frame) -> bytes:
        assert self.shards is not None  # data plane is shed for backups
        addresses = protocol.decode_addresses(frame.payload)
        self.stats.lookup_requests += 1
        self.stats.lookups_total += len(addresses)
        hops = self.shards.lookup(addresses)
        return protocol.encode_frame(
            protocol.MSG_LOOKUP_OK, frame.request_id, protocol.encode_hops(hops)
        )

    def _do_update(self, frame: Frame) -> bytes:
        assert self.shards is not None
        messages = protocol.decode_updates(frame.payload)
        self.stats.update_requests += 1
        self.stats.updates_total += len(messages)
        ack = self.shards.update(messages, self.config.pump_budget)
        if self.shipper is not None:
            # Post-fsync, pre-client-ack: the watermark ordering the
            # protocol promises.  ship() returns the quorum verdict.
            replicated = self.shipper.ship()
            if self.config.ack_mode == "quorum" and replicated and ack.durable:
                ack = replace(ack, replicated=True)
        self.stats.updates_accepted += ack.accepted
        self.stats.updates_shed += ack.shed
        return protocol.encode_frame(
            protocol.MSG_UPDATE_OK,
            frame.request_id,
            protocol.encode_update_ack(ack),
        )

    def _do_replicate(self, frame: Frame, state: Optional[Dict]) -> bytes:
        self.stats.replicate_requests += 1
        if self.replica is None:
            return self._error(frame, "not a backup (start with --backup)")
        if self.draining:
            return self._error(frame, "draining")
        try:
            data = protocol.decode_replicate(frame.payload)
            if (
                data["kind"] == protocol.REPLICATE_BOOTSTRAP
                and self.replica.role == ROLE_PRIMARY
            ):
                raise ReplicationError(
                    "already promoted to primary; refusing demotion"
                )
            ack = self.replica.handle(data)
            if data["kind"] == protocol.REPLICATE_BOOTSTRAP and state is not None:
                state["feed"] = True
                self._live_feeds.add(id(state))
        except (ProtocolError, ReplicationError) as exc:
            self.stats.replication_errors += 1
            return self._error(frame, str(exc))
        return protocol.encode_frame(
            protocol.MSG_REPLICATE_OK,
            frame.request_id,
            protocol.encode_replicate_ack(ack),
        )

    def _do_failover(self, frame: Frame) -> bytes:
        if self.replica is None:
            return self._error(frame, "not a backup")
        if self.replica.role == ROLE_PRIMARY:
            return self._admin_ok(frame, {"promoted": False, "role": "primary"})
        try:
            report = self._promote("admin failover")
        except ReplicationError as exc:
            return self._error(frame, f"promotion refused: {exc}")
        return self._admin_ok(frame, {"promoted": True, **report})

    def _do_flush(self, frame: Frame) -> bytes:
        """Quiesce every shard without draining the server.

        The campaign oracles call this before differential checks: after
        the ack the engine state is a pure function of the acked update
        stream, yet the server keeps serving — unlike MSG_DRAIN, which
        is terminal.
        """
        if self.shards is None:
            return self._error(frame, "no shards yet (backup is syncing)")
        applied = self.shards.flush()
        if self.shipper is not None:
            self.shipper.ship()
        return self._admin_ok(frame, {"flushed": applied})

    # -- live resharding (DESIGN.md §14) --------------------------------

    def _do_reshard(self, frame: Frame) -> bytes:
        """Start (or inspect) an online shard split/merge.

        The RPC only *launches* the migration: the staged state machine
        runs as a background task interleaved with traffic, and the
        client polls ``action: "status"`` until the stage reaches
        ``done`` or ``rolled-back``.
        """
        request = protocol.decode_json(frame.payload)
        if not isinstance(request, dict):
            return self._error(frame, "reshard payload is not a JSON object")
        action = str(request.get("action", "status"))
        if action == "status":
            return self._admin_ok(frame, self._reshard_snapshot())
        if action not in ("split", "merge", "auto"):
            return self._error(frame, f"unknown reshard action {action!r}")
        if self.draining:
            return self._error(frame, "draining")
        if self.role != ROLE_PRIMARY or self.shards is None:
            return self._error(frame, "only a serving primary can reshard")
        if not self.shards.durable:
            return self._error(
                frame, "resharding needs journals (serve with --journal)"
            )
        if self.shipper is not None:
            # Both replication and reshard COPY own the managers' single
            # shipping buffer; running them together would corrupt the
            # backup's feed.  Detach the backup first.
            return self._error(
                frame, "cannot reshard while replicating to a backup"
            )
        if self.coordinator is not None:
            return self._error(frame, "a reshard is already in progress")
        shard = int(request.get("shard", -1))
        if action == "auto":
            decision = choose_reshard(self.shards)
            if decision is None:
                return self._admin_ok(
                    frame, {"started": False, "reason": "load is balanced"}
                )
            action, shard = decision
        at = request.get("at")
        try:
            coordinator = ReshardCoordinator(
                self.shards,
                action,
                shard,
                at=None if at is None else int(at),
                reason=str(request.get("reason", "admin request")),
            )
        except ReshardError as exc:
            self.stats.reshard_errors += 1
            return self._error(frame, str(exc))
        self.coordinator = coordinator
        self._spawn(
            self._run_reshard(
                coordinator,
                stage_delay=float(request.get("stage_delay", 0.0)),
                cutover_pause=float(request.get("cutover_pause", 0.0)),
                min_catchup_rounds=int(request.get("min_catchup_rounds", 1)),
                catchup_settle=int(request.get("catchup_settle", 256)),
            )
        )
        return self._admin_ok(
            frame,
            {
                "started": True,
                "action": action,
                "shard": shard,
                "epoch_from": coordinator.state.epoch_from,
                "epoch_to": coordinator.state.epoch_to,
                "new_boundaries": list(coordinator.state.new_boundaries),
            },
        )

    async def _run_reshard(
        self,
        coordinator: ReshardCoordinator,
        stage_delay: float,
        cutover_pause: float,
        min_catchup_rounds: int,
        catchup_settle: int,
    ) -> None:
        """Drive the migration stages, yielding to traffic between them.

        ``stage_delay`` widens each stage so chaos drills can observe it
        in ``reshard.json`` and kill the process inside a chosen window;
        production runs use 0 and converge as fast as catch-up drains.
        Every synchronous stretch (copy, a catch-up round, the cutover
        block) runs without interleaving — the event loop guarantees it —
        so the migration never sees a half-applied batch.
        """
        old_set = coordinator.shards
        try:
            coordinator.prepare()
            if stage_delay:
                await asyncio.sleep(stage_delay)
            coordinator.copy()
            if stage_delay:
                await asyncio.sleep(stage_delay)
            coordinator.begin_catchup()
            rounds = 0
            while True:
                applied = coordinator.catchup_round()
                rounds += 1
                # Live traffic never quiesces, so waiting for an empty
                # round would spin forever: cut over once the per-round
                # backlog is small enough to absorb synchronously —
                # cutover() drains the final delta without interleaving.
                if rounds >= min_catchup_rounds and applied <= catchup_settle:
                    break
                await asyncio.sleep(max(0.005, stage_delay / 4))
            if cutover_pause:
                # Shed the data plane with redirects while the drill's
                # kill window is open; cutover() still sweeps anything
                # journaled before the pause began.
                self.redirecting = True
                await asyncio.sleep(cutover_pause)
            new_set = coordinator.cutover()
            self.shards = new_set
            self.redirecting = False
            if stage_delay:
                # Stage file says "cutover", new epoch is serving, old
                # managers still open: the roll-forward kill window.
                await asyncio.sleep(stage_delay)
            coordinator.retire()
            self.stats.reshards += 1
            self.last_reshard = coordinator.snapshot()
            print(
                f"resharded ({coordinator.action}): epoch "
                f"{old_set.epoch} -> {new_set.epoch}, boundaries "
                f"{new_set.router.boundaries}",
                flush=True,
            )
        except asyncio.CancelledError:
            # Server drain cancelled us pre-cutover; roll back cleanly.
            self.redirecting = False
            if self.shards is old_set:
                coordinator.abort("cancelled by drain")
                self.stats.reshard_errors += 1
                self.last_reshard = coordinator.snapshot()
            raise
        except Exception as exc:  # noqa: BLE001 - must never kill the loop
            self.stats.reshard_errors += 1
            self.redirecting = False
            try:
                coordinator.abort(str(exc))
            except Exception:  # noqa: BLE001 - best-effort rollback
                pass
            self.last_reshard = coordinator.snapshot()
            print(f"reshard failed: {exc}", flush=True)
        finally:
            self.coordinator = None

    def _reshard_snapshot(self) -> Dict[str, object]:
        snapshot: Dict[str, object] = {
            "epoch": self.shards.epoch if self.shards is not None else 0,
            "in_progress": self.coordinator is not None,
            "redirecting": self.redirecting,
        }
        if self.coordinator is not None:
            snapshot["reshard"] = self.coordinator.snapshot()
        elif self.last_reshard is not None:
            snapshot["reshard"] = self.last_reshard
        return snapshot

    def _redirect(self) -> protocol.Redirect:
        epoch = self.shards.epoch if self.shards is not None else 0
        if self.coordinator is not None:
            epoch = self.coordinator.state.epoch_to
        return protocol.Redirect(
            reason="resharding",
            epoch=epoch,
            replicas=tuple(
                (str(host), int(port), str(role))
                for host, port, role in self._replica_map()
            ),
        )

    def _do_checkpoint(self, frame: Frame) -> bytes:
        if self.shards is None or not self.shards.durable:
            return self._error(frame, "server runs without a journal")
        return self._admin_ok(frame, {"checkpoints": self.shards.checkpoint()})

    def _do_fingerprint(self, frame: Frame) -> bytes:
        if self.shards is None:
            return self._error(frame, "no shards yet (backup is syncing)")
        return self._admin_ok(
            frame,
            {
                "fingerprint": self.shards.fingerprint(),
                "shards": self.shards.shard_fingerprints(),
            },
        )

    def _stats_snapshot(self) -> Dict[str, object]:
        return {
            "serve": self.stats.as_dict(),
            "shards": self.shards.stats() if self.shards is not None else [],
            "draining": self.draining,
        }

    def _health_snapshot(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "status": "draining" if self.draining else "ok",
            "role": self.role,
            "shards": len(self.shards.workers) if self.shards is not None else 0,
            "durable": self.shards.durable if self.shards is not None else False,
            "epoch": self.shards.epoch if self.shards is not None else 0,
            "port": self.port,
            "replicas": self._replica_map(),
        }
        if self.coordinator is not None or self.last_reshard is not None:
            data["reshard"] = self._reshard_snapshot()
        if self.shipper is not None:
            data["replication"] = self.shipper.snapshot()
        elif self.replica is not None:
            data["replication"] = self.replica.snapshot()
        return data

    def _replica_map(self) -> list:
        """``[host, port, role]`` rows a client can fail over across."""
        entries = [[self.config.host, self.port, self.role]]
        if self.shipper is not None:
            entries.append(
                [self.shipper.host, self.shipper.port,
                 "backup" if self.shipper.alive else "dead"]
            )
        return entries


class ServerThread:
    """A :class:`FrameServer` on a background thread (tests and benches).

    The asyncio loop lives entirely on the thread; :meth:`start` blocks
    until the port is bound, :meth:`stop` runs the same graceful drain
    SIGTERM would and joins the thread.  By default it builds a
    :class:`ClueServer` over ``shards``; pass ``server=`` to host any
    prebuilt :class:`FrameServer` (the multi-process front, a backup).
    """

    def __init__(
        self,
        shards: Optional[ShardSet] = None,
        config: Optional[ServeConfig] = None,
        *,
        server: Optional[FrameServer] = None,
    ):
        self.server = server if server is not None else ClueServer(shards, config)
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._ready = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.exit_code: Optional[int] = None

    def _run(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        try:
            await self.server.start(install_signal_handlers=False)
        except BaseException as exc:  # surface to start() instead of dying
            self._startup_error = exc
            self._ready.set()
            return
        self._ready.set()
        await self.server.wait_stopped()
        self.exit_code = 0

    def start(self) -> int:
        """Start serving; returns the bound port."""
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("server thread failed to start")
        if self._startup_error is not None:
            raise self._startup_error
        assert self.server.port is not None
        return self.server.port

    def stop(self, timeout: float = 30.0) -> int:
        """Graceful drain, then join; returns the exit code (0)."""
        assert self._loop is not None
        coro = self.server.shutdown()
        try:
            future = asyncio.run_coroutine_threadsafe(coro, self._loop)
            future.result(timeout=timeout)
        except (RuntimeError, concurrent.futures.CancelledError):
            # The loop already finished: an admin drain (or SIGTERM)
            # stopped the server before we asked.  Just join below.
            coro.close()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("server thread failed to stop")
        assert self.exit_code is not None
        return self.exit_code

    def __enter__(self) -> "ServerThread":
        self.start()
        return self

    def __exit__(self, *_exc) -> None:
        if self._thread.is_alive():
            self.stop()
