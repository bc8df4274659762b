"""Multi-process serving plane: one OS process per address-range shard.

Python's GIL serialises CPU work inside one process, so in-process
sharding buys almost nothing end-to-end (``shard.lookup_ns.2shard`` vs
``.1shard`` in ``bench/README.md``).  This module lifts that ceiling
with the topology the paper's
parallel-chip argument implies: each shard worker becomes its *own*
process — its own asyncio loop, :class:`ClueSystem` and
:class:`PersistenceManager` — and a parent **front** keeps the client
contract unchanged by routing the data plane over per-worker control
channels.

Pieces, bottom up:

* :class:`WorkerSpec` — how to spawn one worker: the ``repro serve
  --shard-index i`` argument vector.  Workers re-derive the shard plan
  themselves (:func:`~repro.serve.router.plan_shards` is deterministic),
  so nothing but the table/journal path needs to travel.
* :class:`ServerProcess` — one spawned ``repro serve`` child (a shard
  worker here, a whole server in the chaos drills) with the stdout port
  handshake and the orphan-reap discipline: any failure after ``Popen``
  kills and reaps the child before the exception propagates.
* :class:`ProcessSupervisor` — spawns the fleet, polls for unexpected
  deaths, restarts crashed *durable* workers from their journal, and
  escalates TERM→KILL on shutdown so the parent never leaves orphans.
* :class:`_WorkerLink` — the parent's one multiplexed connection to a
  worker: request-id-correlated futures over the ordinary binary
  protocol (responses arrive in request order; the id map makes the
  link safe for concurrent callers anyway).
* :class:`ProcessFront` — the parent server clients talk to.  Lookups
  scatter by home shard and gather in request order; updates fan out to
  every covering shard and merge acks exactly like
  :meth:`ShardSet.update`; admin requests aggregate worker snapshots
  (stats rows keep their global shard index and range); MSG_DRAIN and
  SIGTERM fan the drain out to every worker — each flushes, writes its
  final checkpoint and exits 0 — before the parent itself exits.

A worker that dies mid-serve is reaped by the supervisor's poll loop
and its range answers ``BUSY ("worker")`` until the journal-restore
respawn brings it back; the parent never hangs on a dead child.

Durability invariant: an ack a client saw was journaled+fsynced by the
owning worker *before* the ack left it, so a crash or drain anywhere in
the tree loses nothing acked, and a single-process
:meth:`ShardSet.restore` of the shared journal directory reproduces the
multi-process fingerprint byte for byte
(:func:`~repro.serve.shard.combine_fingerprints`).
"""

from __future__ import annotations

import asyncio
import os
import re
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve import protocol
from repro.serve.protocol import Frame, ProtocolError, UpdateAck
from repro.serve.router import ShardRouter
from repro.serve.server import FrameServer, ServeConfig
from repro.serve.shard import ShardSet, combine_fingerprints
from repro.serve.stats import ServeStats

#: The stdout handshake every serve process prints once bound.
STARTUP_RE = re.compile(r"serving on \S*?:(\d+)")


class WorkerError(RuntimeError):
    """A worker process failed to start, died, or broke protocol."""


class _WorkerShed(Exception):
    """Internal: this request cannot be served right now; shed as BUSY."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@dataclass
class WorkerSpec:
    """Everything needed to spawn (or respawn) one shard worker."""

    shard_count: int
    table: Optional[str] = None
    journal: Optional[str] = None
    restore: bool = False
    chips: int = 4
    dred: int = 1_024
    queue: int = 256
    update_queue: int = 256
    backend: str = "fast"
    #: Worker-side inflight window.  The parent multiplexes every client
    #: connection onto one upstream link, so this is deliberately wider
    #: than the client-facing window; the link's semaphore never admits
    #: more than this, so workers never shed "window" at the parent.
    window: int = 64
    pump_budget: Optional[int] = None
    checkpoint_every: int = 0
    sync_every: int = 64
    drain_grace: float = 2.0
    faults: Optional[str] = None
    host: str = "127.0.0.1"

    @property
    def durable(self) -> bool:
        return self.journal is not None

    def cli_args(self, index: int, restore: Optional[bool] = None) -> List[str]:
        """The ``repro serve`` argument vector for shard ``index``."""
        restore = self.restore if restore is None else restore
        args = [
            "serve",
            "--shards", str(self.shard_count),
            "--shard-index", str(index),
            "--host", self.host,
            "--port", "0",
            "--chips", str(self.chips),
            "--dred", str(self.dred),
            "--queue", str(self.queue),
            "--update-queue", str(self.update_queue),
            "--backend", self.backend,
            "--window", str(self.window),
            "--drain-grace", str(self.drain_grace),
        ]
        if self.pump_budget is not None:
            args += ["--pump-budget", str(self.pump_budget)]
        if restore:
            if self.journal is None:
                raise WorkerError("cannot restore a worker without a journal")
            args += ["--restore", "--journal", self.journal]
        else:
            if self.table is None:
                raise WorkerError("worker spec needs a table (or restore)")
            args += ["--table", self.table]
            if self.journal is not None:
                args += ["--journal", self.journal]
        if self.journal is not None:
            args += [
                "--checkpoint-every", str(self.checkpoint_every),
                "--sync-every", str(self.sync_every),
            ]
        if self.faults is not None:
            args += ["--faults", self.faults]
        return args


class ServerProcess:
    """One spawned ``repro serve`` child: a shard worker, or a whole
    server in the chaos drills.

    The child binds port 0; a reader thread captures every output line
    (so the pipe never fills) and parses the bound port out of the
    ``serving on host:port`` handshake.  The constructor either returns
    a fully wired process or kills and reaps whatever it spawned before
    raising; a child can never outlive its owner's knowledge of it.
    """

    def __init__(self, label: str, cli_args: Sequence[str]) -> None:
        self.label = label
        env = os.environ.copy()
        root = str(Path(__file__).resolve().parents[2])
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            root if not existing else root + os.pathsep + existing
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *cli_args],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
        )
        # Everything past the Popen must not leak the child: a failure
        # here would leave a live server no teardown path knows about.
        try:
            self.lines: List[str] = []
            self.port: Optional[int] = None
            self._port_ready = threading.Event()
            self._reader = threading.Thread(target=self._pump, daemon=True)
            self._reader.start()
        except BaseException:
            self.proc.kill()
            self.proc.wait()
            raise

    def _pump(self) -> None:
        try:
            assert self.proc.stdout is not None
            for line in self.proc.stdout:
                self.lines.append(line.rstrip("\n"))
                match = STARTUP_RE.search(line)
                if match and self.port is None:
                    self.port = int(match.group(1))
                    self._port_ready.set()
        finally:
            # EOF or a reader failure: wake any waiter (port may be
            # None) so wait_port fails now instead of at its timeout.
            self._port_ready.set()

    def wait_port(self, timeout: float) -> int:
        if not self._port_ready.wait(timeout) or self.port is None:
            tail = self.tail()
            self.kill()
            raise WorkerError(
                f"{self.label} failed to start"
                + (f":\n{tail}" if tail else "")
            )
        return self.port

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def wait(self, timeout: Optional[float] = None) -> Optional[int]:
        """Exit code, or ``None`` if still running at ``timeout``."""
        try:
            return self.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            return None

    def terminate(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()

    def kill(self) -> None:
        """SIGKILL and reap — the process gets no chance to flush or ack."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()

    def tail(self, count: int = 20) -> str:
        return "\n".join(self.lines[-count:])


class ProcessSupervisor:
    """Spawns, watches, restarts and reaps the per-shard worker fleet."""

    def __init__(
        self,
        spec: WorkerSpec,
        boundaries: Sequence[int],
        epoch: int = 1,
        restart_limit: int = 1,
        startup_timeout: float = 60.0,
    ) -> None:
        if len(boundaries) != spec.shard_count:
            raise WorkerError(
                f"{len(boundaries)} boundaries for "
                f"{spec.shard_count} worker(s)"
            )
        self.spec = spec
        self.boundaries = list(boundaries)
        self.epoch = epoch
        #: Respawns allowed per shard; only durable workers restart (a
        #: journal-less respawn would silently forget acked updates).
        self.restart_limit = restart_limit if spec.durable else 0
        self.startup_timeout = startup_timeout
        self.workers: List[Optional[ServerProcess]] = (
            [None] * spec.shard_count
        )
        self.restarts = [0] * spec.shard_count
        #: Shards currently believed to be serving.
        self._serving: set = set()

    @property
    def shard_count(self) -> int:
        return self.spec.shard_count

    def start(self) -> None:
        """Spawn every worker; on any failure, no child survives."""
        try:
            for index in range(self.shard_count):
                self.workers[index] = self._spawn(index)
            for index in range(self.shard_count):
                worker = self.workers[index]
                assert worker is not None
                worker.wait_port(self.startup_timeout)
                self._serving.add(index)
        except BaseException:
            self.shutdown()
            raise

    def _spawn(
        self, index: int, restore: Optional[bool] = None
    ) -> ServerProcess:
        return ServerProcess(
            f"shard worker {index}", self.spec.cli_args(index, restore)
        )

    def endpoints(self) -> List[Tuple[str, int]]:
        rows = []
        for worker in self.workers:
            assert worker is not None and worker.port is not None
            rows.append((self.spec.host, worker.port))
        return rows

    def poll_dead(self) -> List[int]:
        """Shards whose process exited since the last poll (reaped)."""
        dead = []
        for index in sorted(self._serving):
            worker = self.workers[index]
            if worker is not None and not worker.alive:
                worker.wait()  # reap the zombie
                self._serving.discard(index)
                dead.append(index)
        return dead

    def can_restart(self, index: int) -> bool:
        return self.restarts[index] < self.restart_limit

    def restart(self, index: int) -> Tuple[str, int]:
        """Respawn a crashed durable worker from its journal (blocking)."""
        if not self.can_restart(index):
            raise WorkerError(f"worker {index} is out of restart budget")
        self.restarts[index] += 1
        worker = self._spawn(index, restore=True)
        port = worker.wait_port(self.startup_timeout)
        self.workers[index] = worker
        self._serving.add(index)
        return (self.spec.host, port)

    def reap(self, index: int, timeout: float = 15.0) -> Optional[int]:
        """Wait for one worker to exit, escalating TERM then KILL."""
        worker = self.workers[index]
        if worker is None:
            return None
        code = worker.wait(timeout)
        if code is None:
            worker.terminate()
            code = worker.wait(5.0)
        if code is None:
            worker.kill()
            code = worker.proc.returncode
        self._serving.discard(index)
        return code

    def shutdown(self) -> None:
        """Hard-stop every remaining child (error paths; drain uses reap)."""
        for worker in self.workers:
            if worker is not None:
                worker.kill()
        self._serving.clear()


class _WorkerLink:
    """The parent's multiplexed protocol connection to one worker."""

    def __init__(self, index: int, host: str, port: int, window: int) -> None:
        self.index = index
        self.host = host
        self.port = port
        self.dead = False
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[int, asyncio.Future] = {}
        self._next_id = 0
        self._gate = asyncio.Semaphore(max(1, window))

    async def connect(self) -> None:
        reader, writer = await asyncio.open_connection(self.host, self.port)
        self._writer = writer
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_loop(reader)
        )

    async def _read_loop(self, reader: asyncio.StreamReader) -> None:
        try:
            while True:
                frame = await protocol.read_frame_async(reader)
                if frame is None:
                    break
                future = self._pending.pop(frame.request_id, None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (ProtocolError, ConnectionError, OSError):
            pass
        finally:
            self._fail_pending()

    def _fail_pending(self) -> None:
        self.dead = True
        for future in self._pending.values():
            if not future.done():
                future.set_exception(
                    WorkerError(f"link to worker {self.index} died")
                )
        self._pending.clear()

    async def call(self, msg_type: int, payload: bytes = b"") -> Frame:
        """One request/response over the link; raises on BUSY or death."""
        async with self._gate:
            if self.dead or self._writer is None:
                raise WorkerError(f"link to worker {self.index} is down")
            self._next_id = (self._next_id + 1) & 0xFFFFFFFF or 1
            request_id = self._next_id
            future = asyncio.get_running_loop().create_future()
            self._pending[request_id] = future
            try:
                self._writer.write(
                    protocol.encode_frame(msg_type, request_id, payload)
                )
                await self._writer.drain()
            except (ConnectionError, OSError) as exc:
                self._pending.pop(request_id, None)
                self.dead = True
                raise WorkerError(
                    f"link to worker {self.index} died: {exc}"
                ) from exc
            frame = await future
        if frame.type == protocol.MSG_ERROR:
            raise WorkerError(
                f"worker {self.index}: {protocol.decode_text(frame.payload)}"
            )
        if frame.type == protocol.MSG_BUSY:
            raise _WorkerShed(protocol.decode_text(frame.payload))
        return frame

    def abandon(self) -> None:
        """Synchronous teardown when the worker died under us."""
        self._fail_pending()
        if self._reader_task is not None:
            self._reader_task.cancel()
        if self._writer is not None:
            self._writer.close()

    async def close(self) -> None:
        self.dead = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except (asyncio.CancelledError, Exception):
                pass
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        self._fail_pending()


class ProcessFront(FrameServer):
    """The parent server: client protocol in, worker fan-out behind.

    ``ServeClient``/``HAClient`` need no changes: the front answers the
    same frames a single-process :class:`ClueServer` would, with the
    same ordering guarantees.  Data-plane requests touching a crashed
    worker's range are answered ``BUSY ("worker")`` — never hung — and
    serve again once the journal-restore respawn completes.
    """

    def __init__(
        self,
        supervisor: ProcessSupervisor,
        config: Optional[ServeConfig] = None,
    ) -> None:
        super().__init__(config)
        if self.config.backup_dir or self.config.replicate_to:
            raise ValueError(
                "replication is not supported with --workers processes"
            )
        self.supervisor = supervisor
        self.router = ShardRouter(supervisor.boundaries, supervisor.epoch)
        self.links: List[Optional[_WorkerLink]] = (
            [None] * supervisor.shard_count
        )
        self._restarting: set = set()

    @property
    def role(self) -> str:
        return "primary"

    @property
    def durable(self) -> bool:
        return self.supervisor.spec.durable

    @property
    def epoch(self) -> int:
        return self.router.epoch

    # -- lifecycle ------------------------------------------------------

    async def _before_bind(self) -> None:
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, self.supervisor.start)
        try:
            for index, (host, port) in enumerate(self.supervisor.endpoints()):
                link = _WorkerLink(
                    index, host, port, self.supervisor.spec.window
                )
                await link.connect()
                self.links[index] = link
        except BaseException:
            self.supervisor.shutdown()
            raise
        self._write_meta()

    def _after_bind(self) -> None:
        self._spawn(self._monitor_loop())

    def _write_meta(self) -> None:
        """Record the process topology in ``serve.json`` (durable only).

        The required keys are exactly what :meth:`ShardSet.restore`
        reads, so a plain single-process restore of the directory works;
        the ``workers`` key is advisory endpoint discovery.
        """
        journal = self.supervisor.spec.journal
        if journal is None:
            return
        ShardSet.write_meta(
            journal,
            shards=self.supervisor.shard_count,
            boundaries=self.router.boundaries,
            epoch=self.epoch,
            extra={
                "workers": {
                    "mode": "processes",
                    "endpoints": [
                        [host, port]
                        for host, port in self.supervisor.endpoints()
                    ],
                }
            },
        )

    async def _drain_resources(self) -> None:
        """Fan the drain out: every worker flushes, checkpoints, exits."""
        loop = asyncio.get_running_loop()
        for index in range(self.supervisor.shard_count):
            link = self.links[index]
            self.links[index] = None
            if link is not None and not link.dead:
                try:
                    await asyncio.wait_for(
                        link.call(protocol.MSG_DRAIN), timeout=10.0
                    )
                except (WorkerError, _WorkerShed, asyncio.TimeoutError):
                    pass
            if link is not None:
                # Close promptly so the worker's own connection drain
                # sees EOF instead of waiting out its grace period.
                await link.close()
            await loop.run_in_executor(None, self.supervisor.reap, index)
        self.supervisor.shutdown()

    # -- crash watch ----------------------------------------------------

    async def _monitor_loop(self) -> None:
        while True:
            await asyncio.sleep(0.2)
            for index in self.supervisor.poll_dead():
                self._on_worker_death(index)

    def _on_worker_death(self, index: int) -> None:
        self.stats.worker_crashes += 1
        link = self.links[index]
        self.links[index] = None
        if link is not None:
            link.abandon()
        worker = self.supervisor.workers[index]
        code = worker.proc.returncode if worker is not None else None
        print(
            f"shard worker {index} died unexpectedly (exit {code}); "
            + (
                "restarting from its journal"
                if self.supervisor.can_restart(index)
                else "its range will answer BUSY"
            ),
            flush=True,
        )
        if self.supervisor.can_restart(index) and index not in self._restarting:
            self._restarting.add(index)
            self._spawn(self._restart_worker(index))

    async def _restart_worker(self, index: int) -> None:
        loop = asyncio.get_running_loop()
        try:
            host, port = await loop.run_in_executor(
                None, self.supervisor.restart, index
            )
            link = _WorkerLink(index, host, port, self.supervisor.spec.window)
            await link.connect()
        except (WorkerError, ConnectionError, OSError) as exc:
            print(f"shard worker {index} restart failed: {exc}", flush=True)
            return
        finally:
            self._restarting.discard(index)
        self.links[index] = link
        self.stats.worker_restarts += 1
        self._write_meta()
        print(f"shard worker {index} restarted on port {port}", flush=True)

    # -- dispatch -------------------------------------------------------

    def _dispatch(self, frame: Frame, state: Optional[Dict] = None):
        self.stats.requests_total += 1
        if frame.type == protocol.MSG_LOOKUP:
            return self._do_lookup(frame)
        if frame.type == protocol.MSG_UPDATE:
            return self._do_update(frame)
        self.stats.admin_requests += 1
        if frame.type == protocol.MSG_STATS:
            return self._do_stats(frame)
        if frame.type == protocol.MSG_HEALTH:
            return self._admin_ok(frame, self._health_snapshot())
        if frame.type == protocol.MSG_CHECKPOINT:
            return self._fan_admin(frame, protocol.MSG_CHECKPOINT)
        if frame.type == protocol.MSG_FINGERPRINT:
            return self._do_fingerprint(frame)
        if frame.type == protocol.MSG_FLUSH:
            return self._fan_admin(frame, protocol.MSG_FLUSH)
        if frame.type == protocol.MSG_DRAIN:
            self._request_shutdown()
            return self._admin_ok(frame, {"draining": True})
        if frame.type in (
            protocol.MSG_RESHARD,
            protocol.MSG_FAILOVER,
            protocol.MSG_REPLICATE,
        ):
            return self._error(
                frame,
                "not supported with --workers processes "
                "(run --workers threads for reshard/replication)",
            )
        return self._error(frame, f"unknown request type {frame.type:#x}")

    async def _call(self, index: int, msg_type: int, payload: bytes) -> Frame:
        link = self.links[index]
        if link is None or link.dead:
            raise _WorkerShed("worker")
        try:
            return await link.call(msg_type, payload)
        except WorkerError:
            raise _WorkerShed("worker") from None

    def _shed_busy(self, frame: Frame, reason: str) -> bytes:
        self.stats.busy_responses += 1
        return protocol.encode_frame(
            protocol.MSG_BUSY, frame.request_id, protocol.encode_text(reason)
        )

    # -- data plane -----------------------------------------------------

    async def _do_lookup(self, frame: Frame) -> bytes:
        self.stats.lookup_requests += 1
        try:
            addresses = protocol.decode_addresses(frame.payload)
        except ProtocolError as exc:
            self.stats.protocol_errors += 1
            return self._error(frame, str(exc))
        self.stats.lookups_total += len(addresses)
        try:
            if not addresses:
                return protocol.encode_frame(
                    protocol.MSG_LOOKUP_OK, frame.request_id, b""
                )
            shard_of = self.router.shard_of
            first = shard_of(addresses[0])
            if all(shard_of(address) == first for address in addresses):
                # Range-local batch (the common case under address-range
                # load): forward the encoded payload untouched.
                reply = await self._call(
                    first, protocol.MSG_LOOKUP, frame.payload
                )
                return protocol.encode_frame(
                    protocol.MSG_LOOKUP_OK, frame.request_id, reply.payload
                )
            buckets: Dict[int, List[int]] = {}
            positions: Dict[int, List[int]] = {}
            for position, address in enumerate(addresses):
                shard = shard_of(address)
                buckets.setdefault(shard, []).append(address)
                positions.setdefault(shard, []).append(position)
            targets = sorted(buckets)
            replies = await asyncio.gather(
                *(
                    self._call(
                        shard,
                        protocol.MSG_LOOKUP,
                        protocol.encode_addresses(buckets[shard]),
                    )
                    for shard in targets
                )
            )
            hops: List[Optional[int]] = [None] * len(addresses)
            for shard, reply in zip(targets, replies):
                for position, hop in zip(
                    positions[shard], protocol.decode_hops(reply.payload)
                ):
                    hops[position] = hop
            return protocol.encode_frame(
                protocol.MSG_LOOKUP_OK,
                frame.request_id,
                protocol.encode_hops(hops),
            )
        except _WorkerShed as exc:
            return self._shed_busy(frame, exc.reason)

    async def _do_update(self, frame: Frame) -> bytes:
        self.stats.update_requests += 1
        try:
            messages = protocol.decode_updates(frame.payload)
        except ProtocolError as exc:
            self.stats.protocol_errors += 1
            return self._error(frame, str(exc))
        self.stats.updates_total += len(messages)
        batches: List[List] = [[] for _ in range(self.supervisor.shard_count)]
        for message in messages:
            for shard in self.router.shards_covering(message.prefix):
                batches[shard].append(message)
        targets = [
            shard for shard, batch in enumerate(batches) if batch
        ]
        try:
            replies = await asyncio.gather(
                *(
                    self._call(
                        shard,
                        protocol.MSG_UPDATE,
                        protocol.encode_updates(batches[shard]),
                    )
                    for shard in targets
                )
            )
        except _WorkerShed as exc:
            return self._shed_busy(frame, exc.reason)
        accepted = shed = applied = 0
        durable = True
        for reply in replies:
            ack = protocol.decode_update_ack(reply.payload)
            accepted += ack.accepted
            shed += ack.shed
            applied += ack.applied
            durable = durable and ack.durable
        self.stats.updates_accepted += accepted
        self.stats.updates_shed += shed
        return protocol.encode_frame(
            protocol.MSG_UPDATE_OK,
            frame.request_id,
            protocol.encode_update_ack(
                UpdateAck(accepted, shed, applied, durable)
            ),
        )

    # -- admin fan-out --------------------------------------------------

    async def _fan_admin(self, frame: Frame, msg_type: int) -> bytes:
        """Fan one admin request to every worker, merge scalar results."""
        flushed = 0
        checkpoints: List[Optional[str]] = []
        for index in range(self.supervisor.shard_count):
            try:
                reply = await self._call(index, msg_type, b"")
            except _WorkerShed as exc:
                return self._error(
                    frame, f"shard {index} unavailable ({exc.reason})"
                )
            data = protocol.decode_json(reply.payload)
            assert isinstance(data, dict)
            flushed += int(data.get("flushed", 0))
            checkpoints.extend(data.get("checkpoints") or [])
        if msg_type == protocol.MSG_FLUSH:
            return self._admin_ok(frame, {"flushed": flushed})
        return self._admin_ok(frame, {"checkpoints": checkpoints})

    async def _do_fingerprint(self, frame: Frame) -> bytes:
        fingerprints: List[str] = []
        for index in range(self.supervisor.shard_count):
            try:
                reply = await self._call(index, protocol.MSG_FINGERPRINT, b"")
            except _WorkerShed as exc:
                return self._error(
                    frame, f"shard {index} unavailable ({exc.reason})"
                )
            data = protocol.decode_json(reply.payload)
            assert isinstance(data, dict)
            fingerprints.extend(data["shards"])
        return self._admin_ok(
            frame,
            {
                "fingerprint": combine_fingerprints(fingerprints),
                "shards": fingerprints,
            },
        )

    async def _do_stats(self, frame: Frame) -> bytes:
        """Aggregate worker snapshots; shard rows keep global identity."""
        rows: List[Dict[str, object]] = []
        serve_snapshots: List[Dict[str, object]] = []
        for index in range(self.supervisor.shard_count):
            try:
                reply = await self._call(index, protocol.MSG_STATS, b"")
            except _WorkerShed:
                continue  # a dead worker still shows up in "workers"
            data = protocol.decode_json(reply.payload)
            assert isinstance(data, dict)
            serve_snapshots.append(data.get("serve") or {})
            rows.extend(data.get("shards") or [])
        rows.sort(key=lambda row: int(row.get("shard", 0)))
        return self._admin_ok(
            frame,
            {
                "serve": self.stats.as_dict(),
                "workers_serve": ServeStats.merged(serve_snapshots).as_dict(),
                "shards": rows,
                "draining": self.draining,
                "workers": self._worker_rows(),
            },
        )

    def _worker_rows(self) -> List[Dict[str, object]]:
        rows = []
        for index in range(self.supervisor.shard_count):
            worker = self.supervisor.workers[index]
            link = self.links[index]
            start, end = ShardSet._worker_span(self.router.boundaries, index)
            rows.append(
                {
                    "shard": index,
                    "host": self.supervisor.spec.host,
                    "port": worker.port if worker is not None else None,
                    "alive": bool(
                        worker is not None
                        and worker.alive
                        and link is not None
                        and not link.dead
                    ),
                    "restarts": self.supervisor.restarts[index],
                    "range": [start, end],
                }
            )
        return rows

    def _health_snapshot(self) -> Dict[str, object]:
        return {
            "status": "draining" if self.draining else "ok",
            "role": self.role,
            "mode": "processes",
            "shards": self.supervisor.shard_count,
            "durable": self.durable,
            "epoch": self.epoch,
            "port": self.port,
            "replicas": [[self.config.host, self.port, "primary"]],
            "boundaries": list(self.router.boundaries),
            "workers": self._worker_rows(),
        }
