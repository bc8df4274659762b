"""Pure-python blocking client for the serving plane.

The simple methods (:meth:`lookup`, :meth:`update`, the admin calls) are
strict request/response.  For pipelining — several requests in flight on
one connection — use the raw primitives :meth:`send` / :meth:`recv`:
the server answers strictly in request order, so responses match up
positionally (that is what ``bench/drive.py`` does).

``MSG_BUSY`` surfaces as :class:`ServerBusyError`: the server refused
the request — inflight window exceeded, a drain in progress, or the
endpoint is a backup that owns no address range — and retrying later
(or elsewhere) is the client's job, mirroring how shed BGP updates rely
on re-advertisement.

Two failure-handling layers:

* :class:`ServeClient` never blocks forever: connects and reads both
  time out, and connect retries with bounded exponential backoff.
* :class:`HAClient` wraps a :class:`~repro.serve.router.ReplicaMap` and
  retries redirectable failures (``BUSY "draining"``/``"backup"``,
  timeouts, connection loss) against whichever replica currently claims
  the primary role.  Updates are safe to resend: the trie treats a
  duplicate announce as a no-op modify and a duplicate withdraw as a
  no-op, so at-least-once delivery never corrupts state.
"""

from __future__ import annotations

import random
import socket
import time
from typing import Callable, Dict, List, Optional, Sequence, TypeVar, Union

from repro.serve import protocol
from repro.serve.protocol import Frame, ProtocolError, Redirect, UpdateAck
from repro.serve.router import ReplicaEndpoint, ReplicaMap
from repro.workload.updategen import UpdateMessage

T = TypeVar("T")


class ServeClientError(Exception):
    """The server answered MSG_ERROR."""


class ServeTimeoutError(ServeClientError):
    """The server did not answer within the read timeout."""


class ServerBusyError(Exception):
    """The server refused the request (backpressure, drain, or backup)."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


class ReshardRedirect(ServerBusyError):
    """The server answered ``MSG_REDIRECT``: the topology is changing.

    Carries the epoch the server is moving to and its replica rows so an
    :class:`HAClient` can refresh its map before retrying — for the
    in-place reshard the rows point back at the same endpoint, and the
    retry lands once the cutover pause closes.
    """

    def __init__(self, redirect: Redirect) -> None:
        super().__init__(redirect.reason)
        self.redirect = redirect


class FailoverError(ServeClientError):
    """No replica accepted the request within the failover budget."""


class ServeClient:
    """One TCP connection to a :class:`~repro.serve.server.ClueServer`.

    ``timeout`` bounds every read (a dead server surfaces as
    :class:`ServeTimeoutError` instead of a hung client); ``connect``
    retries ``connect_attempts`` times with exponential backoff starting
    at ``connect_backoff`` seconds, so a briefly-restarting server does
    not fail the first request after failover.
    """

    def __init__(
        self,
        host: str,
        port: int,
        timeout: Optional[float] = 30.0,
        connect_timeout: float = 5.0,
        connect_attempts: int = 3,
        connect_backoff: float = 0.05,
    ) -> None:
        if connect_attempts < 1:
            raise ValueError("need at least one connect attempt")
        self.host = host
        self.port = port
        self.timeout = timeout
        self.connect_timeout = connect_timeout
        self.connect_attempts = connect_attempts
        self.connect_backoff = connect_backoff
        self._sock: Optional[socket.socket] = None
        self._next_request_id = 0
        self._connect()

    def _connect(self) -> None:
        backoff = self.connect_backoff
        last_error: Optional[OSError] = None
        for attempt in range(self.connect_attempts):
            if attempt:
                # Jittered exponential backoff: a fleet of clients cut
                # off by the same restart must not redial in lockstep.
                time.sleep(backoff * (0.5 + random.random()))
                backoff *= 2
            try:
                sock = socket.create_connection(
                    (self.host, self.port), timeout=self.connect_timeout
                )
            except OSError as exc:
                last_error = exc
                continue
            sock.settimeout(self.timeout)
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._next_request_id = 0
            return
        assert last_error is not None
        raise last_error

    def reconnect(self) -> None:
        """Drop the connection (in-flight requests with it) and redial."""
        self.close()
        self._connect()

    # -- raw pipelining primitives --------------------------------------

    def send(self, msg_type: int, payload: bytes = b"") -> int:
        """Fire one request without waiting; returns its request id."""
        assert self._sock is not None
        request_id = self._next_request_id
        self._next_request_id = (request_id + 1) & 0xFFFFFFFF
        self._sock.sendall(protocol.encode_frame(msg_type, request_id, payload))
        return request_id

    def recv(self) -> Frame:
        """The next response frame, in request order."""
        assert self._sock is not None
        try:
            frame = protocol.read_frame_blocking(self._sock)
        except socket.timeout as exc:
            raise ServeTimeoutError(
                f"no response from {self.host}:{self.port} within "
                f"{self.timeout}s"
            ) from exc
        if frame is None:
            raise ProtocolError("server closed the connection")
        return frame

    # -- request/response -----------------------------------------------

    def _call(self, msg_type: int, payload: bytes = b"") -> Frame:
        request_id = self.send(msg_type, payload)
        frame = self.recv()
        if frame.request_id != request_id:
            raise ProtocolError(
                f"response for request {frame.request_id}, "
                f"expected {request_id}"
            )
        if frame.type == protocol.MSG_BUSY:
            raise ServerBusyError(protocol.decode_text(frame.payload))
        if frame.type == protocol.MSG_REDIRECT:
            raise ReshardRedirect(protocol.decode_redirect(frame.payload))
        if frame.type == protocol.MSG_ERROR:
            raise ServeClientError(protocol.decode_text(frame.payload))
        return frame

    def _admin(self, msg_type: int, payload: bytes = b"") -> Dict:
        frame = self._call(msg_type, payload)
        if frame.type != protocol.MSG_ADMIN_OK:
            raise ProtocolError(f"unexpected response type {frame.type:#x}")
        data = protocol.decode_json(frame.payload)
        if not isinstance(data, dict):
            raise ProtocolError("admin response is not a JSON object")
        return data

    def lookup(self, addresses: Sequence[int]) -> List[Optional[int]]:
        """Batched LPM; ``None`` per address means no matching route."""
        frame = self._call(
            protocol.MSG_LOOKUP, protocol.encode_addresses(addresses)
        )
        if frame.type != protocol.MSG_LOOKUP_OK:
            raise ProtocolError(f"unexpected response type {frame.type:#x}")
        hops = protocol.decode_hops(frame.payload)
        if len(hops) != len(addresses):
            raise ProtocolError(
                f"{len(hops)} hops for {len(addresses)} addresses"
            )
        return hops

    def update(self, messages: Sequence[UpdateMessage]) -> UpdateAck:
        """Send one update batch; the ack reports acceptance/durability."""
        frame = self._call(
            protocol.MSG_UPDATE, protocol.encode_updates(messages)
        )
        if frame.type != protocol.MSG_UPDATE_OK:
            raise ProtocolError(f"unexpected response type {frame.type:#x}")
        return protocol.decode_update_ack(frame.payload)

    # -- admin ----------------------------------------------------------

    def stats(self) -> Dict:
        return self._admin(protocol.MSG_STATS)

    def health(self) -> Dict:
        return self._admin(protocol.MSG_HEALTH)

    def checkpoint(self) -> Dict:
        return self._admin(protocol.MSG_CHECKPOINT)

    def fingerprint(self) -> str:
        return str(self._admin(protocol.MSG_FINGERPRINT)["fingerprint"])

    def topology(self) -> Dict:
        """Shard topology as advertised by the server's health snapshot.

        Returns ``{"shards", "epoch", "boundaries", "workers"}``; the
        last two are only present on a multi-process front, where
        ``workers`` carries each shard's directly dialable endpoint
        (host, port, alive, range) so a sharding-aware caller can drive
        worker processes on their own ports.  Routing through this
        client stays unchanged either way.
        """
        health = self.health()
        return {
            key: health[key]
            for key in ("shards", "epoch", "boundaries", "workers")
            if key in health
        }

    def failover(self) -> Dict:
        """Tell a backup to promote itself right now (admin command)."""
        return self._admin(protocol.MSG_FAILOVER)

    def flush(self) -> Dict:
        """Quiesce every shard (apply all queued updates), keep serving."""
        return self._admin(protocol.MSG_FLUSH)

    def reshard(self, request: Dict) -> Dict:
        """Start or inspect a live shard split/merge.

        ``request`` mirrors the server's MSG_RESHARD contract:
        ``{"action": "split"|"merge"|"auto"|"status", "shard": i, ...}``
        with optional ``at``, ``stage_delay``, ``cutover_pause``.  A
        start request returns immediately; poll ``action: "status"``
        until the journaled stage reaches ``done`` or ``rolled-back``.
        """
        return self._admin(
            protocol.MSG_RESHARD, protocol.encode_json(dict(request))
        )

    def drain(self) -> Dict:
        """Ask the server to drain gracefully (same path as SIGTERM)."""
        return self._admin(protocol.MSG_DRAIN)

    # -- lifecycle ------------------------------------------------------

    def half_close(self) -> None:
        """Signal EOF to the server while still reading responses.

        The drain handshake: a client that half-closes lets the server
        finish every admitted request and then release the connection.
        """
        assert self._sock is not None
        self._sock.shutdown(socket.SHUT_WR)

    def close(self) -> None:
        if self._sock is None:
            return
        try:
            self._sock.close()
        except OSError:
            pass
        self._sock = None

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


#: BUSY reasons that mean "this endpoint will not serve you" — retry
#: against another replica.  ``window`` is deliberately absent: the
#: primary is healthy, the client is just pushing too hard.
#: ``resharding`` arrives as MSG_REDIRECT rather than MSG_BUSY and is
#: retriable for a different reason: the *same* endpoint serves again
#: (under a new topology epoch) as soon as the cutover completes.
REDIRECT_REASONS = frozenset({"draining", "backup", "resharding"})


class HAClient:
    """Replica-aware client with transparent retry-on-redirect.

    Probes the :class:`ReplicaMap` for whichever endpoint currently
    reports ``role == "primary"`` and replays redirected or failed
    requests there — a promotion in progress shows up as a short burst
    of retries, not an error.  Zero acked updates are lost across a
    failover: only the *retry* of an unacked batch lands on the new
    primary, and replays are idempotent at the route level.
    """

    def __init__(
        self,
        replicas: Union[ReplicaMap, str, Sequence],
        timeout: Optional[float] = 10.0,
        failover_attempts: int = 20,
        failover_backoff: float = 0.25,
    ) -> None:
        if isinstance(replicas, str):
            replicas = ReplicaMap.parse(replicas)
        elif not isinstance(replicas, ReplicaMap):
            replicas = ReplicaMap(
                [ReplicaEndpoint(host, int(port)) for host, port in replicas]
            )
        self.replicas = replicas
        self.timeout = timeout
        self.failover_attempts = failover_attempts
        self.failover_backoff = failover_backoff
        self.failovers = 0
        self._client: Optional[ServeClient] = None

    # -- primary resolution ---------------------------------------------

    def _probe(self, endpoint) -> Optional[ServeClient]:
        """Health-check one endpoint; keep the connection if primary."""
        try:
            client = ServeClient(
                endpoint.host,
                endpoint.port,
                timeout=self.timeout,
                connect_timeout=min(2.0, self.timeout or 2.0),
                connect_attempts=1,
            )
        except OSError:
            self.replicas.note_role(endpoint.host, endpoint.port, "dead")
            return None
        try:
            health = client.health()
        except (ServeClientError, ProtocolError, ConnectionError, OSError):
            client.close()
            self.replicas.note_role(endpoint.host, endpoint.port, "dead")
            return None
        role = str(health.get("role", "primary"))
        status = str(health.get("status", "ok"))
        self.replicas.note_role(endpoint.host, endpoint.port, role)
        # Learn endpoints the server knows about (its own backup).
        for row in health.get("replicas", []) or []:
            try:
                host, port, peer_role = row
                self.replicas.note_role(str(host), int(port), str(peer_role))
            except (TypeError, ValueError):
                continue
        if role == "primary" and status == "ok":
            return client
        client.close()
        return None

    def connect(self) -> ServeClient:
        """The connection to the current primary, (re)establishing it."""
        if self._client is not None:
            return self._client
        for endpoint in self.replicas.candidates():
            client = self._probe(endpoint)
            if client is not None:
                self._client = client
                return client
        raise FailoverError(
            "no primary among "
            + ", ".join(e.address for e in self.replicas.endpoints)
        )

    def drop(self) -> None:
        """Forget the current connection; the next call re-resolves."""
        if self._client is not None:
            self._client.close()
            self._client = None

    def _with_failover(self, operation: Callable[[ServeClient], T]) -> T:
        backoff = self.failover_backoff
        last_error: Optional[Exception] = None
        for attempt in range(self.failover_attempts):
            if attempt:
                # Jitter for the same reason as ServeClient._connect:
                # retries from many clients must spread out, not beat.
                time.sleep(backoff * (0.5 + random.random()))
                backoff = min(backoff * 1.5, 2.0)
            try:
                return operation(self.connect())
            except ReshardRedirect as exc:
                # The endpoint is mid-cutover: refresh the map from the
                # redirect payload and retry (usually the same address,
                # one topology epoch later).
                for host, port, role in exc.redirect.replicas:
                    self.replicas.note_role(host, port, role)
                last_error = exc
                self.drop()
                self.failovers += 1
            except ServerBusyError as exc:
                if exc.reason not in REDIRECT_REASONS:
                    raise  # "window" is pacing, not placement
                last_error = exc
                self.drop()
                self.failovers += 1
            except FailoverError as exc:
                last_error = exc  # nobody is primary yet; wait and re-probe
            except (
                ServeTimeoutError,
                ProtocolError,
                ConnectionError,
                OSError,
            ) as exc:
                last_error = exc
                self.drop()
                self.failovers += 1
        raise FailoverError(
            f"gave up after {self.failover_attempts} attempts: {last_error}"
        )

    # -- data plane ------------------------------------------------------

    def lookup(self, addresses: Sequence[int]) -> List[Optional[int]]:
        return self._with_failover(lambda c: c.lookup(addresses))

    def update(self, messages: Sequence[UpdateMessage]) -> UpdateAck:
        messages = list(messages)
        return self._with_failover(lambda c: c.update(messages))

    # -- admin ----------------------------------------------------------

    def health(self) -> Dict:
        return self._with_failover(lambda c: c.health())

    def stats(self) -> Dict:
        return self._with_failover(lambda c: c.stats())

    def fingerprint(self) -> str:
        return self._with_failover(lambda c: c.fingerprint())

    def checkpoint(self) -> Dict:
        return self._with_failover(lambda c: c.checkpoint())

    def flush(self) -> Dict:
        return self._with_failover(lambda c: c.flush())

    def reshard(self, request: Dict) -> Dict:
        return self._with_failover(lambda c: c.reshard(dict(request)))

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        self.drop()

    def __enter__(self) -> "HAClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
