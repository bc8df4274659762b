"""Client failure handling: timeouts, bounded reconnect, redirects.

The serving client must never hang on a dead or silent server, and the
HA wrapper must distinguish pacing (BUSY "window", the caller's
problem) from placement (BUSY "draining"/"backup", retry elsewhere).
"""

import socket
import threading
import time

import pytest

from repro.serve import (
    HAClient,
    ReplicaMap,
    ServeClient,
    ServeConfig,
    ServerThread,
    ShardSet,
)
from repro.serve.client import (
    REDIRECT_REASONS,
    FailoverError,
    ReshardRedirect,
    ServeTimeoutError,
    ServerBusyError,
)
from repro.serve.protocol import Redirect


def free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class TestConnectRetry:
    def test_connection_refused_raises_after_bounded_attempts(self):
        port = free_port()  # released: nobody listens here
        started = time.monotonic()
        with pytest.raises(OSError):
            ServeClient(
                "127.0.0.1",
                port,
                connect_attempts=3,
                connect_backoff=0.02,
            )
        # Three attempts with 0.02 + 0.04 backoff — bounded, not a hang.
        assert time.monotonic() - started < 5.0

    def test_connect_attempts_must_be_positive(self):
        with pytest.raises(ValueError):
            ServeClient("127.0.0.1", 1, connect_attempts=0)

    def test_reconnect_with_backoff_reaches_late_server(self):
        """A server that starts listening mid-backoff gets the dial."""
        port = free_port()
        accepted = threading.Event()

        def listen_late():
            time.sleep(0.15)
            with socket.socket() as server:
                server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
                server.bind(("127.0.0.1", port))
                server.listen(1)
                conn, _ = server.accept()
                accepted.set()
                conn.close()

        thread = threading.Thread(target=listen_late, daemon=True)
        thread.start()
        client = ServeClient(
            "127.0.0.1",
            port,
            connect_attempts=20,
            connect_backoff=0.05,
        )
        client.close()
        thread.join(timeout=5)
        assert accepted.is_set()


class TestReadTimeout:
    def test_silent_server_surfaces_as_timeout_error(self):
        """A server that accepts but never answers must not hang the
        client: the read deadline turns it into ServeTimeoutError."""
        with socket.socket() as server:
            server.bind(("127.0.0.1", 0))
            server.listen(1)
            port = server.getsockname()[1]
            client = ServeClient("127.0.0.1", port, timeout=0.2)
            try:
                with pytest.raises(ServeTimeoutError):
                    client.lookup([0x01010101])
            finally:
                client.close()


class TestRedirectClassification:
    def test_window_is_not_a_redirect_reason(self):
        assert "window" not in REDIRECT_REASONS
        assert REDIRECT_REASONS == {"draining", "backup", "resharding"}

    def test_ha_client_reraises_window_busy(
        self, serve_rib, fast_config
    ):
        """Pacing pushback propagates to the caller instead of burning
        the failover budget on a healthy primary."""
        shards = ShardSet.build(serve_rib, config=fast_config)
        with ServerThread(shards, ServeConfig()) as thread:
            ha = HAClient(f"127.0.0.1:{thread.server.port}")
            try:
                ha.connect()

                def always_window(_client):
                    raise ServerBusyError("window")

                with pytest.raises(ServerBusyError):
                    ha._with_failover(always_window)
                assert ha.failovers == 0
            finally:
                ha.close()
            thread.stop()

    def test_redirect_reasons_exhaust_into_failover_error(
        self, serve_rib, fast_config
    ):
        """draining/backup BUSYs re-resolve the primary; when nobody
        else serves, the bounded budget ends in FailoverError."""
        shards = ShardSet.build(serve_rib, config=fast_config)
        with ServerThread(shards, ServeConfig()) as thread:
            ha = HAClient(
                f"127.0.0.1:{thread.server.port}",
                failover_attempts=3,
                failover_backoff=0.01,
            )
            try:
                ha.connect()

                def always_draining(_client):
                    raise ServerBusyError("draining")

                with pytest.raises(FailoverError):
                    ha._with_failover(always_draining)
                assert ha.failovers >= 1
            finally:
                ha.close()
            thread.stop()


    def test_reshard_redirect_refreshes_the_replica_map(
        self, serve_rib, fast_config
    ):
        """MSG_REDIRECT carries the mid-cutover replica rows; the HA
        wrapper folds them into its map before retrying."""
        shards = ShardSet.build(serve_rib, config=fast_config)
        with ServerThread(shards, ServeConfig()) as thread:
            port = thread.server.port
            ha = HAClient(
                f"127.0.0.1:{port}",
                failover_attempts=3,
                failover_backoff=0.01,
            )
            try:
                ha.connect()
                redirect = Redirect(
                    reason="resharding",
                    epoch=2,
                    replicas=[["127.0.0.1", port, "primary"]],
                )
                calls = []

                def redirect_once(client):
                    calls.append(1)
                    if len(calls) == 1:
                        raise ReshardRedirect(redirect)
                    return client.lookup([0x01010101])

                ha._with_failover(redirect_once)
                assert len(calls) == 2
                assert ha.failovers == 1
                assert ha.replicas.primary() is not None
            finally:
                ha.close()
            thread.stop()


class TestConnectJitter:
    def test_connect_backoff_is_jittered(self, monkeypatch):
        """Fleet restarts must not dial back in lockstep: each backoff
        sleep is scaled by a random factor in [0.5, 1.5)."""
        import repro.serve.client as client_module

        sleeps = []
        monkeypatch.setattr(
            client_module.time, "sleep", lambda s: sleeps.append(s)
        )
        monkeypatch.setattr(client_module.random, "random", lambda: 0.25)
        port = free_port()  # nobody listens: every attempt fails
        with pytest.raises(OSError):
            ServeClient(
                "127.0.0.1",
                port,
                connect_attempts=3,
                connect_backoff=0.08,
            )
        # Two sleeps between three attempts, each scaled by 0.5 + 0.25.
        assert sleeps == [
            pytest.approx(0.08 * 0.75),
            pytest.approx(0.16 * 0.75),
        ]


class TestReplicaMapResolution:
    def test_no_primary_anywhere_is_failover_error(self):
        replicas = ReplicaMap.parse(f"127.0.0.1:{free_port()}")
        ha = HAClient(replicas, failover_attempts=1, failover_backoff=0.01)
        with pytest.raises(FailoverError):
            ha.connect()
        assert replicas.endpoints[0].role == "dead"

    def test_resolves_past_a_backup(
        self, tmp_path, serve_rib, fast_config
    ):
        """The first endpoint listed is an unpromoted backup: the HA
        client probes past it, serves from the real primary without a
        failover, and the map records who is who."""
        backup = ServerThread(
            None,
            ServeConfig(backup_dir=str(tmp_path / "backup"), auto_promote=False),
        )
        backup_port = backup.start()
        primary = ServerThread(
            ShardSet.build(serve_rib, config=fast_config), ServeConfig()
        )
        primary_port = primary.start()
        replicas = ReplicaMap.parse(
            f"127.0.0.1:{backup_port},127.0.0.1:{primary_port}"
        )
        try:
            with HAClient(replicas) as ha:
                hops = ha.lookup([prefix.network for prefix, _ in serve_rib[:96]])
                assert ha.failovers == 0
                served = ha.stats()["serve"]["lookups_total"]
            with ServeClient("127.0.0.1", backup_port) as admin:
                shed = admin.stats()["serve"]["busy_responses"]
        finally:
            primary.stop()
            backup.stop()
        assert len(hops) == 96 and None not in hops
        # The primary served the batch; the backup was probed, never asked.
        assert (served, shed) == (96, 0)
        roles = {e.port: e.role for e in replicas.endpoints}
        assert roles == {backup_port: "syncing", primary_port: "primary"}
