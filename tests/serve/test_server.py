"""End-to-end serving plane: ServerThread + ServeClient over loopback."""

import pytest

from repro.net.prefix import Prefix
from repro.serve import (
    ServeClient,
    ServeClientError,
    ServeConfig,
    ServerThread,
    ShardSet,
    protocol,
)
from repro.trie.trie import BinaryTrie
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateKind, UpdateMessage


@pytest.fixture(scope="module")
def served(serve_rib):
    """One long-lived 2-shard server the read-only tests share."""
    from repro.core.config import SystemConfig
    from repro.engine.simulator import EngineConfig

    shards = ShardSet.build(
        serve_rib,
        shard_count=2,
        config=SystemConfig(engine=EngineConfig(lookup_backend="fast")),
    )
    with ServerThread(shards, ServeConfig(inflight_window=8)) as thread:
        yield thread


@pytest.fixture()
def client(served):
    with ServeClient("127.0.0.1", served.server.port) as conn:
        yield conn


class TestEndToEnd:
    def test_lookup_matches_reference_trie(self, served, client, serve_rib):
        reference = BinaryTrie.from_routes(serve_rib)
        addresses = TrafficGenerator(serve_rib, seed=17).take(1_024)
        expected = [reference.lookup(address) for address in addresses]
        assert client.lookup(addresses) == expected
        assert client.lookup([]) == []

    def test_update_ack_and_visibility(self, served, client):
        prefix = Prefix.parse("198.51.100.0/24")
        ack = client.update(
            [UpdateMessage(UpdateKind.ANNOUNCE, prefix, 63, 0.0)]
        )
        assert ack.accepted == 1 and ack.shed == 0 and not ack.durable
        assert client.lookup([prefix.network + 1]) == [63]

    def test_health_and_stats_shapes(self, served, client):
        health = client.health()
        assert health["status"] == "ok"
        assert health["shards"] == 2
        assert health["durable"] is False
        assert health["port"] == served.server.port

        stats = client.stats()
        assert stats["draining"] is False
        assert stats["serve"]["connections_active"] >= 1
        assert len(stats["shards"]) == 2
        for index, shard in enumerate(stats["shards"]):
            assert shard["shard"] == index
            assert shard["engine_stats"]["completions"] > 0

    def test_fingerprint_matches_inprocess(self, served, client):
        assert client.fingerprint() == served.server.shards.fingerprint()

    def test_checkpoint_without_journal_is_an_error(self, served, client):
        with pytest.raises(ServeClientError):
            client.checkpoint()

    def test_errors_do_not_poison_the_connection(self, served, client):
        request = client.send(0x7F)  # unknown type
        frame = client.recv()
        assert frame.type == protocol.MSG_ERROR
        assert frame.request_id == request

        client.send(protocol.MSG_LOOKUP, b"abc")  # misaligned payload
        assert client.recv().type == protocol.MSG_ERROR

        assert client.health()["status"] == "ok"


class TestBackpressure:
    def test_window_overflow_answers_busy_in_order(self, serve_rib, fast_config):
        shards = ShardSet.build(serve_rib, shard_count=1, config=fast_config)
        with ServerThread(shards, ServeConfig(inflight_window=1)) as thread:
            with ServeClient("127.0.0.1", thread.server.port) as conn:
                # A heavy first request keeps the dispatcher busy while
                # the tiny follow-ups pile into the one-slot window.
                big = TrafficGenerator(serve_rib, seed=19).take(8_192)
                ids = [conn.send(
                    protocol.MSG_LOOKUP, protocol.encode_addresses(big)
                )]
                tiny = protocol.encode_addresses([big[0]])
                for _ in range(8):
                    ids.append(conn.send(protocol.MSG_LOOKUP, tiny))
                frames = [conn.recv() for _ in ids]

        assert [frame.request_id for frame in frames] == ids
        kinds = {frame.type for frame in frames}
        assert kinds <= {protocol.MSG_LOOKUP_OK, protocol.MSG_BUSY}
        assert frames[0].type == protocol.MSG_LOOKUP_OK
        busy = [f for f in frames if f.type == protocol.MSG_BUSY]
        assert busy, "window never tripped"
        assert {protocol.decode_text(f.payload) for f in busy} == {"window"}


class TestGracefulDrain:
    def test_drain_loses_no_admitted_request(self, serve_rib, fast_config):
        """Every pipelined request is answered — OK or explicit BUSY."""
        shards = ShardSet.build(serve_rib, shard_count=2, config=fast_config)
        thread = ServerThread(shards, ServeConfig(inflight_window=64))
        port = thread.start()

        batch = protocol.encode_addresses(
            TrafficGenerator(serve_rib, seed=23).take(64)
        )
        with ServeClient("127.0.0.1", port) as conn:
            ids = [conn.send(protocol.MSG_LOOKUP, batch) for _ in range(20)]

            with ServeClient("127.0.0.1", port) as admin:
                assert admin.drain() == {"draining": True}
                admin.half_close()

            ids += [conn.send(protocol.MSG_LOOKUP, batch) for _ in range(5)]
            conn.half_close()

            frames = []
            while True:
                try:
                    frames.append(conn.recv())
                except protocol.ProtocolError:
                    break

        assert thread.stop() == 0
        assert [frame.request_id for frame in frames] == ids
        for frame in frames:
            assert frame.type in (protocol.MSG_LOOKUP_OK, protocol.MSG_BUSY)
        reasons = {
            protocol.decode_text(f.payload)
            for f in frames
            if f.type == protocol.MSG_BUSY
        }
        assert reasons <= {"draining"}
        # Everything sent after the drain was acknowledged is shed, with
        # the reason a client turns into failover.
        assert [
            (f.type, protocol.decode_text(f.payload)) for f in frames[20:]
        ] == [(protocol.MSG_BUSY, "draining")] * 5

        health = thread.server._health_snapshot()
        assert health["status"] == "draining"
