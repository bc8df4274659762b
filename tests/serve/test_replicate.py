"""Journal-shipping replication: watermarks, ack modes, promotion.

Every test runs a real primary/backup pair of :class:`ServerThread`
instances over loopback TCP — the same wire protocol, framing and
promotion state machine the campaign's ``ha`` cells exercise with full
processes, minus the SIGKILL (that part only exists at process level
and lives in :mod:`repro.serve.chaos`).
"""

import time

import pytest

from repro.serve import (
    HAClient,
    JournalShipper,
    ReplicaMap,
    ReplicationConfig,
    ReplicationError,
    ServeClient,
    ServeClientError,
    ServeConfig,
    ServerBusyError,
    ServerThread,
    ShardSet,
)
from repro.trie.trie import BinaryTrie
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateGenerator, UpdateKind


def start_backup(tmp_path, auto_promote=False, name="backup"):
    thread = ServerThread(
        None,
        ServeConfig(backup_dir=str(tmp_path / name), auto_promote=auto_promote),
    )
    return thread, thread.start()


def start_primary(
    tmp_path,
    serve_rib,
    fast_config,
    backup_port,
    ack_mode="quorum",
    shards=1,
    name="primary",
):
    shard_set = ShardSet.build(
        serve_rib,
        shard_count=shards,
        config=fast_config,
        journal_dir=tmp_path / name,
        sync_interval=4,
    )
    thread = ServerThread(
        shard_set,
        ServeConfig(
            replicate_to=f"127.0.0.1:{backup_port}",
            ack_mode=ack_mode,
            heartbeat_interval=0.1,
        ),
    )
    return thread, thread.start()


def wait_until(predicate, timeout=15.0, interval=0.05):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestQuorumAcks:
    def test_ack_means_applied_on_both_replicas(
        self, tmp_path, serve_rib, fast_config
    ):
        """A quorum ack carries replicated=True and never claims more
        than the backup has applied: after every ack the primary's
        shipped and acked watermarks are equal, and the backup's applied
        sequence numbers match them exactly."""
        backup, backup_port = start_backup(tmp_path)
        primary, primary_port = start_primary(
            tmp_path, serve_rib, fast_config, backup_port
        )
        try:
            generator = UpdateGenerator(serve_rib, seed=11)
            with ServeClient("127.0.0.1", primary_port) as client:
                for _ in range(3):
                    ack = client.update(generator.take(16))
                    assert ack.durable is True
                    assert ack.replicated is True
                health = client.health()
            assert health["role"] == "primary"
            replication = health["replication"]
            assert replication["alive"] is True
            assert replication["acked"] == replication["shipped"]
            with ServeClient("127.0.0.1", backup_port) as admin:
                backup_health = admin.health()
            assert backup_health["role"] == "following"
            assert (
                backup_health["replication"]["applied_seqs"]
                == replication["shipped"]
            )
            assert backup_health["replication"]["records_applied"] > 0
        finally:
            primary.stop()
            backup.stop()

    def test_backup_serves_identical_state_after_failover(
        self, tmp_path, serve_rib, fast_config
    ):
        """Admin failover: the promoted backup answers exactly what the
        primary would — byte-identical fingerprints, identical LPM."""
        backup, backup_port = start_backup(tmp_path)
        primary, primary_port = start_primary(
            tmp_path, serve_rib, fast_config, backup_port
        )
        try:
            generator = UpdateGenerator(serve_rib, seed=12)
            with ServeClient("127.0.0.1", primary_port) as client:
                for _ in range(2):
                    client.update(generator.take(16))
                primary_fp = client.fingerprint()
            with ServeClient("127.0.0.1", backup_port) as admin:
                result = admin.failover()
                assert result["promoted"] is True
                assert result["fingerprints_verified"] is True
                assert admin.health()["role"] == "primary"
                assert admin.fingerprint() == primary_fp
        finally:
            primary.stop()
            backup.stop()


class TestPrimaryAckMode:
    def test_acks_immediately_and_catches_up_async(
        self, tmp_path, serve_rib, fast_config
    ):
        """ack_mode=primary: the ack never claims replication, and the
        heartbeat loop ships the backlog shortly after."""
        backup, backup_port = start_backup(tmp_path)
        primary, primary_port = start_primary(
            tmp_path, serve_rib, fast_config, backup_port, ack_mode="primary"
        )
        try:
            generator = UpdateGenerator(serve_rib, seed=13)
            with ServeClient("127.0.0.1", primary_port) as client:
                ack = client.update(generator.take(16))
                assert ack.durable is True
                assert ack.replicated is False

                def caught_up():
                    replication = client.health()["replication"]
                    return replication["acked"] == replication["shipped"]

                assert wait_until(caught_up), "backup never caught up"
        finally:
            primary.stop()
            backup.stop()

    def test_replicating_primary_serves_lookups_unshed(
        self, tmp_path, serve_rib, fast_config
    ):
        """A shipper attached to the primary takes nothing from the data
        plane: a full 1,024-address batch is answered, not shed, and
        equals the reference trie."""
        backup, backup_port = start_backup(tmp_path)
        primary, primary_port = start_primary(
            tmp_path, serve_rib, fast_config, backup_port, ack_mode="primary"
        )
        try:
            reference = BinaryTrie.from_routes(serve_rib)
            addresses = TrafficGenerator(serve_rib, seed=16).take(1_024)
            with ServeClient("127.0.0.1", primary_port) as client:
                assert client.health()["replication"]["alive"] is True
                hops = client.lookup(addresses)  # a BUSY would raise
                serve = client.stats()["serve"]
            assert hops == [reference.lookup(a) for a in addresses]
            assert serve["lookups_total"] == 1_024
            assert serve["busy_responses"] == 0
        finally:
            primary.stop()
            backup.stop()


class TestPromotion:
    def test_unpromoted_backup_sheds_lookups_as_backup(self, tmp_path, serve_rib):
        """A following replica owns no address range: every lookup is
        answered BUSY("backup") — the reason a client turns into
        failover — and nothing is served."""
        backup, backup_port = start_backup(tmp_path)
        try:
            addresses = TrafficGenerator(serve_rib, seed=18).take(16)
            with ServeClient("127.0.0.1", backup_port) as client:
                for _ in range(5):
                    with pytest.raises(ServerBusyError) as info:
                        client.lookup(addresses)
                    assert info.value.reason == "backup"
                serve = client.stats()["serve"]
            assert serve["busy_responses"] == 5
            assert serve["lookups_total"] == 0
        finally:
            backup.stop()

    def test_feed_eof_promotes_and_client_fails_over(
        self, tmp_path, serve_rib, fast_config
    ):
        """When the primary goes away the backup takes over the range
        and an HAClient finds it without losing any acked update."""
        backup, backup_port = start_backup(tmp_path, auto_promote=True)
        primary, primary_port = start_primary(
            tmp_path, serve_rib, fast_config, backup_port
        )
        reference = BinaryTrie.from_routes(serve_rib)
        generator = UpdateGenerator(serve_rib, seed=14)
        ha = HAClient(
            ReplicaMap.parse(f"127.0.0.1:{primary_port},127.0.0.1:{backup_port}")
        )
        try:
            for _ in range(2):
                batch = generator.take(16)
                assert ha.update(batch).durable
                for message in batch:
                    if message.kind is UpdateKind.ANNOUNCE:
                        reference.insert(message.prefix, message.next_hop)
                    else:
                        reference.remove_route(message.prefix)
            primary.stop()  # graceful handoff: drain ships the tail

            def promoted():
                try:
                    with ServeClient("127.0.0.1", backup_port) as admin:
                        return admin.health()["role"] == "primary"
                except (ServeClientError, OSError):
                    return False

            assert wait_until(promoted), "backup never promoted"
            addresses = TrafficGenerator(serve_rib, seed=15).take(256)
            hops = ha.lookup(addresses)
            assert ha.failovers >= 1
            assert hops == [reference.lookup(a) for a in addresses]
        finally:
            ha.close()
            backup.stop()

    def test_promoted_backup_refuses_re_bootstrap(
        self, tmp_path, serve_rib, fast_config
    ):
        """Split-brain guard: once promoted, a backup never silently
        demotes itself because some new primary dials in."""
        backup, backup_port = start_backup(tmp_path)
        primary, primary_port = start_primary(
            tmp_path, serve_rib, fast_config, backup_port
        )
        try:
            with ServeClient("127.0.0.1", backup_port) as admin:
                assert admin.failover()["promoted"] is True
            with pytest.raises(ReplicationError, match="refusing demotion"):
                start_primary(
                    tmp_path,
                    serve_rib,
                    fast_config,
                    backup_port,
                    name="primary2",
                )
        finally:
            primary.stop()
            backup.stop()


class TestShipperPreconditions:
    def test_replication_requires_durable_shards(
        self, serve_rib, fast_config
    ):
        """Journal shipping without a journal is a config error."""
        shard_set = ShardSet.build(serve_rib, config=fast_config)
        with pytest.raises(ValueError, match="journal"):
            JournalShipper("127.0.0.1", 1, shard_set, ReplicationConfig())

    def test_ack_mode_is_validated(self):
        with pytest.raises(ValueError, match="ack_mode"):
            ReplicationConfig(ack_mode="eventual")
