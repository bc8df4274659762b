"""PersistenceManager: journal-before-apply, checkpoints, restore."""

import pytest

from repro.core import ClueSystem, SystemConfig
from repro.engine.simulator import EngineConfig
from repro.persist import PersistenceManager
from repro.persist.journal import Journal, JournalError
from repro.persist.snapshot import SnapshotError
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.updategen import UpdateGenerator

ROUTES = generate_rib(9, RibParameters(size=250))
TRACE = UpdateGenerator(list(ROUTES), seed=9).take(200)


def make_system(queue_capacity=256):
    return ClueSystem(
        ROUTES,
        SystemConfig(
            engine=EngineConfig(chip_count=2),
            update_queue_capacity=queue_capacity,
        ),
    )


def drive(target, trace, pump_every=3):
    for index, message in enumerate(trace):
        target.offer_update(message)
        if index % pump_every == 0:
            target.pump_updates(4)
    target.drain_updates()


class TestJournalBeforeApply:
    def test_operations_are_journaled(self, tmp_path):
        manager = PersistenceManager(make_system(), tmp_path)
        manager.apply_update(TRACE[0])
        manager.offer_update(TRACE[1])
        manager.pump_updates(2)
        manager.drain_updates()
        manager.close()
        kinds = [r.kind for r in Journal(tmp_path / "journal").records()]
        assert kinds[:5] == ["checkpoint", "apply", "offer", "pump", "drain"]

    def test_recovery_stats_track_journal(self, tmp_path):
        system = make_system()
        manager = PersistenceManager(system, tmp_path, sync_interval=2)
        for message in TRACE[:6]:
            manager.apply_update(message)
        assert system.recovery_stats.journal_records >= 6
        assert system.recovery_stats.journal_syncs >= 3
        assert system.recovery_stats.snapshots_written == 1  # initial
        manager.close()

    def test_fresh_directory_guard(self, tmp_path):
        manager = PersistenceManager(make_system(), tmp_path)
        manager.close()
        with pytest.raises(ValueError, match="already exists"):
            PersistenceManager(make_system(), tmp_path)

    def test_lazy_compression_rejected(self, tmp_path):
        system = ClueSystem(ROUTES, SystemConfig(lazy_compression=True))
        with pytest.raises(ValueError, match="lazy"):
            PersistenceManager(system, tmp_path)


class TestCheckpointing:
    def test_checkpoint_every_n_operations(self, tmp_path):
        system = make_system()
        manager = PersistenceManager(system, tmp_path, checkpoint_every=10)
        for message in TRACE[:25]:
            manager.apply_update(message)
        # initial + two automatic (at ops 10 and 20)
        assert system.recovery_stats.snapshots_written == 3
        manager.close()

    def test_checkpoint_truncates_obsolete_segments(self, tmp_path):
        system = make_system()
        manager = PersistenceManager(
            system, tmp_path, segment_records=8, keep_snapshots=1
        )
        for message in TRACE[:40]:
            manager.apply_update(message)
        manager.checkpoint()
        journal = manager.journal
        assert journal.first_seq() > 1
        # Everything after the retained snapshot is still replayable.
        assert journal.first_seq() <= manager.snapshots.oldest_seq() + 1
        manager.close()


class TestRestore:
    def test_round_trip_fingerprint(self, tmp_path):
        system = make_system()
        manager = PersistenceManager(system, tmp_path, checkpoint_every=50)
        drive(manager, TRACE)
        fingerprint = system.state_fingerprint()
        manager.crash()

        restored, report = PersistenceManager.restore(tmp_path)
        assert restored.system.state_fingerprint() == fingerprint
        assert report.audit is not None and report.audit.ok
        assert report.time_to_recovered_us > 0
        stats = restored.system.recovery_stats
        assert stats.restores == 1
        assert stats.replayed_updates == report.replayed_records
        restored.close()

    @pytest.mark.parametrize("records", [100, 400, 1_500])
    def test_journal_only_replay_matches_unjournaled_run(
        self, tmp_path, records
    ):
        """Journaling costs time, never state: the journaled run equals
        an un-journaled one, and with no checkpoint past the initial
        snapshot a restore replays every record back onto that state."""
        trace = UpdateGenerator(list(ROUTES), seed=47).take(records)
        baseline = make_system()
        system = make_system()
        manager = PersistenceManager(system, tmp_path, sync_interval=64)
        for message in trace:
            baseline.apply_update(message)
            manager.apply_update(message)
        fingerprint = baseline.state_fingerprint()
        assert system.state_fingerprint() == fingerprint
        manager.crash()

        restored, report = PersistenceManager.restore(tmp_path)
        assert report.replayed_records == records
        assert restored.system.state_fingerprint() == fingerprint
        assert report.audit is not None and report.audit.ok
        restored.close()

    def test_restore_continues_journal(self, tmp_path):
        manager = PersistenceManager(make_system(), tmp_path)
        drive(manager, TRACE[:50])
        manager.crash()
        restored, _report = PersistenceManager.restore(tmp_path)
        drive(restored, TRACE[50:100])
        fingerprint = restored.system.state_fingerprint()
        restored.crash()
        # A second restore sees one continuous history.
        final, report = PersistenceManager.restore(tmp_path)
        assert final.system.state_fingerprint() == fingerprint
        final.close()

    def test_falls_back_to_previous_snapshot(self, tmp_path):
        system = make_system()
        manager = PersistenceManager(
            system, tmp_path, checkpoint_every=40, keep_snapshots=2
        )
        drive(manager, TRACE)
        fingerprint = system.state_fingerprint()
        manager.crash()
        newest = sorted((tmp_path / "snapshots").glob("*.ckpt"))[-1]
        data = bytearray(newest.read_bytes())
        data[-10] ^= 0xFF
        newest.write_bytes(bytes(data))

        restored, report = PersistenceManager.restore(tmp_path)
        assert restored.system.state_fingerprint() == fingerprint
        assert len(report.skipped_snapshots) == 1
        assert newest.name in report.skipped_snapshots[0]
        restored.close()

    def test_no_usable_snapshot_raises(self, tmp_path):
        manager = PersistenceManager(make_system(), tmp_path)
        manager.close()
        for path in (tmp_path / "snapshots").glob("*.ckpt"):
            path.write_bytes(b"garbage")
        with pytest.raises(SnapshotError, match="no usable snapshot"):
            PersistenceManager.restore(tmp_path)

    def test_unknown_record_kind_raises(self, tmp_path):
        manager = PersistenceManager(make_system(), tmp_path)
        manager.apply_update(TRACE[0])
        manager.crash()
        journal = Journal(tmp_path / "journal")
        journal.append("frobnicate", "1")
        journal.close()
        with pytest.raises(JournalError, match="unknown kind"):
            PersistenceManager.restore(tmp_path)


class TestStormCrash:
    def test_mid_storm_crash_recovers_exactly(self, tmp_path):
        # A tiny queue overflows during the storm: the snapshot and the
        # journal must capture a full queue and replay its sheds exactly.
        trace = UpdateGenerator(list(ROUTES), seed=31).take(300)

        def run(target, start=0):
            for index in range(start, len(trace)):
                target.offer_update(trace[index])
                if index % 7 == 0:
                    target.pump_updates(2)
            target.drain_updates()

        reference = make_system(queue_capacity=16)
        run(reference)
        assert reference.scheduler.stats.shed > 0  # overload happened

        system = make_system(queue_capacity=16)
        manager = PersistenceManager(system, tmp_path, checkpoint_every=35)
        for index in range(150):
            manager.offer_update(trace[index])
            if index % 7 == 0:
                manager.pump_updates(2)
        assert system.scheduler.stats.shed > 0
        assert len(system.scheduler.queue) >= 12  # 75% of the queue
        manager.crash(power_loss=True)

        restored, report = PersistenceManager.restore(tmp_path)
        run(restored, start=restored.system.scheduler.stats.offered)
        assert (
            restored.system.state_fingerprint()
            == reference.state_fingerprint()
        )
        assert restored.system.pipeline.tcam_matches_table()
        restored.close()
