"""State written while storm mode deferred TCAM-mirror writes still loads.

Older builds deferred the TCAM-mirror writes of pumped updates once the
update queue passed 75% occupancy.  Their v1 snapshots could carry a
storm flag, a deferred-diff batch, a five-counter ``queue_counters``,
extra scheduler stats and the two storm watermarks; their journals carry
``flush`` and ``flush-auto`` records.  The chips never waited for a
flush, so all of that is ignored: restore, a backup replica's catch-up
and a resharding catch-up must each reach the fingerprint of this build
running the same offers and pumps.
"""

import pytest

from repro.core import ClueSystem, SystemConfig
from repro.engine.simulator import EngineConfig
from repro.persist import PersistenceManager
from repro.serve import protocol
from repro.serve.replicate import BackupReplica
from repro.serve.reshard import ReshardCoordinator
from repro.serve.shard import ShardSet
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.updategen import UpdateGenerator

ROUTES = generate_rib(9, RibParameters(size=300))
CONFIG = SystemConfig(
    engine=EngineConfig(chip_count=2, lookup_backend="fast"),
    update_queue_capacity=16,
)
TRACE = UpdateGenerator(list(ROUTES), seed=17).take(60)
LEGACY_KINDS = ("flush", "flush-auto")

#: Before the snapshot: 14 of 16 slots filled, then 2 pumped — an older
#: build was in storm mode here with two deferred diffs.
BEFORE = [("offer", m) for m in TRACE[:14]] + [("pump", 2)]
#: After it: overload (shed offers) with the legacy flush records mixed
#: in, ending on a backed-up queue, where an older build still deferred.
AFTER = (
    [("offer", m) for m in TRACE[14:20]]
    + [("flush", ""), ("pump", 3), ("flush-auto", "5"), ("drain", None)]
    + [("offer", m) for m in TRACE[20:60]]
    + [("pump", 2), ("flush", ""), ("pump", 2), ("flush-auto", "3")]
)


def run(target, ops):
    """Drive ``ops``; legacy flush records go straight into the journal."""
    for kind, arg in ops:
        if kind == "offer":
            target.offer_update(arg)
        elif kind == "pump":
            target.pump_updates(arg)
        elif kind == "drain":
            target.drain_updates()
        else:
            target._append(kind, arg)


def reference_fingerprint():
    system = ClueSystem(ROUTES, CONFIG)
    run(system, [op for op in BEFORE + AFTER if op[0] not in LEGACY_KINDS])
    assert system.scheduler.stats.shed > 0
    return system.state_fingerprint()


def legacy_state(system, deferred):
    """``system``'s capture in the layout an older build wrote mid-storm."""
    state = system.capture_state()
    state["config"]["storm_high_watermark"] = 0.75
    state["config"]["storm_low_watermark"] = 0.25
    scheduler = state["scheduler"]
    scheduler["storm_mode"] = True
    scheduler["deferred"] = [
        [seq, {
            "adds": [[str(p), hop] for p, hop in diff.adds],
            "removes": [[str(p), hop] for p, hop in diff.removes],
            "relabelled": diff.relabelled,
        }]
        for seq, diff in enumerate(deferred, start=1)
    ]
    scheduler["defer_seq"] = len(deferred)
    offered, accepted, shed, peak = scheduler["queue_counters"]
    scheduler["queue_counters"] = [offered, accepted, shed, len(deferred), peak]
    scheduler["stats"].update(
        deferred=len(deferred), flushed_diffs=0, storm_entries=1, storm_exits=0
    )
    return state


@pytest.fixture()
def primary(tmp_path):
    """A journaled primary whose newest snapshot is a mid-storm legacy one.

    Returns ``(manager, snapshot_seq, state)``; the journal holds
    :data:`AFTER` beyond the snapshot, legacy flush records included.
    """
    system = ClueSystem(ROUTES, CONFIG)
    deferred = []
    apply_to_chips = system.scheduler.on_diff

    def on_diff(diff):
        deferred.append(diff)
        apply_to_chips(diff)

    system.scheduler.on_diff = on_diff
    manager = PersistenceManager(system, tmp_path / "primary")
    run(manager, BEFORE)
    system.scheduler.on_diff = apply_to_chips
    assert len(deferred) == 2
    manager.sync()
    seq = manager.last_seq
    state = legacy_state(system, deferred)
    manager.snapshots.write(state, seq)
    run(manager, AFTER)
    manager.sync()
    return manager, seq, state


def test_restore_of_mid_storm_snapshot_and_flush_records(primary, tmp_path):
    manager, seq, _state = primary
    manager.crash()
    restored, report = PersistenceManager.restore(tmp_path / "primary")
    assert report.snapshot_seq == seq
    assert report.audit.ok
    assert restored.system.state_fingerprint() == reference_fingerprint()
    assert restored.system.pipeline.tcam_matches_table()
    restored.close()


def test_backup_catch_up_from_mid_storm_bootstrap(primary, tmp_path):
    manager, seq, state = primary
    records = [
        [record.seq, record.kind, record.payload]
        for record in manager.journal.records(after_seq=seq)
    ]
    assert {"flush", "flush-auto"} <= {kind for _seq, kind, _p in records}
    manager.close()
    replica = BackupReplica(tmp_path / "backup")
    replica.handle({
        "kind": protocol.REPLICATE_BOOTSTRAP,
        "boundaries": [0],
        "shards": [{"index": 0, "state": state, "seq": seq}],
    })
    replica.handle(
        {"kind": protocol.REPLICATE_RECORDS, "shard": 0, "records": records}
    )
    [worker] = replica.shard_set.workers
    assert worker.system.state_fingerprint() == reference_fingerprint()
    worker.manager.close()


def split_after(tmp_path, name, ops):
    """Split shard 0 of a durable 2-shard set while ``ops`` land on it."""
    shards = ShardSet.build(
        ROUTES, shard_count=2, config=CONFIG, journal_dir=tmp_path / name
    )
    coordinator = ReshardCoordinator(shards, "split", 0)
    coordinator.prepare()
    coordinator.copy()
    coordinator.begin_catchup()
    run(shards.workers[0].manager, ops)
    assert coordinator.catchup_round() == len(ops)
    fingerprint = coordinator.new_set.fingerprint()
    coordinator.abort("test over")
    for worker in shards.workers:
        worker.manager.close()
    return fingerprint


def test_reshard_catch_up_treats_flush_records_as_markers(tmp_path):
    ops = BEFORE + AFTER
    plain = [op for op in ops if op[0] not in LEGACY_KINDS]
    assert split_after(tmp_path, "legacy", ops) == split_after(
        tmp_path, "plain", plain
    )
