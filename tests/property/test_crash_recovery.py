"""Property: crash anywhere, restore, replay the rest — state is identical.

Hypothesis picks a seeded update trace, a crash point inside it, a
failure model (process kill vs power loss) and a checkpoint cadence; the
journaled run is killed at the crash point, restored from disk, and fed
the remainder of the trace.  Its state fingerprint must equal that of an
uninterrupted run of the same trace — the paper's deterministic update
pipeline makes redo-log replay exact, whatever the crash point.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import ClueSystem, SystemConfig
from repro.engine.simulator import EngineConfig
from repro.persist import PersistenceManager
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.updategen import UpdateGenerator

ROUTES = generate_rib(21, RibParameters(size=200))
TRACE_LEN = 120
PUMP_EVERY = 3


def make_system():
    # Small queue: the trace overloads it (offers are shed), so crash
    # points land both before and after the queue fills.
    return ClueSystem(
        ROUTES,
        SystemConfig(
            engine=EngineConfig(chip_count=2),
            update_queue_capacity=24,
        ),
    )


def trace_for(seed):
    return UpdateGenerator(list(ROUTES), seed=seed).take(TRACE_LEN)


def run_slice(target, trace, start, stop):
    """The fixed driving cadence, indexed globally so runs line up."""
    for index in range(start, stop):
        target.offer_update(trace[index])
        if index % PUMP_EVERY == 0:
            target.pump_updates(2)


def finish(target):
    target.drain_updates()


@settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50),
    crash_at=st.integers(0, TRACE_LEN - 1),
    power_loss=st.booleans(),
    checkpoint_every=st.sampled_from([1, 7, 25, 0]),
)
def test_crash_restore_replay_equals_uninterrupted(
    tmp_path_factory, seed, crash_at, power_loss, checkpoint_every
):
    trace = trace_for(seed)

    reference = make_system()
    run_slice(reference, trace, 0, TRACE_LEN)
    assert reference.scheduler.stats.shed > 0
    finish(reference)

    directory = tmp_path_factory.mktemp("state")
    system = make_system()
    manager = PersistenceManager(
        system, directory, checkpoint_every=checkpoint_every, sync_interval=8
    )
    run_slice(manager, trace, 0, crash_at)
    manager.crash(power_loss=power_loss)

    restored, report = PersistenceManager.restore(directory)
    assert report.audit is not None and report.audit.ok
    # Power loss may destroy the unsynced journal tail: resume exactly
    # where the durable history ends, not where the dead process was.
    resume_at = restored.system.scheduler.stats.offered
    assert resume_at <= crash_at
    if not power_loss:
        assert resume_at == crash_at  # kill -9 loses nothing
    # The tail can be torn *inside* an iteration — the offer survived but
    # its same-iteration pump did not.  The durable pump count says so;
    # re-issue that one pump so the cadence matches the reference.
    pumps_done = restored.system.scheduler.stats.pump_calls
    pumps_expected = len(range(0, resume_at, PUMP_EVERY))
    assert pumps_expected - pumps_done in (0, 1)
    if pumps_done < pumps_expected:
        restored.pump_updates(2)
    run_slice(restored, trace, resume_at, TRACE_LEN)
    finish(restored)

    assert (
        restored.system.state_fingerprint() == reference.state_fingerprint()
    )
    assert restored.system.pipeline.tcam_matches_table()
    restored.close()
