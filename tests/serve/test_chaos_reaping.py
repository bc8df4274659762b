"""No code path may strand a live server subprocess.

The historical bug: :class:`ServerProcess` started its stdout reader
thread *after* the ``Popen``; if that setup raised (thread limit hit,
allocation failure), the constructor propagated the exception with the
child alive and unrecorded — no teardown path knew its PID.  These tests
pin the fix: a failure anywhere between ``Popen`` and a registered
process must reap the child before the exception escapes.  The
process-level drills and the worker supervisor spawn through this one
class.
"""

import threading
import time

import pytest

from repro.serve import chaos, procs
from repro.serve.chaos import ChaosError
from repro.serve.procs import ServerProcess, WorkerError


class _RecordingPopen:
    """Stub child: records lifecycle calls, reports liveness honestly."""

    spawned = []

    def __init__(self, *args, **kwargs):
        self.killed = False
        self.waited = False
        self.stdout = None
        _RecordingPopen.spawned.append(self)

    def poll(self):
        return 1 if self.killed else None

    def kill(self):
        self.killed = True

    def wait(self, timeout=None):
        self.waited = True
        return 1


@pytest.fixture(autouse=True)
def _fresh_spawn_log():
    _RecordingPopen.spawned = []
    yield


def test_reader_thread_failure_reaps_the_child(monkeypatch):
    monkeypatch.setattr(procs.subprocess, "Popen", _RecordingPopen)

    class ExplodingThread(threading.Thread):
        def start(self):
            raise RuntimeError("can't start new thread")

    monkeypatch.setattr(procs.threading, "Thread", ExplodingThread)
    with pytest.raises(RuntimeError, match="can't start new thread"):
        ServerProcess("doomed", ["serve", "--port", "0"])
    assert len(_RecordingPopen.spawned) == 1
    child = _RecordingPopen.spawned[0]
    assert child.killed, "child left running after mid-setup failure"
    assert child.waited, "child killed but never reaped (zombie)"


def test_successful_setup_does_not_kill(monkeypatch):
    monkeypatch.setattr(procs.subprocess, "Popen", _RecordingPopen)

    class InertThread(threading.Thread):
        def start(self):  # never touches the stub's stdout
            pass

    monkeypatch.setattr(procs.threading, "Thread", InertThread)
    proc = ServerProcess("fine", ["serve", "--port", "0"])
    assert proc.alive
    assert not _RecordingPopen.spawned[0].killed


def test_reader_failure_fails_the_port_wait_at_once(monkeypatch):
    """A reader thread that dies mid-stream must wake ``wait_port`` so
    it fails with the captured output, not sit out its whole timeout."""

    class BrokenPipePopen(_RecordingPopen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.stdout = self._lines()

        @staticmethod
        def _lines():
            yield "loading table\n"
            raise ValueError("I/O operation on closed file")

    monkeypatch.setattr(procs.subprocess, "Popen", BrokenPipePopen)
    with monkeypatch.context() as quiet:
        # The reader's ValueError is the point; keep it off pytest's
        # unhandled-thread-exception report.
        quiet.setattr(threading, "excepthook", lambda args: None)
        proc = ServerProcess("doomed", ["serve", "--port", "0"])
        started = time.monotonic()
        with pytest.raises(WorkerError, match="doomed failed to start") as info:
            proc.wait_port(timeout=20.0)
        assert time.monotonic() - started < 5.0
        proc._reader.join(5.0)
    assert "loading table" in str(info.value)
    child = _RecordingPopen.spawned[0]
    assert child.killed and child.waited


def test_cluster_shutdown_reaps_every_process_despite_errors(tmp_path):
    cluster = chaos.Cluster(chaos.ChaosConfig(), "reap-test", tmp_path, [])

    class FlakyKill:
        def __init__(self, label, fail):
            self.label = label
            self.fail = fail
            self.killed = False

        def kill(self):
            if self.fail:
                raise OSError("kill refused")
            self.killed = True

    good_a = FlakyKill("a", fail=False)
    bad = FlakyKill("b", fail=True)
    good_c = FlakyKill("c", fail=False)
    cluster.procs[:] = [good_a, bad, good_c]
    with pytest.raises(ChaosError, match="b: kill refused"):
        cluster.shutdown()
    # The failing middle process must not strand its successors.
    assert good_a.killed and good_c.killed


def test_cluster_is_a_context_manager(tmp_path):
    killed = []

    class Stub:
        label = "stub"

        def kill(self):
            killed.append(self)

    with chaos.Cluster(
        chaos.ChaosConfig(), "ctx-test", tmp_path, []
    ) as cluster:
        cluster.procs.append(Stub())
    assert len(killed) == 1
