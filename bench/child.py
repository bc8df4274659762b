"""Child-process hygiene: one ``python -m repro serve`` tree at a time.

Every server runs in its own session (process group), so the whole tree
— the front and, under ``--workers processes``, its shard workers — is
signalled and reaped together on every exit path.  The group id is
recorded in ``<work root>/server.pid`` while a server is alive; a new
run refuses to start while a previous run's group still is.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_ROOT = REPO_ROOT / "src"
#: Everything the benchmark writes lives here (listed in .gitignore).
WORK_ROOT = REPO_ROOT / ".bench_work"
PID_FILE = WORK_ROOT / "server.pid"

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")
STARTUP_TIMEOUT_S = 60.0
TERM_GRACE_S = 10.0


class ChildError(RuntimeError):
    """A server child failed to start or to stop."""


def group_members(pgid: int) -> List[int]:
    """Live pids whose process group is ``pgid`` (from ``/proc``)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            stat = Path("/proc", entry, "stat").read_text()
        except OSError:
            continue  # raced with an exit
        # Fields after the parenthesised command name: state ppid pgrp ...
        fields = stat.rsplit(")", 1)[1].split()
        if int(fields[2]) == pgid and fields[0] != "Z":
            members.append(int(entry))
    return sorted(members)


def cpu_seconds(pid: int) -> float:
    """User + system CPU time a live process has consumed."""
    fields = Path("/proc", str(pid), "stat").read_text().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one process, in MiB."""
    for line in Path("/proc", str(pid), "status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise ChildError(f"no VmHWM for pid {pid}")


def refuse_if_server_alive() -> None:
    """Start-up guard: a previous run's server must not still be running."""
    if not PID_FILE.exists():
        return
    try:
        pgid = int(PID_FILE.read_text().strip())
    except ValueError:
        pgid = 0
    if pgid and group_members(pgid):
        raise ChildError(
            f"a previous run's server (process group {pgid}) is still "
            f"alive; stop it (kill -KILL -- -{pgid}) and remove {PID_FILE}"
        )
    PID_FILE.unlink()


class Server:
    """One ``repro serve`` subprocess tree bound to an ephemeral port."""

    def __init__(self, workdir: Path, flags: Sequence[str], label: str) -> None:
        self.label = label
        self.port_file = workdir / f"{label}.port"
        self.log_path = workdir / f"{label}.log"
        self.port: Optional[int] = None
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            str(SRC_ROOT) if not existing else str(SRC_ROOT) + os.pathsep + existing
        )
        env["PYTHONHASHSEED"] = "0"
        argv = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--port-file", str(self.port_file), *flags,
        ]
        with open(self.log_path, "wb") as log:
            self.spawned_at = time.perf_counter()
            self.proc = subprocess.Popen(
                argv,
                stdout=log,
                stderr=subprocess.STDOUT,
                env=env,
                start_new_session=True,
            )
        self.pgid = self.proc.pid
        try:
            PID_FILE.write_text(f"{self.pgid}\n")
        except BaseException:
            self.kill()
            raise

    def wait_port(self) -> int:
        """Block until the server has written its bound port."""
        deadline = self.spawned_at + STARTUP_TIMEOUT_S
        while time.perf_counter() < deadline:
            try:
                text = self.port_file.read_text().strip()
            except OSError:
                text = ""
            if text:
                self.port = int(text)
                return self.port
            if self.proc.poll() is not None:
                break
            time.sleep(0.002)
        tail = self.log_tail()
        self.kill()
        raise ChildError(f"{self.label} never reported its port:\n{tail}")

    def log_tail(self, count: int = 20) -> str:
        try:
            lines = self.log_path.read_text(errors="replace").splitlines()
        except OSError:
            return ""
        return "\n".join(lines[-count:])

    # -- observation ----------------------------------------------------

    def tree(self) -> List[int]:
        """Pids of the front (first) and its workers."""
        members = group_members(self.pgid)
        return [self.pgid] + [pid for pid in members if pid != self.pgid]

    def peak_rss_mb(self) -> float:
        """``VmHWM`` summed over the server's process tree."""
        return sum(peak_rss_mb(pid) for pid in self.tree())

    # -- teardown -------------------------------------------------------

    def _signal_group(self, signum: int) -> None:
        try:
            os.killpg(self.pgid, signum)
        except ProcessLookupError:
            pass

    def _reap(self, deadline: float) -> bool:
        """Wait for the whole group to disappear; False on timeout."""
        while time.perf_counter() < deadline:
            self.proc.poll()  # reaps the front once it has exited
            if self.proc.returncode is not None and not group_members(self.pgid):
                return True
            time.sleep(0.01)
        return False

    def kill(self) -> None:
        """SIGKILL the whole tree — no flush, no final checkpoint."""
        self._signal_group(signal.SIGKILL)
        if not self._reap(time.perf_counter() + TERM_GRACE_S):
            raise ChildError(f"{self.label} survived SIGKILL")
        PID_FILE.unlink(missing_ok=True)

    def stop(self) -> int:
        """SIGTERM (graceful drain), escalating to SIGKILL; exit code."""
        self._signal_group(signal.SIGTERM)
        if not self._reap(time.perf_counter() + TERM_GRACE_S):
            self.kill()
        PID_FILE.unlink(missing_ok=True)
        return self.proc.returncode

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, exc_type, *_exc) -> None:
        # An error path must not wait out a drain; a clean exit drains.
        if self.proc.returncode is None or group_members(self.pgid):
            if exc_type is None:
                self.stop()
            else:
                self.kill()


def install_term_handler() -> None:
    """Turn SIGTERM into SystemExit so ``finally`` blocks reap children."""

    def _on_term(signum, _frame):
        raise SystemExit(128 + signum)

    signal.signal(signal.SIGTERM, _on_term)
