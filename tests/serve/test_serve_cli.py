"""The `repro serve` process: SIGTERM drain and the kill -9 crash drill.

These run the real CLI in a subprocess — the same artifact CI's
serve-smoke job exercises — because signal handling, the port file and
the process exit code only exist at that level.
"""

import os
import re
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import SystemConfig
from repro.engine.simulator import EngineConfig
from repro.net.prefix import Prefix
from repro.serve import ServeClient, ShardSet
from repro.trie.trie import BinaryTrie
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.traces import save_table
from repro.workload.updategen import UpdateGenerator, UpdateKind, UpdateMessage

REPO_ROOT = Path(__file__).resolve().parents[2]


def cli_config(update_queue=256):
    """The SystemConfig `repro serve` builds from its default flags."""
    return SystemConfig(
        engine=EngineConfig(
            chip_count=4,
            dred_capacity=1_024,
            queue_capacity=256,
            lookup_backend="fast",
        ),
        update_queue_capacity=update_queue,
    )


@pytest.fixture(scope="module")
def table_file(serve_rib, tmp_path_factory):
    path = tmp_path_factory.mktemp("serve-cli") / "rib.txt"
    save_table(serve_rib, path)
    return path


#: Every drill binds port 0; the bound port comes from this startup
#: line, so no port files and no fixed ports anywhere in the tests.
STARTUP_RE = re.compile(r"serving on \S*?:(\d+)")


def spawn_server(tmp_path, *extra_args):
    """Start `python -m repro serve` on port 0 and parse the bound port
    from the startup line.

    Lines printed before the startup banner (e.g. restore recovery
    reports) are kept on ``process.startup_lines`` for assertions.
    """
    del tmp_path  # kept for call-site symmetry with the old port-file API
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", *extra_args],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    process.startup_lines = []
    for line in process.stdout:
        process.startup_lines.append(line)
        match = STARTUP_RE.search(line)
        if match:
            return process, int(match.group(1))
    raise AssertionError(
        "server died during startup:\n"
        + "".join(process.startup_lines)
        + process.stderr.read()
    )


def finish(process, timeout=60):
    """Wait for exit, returning (returncode, stdout, stderr)."""
    stdout, stderr = process.communicate(timeout=timeout)
    return process.returncode, stdout, stderr


class TestSigtermDrain:
    def test_serve_lookup_update_sigterm(
        self, serve_rib, table_file, tmp_path
    ):
        """The acceptance smoke: serve, query, update durably, drain."""
        state = tmp_path / "state"
        process, port = spawn_server(
            tmp_path,
            "--table", str(table_file),
            "--shards", "2",
            "--journal", str(state),
        )
        updates = [
            UpdateMessage(
                UpdateKind.ANNOUNCE, Prefix.parse("192.0.2.0/24"), 55, 0.0
            )
        ]
        try:
            with ServeClient("127.0.0.1", port) as client:
                assert client.health()["durable"] is True
                reference = BinaryTrie.from_routes(serve_rib)
                addresses = TrafficGenerator(serve_rib, seed=41).take(1_024)
                assert client.lookup(addresses) == [
                    reference.lookup(address) for address in addresses
                ]
                ack = client.update(updates)
                assert ack.durable is True and ack.accepted >= 1
        finally:
            process.send_signal(signal.SIGTERM)
        returncode, _stdout, stderr = finish(process)
        assert returncode == 0, stderr

        # The journal survived the drain and replays to exactly the
        # state a fresh system reaches serving the same traffic and
        # applying the acked updates (lookups matter too: they populate
        # DRed, which is part of the state fingerprint).
        restored, _ = ShardSet.restore(state, config=cli_config())
        expected = ShardSet.build(serve_rib, shard_count=2, config=cli_config())
        expected.lookup(addresses)
        expected.update(updates)
        expected.drain()
        assert restored.fingerprint() == expected.fingerprint()
        assert restored.lookup([Prefix.parse("192.0.2.0/24").network]) == [55]


class TestCrashDrill:
    def test_kill_nine_mid_storm_restore_matches_reference(
        self, serve_rib, table_file, tmp_path
    ):
        """kill -9 during an update storm loses nothing acked.

        A small pump budget plus a small scheduler queue keep the
        server's update queue overloaded (sheds, a backed-up queue) while
        batches are acked; the journal must replay to the exact same
        state.
        """
        state = tmp_path / "state"
        serve_args = (
            "--journal", str(state),
            "--update-queue", "32",
            "--pump-budget", "2",
        )
        process, port = spawn_server(
            tmp_path, "--table", str(table_file), "--shards", "2", *serve_args
        )
        batches = [
            UpdateGenerator(serve_rib, seed=43).take(24) for _ in range(6)
        ]
        sheds = 0
        try:
            with ServeClient("127.0.0.1", port) as client:
                for batch in batches:
                    ack = client.update(batch)
                    assert ack.durable is True
                    sheds += ack.shed
        finally:
            process.kill()  # SIGKILL: no drain, no final checkpoint
        assert finish(process)[0] != 0
        assert sheds > 0, "drill never entered overload; tighten the knobs"

        restarted, port = spawn_server(tmp_path, "--restore", *serve_args)
        try:
            with ServeClient("127.0.0.1", port) as client:
                restored_fp = client.fingerprint()
                assert client.health()["shards"] == 2
        finally:
            restarted.send_signal(signal.SIGTERM)
        returncode, stdout, stderr = finish(restarted)
        assert returncode == 0, stderr
        banner = "".join(restarted.startup_lines) + stdout
        assert "restored" in banner or "replay" in banner.lower()

        reference = ShardSet.build(
            serve_rib, shard_count=2, config=cli_config(update_queue=32)
        )
        for batch in batches:
            reference.update(batch, pump_budget=2)
        assert reference.fingerprint() == restored_fp


class TestModuleEntryPoint:
    def test_python_dash_m_version(self):
        env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "--version"],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("repro-clue ")
