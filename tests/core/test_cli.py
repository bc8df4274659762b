"""Tests for the repro-clue command-line interface."""

import pytest

from repro.cli import main
from repro.workload.traces import load_table


@pytest.fixture()
def table_file(tmp_path):
    path = tmp_path / "table.txt"
    assert main(["gen-rib", "--size", "600", "--seed", "3", "-o", str(path)]) == 0
    return path


class TestGenerate:
    def test_gen_rib(self, table_file):
        assert len(load_table(table_file)) == 600

    def test_gen_traffic(self, tmp_path, table_file):
        out = tmp_path / "packets.txt"
        code = main(
            [
                "gen-traffic",
                "--table",
                str(table_file),
                "--count",
                "500",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        assert len(out.read_text().splitlines()) == 501  # header comment

    def test_gen_updates(self, tmp_path, table_file):
        out = tmp_path / "updates.txt"
        code = main(
            [
                "gen-updates",
                "--table",
                str(table_file),
                "--count",
                "200",
                "--structural",
                "-o",
                str(out),
            ]
        )
        assert code == 0


class TestCompress:
    def test_compress_verify(self, tmp_path, table_file, capsys):
        out = tmp_path / "compressed.txt"
        code = main(
            [
                "compress",
                "--table",
                str(table_file),
                "--verify",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "verified" in captured
        assert len(load_table(out)) < 600

    def test_strict_mode(self, table_file, capsys):
        assert (
            main(
                [
                    "compress",
                    "--table",
                    str(table_file),
                    "--mode",
                    "strict",
                    "--verify",
                ]
            )
            == 0
        )


class TestPartitionSimulateReplay:
    @pytest.mark.parametrize("algorithm", ["even", "subtree", "idbit"])
    def test_partition(self, table_file, algorithm, capsys):
        code = main(
            [
                "partition",
                "--table",
                str(table_file),
                "--count",
                "8",
                "--algorithm",
                algorithm,
            ]
        )
        assert code == 0
        assert "max/mean" in capsys.readouterr().out

    @pytest.mark.parametrize("scheme", ["clue", "clpl", "rr"])
    def test_simulate(self, table_file, scheme, capsys):
        code = main(
            [
                "simulate",
                "--table",
                str(table_file),
                "--scheme",
                scheme,
                "--count",
                "2000",
            ]
        )
        assert code == 0
        assert "speedup" in capsys.readouterr().out

    def test_simulate_from_trace(self, tmp_path, table_file, capsys):
        packets = tmp_path / "packets.txt"
        main(
            [
                "gen-traffic",
                "--table",
                str(table_file),
                "--count",
                "1000",
                "-o",
                str(packets),
            ]
        )
        code = main(
            [
                "simulate",
                "--table",
                str(table_file),
                "--packets",
                str(packets),
            ]
        )
        assert code == 0
        assert "packets" in capsys.readouterr().out

    @pytest.mark.parametrize("pipeline", ["clue", "clpl"])
    def test_replay_updates(self, tmp_path, table_file, pipeline, capsys):
        updates = tmp_path / "updates.txt"
        main(
            [
                "gen-updates",
                "--table",
                str(table_file),
                "--count",
                "300",
                "-o",
                str(updates),
            ]
        )
        code = main(
            [
                "replay-updates",
                "--table",
                str(table_file),
                "--updates",
                str(updates),
                "--pipeline",
                pipeline,
            ]
        )
        assert code == 0
        assert "TTF total" in capsys.readouterr().out

    def test_replay_lazy(self, tmp_path, table_file):
        updates = tmp_path / "updates.txt"
        main(
            [
                "gen-updates",
                "--table",
                str(table_file),
                "--count",
                "200",
                "-o",
                str(updates),
            ]
        )
        assert (
            main(
                [
                    "replay-updates",
                    "--table",
                    str(table_file),
                    "--updates",
                    str(updates),
                    "--lazy",
                ]
            )
            == 0
        )


class TestFaults:
    @pytest.fixture()
    def fault_file(self, tmp_path):
        path = tmp_path / "faults.txt"
        code = main(
            [
                "gen-faults",
                "--seed",
                "5",
                "--horizon",
                "8000",
                "--chips",
                "4",
                "-o",
                str(path),
            ]
        )
        assert code == 0
        return path

    def test_gen_faults_roundtrips(self, fault_file):
        from repro.workload.traces import load_faults

        schedule = load_faults(fault_file)
        assert len(schedule) > 0
        assert schedule.seed == 5

    def test_simulate_with_faults(self, table_file, fault_file, capsys):
        code = main(
            [
                "simulate",
                "--table",
                str(table_file),
                "--faults",
                str(fault_file),
                "--count",
                "10000",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chip failures" in out
        assert "availability" in out

    def test_inject_faults_with_rebalance(
        self, table_file, fault_file, capsys
    ):
        code = main(
            [
                "inject-faults",
                "--table",
                str(table_file),
                "--faults",
                str(fault_file),
                "--count",
                "10000",
                "--rebalance",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "audit repairs" in out
        assert "rebalanced over" in out
        assert "even=True" in out


class TestDurability:
    def test_crash_drill_round_trip(self, tmp_path, table_file, capsys):
        """simulate --crash-at, then verify-snapshot, then restore."""
        state = tmp_path / "state"
        code = main(
            [
                "simulate",
                "--table",
                str(table_file),
                "--journal",
                str(state),
                "--checkpoint-every",
                "40",
                "--crash-at",
                "90",
                "--update-count",
                "120",
            ]
        )
        assert code == 0
        assert "crashed after 90" in capsys.readouterr().out

        assert main(["verify-snapshot", "--dir", str(state)]) == 0
        verified = capsys.readouterr().out
        assert "digest ok" in verified and "invariants ok" in verified

        code = main(["restore", "--dir", str(state), "--fingerprint"])
        assert code == 0
        out = capsys.readouterr().out
        assert "replayed" in out
        assert "fingerprint: " in out

    def test_journal_run_to_completion(self, tmp_path, table_file, capsys):
        state = tmp_path / "state"
        code = main(
            [
                "simulate",
                "--table",
                str(table_file),
                "--journal",
                str(state),
                "--update-count",
                "80",
            ]
        )
        assert code == 0
        assert "durability" in capsys.readouterr().out
        # The completed run left a restorable directory behind.
        assert main(["checkpoint", "--dir", str(state)]) == 0
        assert "checkpointed to" in capsys.readouterr().out

    def test_crash_flags_need_journal(self, table_file, capsys):
        code = main(
            [
                "simulate",
                "--table",
                str(table_file),
                "--crash-at",
                "10",
            ]
        )
        assert code == 2
        assert "need --journal" in capsys.readouterr().err

    def test_restore_missing_directory_exits_2(self, tmp_path, capsys):
        code = main(["restore", "--dir", str(tmp_path / "nowhere")])
        assert code == 2
        assert "error: no usable snapshot" in capsys.readouterr().err

    def test_verify_corrupt_snapshot_exits_2(
        self, tmp_path, table_file, capsys
    ):
        state = tmp_path / "state"
        main(
            [
                "simulate",
                "--table",
                str(table_file),
                "--journal",
                str(state),
                "--update-count",
                "40",
            ]
        )
        capsys.readouterr()
        snapshot = sorted((state / "snapshots").glob("*.ckpt"))[-1]
        data = bytearray(snapshot.read_bytes())
        data[-8] ^= 0xFF
        snapshot.write_bytes(bytes(data))
        code = main(["verify-snapshot", "--snapshot", str(snapshot)])
        assert code == 2
        assert "error: " in capsys.readouterr().err


class TestErrorHandling:
    def test_malformed_trace_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "faults.txt"
        bad.write_text("10 explode 1\n")
        code = main(
            [
                "inject-faults",
                "--table",
                str(bad),
                "--faults",
                str(bad),
            ]
        )
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ")
        assert str(bad) in captured.err

    def test_invalid_value_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "gen-faults",
                "--horizon",
                "0",
                "-o",
                str(tmp_path / "faults.txt"),
            ]
        )
        assert code == 2
        assert "error: horizon" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--table",
                str(tmp_path / "does-not-exist.txt"),
            ]
        )
        assert code == 2
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "inject-faults"])
    def test_fault_chip_out_of_range_exits_2(
        self, tmp_path, table_file, command, capsys
    ):
        faults = tmp_path / "faults.txt"
        faults.write_text("seed 1\n10 chip-down 7\n")
        code = main(
            [
                command,
                "--table",
                str(table_file),
                "--faults",
                str(faults),
                "--chips",
                "4",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "targets chip 7" in err


class TestExitCodeConventions:
    """Every subcommand: usage errors exit 2, operational failures exit 1."""

    def all_subcommands(self):
        import argparse

        from repro.cli import build_parser

        parser = build_parser()
        action = next(
            a
            for a in parser._actions
            if isinstance(a, argparse._SubParsersAction)
        )
        return sorted(action.choices)

    def test_every_subcommand_rejects_unknown_flags_with_2(self, capsys):
        commands = self.all_subcommands()
        assert "serve" in commands
        for command in commands:
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--definitely-not-a-real-flag"])
            assert excinfo.value.code == 2, command
            capsys.readouterr()

    def test_version_flag_exits_0(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro-clue ")

    def test_serve_without_table_or_restore_exits_2(self, capsys):
        assert main(["serve"]) == 2
        assert "error: " in capsys.readouterr().err

    def test_serve_restore_without_journal_exits_2(self, capsys):
        assert main(["serve", "--restore"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_serve_missing_table_file_exits_2(self, tmp_path, capsys):
        code = main(["serve", "--table", str(tmp_path / "missing.txt")])
        assert code == 2
        assert "error: " in capsys.readouterr().err
