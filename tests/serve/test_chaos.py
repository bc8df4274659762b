"""Process-kill faults and the reference model the drills mirror.

The fault taxonomy has process-level kills that only the campaign's
``ha``/``reshard`` drills may execute — the in-engine injector must
refuse them, the trace format must round-trip them, and ``serve
--faults`` must reject them up front.  The drills themselves run as
campaign cells (``tests/campaign/test_runner.py`` and CI's
``campaign-smoke`` job).
"""

import pytest

from repro.cli import main
from repro.faults.injector import FaultInjector
from repro.faults.schedule import PROCESS_KINDS, FaultKind, FaultSchedule
from repro.net.prefix import Prefix
from repro.serve.chaos import apply_to_reference
from repro.trie.trie import BinaryTrie
from repro.workload.traces import load_faults, save_faults, save_table
from repro.workload.updategen import UpdateKind, UpdateMessage


class TestProcessKillFaults:
    def test_builders_and_engine_only_split(self):
        schedule = (
            FaultSchedule(seed=3)
            .chip_down(10, 0)
            .kill_primary(5)
            .kill_backup(20)
        )
        assert schedule.has_process_kills
        assert [e.kind for e in schedule.process_kills()] == [
            FaultKind.KILL_PRIMARY,
            FaultKind.KILL_BACKUP,
        ]
        stripped = schedule.engine_only()
        assert not stripped.has_process_kills
        assert [e.kind for e in stripped.events] == [FaultKind.CHIP_DOWN]
        assert stripped.seed == schedule.seed
        # The original is untouched: engine_only is a copy.
        assert len(schedule.events) == 3

    def test_injector_refuses_process_kills(self):
        schedule = FaultSchedule().kill_primary(0)
        injector = FaultInjector(engine=None, schedule=schedule)
        with pytest.raises(ValueError, match="engine_only"):
            injector.tick(0)

    def test_trace_roundtrip(self, tmp_path):
        schedule = (
            FaultSchedule(seed=9)
            .kill_primary(100)
            .stall(50, 1, 16)
            .kill_backup(200)
        )
        path = tmp_path / "faults.txt"
        save_faults(schedule, path)
        loaded = load_faults(path)
        assert loaded.seed == 9
        assert [(e.cycle, e.kind) for e in loaded.events] == [
            (50, FaultKind.STALL),
            (100, FaultKind.KILL_PRIMARY),
            (200, FaultKind.KILL_BACKUP),
        ]

    def test_serve_rejects_process_kill_schedules(self, tmp_path, capsys):
        table = tmp_path / "table.txt"
        save_table([(Prefix.parse("10.0.0.0/8"), 1)], table)
        faults = tmp_path / "faults.txt"
        save_faults(FaultSchedule().kill_primary(10), faults)
        code = main(
            ["serve", "--table", str(table), "--faults", str(faults)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "ha/reshard" in err and "campaign" in err

    def test_process_kinds_frozen(self):
        assert PROCESS_KINDS == {
            FaultKind.KILL_PRIMARY,
            FaultKind.KILL_BACKUP,
        }


class TestReferenceModel:
    def test_apply_mirrors_announce_and_withdraw(self):
        trie = BinaryTrie()
        prefix = Prefix.parse("10.0.0.0/8")
        apply_to_reference(
            trie, [UpdateMessage(UpdateKind.ANNOUNCE, prefix, 7, 0.0)]
        )
        assert trie.lookup(prefix.network) == 7
        apply_to_reference(
            trie, [UpdateMessage(UpdateKind.WITHDRAW, prefix, None, 1.0)]
        )
        assert trie.lookup(prefix.network) is None
