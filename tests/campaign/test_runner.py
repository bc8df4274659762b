"""Cell executors and the campaign driver (the other ha/reshard cells
run in CI's ``campaign-smoke`` job, subsets ``smoke`` and ``drills``)."""

import pytest

from repro.campaign.oracles import ORACLE_NAMES
from repro.campaign.report import render_markdown, write_json
from repro.campaign.runner import execute_cell, run_campaign
from repro.campaign.spec import Cell, CellBudget, spec_from_dict

BUDGET = CellBudget(
    packets=400, updates=48, batch_size=12, sample_addresses=96, rib_size=200
)


def _cell(topology="inproc", fault="none", workload="fig15", backend="fast"):
    return Cell(
        workload=workload,
        fault=fault,
        backend=backend,
        topology=topology,
        seed=17,
        budget=BUDGET,
    )


def test_inproc_cell_passes_all_applicable_oracles(tmp_path):
    result = execute_cell(_cell(), tmp_path)
    assert result.ok, result.as_dict()
    statuses = {v.name: v.status for v in result.verdicts}
    assert statuses["zero-acked-loss"] == "pass"
    assert statuses["replay-fingerprint"] == "skip"
    assert result.acked_updates > 0


def test_durable_cell_checks_replay_and_storage(tmp_path):
    result = execute_cell(_cell(topology="inproc-durable"), tmp_path)
    assert result.ok, result.as_dict()
    statuses = {v.name: v.status for v in result.verdicts}
    assert statuses["replay-fingerprint"] == "pass"
    assert statuses["storage-audit"] == "pass"


def test_corrupt_silent_cell_fails_naming_chip_audit(tmp_path):
    result = execute_cell(_cell(fault="corrupt-silent"), tmp_path)
    assert not result.ok
    assert "chip-audit" in result.failed_oracles
    verdict = next(v for v in result.verdicts if v.name == "chip-audit")
    assert "drifted" in verdict.detail


def test_corrupt_with_healing_audit_passes(tmp_path):
    result = execute_cell(_cell(fault="corrupt"), tmp_path)
    assert result.ok, result.as_dict()


def test_storm_fault_skips_differential_oracles(tmp_path):
    result = execute_cell(_cell(fault="storm", workload="storm"), tmp_path)
    assert result.ok, result.as_dict()
    statuses = {v.name: v.status for v in result.verdicts}
    assert statuses["zero-acked-loss"] == "skip"
    assert statuses["dred-exclusion"] == "pass"


def test_serve_cell_runs_a_real_server(tmp_path):
    result = execute_cell(_cell(topology="serve-2"), tmp_path)
    assert result.ok, result.as_dict()
    statuses = {v.name: v.status for v in result.verdicts}
    assert statuses["lpm-equivalence"] == "pass"
    assert statuses["replay-fingerprint"] == "pass"
    assert statuses["storage-audit"] == "pass"


def test_kill_promoting_ha_cell_passes_every_oracle(tmp_path):
    """Kill the primary, kill the backup while it promotes, restore the
    backup's epoch journal; the restored server takes the rest of the
    stream and all seven oracles judge it — none skips."""
    result = execute_cell(
        _cell(topology="ha", fault="kill-promoting"), tmp_path
    )
    assert result.ok, result.as_dict()
    assert [(v.name, v.status) for v in result.verdicts] == [
        (name, "pass") for name in ORACLE_NAMES
    ]
    assert result.acked_updates == BUDGET.updates


def test_reshard_drill_excludes_backup_kills():
    spec = spec_from_dict(
        {
            "matrix": {
                "faults": ["kill-primary", "kill-backup", "kill-promoting"],
                "topologies": ["reshard"],
            }
        }
    )
    selected, excluded = spec.expand()
    assert [cell.fault for cell in selected] == ["kill-primary"]
    assert all("no backup" in reason for _cell_id, reason in excluded)
    assert len(excluded) == 2


def test_executor_errors_are_captured_not_raised(tmp_path, monkeypatch):
    from repro.campaign import runner

    def boom(cell, workdir):
        raise RuntimeError("executor exploded")

    monkeypatch.setitem(runner._EXECUTORS, "inproc", boom)
    result = execute_cell(_cell(), tmp_path)
    assert not result.ok
    assert "executor exploded" in result.error
    assert result.repro


def test_cells_are_reproducible(tmp_path):
    first = execute_cell(_cell(topology="inproc-durable"), tmp_path / "a")
    second = execute_cell(_cell(topology="inproc-durable"), tmp_path / "b")
    assert first.ok and second.ok
    assert first.acked_updates == second.acked_updates
    assert [v.detail for v in first.verdicts] == [
        v.detail for v in second.verdicts
    ]


def test_run_campaign_aggregates_and_reports(tmp_path):
    spec = spec_from_dict(
        {
            "campaign": {"name": "mini", "seed": 3},
            "budget": {
                "packets": 300, "updates": 36, "batch_size": 12,
                "sample_addresses": 64, "rib_size": 150,
            },
            "matrix": {
                "workloads": ["fig15"],
                "faults": ["none", "corrupt-silent", "kill-primary"],
                "topologies": ["inproc"],
            },
        }
    )
    lines = []
    campaign = run_campaign(
        spec, spec_path="mini.toml", workdir=tmp_path, log=lines.append
    )
    assert len(campaign.results) == 2
    assert len(campaign.excluded) == 1  # kill-primary needs ha
    assert not campaign.ok
    assert [r.ok for r in campaign.results] == [True, False]
    assert any("corrupt-silent" in line for line in lines)

    # JSON artifact round-trips.
    out = tmp_path / "campaign.json"
    write_json(campaign, out)
    import json

    data = json.loads(out.read_text())
    assert data["campaign"] == "mini"
    assert data["failed_cells"] == 1
    assert data["results"][1]["failed_oracles"] == [
        "chip-audit", "state-audit",
    ]
    assert "--cells" in data["results"][1]["repro"]

    # Markdown names the failure and the repro command.
    markdown = render_markdown(campaign)
    assert "**FAIL**" in markdown
    assert "chip-audit" in markdown
    assert "repro-clue campaign --spec mini.toml" in markdown
    assert "Structurally excluded" in markdown
