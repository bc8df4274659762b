"""`file:` workloads in campaign cells: provenance, validation, drills."""

import json

import pytest

from repro.campaign.report import render_markdown, write_json
from repro.campaign.runner import execute_cell, run_campaign
from repro.campaign.spec import Cell, CellBudget, SpecError, spec_from_dict
from repro.cli import main
from repro.workload import (
    FileWorkload,
    file_workload,
    is_file_workload,
    resolve_workload,
)

BUDGET = CellBudget(
    packets=300, updates=32, batch_size=12, sample_addresses=64, rib_size=200
)


@pytest.fixture(scope="module")
def workload_dir(tmp_path_factory):
    """A fully ingested fixture workload directory (table+updates+packets)."""
    root = tmp_path_factory.mktemp("file-workload")
    raw = root / "raw"
    wl = root / "wl"
    assert main(["ingest", "fixtures", "-o", str(raw)]) == 0
    assert (
        main(
            [
                "ingest",
                "rib",
                str(raw / "rib.mrt.gz"),
                "-o",
                str(wl / "table.txt"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "ingest",
                "updates",
                str(raw / "updates.mrt"),
                "--table",
                str(wl / "table.txt"),
                "-o",
                str(wl / "updates.txt"),
            ]
        )
        == 0
    )
    assert (
        main(
            [
                "ingest",
                "pcap",
                str(raw / "trace.pcap"),
                "-o",
                str(wl / "packets.txt"),
            ]
        )
        == 0
    )
    return wl


def _cell(workload, topology="inproc", fault="none", backend="fast"):
    return Cell(
        workload=workload,
        fault=fault,
        backend=backend,
        topology=topology,
        seed=17,
        budget=BUDGET,
    )


class TestFileWorkloadResolution:
    def test_resolve_and_validate(self, workload_dir):
        name = f"file:{workload_dir}"
        assert is_file_workload(name)
        workload = resolve_workload(name)
        assert isinstance(workload, FileWorkload)
        workload.validate()
        assert workload.load_routes()
        assert workload.load_updates()
        assert workload.load_packets()

    def test_provenance_has_hashes(self, workload_dir):
        provenance = file_workload(f"file:{workload_dir}").provenance()
        assert set(provenance) == {"table", "updates", "packets"}
        for record in provenance.values():
            assert len(record["sha256"]) == 64
            assert record["bytes"] > 0

    def test_missing_table_is_an_error(self, tmp_path):
        workload = file_workload(f"file:{tmp_path}")
        with pytest.raises(ValueError, match="ingest rib"):
            workload.validate()

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            file_workload("file:")


class TestFileWorkloadCells:
    def test_inproc_cell_passes(self, workload_dir, tmp_path):
        result = execute_cell(_cell(f"file:{workload_dir}"), tmp_path)
        assert result.ok, result.as_dict()
        assert result.workload_provenance is not None
        assert "table" in result.workload_provenance

    def test_serve_cell_passes_with_provenance(self, workload_dir, tmp_path):
        result = execute_cell(
            _cell(f"file:{workload_dir}", topology="serve-1"), tmp_path
        )
        assert result.ok, result.as_dict()
        assert result.workload_provenance["table"]["sha256"]

    def test_registry_cells_have_no_provenance(self, tmp_path):
        result = execute_cell(_cell("fig15"), tmp_path)
        assert result.ok, result.as_dict()
        assert result.workload_provenance is None


class TestFileWorkloadSpec:
    def _spec_dict(self, workload, topologies=("inproc",)):
        return {
            "campaign": {"name": "file-smoke", "seed": 5},
            "budget": {
                "packets": 300,
                "updates": 32,
                "batch_size": 12,
                "sample_addresses": 64,
                "rib_size": 200,
            },
            "matrix": {
                "workloads": [workload],
                "faults": ["none"],
                "backends": ["fast"],
                "topologies": list(topologies),
            },
        }

    def test_spec_validates_file_workload(self, workload_dir):
        spec = spec_from_dict(self._spec_dict(f"file:{workload_dir}"))
        selected, excluded = spec.expand()
        assert len(selected) == 1 and not excluded

    def test_spec_rejects_missing_directory(self, tmp_path):
        with pytest.raises(SpecError):
            spec_from_dict(self._spec_dict(f"file:{tmp_path}/nope"))

    def test_ha_cell_runs_and_passes(self, workload_dir, tmp_path):
        data = self._spec_dict(f"file:{workload_dir}", topologies=["ha"])
        data["matrix"]["faults"] = ["kill-primary"]
        [cell], excluded = spec_from_dict(data).expand()
        assert not excluded
        result = execute_cell(cell, tmp_path)
        assert result.ok, result.as_dict()
        assert {v.status for v in result.verdicts} == {"pass"}
        assert result.workload_provenance["table"]["sha256"]

    def test_campaign_run_records_provenance_everywhere(
        self, workload_dir, tmp_path
    ):
        spec = spec_from_dict(self._spec_dict(f"file:{workload_dir}"))
        outcome = run_campaign(spec, workdir=tmp_path / "cells")
        assert all(r.ok for r in outcome.results)
        json_path = tmp_path / "campaign.json"
        write_json(outcome, json_path)
        payload = json.loads(json_path.read_text())
        cell = payload["results"][0]
        assert cell["workload_provenance"]["table"]["sha256"]
        markdown = render_markdown(outcome)
        assert "Workload provenance" in markdown
        assert cell["workload_provenance"]["table"]["sha256"][:12] in markdown
