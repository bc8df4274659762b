"""CLI contract of ``repro campaign``: exit codes and error wording.

The convention the campaign-smoke CI job scripts against:

* ``0`` — every executed cell passed its oracles;
* ``1`` — at least one cell failed (operational failure, worth a look);
* ``2`` — the invocation itself is wrong (bad spec, unknown subset),
  reported as one ``error:`` line on stderr, never a traceback.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"

PASSING_SPEC = {
    "campaign": {"name": "cli-pass", "seed": 3},
    "budget": {
        "packets": 300,
        "updates": 36,
        "batch_size": 12,
        "sample_addresses": 64,
        "rib_size": 150,
    },
    "matrix": {"workloads": ["fig15"], "topologies": ["inproc"]},
}


def _spec(tmp_path, data, name="spec.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def test_all_pass_exits_zero(tmp_path, capsys):
    code = main(["campaign", "--spec", _spec(tmp_path, PASSING_SPEC)])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1 cells ok" in out
    assert "**PASS**" in out


def test_failed_invariant_exits_one_and_names_the_oracle(tmp_path, capsys):
    data = dict(PASSING_SPEC)
    data["matrix"] = {
        "workloads": ["fig15"],
        "faults": ["corrupt-silent"],
        "topologies": ["inproc"],
    }
    code = main(["campaign", "--spec", _spec(tmp_path, data)])
    out = capsys.readouterr().out
    assert code == 1
    assert "chip-audit" in out
    assert "repro-clue campaign --spec" in out  # repro command line


def test_missing_spec_exits_two(tmp_path, capsys):
    code = main(["campaign", "--spec", str(tmp_path / "absent.toml")])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: cannot read spec")


def test_unknown_axis_value_exits_two_with_known_list(tmp_path, capsys):
    data = {"matrix": {"workloads": ["warp-speed"]}}
    code = main(["campaign", "--spec", _spec(tmp_path, data)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err
    assert "'warp-speed'" in err
    assert "known: fig15" in err


def test_unknown_subset_exits_two(tmp_path, capsys):
    code = main(
        [
            "campaign",
            "--spec", _spec(tmp_path, PASSING_SPEC),
            "--subset", "nope",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown subset 'nope'" in err


def test_unmatched_cell_pattern_exits_two(tmp_path, capsys):
    code = main(
        [
            "campaign",
            "--spec", _spec(tmp_path, PASSING_SPEC),
            "--cells", "zz/*",
        ]
    )
    err = capsys.readouterr().err
    assert code == 2
    assert "match nothing" in err


def test_malformed_toml_exits_two_with_line_number(tmp_path, capsys):
    path = tmp_path / "bad.toml"
    path.write_text("[campaign\nseed = 1\n", encoding="utf-8")
    code = main(["campaign", "--spec", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "error:" in err


def test_list_mode_prints_cells_and_runs_nothing(tmp_path, capsys):
    data = dict(PASSING_SPEC)
    data["matrix"] = {
        "workloads": ["fig15"],
        "faults": ["none", "kill-primary"],
        "topologies": ["inproc"],
    }
    code = main(["campaign", "--spec", _spec(tmp_path, data), "--list"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fig15/none/fast/inproc" in out
    assert "# excluded fig15/kill-primary/fast/inproc" in out
    assert "# 1 cells, 1 excluded" in out


def test_output_artifacts_are_written(tmp_path, capsys):
    json_out = tmp_path / "campaign.json"
    md_out = tmp_path / "campaign.md"
    code = main(
        [
            "campaign",
            "--spec", _spec(tmp_path, PASSING_SPEC),
            "-o", str(json_out),
            "--markdown", str(md_out),
        ]
    )
    capsys.readouterr()
    assert code == 0
    data = json.loads(json_out.read_text())
    assert data["ok"] is True
    assert data["cells"] == 1
    assert "# Campaign `cli-pass`" in md_out.read_text()


def test_committed_smoke_spec_expands_enough_cells(capsys):
    code = main(
        ["campaign", "--spec", str(EXAMPLES / "campaign_smoke.toml"), "--list"]
    )
    out = capsys.readouterr().out
    assert code == 0
    cells = [line for line in out.splitlines() if not line.startswith("#")]
    assert len(cells) >= 70, "acceptance: smoke spec must expand ≥70 cells"
    assert any(cell.endswith("/serve-2proc") for cell in cells)
    excluded = [line for line in out.splitlines() if "# excluded" in line]
    assert excluded, "the matrix should demonstrate structural exclusion"


def test_committed_smoke_subset_is_at_most_eleven_cells(capsys):
    code = main(
        [
            "campaign",
            "--spec", str(EXAMPLES / "campaign_smoke.toml"),
            "--subset", "smoke",
            "--list",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    cells = [line for line in out.splitlines() if not line.startswith("#")]
    assert 0 < len(cells) <= 11
    assert "fig15/storm/fast/inproc" in cells, "smoke must keep the M1 killer"
    topologies = {cell.rsplit("/", 1)[1] for cell in cells}
    assert "ha" in topologies, "smoke must exercise the subprocess cell"
    assert "serve-2" in topologies
    assert "serve-2proc" in topologies, "smoke must cover the process plane"
    assert "reshard" in topologies, "smoke must cover the migration drill"


def test_committed_broken_spec_fails_on_chip_audit(capsys):
    code = main(
        ["campaign", "--spec", str(EXAMPLES / "campaign_broken.toml")]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "chip-audit" in out
