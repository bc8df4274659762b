"""Declarative scenario campaigns: workload × fault × backend × topology.

A campaign spec (TOML or JSON) names points on four axes; the runner
expands the cross-product, drops structurally impossible cells with
recorded reasons, executes each cell through the real simulate / serve
entry points (real killed subprocesses for the ``ha``/``reshard``
drills), and judges every cell against the shared invariant-oracle
layer.  See DESIGN.md §13 and EXPERIMENTS.md.
"""

from repro.campaign.oracles import (
    FAIL,
    ORACLE_NAMES,
    PASS,
    SKIP,
    CellEvidence,
    OracleVerdict,
    judge,
)
from repro.campaign.report import render_markdown, write_json, write_markdown
from repro.campaign.runner import (
    CampaignResult,
    CellResult,
    execute_cell,
    run_campaign,
)
from repro.campaign.spec import (
    DURABLE_TOPOLOGIES,
    TOPOLOGIES,
    CampaignSpec,
    Cell,
    CellBudget,
    SpecError,
    load_spec,
    spec_from_dict,
)

__all__ = [
    "CampaignResult",
    "CampaignSpec",
    "Cell",
    "CellBudget",
    "CellEvidence",
    "CellResult",
    "DURABLE_TOPOLOGIES",
    "FAIL",
    "ORACLE_NAMES",
    "OracleVerdict",
    "PASS",
    "SKIP",
    "SpecError",
    "TOPOLOGIES",
    "execute_cell",
    "judge",
    "load_spec",
    "render_markdown",
    "run_campaign",
    "spec_from_dict",
    "write_json",
    "write_markdown",
]
