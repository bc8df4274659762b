"""Campaign reporting: machine-readable JSON plus a Markdown summary.

``campaign.json`` is the artifact CI archives and scripts consume; the
Markdown table is for humans skimming a run.  Both carry, per cell, the
exact repro command line — a failed cell in CI should be one paste away
from running locally.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List

from repro.campaign.oracles import FAIL, SKIP
from repro.campaign.runner import CampaignResult, CellResult


def write_json(result: CampaignResult, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(result.as_dict(), indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )


def _cell_row(result: CellResult) -> str:
    if result.error:
        status = "ERROR"
        detail = result.error
    elif result.ok:
        status = "ok"
        skips = [v.name for v in result.verdicts if v.status == SKIP]
        detail = f"skipped: {', '.join(skips)}" if skips else "all oracles pass"
    else:
        status = "FAIL"
        parts = [
            f"{v.name}: {v.detail}" for v in result.verdicts if v.status == FAIL
        ]
        detail = "; ".join(parts)
    detail = detail.replace("|", "\\|")
    return (
        f"| `{result.cell_id}` | {status} | {result.duration_s:.1f}s "
        f"| {detail} |"
    )


def render_markdown(result: CampaignResult) -> str:
    """The human-facing summary (also what ``--markdown`` writes)."""
    lines: List[str] = []
    lines.append(f"# Campaign `{result.name}`")
    lines.append("")
    verdict = "**PASS**" if result.ok else "**FAIL**"
    lines.append(
        f"{verdict} — {len(result.results)} cells run, "
        f"{len(result.failed)} failed, {len(result.excluded)} structurally "
        f"excluded, {result.duration_s:.1f}s total."
    )
    lines.append("")
    lines.append("| cell (workload/fault/backend/topology) | status | time | detail |")
    lines.append("|---|---|---|---|")
    for cell in result.results:
        lines.append(_cell_row(cell))
    if result.failed:
        lines.append("")
        lines.append("## Reproducing failures")
        lines.append("")
        for cell in result.failed:
            culprit = ", ".join(cell.failed_oracles) or "error"
            lines.append(f"- `{cell.cell_id}` ({culprit}):")
            lines.append(f"  `{cell.repro}`")
    loaded = [cell for cell in result.results if cell.shard_loads]
    if loaded:
        lines.append("")
        lines.append("## Per-range shard load")
        lines.append("")
        lines.append(
            "The per-range hit counters that drive split/merge decisions "
            "(DESIGN.md §14), and the DRed entries each live shard judged "
            "against its own table, as each cell's server last reported "
            "them."
        )
        lines.append("")
        lines.append(
            "| cell | shard | range | lookup hits | update hits "
            "| live DRed entries |"
        )
        lines.append("|---|---|---|---|---|---|")
        for cell in loaded:
            for row in cell.shard_loads:
                span = row.get("range")
                span_text = (
                    f"[{span[0]:#010x}, {span[1]:#010x})"
                    if isinstance(span, (list, tuple)) and len(span) == 2
                    else "-"
                )
                lines.append(
                    f"| `{cell.cell_id}` | {row.get('shard', '?')} "
                    f"| `{span_text}` | {row.get('lookup_hits', 0)} "
                    f"| {row.get('update_hits', 0)} "
                    f"| {row.get('dred_entries', '-')} |"
                )
    sourced = [cell for cell in result.results if cell.workload_provenance]
    if sourced:
        lines.append("")
        lines.append("## Workload provenance")
        lines.append("")
        lines.append(
            "File-sourced workloads, pinned by content digest: a report "
            "is only as reproducible as the bytes the cell actually ran."
        )
        lines.append("")
        lines.append("| cell | trace | source | bytes | sha256 |")
        lines.append("|---|---|---|---|---|")
        for cell in sourced:
            for kind, entry in sorted(cell.workload_provenance.items()):
                lines.append(
                    f"| `{cell.cell_id}` | {kind} | `{entry.get('path')}` "
                    f"| {entry.get('bytes', '?')} "
                    f"| `{entry.get('sha256', '?')}` |"
                )
    if result.excluded:
        lines.append("")
        lines.append("## Structurally excluded cells")
        lines.append("")
        for cell_id, reason in result.excluded:
            lines.append(f"- `{cell_id}` — {reason}")
    lines.append("")
    return "\n".join(lines)


def write_markdown(result: CampaignResult, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_markdown(result), encoding="utf-8")
