"""Compare two sets of benchmark runs row by row against BENCHMARK.json.

``python bench/compare.py A.json B.json`` — each file is what
``bench/run.py --json`` wrote: one run, or a list of runs (``--json``
appends).  A is the parent, B the change; for the repeatability check
both are the same commit.

Every workload x end-to-end metric gets its own row and verdict:

* ``ok``         B's median is no worse than A's by more than the bound;
* ``regressed``  it is worse by more than the bound;
* ``unresolved`` the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so the runs
  cannot tell — unless every run of B beats every run of A.

``failed_share`` must not rise.  The exact-count layer metrics and
``engine.stats_fingerprint`` are simulated, not timed: they must be
identical in every run of both sets (same ``--seed``).  Exit code 1 when
any row regressed or any exact metric differs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Layer metrics that are counts of simulated work, not wall-clock time.
EXACT = (
    "fastlpm.slots",
    "engine.cycles_per_pkt.zipf",
    "engine.cycles_per_pkt.uniform",
    "engine.dred_hit_share.zipf",
    "engine.dred_hit_share.uniform",
    "engine.dred_inserts_per_pkt.zipf",
    "engine.dred_inserts_per_pkt.uniform",
    "engine.diverted_share.zipf",
    "engine.stats_fingerprint",
    "tcam.moves_per_update",
    "tcam.writes_per_update",
    "update.ttf23_us_mean",
    "onrtc.compression_ratio",
    "journal.bytes_per_update",
    "journal.fsyncs_per_update",
)


def load_runs(path: str) -> List[Dict]:
    data = json.loads(Path(path).read_text())
    return data if isinstance(data, list) else [data]


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(statistics.median(values))


def verdict(metric: Dict, a: Sequence[float], b: Sequence[float]) -> str:
    bound = metric["bound"]
    higher = metric["better"] == "higher"
    median_a, median_b = statistics.median(a), statistics.median(b)
    worse_by = (median_a - median_b if higher else median_b - median_a) / abs(median_a)
    if max(spread(a), spread(b)) > bound:
        every_run_better = min(b) > max(a) if higher else max(b) < min(a)
        return "ok" if every_run_better else "unresolved"
    return "regressed" if worse_by > bound else "ok"


def main(argv: Sequence[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    runs_a, runs_b = load_runs(argv[0]), load_runs(argv[1])
    print(f"A: {len(runs_a)} run(s) of {argv[0]}; B: {len(runs_b)} run(s) of {argv[1]}")
    counts = {"ok": 0, "regressed": 0, "unresolved": 0}
    header = (
        f"{'workload':<16}{'metric':<22}{'median A':>14}{'median B':>14}"
        f"{'change':>9}{'spread':>9}{'bound':>7}  verdict"
    )
    print(header)
    for workload in (row["name"] for row in SPEC["workloads"]):
        sides = [
            [run["workloads"][workload] for run in runs if workload in run["workloads"]]
            for runs in (runs_a, runs_b)
        ]
        if not all(sides):
            continue
        for metric in SPEC["end_to_end"]:
            a, b = (
                [row["end_to_end"][metric["name"]] for row in side] for side in sides
            )
            result = verdict(metric, a, b)
            counts[result] += 1
            median_a, median_b = statistics.median(a), statistics.median(b)
            print(
                f"{workload:<16}{metric['name']:<22}{median_a:>14.4f}{median_b:>14.4f}"
                f"{(median_b - median_a) / abs(median_a):>+9.1%}"
                f"{max(spread(a), spread(b)):>9.1%}{metric['bound']:>7.0%}  {result}"
            )
        share_a, share_b = (
            sum(row["failed"] for row in side) / sum(row["attempted"] for row in side)
            for side in sides
        )
        result = "regressed" if share_b > share_a else "ok"
        counts[result] += 1
        print(
            f"{workload:<16}{'failed_share':<22}{share_a:>14.6f}{share_b:>14.6f}"
            f"{'':>9}{'':>9}{'rise':>7}  {result}"
        )

    differing = []
    ladders = [run["ladder"]["metrics"] for run in runs_a + runs_b if "ladder" in run]
    for name in EXACT:
        values = {ladder[name] for ladder in ladders if name in ladder}
        if len(values) > 1:
            differing.append(name)
            print(f"exact metric {name} differs between runs: {sorted(values)}")
    if ladders and not differing:
        print(f"{len(EXACT)} exact-count metrics identical across {len(ladders)} traced run(s)")

    print(
        f"{counts['ok']} ok, {counts['regressed']} regressed, "
        f"{counts['unresolved']} unresolved, {len(differing)} exact metric(s) differ"
    )
    return 1 if counts["regressed"] or differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
