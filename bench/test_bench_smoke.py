"""Smoke test of the benchmark itself (``pytest bench/``; not tier-1).

One full ``bench/run.py`` pass with 1-second windows and the traced
ladder at 1/20 of its counts: every name BENCHMARK.json declares must be
printed exactly once per section with its unit, nothing undeclared may
be printed, and every answer must have been verified correct.
"""

import json
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
#: ``  name   value unit`` lines of the report.
METRIC_LINE = re.compile(r"^  (\S+)\s+(-?\d+\.\d+) (\S+)")


def test_every_declared_metric_is_printed_once(tmp_path):
    result_file = tmp_path / "result.json"
    run = subprocess.run(
        [
            sys.executable, str(BENCH_DIR / "run.py"), "--seed", "5",
            "--seconds", "1", "--ladder-scale", "0.05",
            "--json", str(result_file), "--spans", str(tmp_path / "spans.json"),
        ],
        capture_output=True, text=True, timeout=600,
    )
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]

    workloads = [row["name"] for row in SPEC["workloads"]]
    end_to_end = {row["name"]: row["unit"] for row in SPEC["end_to_end"]}
    per_layer = {row["name"]: row["unit"] for row in SPEC["per_layer"]}
    printed = Counter()
    for line in run.stdout.splitlines():
        match = METRIC_LINE.match(line)
        if match:
            name, _value, unit = match.groups()
            printed[name] += 1
            declared = {**end_to_end, **per_layer, "failed_share": "ratio"}
            assert name in declared, f"undeclared metric printed: {name}"
            assert unit == declared[name], f"{name} printed in {unit}"

    (result,) = json.loads(result_file.read_text())
    observed = set(result["workloads"][workloads[0]]["observed"])
    for name in end_to_end:
        assert printed[name] == len(workloads), f"{name} printed {printed[name]} times"
    for name in per_layer:
        # Observed from outside a server: once per workload; ladder: once.
        expected = len(workloads) if name in observed else 1
        assert printed[name] == expected, f"{name} printed {printed[name]} times"

    assert set(result["workloads"]) == set(workloads)
    for row in result["workloads"].values():
        assert row["correct"] and row["failed"] == 0
        assert set(row["end_to_end"]) == set(end_to_end)
    assert result["ladder"]["attempted"] and result["ladder"]["failed"] == 0
    assert set(result["ladder"]["metrics"]) | observed == set(per_layer)
    assert json.loads((tmp_path / "spans.json").read_text())
