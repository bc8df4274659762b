"""The repo's benchmark: five wire-level workloads and a traced ladder.

``python bench/run.py --seed N`` runs every workload end to end against
a real ``python -m repro serve`` subprocess over loopback TCP, then the
traced in-process ladder, and prints every metric by name with its unit
and sample count.  ``--workload NAME --trace 0|1`` runs one workload the
way the benchmark driver does and ends with one JSON line: the
end-to-end metrics with tracing off, or the per-layer metrics of the
traced run.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from dataclasses import asdict
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
if not (REPO_ROOT / "src" / "repro").is_dir():
    sys.exit(f"error: {REPO_ROOT / 'src' / 'repro'} is missing: nothing to benchmark")
sys.path.insert(0, str(REPO_ROOT / "src"))

import child  # noqa: E402
import inputs  # noqa: E402
import ladder  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
UNITS = {
    metric["name"]: metric["unit"]
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]
}
END_TO_END = [metric["name"] for metric in SPEC["end_to_end"]]
PER_LAYER = [metric["name"] for metric in SPEC["per_layer"]]
#: The traced run's own end-to-end pass only feeds the CPU-share
#: metrics, so it gets a shorter window than the untraced run.
TRACED_E2E_SECONDS = 4.0


def environment() -> dict:
    commit = "unknown"
    head = REPO_ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = REPO_ROOT / ".git" / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        commit = ref
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "commit": commit,
        "link": "loopback TCP (127.0.0.1); no real network was crossed",
    }


def print_metrics(title: str, names, values: dict, samples: dict, notes=()) -> None:
    print(f"\n{title}")
    for name in names:
        count = samples.get(name)
        suffix = f"  (n={count})" if count is not None else ""
        print(f"  {name:<34} {values[name]:>16.4f} {UNITS[name]}{suffix}")
    for note in notes:
        print(f"  note: {note}")


def seeds_of(args) -> tuple:
    if args.seed is None:
        return inputs.DEFAULT_TRAFFIC_SEED, inputs.DEFAULT_UPDATE_SEED
    return args.seed, args.seed


def run_end_to_end(workload, rib, args, seconds, repeats=workloads.REPEATS):
    traffic_seed, update_seed = seeds_of(args)
    outcome = workloads.run_workload(
        workload, rib, traffic_seed, update_seed, seconds, repeats
    )
    print_metrics(
        f"{workload.name} ({workload.item}; loopback only) — end to end, tracing off",
        END_TO_END, outcome.end_to_end, outcome.samples, outcome.notes,
    )
    share = outcome.failed / outcome.attempted
    print(f"  {'failed_share':<34} {share:>16.6f} ratio  "
          f"({outcome.failed} of {outcome.attempted} operations)")
    return outcome


def driver_line(correct, attempted, failed, names, values) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": values[name], "unit": UNITS[name]} for name in names
            },
        }
    )


def main(argv=None) -> int:
    try:
        return run(argv)
    except (workloads.InvalidRun, child.ChildError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BY_NAME))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ladder-scale", type=float, default=1.0,
                        help="scale the traced ladder's fixed counts (smoke test)")
    parser.add_argument("--spans", help="write the traced run's spans to this JSON file")
    parser.add_argument("--json", help="append the full result to the list in this JSON file")
    args = parser.parse_args(argv)

    child.install_term_handler()
    child.refuse_if_server_alive()
    rib = inputs.build_rib()
    env = environment()
    print(f"nproc {env['nproc']}, python {env['python']}, commit {env['commit']}")
    print(env["link"])

    if args.workload is not None:
        workload = workloads.BY_NAME[args.workload]
        if args.trace == 0:
            outcome = run_end_to_end(workload, rib, args, args.seconds)
            print(driver_line(outcome.correct, outcome.attempted, outcome.failed,
                              END_TO_END, outcome.end_to_end))
            return 0 if outcome.correct else 1
        outcome = run_end_to_end(
            workload, rib, args, min(args.seconds, TRACED_E2E_SECONDS), repeats=1
        )
        traced = ladder.run(rib, seeds_of(args), args.ladder_scale, args.spans)
        values = {**traced.metrics, **outcome.observed}
        print_metrics(
            "per-layer, traced run", PER_LAYER, values, traced.samples, traced.notes
        )
        print(driver_line(outcome.correct and traced.correct,
                          outcome.attempted + traced.attempted,
                          outcome.failed + traced.failed, PER_LAYER, values))
        return 0 if outcome.correct and traced.correct else 1

    # One command, everything: five workloads untraced, then the ladder.
    result = {"environment": env, "seeds": list(seeds_of(args)),
              "seconds": args.seconds, "workloads": {}}
    all_correct = True
    for workload in workloads.WORKLOADS:
        outcome = run_end_to_end(workload, rib, args, args.seconds)
        print_metrics(f"{workload.name} — observed from outside the server",
                      sorted(outcome.observed), outcome.observed, {})
        all_correct &= outcome.correct
        result["workloads"][workload.name] = asdict(outcome)
    traced = ladder.run(rib, seeds_of(args), args.ladder_scale, args.spans)
    print_metrics("per-layer ladder, traced run",
                  [name for name in PER_LAYER if name in traced.metrics],
                  traced.metrics, traced.samples, traced.notes)
    all_correct &= traced.correct
    result["ladder"] = asdict(traced)
    if args.json:
        # Appended, so one file can hold a set of runs for compare.py.
        path = Path(args.json)
        runs = json.loads(path.read_text()) if path.exists() else []
        path.write_text(json.dumps(runs + [result], indent=1, sort_keys=True) + "\n")
    print("\nall answers correct" if all_correct else "\nWRONG ANSWERS — see notes above")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
