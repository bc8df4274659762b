"""Command-line interface: drive the CLUE system on plain-text traces.

Installed as ``repro-clue``; every subcommand reads/writes the trace
formats of :mod:`repro.workload.traces`, so complete experiments can be
scripted without writing Python:

.. code-block:: bash

    repro-clue gen-rib --size 8000 --seed 1 -o table.txt
    repro-clue compress --table table.txt --verify
    repro-clue gen-traffic --table table.txt --count 30000 -o packets.txt
    repro-clue simulate --table table.txt --packets packets.txt --scheme clue
    repro-clue gen-updates --table table.txt --count 2000 -o updates.txt
    repro-clue replay-updates --table table.txt --updates updates.txt
    repro-clue gen-faults --chips 4 --horizon 20000 -o faults.txt
    repro-clue simulate --table table.txt --faults faults.txt
    repro-clue inject-faults --table table.txt --faults faults.txt
    repro-clue simulate --table table.txt --journal state/ \\
        --checkpoint-every 100 --crash-at 350
    repro-clue verify-snapshot --dir state/
    repro-clue restore --dir state/
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import List, Optional, Sequence

from repro.analysis.summarize import format_percent, format_table
from repro.compress.labels import CompressionMode
from repro.compress.onrtc import compress
from repro.compress.verify import find_mismatch, is_disjoint_table
from repro.engine.builders import (
    build_clpl_engine,
    build_clue_engine,
    build_round_robin_engine,
    build_slpl_engine,
)
from repro.core import ClueSystem, SystemConfig
from repro.engine.fastlpm import LOOKUP_BACKENDS
from repro.engine.simulator import EngineConfig
from repro.faults import FaultInjector, FaultSchedule
from repro.partition.even import even_partition
from repro.persist import PersistenceManager, load_snapshot
from repro.persist.snapshot import SnapshotStore
from repro.partition.idbit import idbit_partition
from repro.partition.subtree import subtree_partition
from repro.trie.trie import BinaryTrie
from repro.update.pipeline import (
    ClplUpdatePipeline,
    ClueUpdatePipeline,
    default_dred_banks,
)
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.traces import (
    TraceFormatError,
    load_faults,
    load_packets,
    load_table,
    load_updates,
    save_faults,
    save_packets,
    save_table,
    save_updates,
)
from repro.workload.trafficgen import TrafficGenerator, TrafficParameters
from repro.workload.updategen import UpdateGenerator, UpdateParameters

_MODES = {
    "strict": CompressionMode.STRICT,
    "dontcare": CompressionMode.DONT_CARE,
}


def _package_version() -> str:
    """Installed distribution version; source-tree fallback for dev runs."""
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        import repro

        return repro.__version__


def _cmd_gen_rib(args: argparse.Namespace) -> int:
    routes = generate_rib(args.seed, RibParameters(size=args.size))
    save_table(routes, args.output)
    print(f"wrote {len(routes)} routes to {args.output}")
    return 0


def _cmd_gen_traffic(args: argparse.Namespace) -> int:
    routes = load_table(args.table)
    generator = TrafficGenerator(
        routes,
        seed=args.seed,
        parameters=TrafficParameters(zipf_exponent=args.zipf),
    )
    save_packets(generator.take(args.count), args.output)
    print(f"wrote {args.count} packets to {args.output}")
    return 0


def _cmd_gen_updates(args: argparse.Namespace) -> int:
    routes = load_table(args.table)
    if args.structural:
        parameters = UpdateParameters(
            modify_fraction=0.0,
            new_prefix_fraction=0.5,
            withdraw_fraction=0.5,
        )
    else:
        parameters = UpdateParameters()
    generator = UpdateGenerator(routes, seed=args.seed, parameters=parameters)
    save_updates(generator.take(args.count), args.output)
    print(f"wrote {args.count} updates to {args.output}")
    return 0


def _cmd_compress(args: argparse.Namespace) -> int:
    routes = load_table(args.table)
    trie = BinaryTrie.from_routes(routes)
    mode = _MODES[args.mode]
    table = compress(trie, mode)
    print(
        f"{len(routes)} -> {len(table)} entries "
        f"({format_percent(len(table) / max(1, len(routes)))})"
    )
    if args.verify:
        assert is_disjoint_table(table)
        mismatch = find_mismatch(
            trie, table, covered_only=(mode is CompressionMode.DONT_CARE)
        )
        if mismatch is not None:
            print(f"VERIFICATION FAILED at {mismatch}")
            return 1
        print("verified: disjoint and forwarding-equivalent")
    if args.output:
        save_table(
            sorted(table.items(), key=lambda r: r[0].sort_key()), args.output
        )
        print(f"wrote compressed table to {args.output}")
    return 0


def _cmd_partition(args: argparse.Namespace) -> int:
    routes = load_table(args.table)
    if args.algorithm == "even":
        trie = BinaryTrie.from_routes(routes)
        compressed = sorted(
            compress(trie, CompressionMode.DONT_CARE).items(),
            key=lambda route: route[0].sort_key(),
        )
        result = even_partition(compressed, args.count)
    elif args.algorithm == "subtree":
        result = subtree_partition(BinaryTrie.from_routes(routes), args.count)
    else:
        result = idbit_partition(routes, args.count)
    print(
        format_table(
            ["metric", "value"],
            [
                ("algorithm", result.algorithm),
                ("partitions", result.count),
                ("max size", result.max_size),
                ("min size", result.min_size),
                ("max/mean", f"{result.imbalance:.3f}"),
                ("redundant entries", result.redundancy),
            ],
        )
    )
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    if not args.profile:
        return _run_simulate(args)
    # Perf work starts from data: wrap the identical run in cProfile and
    # leave both a machine-readable .pstats file and a human top-20 behind.
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        status = _run_simulate(args)
    finally:
        profiler.disable()
        profiler.dump_stats(args.profile)
        pstats.Stats(profiler).sort_stats("cumulative").print_stats(20)
        print(f"profile written to {args.profile}")
    return status


def _run_simulate(args: argparse.Namespace) -> int:
    if args.journal:
        return _run_durable_simulation(args)
    if args.crash_at is not None or args.checkpoint_every:
        raise ValueError(
            "--crash-at/--checkpoint-every need --journal (the crash "
            "drill journals state so a later restore can recover it)"
        )
    routes = load_table(args.table)
    config = EngineConfig(
        chip_count=args.chips,
        dred_capacity=args.dred,
        queue_capacity=args.queue,
        lookup_backend=args.backend,
    )
    if args.packets:
        addresses: List[int] = load_packets(args.packets)
        count = len(addresses)
        source = iter(addresses)
    else:
        count = args.count
        source = TrafficGenerator(routes, seed=args.seed)
    if args.scheme == "clue":
        built = build_clue_engine(routes, config)
    elif args.scheme == "clpl":
        built = build_clpl_engine(routes, config)
    elif args.scheme == "slpl":
        training = TrafficGenerator(routes, seed=args.seed + 1).take(
            max(1_000, count // 2)
        )
        built = build_slpl_engine(routes, training, config)
    else:
        built = build_round_robin_engine(routes, config)
    if args.faults:
        schedule = load_faults(args.faults).validate(args.chips)
        built.engine.fault_injector = FaultInjector(built.engine, schedule)
    stats = built.engine.run(source, count)
    rows = [
        ("scheme", args.scheme),
        ("packets", stats.completions),
        ("cycles", stats.cycles),
        ("speedup", f"{stats.speedup(config.lookup_cycles):.3f}"),
        (
            "DRed hit rate",
            f"{stats.dred_hit_rate:.3f}" if stats.dred_lookups else "n/a",
        ),
        ("diverted", stats.diverted),
        ("control-plane msgs", stats.control_plane_interactions),
        ("TCAM entries", built.total_tcam_entries),
        (
            "per-chip load",
            " ".join(f"{share:.1%}" for share in stats.chip_load_shares()),
        ),
    ]
    if args.faults:
        rows.extend(
            [
                ("chip failures", stats.chip_failures),
                ("downtime chip-cycles", stats.chip_downtime_cycles),
                ("availability", f"{stats.availability():.3%}"),
                ("failed-over packets", stats.failed_over_packets),
                ("control-path resolutions", stats.control_path_resolutions),
                ("corrupted entries", stats.corrupted_entries),
            ]
        )
    print(format_table(["metric", "value"], rows))
    return 0


def _run_durable_simulation(args: argparse.Namespace) -> int:
    """``simulate --journal``: drive the update path with crash consistency.

    Every update is journaled before it touches the pipeline; state is
    checkpointed every ``--checkpoint-every`` operations.  ``--crash-at K``
    kills the control plane (ungracefully, like SIGKILL) after K updates —
    the state directory is then exactly what ``restore`` must recover from.
    """
    if args.scheme != "clue":
        raise ValueError(
            "--journal requires --scheme clue (only the integrated CLUE "
            "system has a crash-consistent control plane)"
        )
    routes = load_table(args.table)
    if args.updates:
        messages = load_updates(args.updates)
    else:
        messages = UpdateGenerator(routes, seed=args.seed).take(
            args.update_count
        )
    system = ClueSystem(
        routes,
        SystemConfig(
            engine=EngineConfig(
                chip_count=args.chips,
                dred_capacity=args.dred,
                queue_capacity=args.queue,
                lookup_backend=args.backend,
            )
        ),
    )
    manager = PersistenceManager(
        system,
        args.journal,
        checkpoint_every=args.checkpoint_every,
        sync_interval=args.sync_every,
    )
    for index, message in enumerate(messages):
        if args.crash_at is not None and index == args.crash_at:
            manager.crash(power_loss=args.power_loss)
            print(
                f"crashed after {index} of {len(messages)} updates "
                f"(journal seq {system.recovery_stats.journal_records}); "
                f"recover with: repro-clue restore --dir {args.journal}"
            )
            return 0
        manager.offer_update(message)
        if index % 4 == 0:
            manager.pump_updates(budget=4)
    manager.drain_updates()
    manager.checkpoint()
    manager.close()
    for line in system.report().summary_lines(
        lookup_cycles=system.config.engine.lookup_cycles
    ):
        print(line)
    return 0


def _cmd_checkpoint(args: argparse.Namespace) -> int:
    """Recover a state directory and write a fresh checkpoint."""
    manager, report = PersistenceManager.restore(args.dir)
    path = manager.checkpoint()
    manager.close()
    print(report.summary())
    print(f"checkpointed to {path}")
    return 0


def _cmd_restore(args: argparse.Namespace) -> int:
    """Rebuild the system from a state directory and prove it healthy."""
    manager, report = PersistenceManager.restore(
        args.dir, audit_sample=args.audit_sample
    )
    print(report.summary())
    if args.fingerprint:
        print(f"fingerprint: {manager.system.state_fingerprint()}")
    for line in manager.system.report().summary_lines():
        print(line)
    manager.close()
    return 0 if report.audit is None or report.audit.ok else 1


def _cmd_verify_snapshot(args: argparse.Namespace) -> int:
    """Check snapshot integrity without touching the journal.

    Verifies the digest, rebuilds the system from the snapshot alone and
    runs the full invariant audit on the result.
    """
    if args.snapshot:
        paths = [args.snapshot]
    else:
        paths = SnapshotStore(f"{args.dir}/snapshots").paths()
        if not paths:
            raise ValueError(f"no snapshots under {args.dir}")
    failures = 0
    for path in paths:
        seq, state = load_snapshot(path)
        system = ClueSystem.from_state(state)
        audit = system.audit_invariants(sample_size=args.audit_sample)
        status = "ok" if audit.ok else f"INVARIANTS BROKEN: {audit.summary()}"
        print(f"{path}: seq {seq}, digest ok, invariants {status}")
        failures += 0 if audit.ok else 1
    return 1 if failures else 0


def _cmd_gen_faults(args: argparse.Namespace) -> int:
    schedule = FaultSchedule.random(
        seed=args.seed,
        horizon=args.horizon,
        chip_count=args.chips,
        chip_failures=args.chip_failures,
        corruptions=args.corruptions,
        stalls=args.stalls,
        storms=args.storms,
    )
    save_faults(schedule, args.output)
    print(f"wrote {len(schedule)} fault events to {args.output}")
    return 0


def _cmd_inject_faults(args: argparse.Namespace) -> int:
    """Drive the integrated system through a fault schedule and report."""
    routes = load_table(args.table)
    schedule = load_faults(args.faults).validate(args.chips)
    system = ClueSystem(
        routes,
        SystemConfig(
            engine=EngineConfig(
                chip_count=args.chips,
                dred_capacity=args.dred,
                queue_capacity=args.queue,
            ),
            update_queue_capacity=args.update_queue,
        ),
    )
    system.attach_faults(schedule)
    if args.packets:
        addresses: List[int] = load_packets(args.packets)
        count = len(addresses)
        source = iter(addresses)
    else:
        count = args.count
        source = TrafficGenerator(routes, seed=args.seed)
    stats = system.process_traffic(source, count)
    system.drain_updates()
    audit = system.verify_chips()
    rebalanced = None
    if args.rebalance:
        rebalanced = system.rebalance()
    rows = [
        ("packets", stats.completions),
        ("cycles", stats.cycles),
        ("speedup", f"{stats.speedup(system.config.engine.lookup_cycles):.3f}"),
        ("chip failures", stats.chip_failures),
        ("chip recoveries", stats.chip_recoveries),
        ("downtime chip-cycles", stats.chip_downtime_cycles),
        ("availability", f"{stats.availability():.3%}"),
        ("failed-over packets", stats.failed_over_packets),
        ("control-path resolutions", stats.control_path_resolutions),
        ("updates shed", stats.shed_updates),
        ("corrupted entries", stats.corrupted_entries),
        ("audit repairs", audit.repairs),
    ]
    if rebalanced is not None:
        rows.append(
            (
                "rebalanced over",
                f"chips {rebalanced.survivor_chips} "
                f"(even={rebalanced.is_even})",
            )
        )
    print(format_table(["metric", "value"], rows))
    return 0


def _cmd_replay_updates(args: argparse.Namespace) -> int:
    routes = load_table(args.table)
    messages = load_updates(args.updates)
    if args.pipeline == "clue":
        pipeline = ClueUpdatePipeline(
            routes,
            dred_banks=default_dred_banks(args.chips, args.dred, True),
            lazy=args.lazy,
        )
    else:
        pipeline = ClplUpdatePipeline(
            routes,
            dred_banks=default_dred_banks(args.chips, args.dred, False),
        )
    report = pipeline.run(messages)
    rows = [
        ("updates", len(report)),
        ("TTF1 mean (us)", f"{report.ttf1().mean_us:.4f}"),
        ("TTF2 mean (us)", f"{report.ttf2().mean_us:.4f}"),
        ("TTF3 mean (us)", f"{report.ttf3().mean_us:.4f}"),
        ("TTF2+3 mean (us)", f"{report.ttf23().mean_us:.4f}"),
        ("TTF total mean (us)", f"{report.total().mean_us:.4f}"),
        ("TCAM moves", pipeline.totals.tcam_moves),
        ("SRAM accesses", pipeline.totals.sram_accesses),
    ]
    print(format_table(["metric", "value"], rows))
    return 0


def _build_shard_set(args: argparse.Namespace):
    """Build or restore the :class:`ShardSet` a serve command targets."""
    from repro.serve import ShardSet

    config = SystemConfig(
        engine=EngineConfig(
            chip_count=args.chips,
            dred_capacity=args.dred,
            queue_capacity=args.queue,
            lookup_backend=args.backend,
        ),
        update_queue_capacity=args.update_queue,
    )
    shard_index = getattr(args, "shard_index", None)
    if getattr(args, "restore", False):
        if not args.journal:
            raise ValueError("--restore needs --journal DIR to recover from")
        if shard_index is not None:
            shards, reports = ShardSet.restore_worker(
                args.journal,
                shard_index,
                config=config,
                checkpoint_every=args.checkpoint_every,
                sync_interval=args.sync_every,
            )
        else:
            shards, reports = ShardSet.restore(
                args.journal,
                config=config,
                checkpoint_every=args.checkpoint_every,
                sync_interval=args.sync_every,
            )
        for report in reports:
            print(report.summary())
        return shards
    if not args.table:
        raise ValueError("serve needs --table (or --journal with --restore)")
    routes = load_table(args.table)
    if shard_index is not None:
        return ShardSet.build_worker(
            routes,
            args.shards,
            shard_index,
            config=config,
            journal_dir=args.journal,
            checkpoint_every=args.checkpoint_every,
            sync_interval=args.sync_every,
        )
    return ShardSet.build(
        routes,
        shard_count=args.shards,
        config=config,
        journal_dir=args.journal,
        checkpoint_every=args.checkpoint_every,
        sync_interval=args.sync_every,
    )


def _cmd_serve_processes(args: argparse.Namespace) -> int:
    """Parent front: one worker process per shard behind one port.

    The parent re-derives the shard boundaries (or reads them back from
    ``serve.json`` under ``--restore``), spawns ``repro serve
    --shard-index i`` workers on ephemeral loopback ports, and serves
    the unchanged client protocol by fanning requests out over the
    worker control channels.  SIGTERM fans the drain out: every worker
    flushes, writes its final checkpoint and exits before the parent
    does.
    """
    from repro.serve import ServeConfig, ShardSet
    from repro.serve.procs import ProcessFront, ProcessSupervisor, WorkerSpec
    from repro.serve.router import plan_shards

    if args.backup or args.replicate_to:
        raise ValueError(
            "--workers processes does not support replication yet; "
            "run --workers threads for --backup/--replicate-to"
        )
    if args.faults:
        # Fail fast in the parent; each worker re-validates on spawn.
        schedule = load_faults(args.faults).validate(args.chips)
        if schedule.has_process_kills:
            raise ValueError(
                "--faults schedules with kill-primary/kill-backup events "
                "belong to the campaign's ha/reshard topologies "
                "('repro-clue campaign')"
            )
        if args.journal and schedule.has_storms:
            raise ValueError(
                "--faults schedules with update storms bypass the "
                "journal; drop --journal or remove the storm events"
            )
    journal = args.journal
    if args.restore:
        if not journal:
            raise ValueError("--restore needs --journal DIR to recover from")
        from repro.serve.reshard import resolve_reshard

        # Resolve any pending reshard once, up front: workers racing the
        # rollback concurrently would corrupt the shared directory.
        directory = resolve_reshard(Path(journal))
        meta = ShardSet.read_meta(directory)
        journal = str(directory)
        shard_count = int(meta["shards"])
        boundaries = list(meta["boundaries"])
        epoch = int(meta["epoch"])
    else:
        if not args.table:
            raise ValueError(
                "serve needs --table (or --journal with --restore)"
            )
        shard_count = args.shards
        plan = plan_shards(
            load_table(args.table),
            shard_count,
            mode=SystemConfig().compression_mode,
        )
        boundaries = plan.router.boundaries
        epoch = plan.router.epoch
    spec = WorkerSpec(
        shard_count=shard_count,
        table=args.table,
        journal=journal,
        restore=args.restore,
        chips=args.chips,
        dred=args.dred,
        queue=args.queue,
        update_queue=args.update_queue,
        backend=args.backend,
        window=max(64, args.window),
        pump_budget=args.pump_budget,
        checkpoint_every=args.checkpoint_every,
        sync_every=args.sync_every,
        drain_grace=args.drain_grace,
        faults=args.faults,
    )
    supervisor = ProcessSupervisor(
        spec, boundaries, epoch=epoch, restart_limit=args.worker_restarts
    )
    server = ProcessFront(
        supervisor,
        ServeConfig(
            host=args.host,
            port=args.port,
            inflight_window=args.window,
            drain_grace=args.drain_grace,
            port_file=args.port_file,
        ),
    )

    async def _run() -> int:
        await server.start()
        detail = (
            f"{shard_count} worker process(es), "
            f"{'durable' if spec.durable else 'in-memory'}"
        )
        print(
            f"serving on {args.host}:{server.port} ({detail}); "
            f"SIGTERM drains",
            flush=True,
        )
        await server.wait_stopped()
        return 0

    return asyncio.run(_run())


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the network serving plane until SIGTERM drains it."""
    from repro.serve import ClueServer, ServeConfig

    if args.workers == "processes" and args.shard_index is None:
        return _cmd_serve_processes(args)

    if args.backup:
        if args.table or args.restore or args.faults or args.replicate_to:
            raise ValueError(
                "--backup runs a pure replica: it takes no --table, "
                "--restore, --faults or --replicate-to"
            )
        shards = None
    else:
        schedule = None
        if args.faults:
            schedule = load_faults(args.faults).validate(args.chips)
            if schedule.has_process_kills:
                raise ValueError(
                    "--faults schedules with kill-primary/kill-backup "
                    "events belong to the campaign's ha/reshard "
                    "topologies ('repro-clue campaign'); strip them with "
                    "FaultSchedule.engine_only() first"
                )
            if args.journal and schedule.has_storms:
                raise ValueError(
                    "--faults schedules with update storms bypass the "
                    "journal; drop --journal or remove the storm events"
                )
        if args.replicate_to and not args.journal:
            raise ValueError(
                "--replicate-to ships the journal, so it needs --journal"
            )
        shards = _build_shard_set(args)
        if schedule is not None:
            for worker in shards.workers:
                worker.system.attach_faults(schedule)
    server = ClueServer(
        shards,
        ServeConfig(
            host=args.host,
            port=args.port,
            inflight_window=args.window,
            drain_grace=args.drain_grace,
            pump_budget=args.pump_budget,
            port_file=args.port_file,
            replicate_to=args.replicate_to,
            ack_mode=args.ack_mode,
            # Chip faults mutate state outside the journal, so the
            # replicas legitimately diverge; keep replicating, stop
            # comparing fingerprints in-protocol.
            ship_fingerprints=not args.faults,
            backup_dir=args.backup,
            auto_promote=not args.no_auto_promote,
            heartbeat_interval=args.heartbeat_interval,
            heartbeat_timeout=args.heartbeat_timeout,
            backup_checkpoint_every=args.checkpoint_every,
            backup_sync_interval=args.sync_every,
        ),
    )

    async def _run() -> int:
        await server.start()
        if shards is None:
            detail = f"backup replica under {args.backup}"
        elif args.shard_index is not None:
            detail = (
                f"worker shard {args.shard_index}/{args.shards}, "
                f"{'durable' if shards.durable else 'in-memory'}"
            )
        else:
            detail = (
                f"{len(shards.workers)} shard(s), "
                f"{'durable' if shards.durable else 'in-memory'}"
            )
            if args.replicate_to:
                detail += f", replicating to {args.replicate_to}"
        print(
            f"serving on {args.host}:{server.port} ({detail}); "
            f"SIGTERM drains",
            flush=True,
        )
        await server.wait_stopped()
        return 0

    return asyncio.run(_run())


def _cmd_failover(args: argparse.Namespace) -> int:
    """Tell a backup replica to promote itself right now."""
    from repro.serve import ServeClient

    with ServeClient(
        args.host,
        args.port,
        timeout=args.timeout,
        connect_attempts=args.connect_attempts,
    ) as client:
        result = client.failover()
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0 if result.get("promoted") or result.get("role") == "primary" else 1


def _cmd_reshard(args: argparse.Namespace) -> int:
    """Start, watch, or inspect a live shard split/merge."""
    import time as _time

    from repro.serve import ServeClient

    request: dict
    if args.status:
        request = {"action": "status"}
    elif args.auto:
        request = {"action": "auto"}
    elif args.split is not None:
        request = {"action": "split", "shard": args.split}
        if args.at is not None:
            request["at"] = args.at
    elif args.merge is not None:
        request = {"action": "merge", "shard": args.merge}
    else:
        raise ValueError(
            "pick one of --split N, --merge N, --auto or --status"
        )
    if not args.status:
        request["stage_delay"] = args.stage_delay
        request["cutover_pause"] = args.cutover_pause
    with ServeClient(
        args.host,
        args.port,
        timeout=args.timeout,
        connect_attempts=args.connect_attempts,
    ) as client:
        result = client.reshard(request)
        if args.status or not result.get("started"):
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
        if not args.wait:
            print(json.dumps(result, indent=2, sort_keys=True))
            return 0
        deadline = _time.monotonic() + args.wait_timeout
        status = client.reshard({"action": "status"})
        while status.get("in_progress") and _time.monotonic() < deadline:
            _time.sleep(0.1)
            status = client.reshard({"action": "status"})
    print(json.dumps(status, indent=2, sort_keys=True))
    stage = (status.get("reshard") or {}).get("stage")
    if status.get("in_progress"):
        print("error: reshard still running at --wait-timeout",
              file=sys.stderr)
        return 1
    return 0 if stage == "done" else 1


def _cmd_campaign(args: argparse.Namespace) -> int:
    """Expand a declarative campaign spec and judge every cell."""
    from pathlib import Path

    from repro.campaign import (
        load_spec,
        render_markdown,
        run_campaign,
        write_json,
        write_markdown,
    )

    spec = load_spec(args.spec)
    if args.list:
        cells, excluded = spec.expand(
            subset=args.subset, cells=args.cells or None,
            max_cells=args.max_cells,
        )
        for cell in cells:
            print(cell.id)
        for cell_id, reason in excluded:
            print(f"# excluded {cell_id}: {reason}")
        print(f"# {len(cells)} cells, {len(excluded)} excluded")
        return 0
    result = run_campaign(
        spec,
        spec_path=args.spec,
        subset=args.subset,
        cells=args.cells or None,
        max_cells=args.max_cells,
        workdir=Path(args.workdir) if args.workdir else None,
    )
    if args.output:
        write_json(result, Path(args.output))
        print(f"wrote {args.output}")
    if args.markdown:
        write_markdown(result, Path(args.markdown))
        print(f"wrote {args.markdown}")
    else:
        print(render_markdown(result))
    failed = result.failed
    print(
        f"campaign {result.name}: {len(result.results) - len(failed)}/"
        f"{len(result.results)} cells ok, {len(result.excluded)} excluded"
    )
    return 1 if failed else 0


def _ingest_policy(args: argparse.Namespace) -> "NormalizePolicy":
    from repro.ingest import NormalizePolicy

    return NormalizePolicy(
        port_count=getattr(args, "ports", 24),
        drop_martians=not args.keep_martians,
        keep_default_route=not args.drop_default,
        time_scale=getattr(args, "time_scale", 1.0),
    )


def _print_lines(lines: Sequence[str]) -> None:
    for line in lines:
        print(line)


def _ensure_parent(path: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)


def _cmd_ingest_rib(args: argparse.Namespace) -> int:
    from repro.ingest import load_rib, rib_to_table
    from repro.workload.ribgen import length_histogram

    dump = load_rib(args.input)
    dump.counters.verify(dump.records)
    _print_lines(dump.counters.summary_lines())
    peer = None if args.peer == "auto" else int(args.peer)
    routes, report = rib_to_table(dump, _ingest_policy(args), peer_index=peer)
    _print_lines(report.summary_lines())
    _ensure_parent(args.output)
    save_table(routes, args.output)
    print(f"wrote {len(routes)} routes to {args.output}")
    if args.stats:
        histogram = length_histogram(routes)
        print(
            format_table(
                ["prefix length", "routes"],
                [(f"/{length}", count) for length, count in histogram.items()],
            )
        )
    return 0


def _cmd_ingest_updates(args: argparse.Namespace) -> int:
    from repro.ingest import load_updates as load_mrt_updates
    from repro.ingest import update_rates, updates_to_trace
    from repro.net.prefix import parse_address

    dump = load_mrt_updates(args.input)
    dump.counters.verify(dump.records)
    _print_lines(dump.counters.summary_lines())
    base_routes = load_table(args.table) if args.table else []
    peer = None if args.peer == "auto" else parse_address(args.peer)
    trace, report = updates_to_trace(
        dump, base_routes, _ingest_policy(args), peer_ip=peer
    )
    _print_lines(report.summary_lines())
    _ensure_parent(args.output)
    save_updates(trace, args.output)
    print(f"wrote {len(trace)} updates to {args.output}")
    if args.stats:
        rates = update_rates(trace)
        print(
            format_table(
                ["metric", "value"],
                [(key, value) for key, value in rates.items()],
            )
        )
    return 0


def _cmd_ingest_pcap(args: argparse.Namespace) -> int:
    from repro.ingest import load_pcap, packets_to_trace

    dump = load_pcap(args.input)
    dump.counters.verify(dump.records)
    _print_lines(dump.counters.summary_lines())
    addresses, report = packets_to_trace(dump, _ingest_policy(args))
    _print_lines(report.summary_lines())
    _ensure_parent(args.output)
    save_packets(addresses, args.output)
    print(f"wrote {len(addresses)} packets to {args.output}")
    if args.stats:
        order = ">" if dump.big_endian else "<"
        resolution = "ns" if dump.nanosecond else "us"
        print(
            format_table(
                ["metric", "value"],
                [
                    ("byte order", order),
                    ("timestamp resolution", resolution),
                    ("unique destinations", len(set(addresses))),
                ],
            )
        )
    return 0


def _cmd_ingest_fixtures(args: argparse.Namespace) -> int:
    from repro.ingest import FixtureSpec, write_fixture_set

    spec = FixtureSpec(
        seed=args.seed,
        routes=args.routes,
        updates=args.updates,
        packets=args.packets,
    )
    paths = write_fixture_set(args.output, spec)
    for kind, path in sorted(paths.items()):
        print(f"{kind}: {path} ({path.stat().st_size} bytes)")
    return 0


def _cmd_ingest_fetch(args: argparse.Namespace) -> int:
    from repro.ingest import fetch as fetch_module

    if args.source == "ris":
        url = fetch_module.ris_url(args.collector, args.when, args.kind)
    else:
        url = fetch_module.routeviews_url(args.when, args.kind)
    if args.url_only:
        print(url)
        return 0
    if not args.output:
        print("error: fetch needs -o/--output (or use --url-only)",
              file=sys.stderr)
        return 2
    path = fetch_module.fetch(url, args.output)
    print(f"fetched {url} -> {path} ({path.stat().st_size} bytes)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-clue",
        description="CLUE (ICDCS 2012) reproduction toolkit",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {_package_version()}",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen_rib = commands.add_parser("gen-rib", help="generate a synthetic RIB")
    gen_rib.add_argument("--size", type=int, default=8_000)
    gen_rib.add_argument("--seed", type=int, default=1)
    gen_rib.add_argument("-o", "--output", required=True)
    gen_rib.set_defaults(handler=_cmd_gen_rib)

    gen_traffic = commands.add_parser(
        "gen-traffic", help="generate a packet trace over a table"
    )
    gen_traffic.add_argument("--table", required=True)
    gen_traffic.add_argument("--count", type=int, default=30_000)
    gen_traffic.add_argument("--seed", type=int, default=1)
    gen_traffic.add_argument("--zipf", type=float, default=1.1)
    gen_traffic.add_argument("-o", "--output", required=True)
    gen_traffic.set_defaults(handler=_cmd_gen_traffic)

    gen_updates = commands.add_parser(
        "gen-updates", help="generate a BGP update trace over a table"
    )
    gen_updates.add_argument("--table", required=True)
    gen_updates.add_argument("--count", type=int, default=2_000)
    gen_updates.add_argument("--seed", type=int, default=1)
    gen_updates.add_argument(
        "--structural",
        action="store_true",
        help="announce-new/withdraw only (the TTF benchmark mix)",
    )
    gen_updates.add_argument("-o", "--output", required=True)
    gen_updates.set_defaults(handler=_cmd_gen_updates)

    compress_cmd = commands.add_parser(
        "compress", help="ONRTC-compress a table"
    )
    compress_cmd.add_argument("--table", required=True)
    compress_cmd.add_argument(
        "--mode", choices=sorted(_MODES), default="dontcare"
    )
    compress_cmd.add_argument("--verify", action="store_true")
    compress_cmd.add_argument("-o", "--output")
    compress_cmd.set_defaults(handler=_cmd_compress)

    partition_cmd = commands.add_parser(
        "partition", help="split a table and report evenness/redundancy"
    )
    partition_cmd.add_argument("--table", required=True)
    partition_cmd.add_argument("--count", type=int, default=32)
    partition_cmd.add_argument(
        "--algorithm", choices=("even", "subtree", "idbit"), default="even"
    )
    partition_cmd.set_defaults(handler=_cmd_partition)

    simulate = commands.add_parser(
        "simulate", help="run the parallel lookup engine"
    )
    simulate.add_argument("--table", required=True)
    simulate.add_argument(
        "--scheme", choices=("clue", "clpl", "slpl", "rr"), default="clue"
    )
    simulate.add_argument("--packets", help="packet trace file")
    simulate.add_argument("--count", type=int, default=20_000)
    simulate.add_argument("--seed", type=int, default=1)
    simulate.add_argument("--chips", type=int, default=4)
    simulate.add_argument("--dred", type=int, default=1_024)
    simulate.add_argument("--queue", type=int, default=256)
    simulate.add_argument(
        "--backend",
        choices=LOOKUP_BACKENDS,
        default="trie",
        help="chip table implementation: reference trie, flattened "
        "stride table, or both cross-checked per lookup",
    )
    simulate.add_argument(
        "--profile",
        metavar="FILE",
        help="profile the run with cProfile: dump stats to FILE and "
        "print the top-20 cumulative entries",
    )
    simulate.add_argument(
        "--faults", help="fault schedule file (see gen-faults)"
    )
    durability = simulate.add_argument_group(
        "durability (crash drill; requires --scheme clue)"
    )
    durability.add_argument(
        "--journal",
        metavar="DIR",
        help="journal every update into DIR before applying it",
    )
    durability.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        help="snapshot state every N journaled operations",
    )
    durability.add_argument(
        "--crash-at",
        type=int,
        help="kill the control plane after N updates (drill for restore)",
    )
    durability.add_argument(
        "--power-loss",
        action="store_true",
        help="crash also destroys the unsynced journal tail",
    )
    durability.add_argument(
        "--updates", help="update trace to apply (default: generated)"
    )
    durability.add_argument(
        "--update-count",
        type=int,
        default=1_000,
        help="updates to generate when --updates is not given",
    )
    durability.add_argument(
        "--sync-every",
        type=int,
        default=64,
        help="fsync the journal every N records",
    )
    simulate.set_defaults(handler=_cmd_simulate)

    checkpoint = commands.add_parser(
        "checkpoint",
        help="recover a journaled state directory and snapshot it",
    )
    checkpoint.add_argument("--dir", required=True)
    checkpoint.set_defaults(handler=_cmd_checkpoint)

    restore = commands.add_parser(
        "restore",
        help="rebuild the system from snapshot + journal and audit it",
    )
    restore.add_argument("--dir", required=True)
    restore.add_argument(
        "--audit-sample",
        type=int,
        default=256,
        help="addresses sampled by the equivalence audit",
    )
    restore.add_argument(
        "--fingerprint",
        action="store_true",
        help="print the recovered state's SHA-256 fingerprint",
    )
    restore.set_defaults(handler=_cmd_restore)

    verify_snapshot = commands.add_parser(
        "verify-snapshot",
        help="verify snapshot digests and re-prove the invariants",
    )
    location = verify_snapshot.add_mutually_exclusive_group(required=True)
    location.add_argument("--snapshot", help="one snapshot file")
    location.add_argument("--dir", help="state directory (all snapshots)")
    verify_snapshot.add_argument("--audit-sample", type=int, default=256)
    verify_snapshot.set_defaults(handler=_cmd_verify_snapshot)

    gen_faults = commands.add_parser(
        "gen-faults", help="generate a random fault schedule"
    )
    gen_faults.add_argument("--seed", type=int, default=1)
    gen_faults.add_argument("--horizon", type=int, default=20_000)
    gen_faults.add_argument("--chips", type=int, default=4)
    gen_faults.add_argument("--chip-failures", type=int, default=1)
    gen_faults.add_argument("--corruptions", type=int, default=2)
    gen_faults.add_argument("--stalls", type=int, default=2)
    gen_faults.add_argument("--storms", type=int, default=1)
    gen_faults.add_argument("-o", "--output", required=True)
    gen_faults.set_defaults(handler=_cmd_gen_faults)

    inject = commands.add_parser(
        "inject-faults",
        help="run the integrated system through a fault schedule",
    )
    inject.add_argument("--table", required=True)
    inject.add_argument("--faults", required=True)
    inject.add_argument("--packets", help="packet trace file")
    inject.add_argument("--count", type=int, default=20_000)
    inject.add_argument("--seed", type=int, default=1)
    inject.add_argument("--chips", type=int, default=4)
    inject.add_argument("--dred", type=int, default=1_024)
    inject.add_argument("--queue", type=int, default=256)
    inject.add_argument(
        "--update-queue",
        type=int,
        default=256,
        help="bounded BGP update queue capacity (storm backpressure)",
    )
    inject.add_argument(
        "--rebalance",
        action="store_true",
        help="re-partition over the surviving chips after the run",
    )
    inject.set_defaults(handler=_cmd_inject_faults)

    replay = commands.add_parser(
        "replay-updates", help="run an update trace through a TTF pipeline"
    )
    replay.add_argument("--table", required=True)
    replay.add_argument("--updates", required=True)
    replay.add_argument(
        "--pipeline", choices=("clue", "clpl"), default="clue"
    )
    replay.add_argument("--lazy", action="store_true")
    replay.add_argument("--chips", type=int, default=4)
    replay.add_argument("--dred", type=int, default=1_024)
    replay.set_defaults(handler=_cmd_replay_updates)

    serve = commands.add_parser(
        "serve",
        help="run the network serving plane (lookup/update RPC over TCP)",
    )
    serve.add_argument("--table", help="routing table (omit with --restore)")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=0, help="0 = ephemeral (see --port-file)"
    )
    serve.add_argument(
        "--port-file", help="write the bound port to this file after binding"
    )
    serve.add_argument(
        "--shards", type=int, default=1, help="address-range shard workers"
    )
    serve.add_argument(
        "--workers",
        choices=("threads", "processes"),
        default="threads",
        help="threads: every shard in this process (GIL-bound); "
        "processes: one worker process per shard behind a parent front",
    )
    serve.add_argument(
        "--worker-restarts",
        type=int,
        default=1,
        help="journal-restore respawns allowed per crashed worker "
        "(--workers processes; 0 disables restart)",
    )
    serve.add_argument(
        "--shard-index",
        type=int,
        help=argparse.SUPPRESS,  # internal: run as worker for one shard
    )
    serve.add_argument("--chips", type=int, default=4)
    serve.add_argument("--dred", type=int, default=1_024)
    serve.add_argument("--queue", type=int, default=256)
    serve.add_argument(
        "--update-queue",
        type=int,
        default=256,
        help="bounded BGP update queue per shard (storm backpressure)",
    )
    serve.add_argument("--backend", choices=LOOKUP_BACKENDS, default="fast")
    serve.add_argument(
        "--window",
        type=int,
        default=8,
        help="per-connection inflight request window (beyond it: BUSY)",
    )
    serve.add_argument(
        "--drain-grace",
        type=float,
        default=5.0,
        help="seconds drain waits for clients to close before force-close",
    )
    serve.add_argument(
        "--pump-budget",
        type=int,
        help="scheduler pump budget per update batch (default: batch size)",
    )
    serve.add_argument(
        "--faults",
        help="fault schedule armed on every shard (storms need no journal)",
    )
    serve_durability = serve.add_argument_group("durability")
    serve_durability.add_argument(
        "--journal",
        metavar="DIR",
        help="journal every update under DIR/shard-<i> before acking",
    )
    serve_durability.add_argument(
        "--restore",
        action="store_true",
        help="recover state from --journal instead of loading --table",
    )
    serve_durability.add_argument("--checkpoint-every", type=int, default=0)
    serve_durability.add_argument("--sync-every", type=int, default=64)
    serve_ha = serve.add_argument_group("high availability")
    serve_ha.add_argument(
        "--replicate-to",
        metavar="HOST:PORT",
        help="ship committed journal records to a backup replica "
        "(requires --journal)",
    )
    serve_ha.add_argument(
        "--ack-mode",
        choices=("primary", "quorum"),
        default="primary",
        help="primary: ack after local fsync, ship async; quorum: ack "
        "only after the backup has applied and synced the batch",
    )
    serve_ha.add_argument(
        "--backup",
        metavar="DIR",
        help="run as a backup replica storing epochs under DIR "
        "(instead of serving a table)",
    )
    serve_ha.add_argument(
        "--no-auto-promote",
        action="store_true",
        help="backup only promotes on an explicit 'failover' command",
    )
    serve_ha.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        help="seconds between primary->backup heartbeats",
    )
    serve_ha.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=5.0,
        help="backup promotes after this long without hearing the primary",
    )
    serve.set_defaults(handler=_cmd_serve)

    failover = commands.add_parser(
        "failover",
        help="tell a backup replica to promote itself to primary",
    )
    failover.add_argument("--host", default="127.0.0.1")
    failover.add_argument("--port", type=int, required=True)
    failover.add_argument("--timeout", type=float, default=30.0)
    failover.add_argument(
        "--connect-attempts",
        type=int,
        default=3,
        help="dial retries (jittered exponential backoff) before failing",
    )
    failover.set_defaults(handler=_cmd_failover)

    reshard = commands.add_parser(
        "reshard",
        help="split or merge a live server's shards without stopping it",
    )
    reshard.add_argument("--host", default="127.0.0.1")
    reshard.add_argument("--port", type=int, required=True)
    reshard_action = reshard.add_mutually_exclusive_group(required=True)
    reshard_action.add_argument(
        "--split", type=int, metavar="SHARD",
        help="split this shard's range in two",
    )
    reshard_action.add_argument(
        "--merge", type=int, metavar="SHARD",
        help="merge this shard with its right neighbour",
    )
    reshard_action.add_argument(
        "--auto", action="store_true",
        help="let the per-range load counters pick the migration",
    )
    reshard_action.add_argument(
        "--status", action="store_true",
        help="print the migration status and exit",
    )
    reshard.add_argument(
        "--at", type=int, metavar="ADDR",
        help="with --split: cut at this address instead of the "
        "even-partition point",
    )
    reshard.add_argument(
        "--stage-delay", type=float, default=0.0,
        help="seconds to linger in each stage (drills widen kill windows)",
    )
    reshard.add_argument(
        "--cutover-pause", type=float, default=0.0,
        help="seconds to shed the data plane with MSG_REDIRECT before "
        "the cutover commit",
    )
    reshard.add_argument(
        "--wait", action="store_true",
        help="poll until the migration reaches done/rolled-back",
    )
    reshard.add_argument(
        "--wait-timeout", type=float, default=120.0,
        help="with --wait: give up (exit 1) after this many seconds",
    )
    reshard.add_argument("--timeout", type=float, default=30.0)
    reshard.add_argument(
        "--connect-attempts",
        type=int,
        default=3,
        help="dial retries (jittered exponential backoff) before failing",
    )
    reshard.set_defaults(handler=_cmd_reshard)

    campaign = commands.add_parser(
        "campaign",
        help="run a declarative workload × fault × backend × topology "
        "campaign judged by the invariant oracles",
    )
    campaign.add_argument(
        "--spec", required=True, help="campaign spec (.toml or .json)"
    )
    campaign.add_argument(
        "--subset",
        metavar="NAME",
        help="run only the cells named by this [subsets] entry",
    )
    campaign.add_argument(
        "--cells",
        action="append",
        metavar="PATTERN",
        help="run only cells matching this glob over "
        "workload/fault/backend/topology ids (repeatable)",
    )
    campaign.add_argument(
        "--max-cells",
        type=int,
        help="hard cap on how many cells run (after filters)",
    )
    campaign.add_argument(
        "--list",
        action="store_true",
        help="print the expanded cell ids and exclusions, run nothing",
    )
    campaign.add_argument(
        "--workdir",
        help="keep per-cell state under this directory (default: a "
        "temporary directory, removed afterwards)",
    )
    campaign.add_argument("-o", "--output", help="write campaign.json here")
    campaign.add_argument(
        "--markdown", help="write the Markdown summary here instead of stdout"
    )
    campaign.set_defaults(handler=_cmd_campaign)

    ingest = commands.add_parser(
        "ingest",
        help="turn real MRT/pcap traces into the plain-text formats",
    )
    ingest_commands = ingest.add_subparsers(dest="ingest_command", required=True)

    def _policy_flags(sub: argparse.ArgumentParser, ports: bool = True) -> None:
        if ports:
            sub.add_argument(
                "--ports",
                type=int,
                default=24,
                help="egress port count the next-hop hash maps onto",
            )
        sub.add_argument(
            "--keep-martians",
            action="store_true",
            help="keep bogon space (0/8, 127/8, multicast, class E)",
        )
        sub.add_argument(
            "--drop-default",
            action="store_true",
            help="drop the 0.0.0.0/0 default route instead of keeping it",
        )
        sub.add_argument(
            "--stats",
            action="store_true",
            help="print prefix-length histogram / rate statistics",
        )

    ingest_rib = ingest_commands.add_parser(
        "rib",
        help="MRT TABLE_DUMP_V2 RIB dump (bview/rib, .gz/.bz2 ok) -> table",
    )
    ingest_rib.add_argument("input")
    ingest_rib.add_argument("-o", "--output", required=True)
    ingest_rib.add_argument(
        "--peer",
        default="auto",
        help="peer index for the single-peer view (default: most entries)",
    )
    _policy_flags(ingest_rib)
    ingest_rib.set_defaults(handler=_cmd_ingest_rib)

    ingest_updates = ingest_commands.add_parser(
        "updates",
        help="MRT BGP4MP update dump (.gz/.bz2 ok) -> update trace",
    )
    ingest_updates.add_argument("input")
    ingest_updates.add_argument("-o", "--output", required=True)
    ingest_updates.add_argument(
        "--table",
        help="base table (from 'ingest rib') seeding withdraw consistency",
    )
    ingest_updates.add_argument(
        "--peer",
        default="auto",
        help="peer IP for the single-peer view (default: most updates)",
    )
    ingest_updates.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="multiply rebased timestamps (0.01 squeezes 1h into 36s)",
    )
    _policy_flags(ingest_updates)
    ingest_updates.set_defaults(handler=_cmd_ingest_updates)

    ingest_pcap = ingest_commands.add_parser(
        "pcap",
        help="classic libpcap Ethernet capture -> packet trace",
    )
    ingest_pcap.add_argument("input")
    ingest_pcap.add_argument("-o", "--output", required=True)
    _policy_flags(ingest_pcap, ports=False)
    ingest_pcap.set_defaults(handler=_cmd_ingest_pcap)

    ingest_fixtures = ingest_commands.add_parser(
        "fixtures",
        help="write deterministic synthetic MRT/pcap files (no network)",
    )
    ingest_fixtures.add_argument("-o", "--output", required=True)
    ingest_fixtures.add_argument("--seed", type=int, default=7)
    ingest_fixtures.add_argument("--routes", type=int, default=96)
    ingest_fixtures.add_argument("--updates", type=int, default=160)
    ingest_fixtures.add_argument("--packets", type=int, default=256)
    ingest_fixtures.set_defaults(handler=_cmd_ingest_fixtures)

    ingest_fetch = ingest_commands.add_parser(
        "fetch",
        help="download a real RIS/RouteViews archive (never used by CI)",
    )
    ingest_fetch.add_argument(
        "--source", choices=("ris", "routeviews"), default="ris"
    )
    ingest_fetch.add_argument(
        "--collector", default="rrc00", help="RIS collector (e.g. rrc01)"
    )
    ingest_fetch.add_argument(
        "--when", required=True, help="archive timestamp, YYYYMMDD.HHMM"
    )
    ingest_fetch.add_argument("--kind", choices=("rib", "updates"), default="rib")
    ingest_fetch.add_argument("-o", "--output")
    ingest_fetch.add_argument(
        "--url-only", action="store_true", help="print the URL, do not fetch"
    )
    ingest_fetch.set_defaults(handler=_cmd_ingest_fetch)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point; returns the process exit code.

    Operational errors — malformed trace files, unreadable paths, invalid
    parameter values — are reported as one ``error:`` line on stderr with
    exit code 2 instead of a raw traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TraceFormatError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
