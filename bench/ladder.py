"""The traced ladder: each layer's public functions, timed in-process.

Rungs, bottom up — ``FastLpmTable.lookup``, ``ClueSystem.process_lookups``
(adds home index, DRed, stats), the protocol codec, ``ShardSet.lookup``
(adds routing and split), an in-process ``ServerThread`` over loopback,
a two-worker ``ProcessFront`` (adds the link hop), and the update side
from ``ClueSystem.apply_update`` up to a durable ``commit_batch`` with
its fsync — every one over the *same* seeded inputs at fixed operation
counts, so the exact counts repeat and the times are comparable.

Each rung is timed twice: plainly (these are the reported costs), and
once more with a :class:`Tracer` wrapped around the calls into the
layers below it.  Spans stay in memory until the run ends; a layer's
self time is its span minus what its child spans cover; the difference
between the traced and the plain pass is the tracing overhead.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.compress.onrtc import OnrtcTable
from repro.core.config import SystemConfig
from repro.core.system import ClueSystem
from repro.engine.fastlpm import FastLpmTable
from repro.engine.simulator import EngineConfig
from repro.persist.manager import PersistenceManager
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.serve.procs import ProcessFront, ProcessSupervisor, WorkerSpec
from repro.serve.router import plan_shards
from repro.serve.server import ServeConfig, ServerThread
from repro.serve.shard import ShardSet
from repro.trie.trie import BinaryTrie

import child
import inputs

#: Fixed operation counts (``--ladder-scale`` multiplies them).
LOOKUP_BATCHES = 60
BATCH_SIZE = 1024
SMALL_REQUESTS = 400
UPDATE_BATCHES = 94  # x 16 = 1504 updates
FASTLPM_REPEATS = 5


def system_config() -> SystemConfig:
    """4 chips, DRed 1024, queue 256, fast backend: what the servers run."""
    return SystemConfig(
        engine=EngineConfig(
            chip_count=4,
            queue_capacity=256,
            dred_capacity=1024,
            lookup_backend="fast",
        )
    )


# -- tracing -------------------------------------------------------------


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the span that caused this one (-1 for a root).
    parent: int
    request_id: int


class Tracer:
    """Spans around calls the benchmark makes into a layer.

    One stack serves every thread: the traced rungs keep a single
    request in flight, so the client thread's span is open (and the
    client blocked) for exactly as long as the server thread works.
    While ``enabled`` is false a wrapped call goes straight through.
    """

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        self._stack: List[int] = []
        self.request_id = 0
        self.enabled = False

    def wrap(self, name: str, function: Callable, root: bool = False) -> Callable:
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            if root:
                self.request_id += 1
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = Span(name, start, end, parent, self.request_id)

        return traced

    def install(self, owner: object, attribute: str, name: str, root: bool = False) -> None:
        """Wrap ``owner.attribute`` in place (instance attribute only)."""
        setattr(owner, attribute, self.wrap(name, getattr(owner, attribute), root))

    def alternate(
        self, function: Callable, arguments: Sequence
    ) -> Tuple[List[float], List[float], list]:
        """Call ``function`` on every argument, tracing every other call.

        Returns (plain seconds, traced seconds, results).  Interleaving
        the two puts the machine's drift — which on a shared box exceeds
        the tracing overhead — equally on both sides.
        """
        clock = time.perf_counter
        seconds: Tuple[List[float], List[float]] = ([], [])
        results = []
        try:
            for index, argument in enumerate(arguments):
                self.enabled = bool(index % 2)
                start = clock()
                result = function(argument)
                seconds[index % 2].append(clock() - start)
                results.append(result)
        finally:
            self.enabled = False
        return seconds[0], seconds[1], results

    def self_times(self, since: int = 0) -> Dict[str, List[float]]:
        """Per request: seconds each layer spent outside its child spans."""
        spans: List[Span] = self.spans[since:]  # type: ignore[assignment]
        own = [span.end - span.start for span in spans]
        for span in spans:
            if span.parent >= since:
                own[span.parent - since] -= span.end - span.start
        per_request: Dict[Tuple[str, int], float] = {}
        for span, seconds in zip(spans, own):
            key = (span.name, span.request_id)
            per_request[key] = per_request.get(key, 0.0) + seconds
        by_name: Dict[str, List[float]] = {}
        for (name, _request), seconds in per_request.items():
            by_name.setdefault(name, []).append(seconds)
        return by_name

    def durations(self, name: str, since: int = 0) -> List[float]:
        return [s.end - s.start for s in self.spans[since:] if s.name == name]

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                [
                    [s.name, s.start, s.end, s.parent, s.request_id]
                    for s in self.spans
                ]
            )
        )


# -- timing helpers --------------------------------------------------------


def each(function: Callable, arguments: Sequence) -> Tuple[List[float], list]:
    """Call ``function`` on every argument; (seconds per call, results)."""
    clock = time.perf_counter
    seconds: List[float] = []
    results = []
    for argument in arguments:
        start = clock()
        result = function(argument)
        seconds.append(clock() - start)
        results.append(result)
    return seconds, results


def once(function: Callable) -> Tuple[float, object]:
    start = time.perf_counter()
    result = function()
    return time.perf_counter() - start, result


@dataclass
class Traced:
    """What the ladder measured."""

    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, int] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Share of an untraced cost that the traced self times add up to.
    accounted: Dict[str, float] = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0

    def put(self, name: str, value: float, count: Optional[int] = None) -> None:
        self.metrics[name] = value
        if count is not None:
            self.samples[name] = count

    def check(self, got: Sequence, want: Sequence, what: str) -> None:
        """Count one answer list against the oracle's."""
        self.attempted += 1
        if list(got) != list(want):
            self.failed += 1
            if len(self.notes) < 8:
                self.notes.append(f"WRONG ANSWER in {what}")


class _Ladder:
    def __init__(self, rib, seeds: Tuple[int, int], scale: float, workdir: Path) -> None:
        self.rib = rib
        self.workdir = workdir
        self.out = Traced()
        self.tracer = Tracer()
        traffic_seed, update_seed = seeds
        batches = max(2, int(LOOKUP_BATCHES * scale))
        self.small = max(20, int(SMALL_REQUESTS * scale))
        self.update_batches = max(4, int(UPDATE_BATCHES * scale))
        oracle = BinaryTrie.from_routes(rib)
        self.zipf = inputs.build_lookup_pool(
            rib, oracle, "fig15", traffic_seed, batches, BATCH_SIZE
        )
        self.uniform = inputs.build_lookup_pool(
            rib, oracle, "uniform", traffic_seed, batches, BATCH_SIZE
        )
        self.want_zipf = [protocol.decode_hops(e) for e in self.zipf.expected]
        self.want_uniform = [protocol.decode_hops(e) for e in self.uniform.expected]
        flat = [a for batch in self.zipf.addresses for a in batch]
        self.singles = [[address] for address in flat[: self.small]]
        self.want_singles = [
            [hop] for batch in self.want_zipf for hop in batch
        ][: self.small]
        self.stream = inputs.build_update_stream(rib, update_seed, self.update_batches)
        self.config = system_config()

    def per_address_ns(self, seconds: Sequence[float]) -> float:
        return statistics.median(seconds) / BATCH_SIZE * 1e9

    # -- lookup side -------------------------------------------------------

    def fastlpm(self) -> None:
        out = self.out
        build_s, table = once(lambda: FastLpmTable(self.rib))
        out.put("fastlpm.build_ms", build_s * 1e3, 1)
        stats = table.slot_stats()
        out.put(
            "fastlpm.slots",
            float(
                stats["level1_slots"]
                + 256 * (stats["level2_blocks"] + stats["level3_blocks"])
            ),
        )
        lookup = table.lookup
        passes = []
        for _ in range(FASTLPM_REPEATS):
            seconds, answers = each(
                lambda batch: [lookup(address) for address in batch],
                self.zipf.addresses,
            )
            passes.append(self.per_address_ns(seconds))
        for got, want in zip(answers, self.want_zipf):
            out.check(got, want, "FastLpmTable.lookup")
        out.put("fastlpm.lookup_ns", statistics.median(passes), FASTLPM_REPEATS)

    def system(self) -> None:
        out = self.out
        onrtc_s, table = once(lambda: OnrtcTable(self.rib))
        out.put("onrtc.build_ms", onrtc_s * 1e3, 1)
        out.put("onrtc.compression_ratio", len(table) / len(self.rib))
        fingerprints = []
        for label, pool, want in (
            ("zipf", self.zipf, self.want_zipf),
            ("uniform", self.uniform, self.want_uniform),
        ):
            build_s, system = once(lambda: ClueSystem(self.rib, self.config))
            if label == "zipf":
                out.put("system.build_ms", build_s * 1e3, 1)
            seconds, answers = each(system.process_lookups, pool.addresses)
            for got, expected in zip(answers, want):
                out.check(got, expected, f"process_lookups ({label})")
            stats = system.engine.stats
            packets = stats.completions
            out.put(f"system.lookup_ns.{label}", self.per_address_ns(seconds), len(seconds))
            out.put(
                f"engine.self_ns.{label}",
                out.metrics[f"system.lookup_ns.{label}"] - out.metrics["fastlpm.lookup_ns"],
            )
            out.put(f"engine.cycles_per_pkt.{label}", stats.cycles / packets)
            out.put(f"engine.dred_hit_share.{label}", stats.dred_hits / packets)
            out.put(f"engine.dred_inserts_per_pkt.{label}", stats.dred_insertions / packets)
            fingerprints.append(stats.fingerprint())
            if label == "zipf":
                out.put("engine.diverted_share.zipf", stats.diverted / packets)
                # The fixed cost of one call, on the system the batches warmed.
                seconds, answers = each(system.process_lookups, self.singles)
                for got, expected in zip(answers, self.want_singles):
                    out.check(got, expected, "process_lookups (1 address)")
                out.put("system.call_us.batch1", statistics.median(seconds) * 1e6, len(seconds))
        digest = hashlib.sha256("".join(fingerprints).encode("ascii")).hexdigest()
        # 48 bits survive a float exactly; the full digests go in the notes.
        out.put("engine.stats_fingerprint", float(int(digest[:12], 16)))
        out.notes.append(f"engine.stats_fingerprint sha256 {digest}")

    def protocol_codec(self) -> None:
        out = self.out

        def round_trip(pair):
            addresses, hops = pair
            request = protocol.encode_frame(
                protocol.MSG_LOOKUP, 1, protocol.encode_addresses(addresses)
            )
            decoded = protocol.decode_addresses(request[9:])
            reply = protocol.encode_frame(
                protocol.MSG_LOOKUP_OK, 1, protocol.encode_hops(hops)
            )
            return decoded, protocol.decode_hops(reply[9:])

        seconds, answers = each(round_trip, list(zip(self.zipf.addresses, self.want_zipf)))
        for (addresses, hops), sent, want in zip(answers, self.zipf.addresses, self.want_zipf):
            out.check(addresses, sent, "address codec")
            out.check(hops, want, "hop codec")
        out.put("protocol.codec_ns", self.per_address_ns(seconds), len(seconds))
        seconds, _ = each(round_trip, list(zip(self.singles, self.want_singles)))
        out.put("protocol.frame_us.batch1", statistics.median(seconds) * 1e6, len(seconds))

    def ladder_note(self, what: str, own: Dict[str, List[float]], plain_us: float) -> None:
        """Record how much of an untraced cost the traced self times explain."""
        parts = {name: statistics.median(seconds) * 1e6 for name, seconds in own.items()}
        accounted = sum(parts.values())
        self.out.notes.append(
            f"{what} ladder (median self time, us): "
            + ", ".join(f"{name} {value:.0f}" for name, value in sorted(parts.items()))
            + f"; sum {accounted:.0f} = {accounted / plain_us:.0%} of the untraced {plain_us:.0f}"
        )
        self.out.accounted[what] = accounted / plain_us

    def shards(self) -> ShardSet:
        """ShardSet rungs; returns the 1-shard set for the server rung."""
        out, tracer = self.out, self.tracer
        single = ShardSet.build(self.rib, shard_count=1, config=self.config)
        seconds, answers = each(single.lookup, self.zipf.addresses)
        for got, want in zip(answers, self.want_zipf):
            out.check(got, want, "ShardSet.lookup (1 shard)")
        out.put("shard.lookup_ns.1shard", self.per_address_ns(seconds), len(seconds))

        build_s, double = once(
            lambda: ShardSet.build(self.rib, shard_count=2, config=self.config)
        )
        out.put("shard.build_ms.2shard", build_s * 1e3, 1)
        since = len(tracer.spans)
        for worker in double.workers:
            tracer.install(worker.system, "process_lookups", "system.process_lookups")
        plain, _traced, answers = tracer.alternate(
            tracer.wrap("shardset.lookup", double.lookup, root=True),
            self.zipf.addresses,
        )
        for got, want in zip(answers, self.want_zipf):
            out.check(got, want, "ShardSet.lookup (2 shards)")
        out.put("shard.lookup_ns.2shard", self.per_address_ns(plain), len(plain))
        # What ShardSet.lookup spends outside the two systems: route + split.
        own = tracer.self_times(since)["shardset.lookup"]
        out.put("shard.route_self_ns", self.per_address_ns(own), len(own))
        return single

    def server(self, shards: ShardSet) -> None:
        """In-process ServerThread + ServeClient over loopback, window 1."""
        out, tracer = self.out, self.tracer
        system = shards.workers[0].system
        tracer.install(shards, "lookup", "shardset.lookup")
        tracer.install(system, "process_lookups", "system.process_lookups")
        tracer.install(system.engine, "run", "engine.run")
        with ServerThread(shards, ServeConfig()) as thread:
            with ServeClient("127.0.0.1", thread.server.port) as client:
                lookup = tracer.wrap("client.lookup", client.lookup, root=True)
                for label, requests, wants in (
                    ("batch1024", self.zipf.addresses * 2, self.want_zipf * 2),
                    ("batch1", self.singles, self.want_singles),
                ):
                    since = len(tracer.spans)
                    plain, traced, answers = tracer.alternate(lookup, requests)
                    for got, want in zip(answers, wants):
                        out.check(got, want, f"ServerThread ({label})")
                    rtt_us = statistics.median(plain) * 1e6
                    out.put(f"server.rtt_us.{label}", rtt_us, len(plain))
                    own = tracer.self_times(since)
                    if label == "batch1024":
                        out.put(
                            "trace.overhead_share",
                            statistics.median(traced) / statistics.median(plain) - 1.0,
                            len(traced),
                        )
                        self.ladder_note("server.rtt_us.batch1024", own, rtt_us)
                    else:
                        # Wire, asyncio and framing: all that is not ShardSet.
                        out.put(
                            "server.self_us.batch1",
                            statistics.median(own["client.lookup"]) * 1e6,
                            len(own["client.lookup"]),
                        )
            thread.stop()

    def procs(self) -> None:
        """Two worker processes behind an in-process ProcessFront."""
        out = self.out
        table = self.workdir / "ladder-table.txt"
        inputs.write_table(self.rib, table)
        plan = plan_shards(self.rib, 2, mode=self.config.compression_mode)
        spec = WorkerSpec(
            shard_count=2, table=str(table), chips=4, dred=1024, queue=256,
            backend="fast", window=64,
        )
        supervisor = ProcessSupervisor(spec, plan.router.boundaries)
        front = ProcessFront(supervisor, ServeConfig())
        thread = ServerThread(server=front)
        try:
            spawn_s, _ = once(thread.start)
            out.put("procs.spawn_ms", spawn_s * 1e3, 1)
            with ServeClient("127.0.0.1", front.port) as client:
                seconds, answers = each(client.lookup, self.zipf.addresses)
                for got, want in zip(answers, self.want_zipf):
                    out.check(got, want, "ProcessFront (batch1024)")
                out.put(
                    "procs.rtt_us.batch1024", statistics.median(seconds) * 1e6, len(seconds)
                )
                # The link hop: the same address through the front and
                # straight to the worker that owns it, turn and turn about.
                direct = [
                    ServeClient(host, port) for host, port in supervisor.endpoints()
                ]
                try:
                    via_front: List[float] = []
                    via_worker: List[float] = []
                    shard_of = plan.router.shard_of
                    for request, want in zip(self.singles, self.want_singles):
                        owner = direct[shard_of(request[0])]
                        for target, sink in ((client, via_front), (owner, via_worker)):
                            seconds, answers = each(target.lookup, [request])
                            sink.extend(seconds)
                            out.check(answers[0], want, "ProcessFront (batch1)")
                finally:
                    for connection in direct:
                        connection.close()
            thread.stop()
        finally:
            supervisor.shutdown()
        out.put("procs.rtt_us.batch1", statistics.median(via_front) * 1e6, len(via_front))
        out.put(
            "procs.link_self_us.batch1",
            (statistics.median(via_front) - statistics.median(via_worker)) * 1e6,
            len(via_worker),
        )

    # -- update side ---------------------------------------------------------

    def updates(self) -> None:
        out, tracer = self.out, self.tracer
        messages = [m for batch in self.stream.batches for m in batch]
        count = len(messages)

        # ClueSystem.apply_update: trie -> ONRTC -> TCAM -> DRed -> chips.
        system = ClueSystem(self.rib, self.config)
        seconds, _ = each(system.apply_update, messages)
        out.put("pipeline.apply_us", statistics.median(seconds) * 1e6, count)
        totals = system.pipeline.totals
        out.put("tcam.moves_per_update", totals.tcam_moves / totals.updates)
        out.put("tcam.writes_per_update", totals.tcam_writes / totals.updates)
        out.put("update.ttf23_us_mean", system.pipeline.report.ttf23().mean_us)

        # The bounded queue in front of it: offer x16 + one pump.
        plain_shard = ShardSet.build(self.rib, shard_count=1, config=self.config)
        seconds, _ = each(plain_shard.update, self.stream.batches)
        out.put(
            "scheduler.offer_pump_us",
            statistics.median(seconds) / inputs.UPDATE_BATCH * 1e6,
            len(seconds),
        )

        # Durable: journal-before-apply and one fsync per batch, with
        # spans around every layer commit_batch calls into.
        state = self.workdir / "ladder-journal"
        durable = ShardSet.build(
            self.rib, shard_count=1, config=self.config, journal_dir=state
        )
        manager = durable.workers[0].manager
        syncs_before = manager.journal.sync_count
        since = len(tracer.spans)
        tracer.install(manager.journal, "append", "journal.append")
        tracer.install(manager.journal, "sync", "journal.sync")
        tracer.install(manager.system, "offer_update", "scheduler.offer")
        tracer.install(manager.system, "pump_updates", "scheduler.pump")
        tracer.install(manager.system.pipeline, "apply", "pipeline.apply")
        plain, _traced, acks = tracer.alternate(
            tracer.wrap("manager.commit_batch", manager.commit_batch, root=True),
            self.stream.batches,
        )
        for accepted, shed, applied in acks:
            out.check(
                (accepted, shed, applied),
                (inputs.UPDATE_BATCH, 0, inputs.UPDATE_BATCH),
                "commit_batch",
            )
        commit_us = statistics.median(plain) * 1e6
        out.put("manager.commit_us.batch16", commit_us, len(plain))
        own = tracer.self_times(since)
        self.ladder_note("manager.commit_us.batch16", own, commit_us)
        # What persistence adds to the queue + pipeline path, per batch.
        out.put(
            "manager.journal_self_us.batch16",
            sum(
                statistics.median(own[name]) * 1e6
                for name in ("manager.commit_batch", "journal.append", "journal.sync")
            ),
            len(own["journal.sync"]),
        )
        appends = tracer.durations("journal.append", since)
        syncs = tracer.durations("journal.sync", since)
        out.put("journal.append_us", statistics.median(appends) * 1e6, len(appends))
        out.put("journal.sync_us", statistics.median(syncs) * 1e6, len(syncs))
        out.put(
            "journal.fsyncs_per_update",
            (manager.journal.sync_count - syncs_before) / count,
        )
        journal_bytes = sum(
            path.stat().st_size for path in manager.journal.segment_paths()
        )
        out.put("journal.bytes_per_update", journal_bytes / count)
        live = manager.system.state_fingerprint()
        manager.close()

        # Restore: snapshot + the journal tail just written; then again
        # with an empty tail, so replay cost is the difference.
        shard_dir = state / "shard-0"
        restore_s, (manager, report) = once(
            lambda: PersistenceManager.restore(shard_dir, config=self.config)
        )
        out.check([manager.system.state_fingerprint()], [live], "restore fingerprint")
        out.put("manager.restore_ms.1500", restore_s * 1e3, 1)
        checkpoint_s, _ = once(manager.checkpoint)
        out.put("manager.checkpoint_ms", checkpoint_s * 1e3, 1)
        manager.close()
        empty_s, (manager, _) = once(
            lambda: PersistenceManager.restore(shard_dir, config=self.config)
        )
        manager.close()
        out.put(
            "manager.replay_us_per_record",
            (restore_s - empty_s) / report.replayed_records * 1e6,
            report.replayed_records,
        )

    def run(self) -> Traced:
        self.fastlpm()
        self.system()
        self.protocol_codec()
        self.server(self.shards())
        self.procs()
        self.updates()
        return self.out


def run(rib, seeds: Tuple[int, int], scale: float, spans_path: Optional[str]) -> Traced:
    """Run the whole ladder; spans are written out once it has ended."""
    child.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="ladder-", dir=child.WORK_ROOT))
    try:
        ladder = _Ladder(rib, seeds, scale, workdir)
        traced = ladder.run()
        destination = Path(spans_path) if spans_path else child.WORK_ROOT / "spans.json"
        ladder.tracer.dump(destination)
        traced.notes.append(f"{len(ladder.tracer.spans)} spans written to {destination}")
        return traced
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
