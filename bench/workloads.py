"""The five wire-level workloads and the one flow that runs any of them.

Every workload drives a real ``python -m repro serve`` subprocess over
loopback TCP from this single client process (at most two threads, one
connection each), verifies every answer, SIGKILLs the server, restarts
it and checks it serves correctly again.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import threading
import time
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serve import protocol
from repro.serve.chaos import apply_to_reference
from repro.serve.client import ServeClient
from repro.trie.trie import BinaryTrie

import child
import drive
import inputs

HOST = "127.0.0.1"
#: 4 chips, DRed 1024, queue 256, fast backend: the committed benches'
#: engine.  The inflight window is raised from 8 so that a stall of the
#: shared box delays the open loop's acks instead of shedding batches
#: (BUSY): the oracle needs every batch applied, in order.
SERVER_FLAGS = (
    "--chips", "4", "--dred", "1024", "--queue", "256", "--backend", "fast",
    "--window", "64",
)
LOOKUP_WINDOW = 4
#: Open-loop update rate of ``mixed-2proc``: ~15% of durable capacity.
OPEN_LOOP_BATCHES_PER_S = 20.0
#: Closed-loop durable batches per second the pre-generated stream allows
#: for (measured: ~120/s on the reference box; the loop raises if it runs dry).
CLOSED_LOOP_BATCHES_PER_S_CAP = 320
#: Update batches sent between the CHECKPOINT and the SIGKILL, so every
#: restore replays the same journal tail (94 x 16 = 1504 updates)
#: whatever the measured rate was.
TAIL_BATCHES = 94
WINDOWS = 3
WARMUP_S = 2.0
#: Addresses looked up before the warm-up so DRed (4 x 1024) is full.
PREFILL_ADDRESSES = 32768
#: Servers spawned per run for ``setup_s``, and restarted after a SIGKILL
#: for ``recover_s``; each metric is the median.
REPEATS = 3
#: ... and ``recover_s`` keeps restarting until the samples add up to this.
RECOVER_BUDGET_S = 3.0
#: Generator honesty: a window is invalid above this client CPU share ...
CLIENT_CPU_LIMIT = 0.9
#: ... and a span when more than this share of the open loop's batches
#: left over one period late.  (A single stall of the shared box delays a
#: handful; their acks are timed from the due time, so it still counts.)
LATE_SHARE_LIMIT = 0.05


@dataclass(frozen=True)
class Workload:
    name: str
    #: Traffic profile of the lookup loop (``workload.profiles.WORKLOADS``).
    profile: str
    #: Addresses per lookup request.
    batch_size: int
    #: Batches in the pre-generated lookup pool (cycled).
    pool_batches: int
    #: Connection A runs the closed lookup loop.
    lookups: bool = True
    #: ``None``, ``"closed"`` (16-update batches, one outstanding) or
    #: ``"open"`` (same batches on a fixed schedule); either journals.
    updates: Optional[str] = None
    #: ``--workers processes --shards 2`` instead of one in-process shard.
    processes: bool = False

    @property
    def journaled(self) -> bool:
        return self.updates is not None

    @property
    def item(self) -> str:
        return "lookups" if self.lookups else "updates"


#: Why each exists is recorded next to its name in BENCHMARK.json.
WORKLOADS: Tuple[Workload, ...] = (
    Workload("lookup-zipf", profile="fig15", batch_size=1024, pool_batches=192),
    Workload("lookup-uniform", profile="uniform", batch_size=1024, pool_batches=192),
    Workload("lookup-small", profile="fig15", batch_size=1, pool_batches=32768),
    Workload(
        "update-durable", profile="fig15", batch_size=1024, pool_batches=1,
        lookups=False, updates="closed",
    ),
    Workload(
        "mixed-2proc", profile="fig15", batch_size=1024, pool_batches=192,
        updates="open", processes=True,
    ),
)
BY_NAME = {workload.name: workload for workload in WORKLOADS}


class InvalidRun(RuntimeError):
    """The run cannot be scored: the generator, not the server, limited a
    window twice, or the update stream the oracle follows was broken."""


@dataclass
class Outcome:
    """Everything one workload run measured."""

    correct: bool
    attempted: int
    failed: int
    #: End-to-end metrics by name.
    end_to_end: Dict[str, float]
    #: Per-layer metrics observed from outside the server.
    observed: Dict[str, float]
    #: Sample counts behind the rates and percentiles.
    samples: Dict[str, int]
    notes: List[str] = field(default_factory=list)
    inputs: Dict[str, str] = field(default_factory=dict)


class _Clocks:
    """CPU clocks of the server tree and this process at window marks."""

    def __init__(self, pids: Sequence[int]) -> None:
        self.pids = list(pids)
        self.reads: List[Tuple[float, float, Dict[int, float]]] = []

    def read(self, _mark: int = 0) -> None:
        self.reads.append(
            (
                time.perf_counter(),
                time.process_time(),
                {pid: child.cpu_seconds(pid) for pid in self.pids},
            )
        )

    def client_shares(self) -> List[float]:
        return [
            (after[1] - before[1]) / (after[0] - before[0])
            for before, after in zip(self.reads, self.reads[1:])
        ]

    def span(self) -> Tuple[float, float, Dict[int, float]]:
        """Wall, client CPU and per-pid server CPU over all windows."""
        first, last = self.reads[0], self.reads[-1]
        return (
            last[0] - first[0],
            last[1] - first[1],
            {pid: last[2][pid] - first[2][pid] for pid in self.pids},
        )


def _server_flags(
    workload: Workload, table: Path, journal: Optional[Path], restore: bool = False
) -> List[str]:
    flags = list(SERVER_FLAGS)
    if workload.processes:
        flags += ["--workers", "processes"]
    if restore:
        return flags + ["--restore", "--journal", str(journal)]
    flags += ["--table", str(table)]
    if workload.processes:
        flags += ["--shards", "2"]
    if journal is not None:
        flags += ["--journal", str(journal)]
    return flags


def _lookup_all(client: ServeClient, addresses: Sequence[int]) -> List[Optional[int]]:
    answers: List[Optional[int]] = []
    for start in range(0, len(addresses), 1024):
        answers.extend(client.lookup(addresses[start : start + 1024]))
    return answers


class _Run:
    """One workload run: spawn, warm, measure, verify, kill, restore."""

    def __init__(self, workdir: Path, workload: Workload, rib, traffic_seed: int,
                 update_seed: int, seconds: float, repeats: int) -> None:
        self.workdir = workdir
        self.workload = workload
        self.seconds = seconds
        #: Servers spawned for ``setup_s`` and again for ``recover_s``.
        self.repeats = repeats
        self.verdict = drive.Verdict()
        self.notes: List[str] = []
        # -- inputs, all before any clock --------------------------------
        self.table = workdir / "table.txt"
        self.provenance = {"table_sha256": inputs.write_table(rib, self.table)}
        self.oracle = BinaryTrie.from_routes(rib)
        self.pool = inputs.build_lookup_pool(
            rib, self.oracle, workload.profile, traffic_seed,
            workload.pool_batches, workload.batch_size,
        )
        self.provenance["traffic_sha256"] = self.pool.sha256
        self.stream: Optional[inputs.UpdateStream] = None
        self.timeline: Optional[inputs.Timeline] = None
        span = WARMUP_S + seconds
        if workload.updates == "closed":
            self.stream = inputs.build_update_stream(
                rib, update_seed,
                int(span * CLOSED_LOOP_BATCHES_PER_S_CAP) + TAIL_BATCHES,
            )
        elif workload.updates == "open":
            # Twice the span: an invalid window is measured once more.
            self.stream = inputs.build_update_stream(
                rib, update_seed,
                int(2 * span * OPEN_LOOP_BATCHES_PER_S) + 2 + TAIL_BATCHES,
            )
            self.timeline = inputs.Timeline(
                self.pool, self.oracle.copy(), self.stream.batches
            )
        if self.stream is not None:
            self.provenance["updates_sha256"] = self.stream.sha256
        #: Next unsent payload of the pool (cycled) and of the stream.
        self.lookup_at = 0
        self.update_at = 0
        #: Send and ack times of every update batch so far, by stream index.
        self.update_sent_at: List[float] = []
        self.update_acked_at: List[float] = []

    # -- servers ---------------------------------------------------------

    def _check_against(self, client: ServeClient, addresses: Sequence[int], what: str) -> int:
        """Served answers must equal the oracle's; returns how many were judged.

        An address the oracle has no route for is indeterminate, not
        wrong: don't-care compression answers inside unrouted space.
        """
        judged = 0
        for address, got in zip(addresses, _lookup_all(client, addresses)):
            want = self.oracle.lookup(address)
            if want is None:
                continue
            judged += 1
            if got != want:
                self.verdict.wrong += 1
                self.verdict.note(
                    f"{what}: address {address} answered {got}, oracle says {want}"
                )
        self.verdict.attempted += (len(addresses) + 1023) // 1024
        return judged

    def _first_correct_answer(
        self, server: child.Server, fingerprint: bool = False
    ) -> Tuple[ServeClient, float, Optional[str]]:
        """Connect and insist on correct answers.

        Returns the connection, the seconds from spawn to the first
        correct answer, and — asked for — the state fingerprint, read
        *before* the lookups (they move DRed, which the fingerprint
        covers); the time that read takes is not counted.
        """
        try:
            port = server.wait_port()
            client = ServeClient(HOST, port, connect_attempts=1)
            try:
                state = None
                before = time.perf_counter()
                if fingerprint:
                    state = client.fingerprint()
                uncounted = time.perf_counter() - before
                wrong_before = self.verdict.wrong
                judged = self._check_against(client, self.pool.addresses[0], server.label)
                elapsed = time.perf_counter() - server.spawned_at - uncounted
                if not judged or self.verdict.wrong > wrong_before:
                    raise child.ChildError(
                        f"{server.label}: first answer is wrong: {self.verdict.details}"
                    )
            except BaseException:
                client.close()
                raise
        except BaseException:
            server.kill()
            raise
        return client, elapsed, state

    def setup(self) -> Tuple[child.Server, ServeClient, List[float]]:
        """Spawn -> first correct answer, ``repeats`` times; keep the last."""
        samples: List[float] = []
        for sample in range(self.repeats):
            self.journal = (
                self.workdir / f"journal-{sample}" if self.workload.journaled else None
            )
            server = child.Server(
                self.workdir,
                _server_flags(self.workload, self.table, self.journal),
                f"server-{sample}",
            )
            client, elapsed, _ = self._first_correct_answer(server)
            samples.append(elapsed)
            if sample < self.repeats - 1:
                client.close()
                server.kill()
        return server, client, samples

    def prefill(self, client: ServeClient) -> None:
        """Fill DRed before the warm-up, whatever the request size.

        One address per request fills DRed's 4 x 1024 entries far too
        slowly for a 2 s warm-up, and the fixed cost of an engine call
        grows with DRed occupancy; PREFILL_ADDRESSES sent as 1024-address
        batches put every workload in the steady state a long-running
        server is in.
        """
        per_batch = 1024 // self.workload.batch_size
        batches = min(len(self.pool), PREFILL_ADDRESSES // self.workload.batch_size)
        for start in range(0, batches - per_batch + 1, per_batch):
            chunk = range(start, start + per_batch)
            client.send(
                protocol.MSG_LOOKUP,
                b"".join(self.pool.payloads[index] for index in chunk),
            )
            frame = client.recv()
            want = b"".join(self.pool.expected[index] for index in chunk)
            self.verdict.attempted += 1
            if frame.type != protocol.MSG_LOOKUP_OK or frame.payload != want:
                self.verdict.wrong += 1
                self.verdict.note(f"prefill batch at {start}: wrong answer")

    # -- the timed part ---------------------------------------------------

    def _version_range(self, record: drive.Record) -> Tuple[int, int]:
        """Table versions a lookup may have seen: acked before it left,
        sent before its reply arrived."""
        return (
            bisect_right(self.update_acked_at, record.done_at - record.latency_s),
            bisect_right(self.update_sent_at, record.done_at),
        )

    def _send_updates_closed(self, client, stop_at, marks=(), on_mark=None,
                             count: Optional[int] = None) -> List[drive.Record]:
        """Closed loop, one batch outstanding, until ``stop_at`` — or,
        with ``count``, exactly that many batches."""
        end = len(self.stream) if count is None else self.update_at + count
        records = drive.closed_loop(
            client, protocol.MSG_UPDATE, self.stream.payloads, 1, self.update_at,
            stop_at if count is None else float("inf"), marks, on_mark, end_index=end,
        )
        self.update_at += len(records)
        self.update_sent_at += [r.done_at - r.latency_s for r in records]
        self.update_acked_at += [r.done_at for r in records]
        return records

    def measure(self, server: child.Server, client: ServeClient):
        """Warm up, then WINDOWS windows; rerun once if the generator
        (client CPU, open-loop lateness) was the limit, then give up."""
        workload = self.workload
        clocks = _Clocks(server.tree())
        period = 1.0 / OPEN_LOOP_BATCHES_PER_S
        for attempt in (1, 2):
            begin = time.perf_counter()
            marks = [
                begin + WARMUP_S + window * self.seconds / WINDOWS
                for window in range(WINDOWS + 1)
            ]
            clocks.reads.clear()
            lookups: List[drive.Record] = []
            updates: List[drive.Record] = []
            late: List[float] = []
            box: Dict[str, object] = {}
            pump = None
            if workload.updates == "open":

                def pump_updates() -> None:
                    try:
                        box["result"] = drive.open_loop_updates(
                            HOST, server.port, self.stream.payloads, period,
                            self.update_at, begin, marks[-1],
                        )
                    except BaseException as exc:  # re-raised on the main thread
                        box["error"] = exc

                pump = threading.Thread(target=pump_updates, daemon=True)
                pump.start()
            try:
                if workload.lookups:
                    lookups = drive.closed_loop(
                        client, protocol.MSG_LOOKUP, self.pool.payloads,
                        LOOKUP_WINDOW, self.lookup_at, marks[-1], marks, clocks.read,
                    )
                else:
                    updates = self._send_updates_closed(
                        client, marks[-1], marks, clocks.read
                    )
            finally:
                if pump is not None:
                    pump.join(timeout=60.0)
            if pump is not None:
                if pump.is_alive():
                    raise TimeoutError("open-loop update thread did not finish")
                if "error" in box:
                    raise box["error"]  # type: ignore[misc]
                result: drive.OpenLoopResult = box["result"]  # type: ignore[assignment]
                updates, late = result.records, result.late_s
                self.update_at = result.next_index
                self.update_sent_at += result.sent_at
                self.update_acked_at += [r.done_at for r in updates]
            self.lookup_at += len(lookups)

            # The oracle runs after the clock has stopped.  It follows
            # the update stream batch by batch, so a refused batch ends it.
            acks = drive.verify_update_acks(updates, inputs.UPDATE_BATCH)
            self.verdict.merge(acks)
            if acks.failed:
                raise InvalidRun(
                    f"{acks.failed} update batch(es) refused or not durable "
                    f"({'; '.join(acks.details)}); lookups cannot be judged"
                )
            self.verdict.merge(
                drive.verify_lookups(lookups, self.pool, self.timeline, self._version_range)
            )
            problems = [
                f"window {index + 1}: client CPU share {share:.2f}"
                for index, share in enumerate(clocks.client_shares())
                if share > CLIENT_CPU_LIMIT
            ]
            behind = sum(1 for seconds in late if seconds > period)
            if behind > LATE_SHARE_LIMIT * len(late):
                problems.append(
                    f"open loop sent {behind} of {len(late)} batches more than "
                    f"one period ({period * 1e3:.0f} ms) late"
                )
            if not problems:
                return marks, clocks, lookups, updates, late
            self.notes.append(f"attempt {attempt} invalid: " + "; ".join(problems))
        raise InvalidRun("; ".join(problems))

    # -- after the windows --------------------------------------------------

    def settle(self, client: ServeClient) -> Tuple[Dict, Optional[str]]:
        """Quiesce, run the checks that need a settled table, and leave a
        fixed journal tail behind a checkpoint; returns (STATS, FINGERPRINT)."""
        sent = self.update_at
        if sent:
            client.flush()
            for batch in self.stream.batches[:sent]:
                apply_to_reference(self.oracle, batch)
        if self.timeline is not None:
            judged = self._check_against(client, self.timeline.addresses, "post-FLUSH")
            self.notes.append(
                f"{self.verdict.in_flight_items} lookups overlapped an in-flight "
                f"update of their prefix and were judged against both versions; "
                f"{judged} changing addresses re-checked after FLUSH"
            )
        stats = client.stats()
        if not self.workload.journaled:
            return stats, None
        client.checkpoint()
        tail = self._send_updates_closed(client, None, count=TAIL_BATCHES)
        self.verdict.merge(drive.verify_update_acks(tail, inputs.UPDATE_BATCH))
        for batch in self.stream.batches[sent : self.update_at]:
            apply_to_reference(self.oracle, batch)
        client.flush()
        return stats, client.fingerprint()

    def recover(self, fingerprint: Optional[str]) -> List[float]:
        """Restart after a SIGKILL, at least ``repeats`` times; each sample
        is spawn -> first correct answer.

        A journaled workload restores (snapshot + the fixed journal tail)
        and must come back with the pre-kill fingerprint, serving every
        acked update.  The last server is drained with SIGTERM instead.
        """
        journaled = self.workload.journaled
        samples: List[float] = []
        last = False
        while not last:
            restored = child.Server(
                self.workdir,
                _server_flags(self.workload, self.table, self.journal, restore=journaled),
                f"restored-{len(samples)}",
            )
            with restored:
                client, elapsed, after = self._first_correct_answer(
                    restored, fingerprint=journaled
                )
                try:
                    samples.append(elapsed)
                    # A restart from the table alone is cheap and its time
                    # noisy, so those are repeated until they fill the budget.
                    last = len(samples) >= self.repeats and (
                        self.repeats == 1 or sum(samples) >= RECOVER_BUDGET_S
                    )
                    if after != fingerprint:
                        self.verdict.wrong += 1
                        self.verdict.note(
                            f"fingerprint {after} after restore, "
                            f"{fingerprint} before the kill"
                        )
                    if last and journaled:
                        acked = self.stream.batches[: self.update_at]
                        judged = self._check_against(
                            client, inputs.probe_addresses(acked), "acked update"
                        )
                        self.notes.append(
                            f"{len(acked) * inputs.UPDATE_BATCH} acked updates served "
                            f"after SIGKILL + --restore ({judged} routed probes, "
                            f"fingerprint matched {len(samples)} time(s)); each restore "
                            f"replayed a {TAIL_BATCHES * inputs.UPDATE_BATCH}-update "
                            f"journal tail over a checkpoint"
                        )
                finally:
                    client.close()
                if not last:
                    restored.kill()
                elif restored.stop() != 0:
                    self.verdict.errors += 1
                    self.verdict.note(
                        f"restored server exited {restored.proc.returncode} on SIGTERM"
                    )
        return samples

    # -- the whole run ------------------------------------------------------

    def run(self) -> Outcome:
        # The collector stays on, but must not walk the pre-built inputs
        # (millions of objects) in the middle of a window: a full
        # collection stalls both client threads for hundreds of ms.
        gc.collect()
        gc.freeze()
        try:
            return self._run()
        finally:
            gc.unfreeze()

    def _run(self) -> Outcome:
        workload = self.workload
        server, client, setup_samples = self.setup()
        with server:
            try:
                self.prefill(client)
                marks, clocks, lookups, updates, late = self.measure(server, client)
                stats, fingerprint = self.settle(client)
                peak_rss = server.peak_rss_mb()
            finally:
                client.close()
            server.kill()
        recover_samples = self.recover(fingerprint)

        primary = lookups if workload.lookups else updates
        in_windows = drive.measured(primary, marks)
        latencies = sorted(record.latency_s for record in in_windows)
        acks = sorted(record.latency_s for record in drive.measured(updates, marks))
        good_items = sum(record.good_items for record in in_windows)
        wall, client_cpu, server_cpu = clocks.span()
        front, workers = clocks.pids[0], clocks.pids[1:]
        hits = [
            int(row["lookup_hits" if workload.lookups else "update_hits"])
            for row in stats["shards"]
        ]
        rates = drive.window_rates(primary, marks)
        self.notes.append(
            f"{workload.item}/s per window: " + ", ".join(f"{rate:.0f}" for rate in rates)
        )
        end_to_end = {
            "setup_s": statistics.median(setup_samples),
            "goodput_per_s": statistics.median(rates),
            "request_p50_ms": drive.percentile(latencies, 0.50) * 1e3,
            "recover_s": statistics.median(recover_samples),
            "server_peak_rss_mb": peak_rss,
        }
        observed = {
            "server.cpu_share": sum(server_cpu.values()) / wall,
            "front.cpu_share": server_cpu[front] / wall,
            "worker.cpu_share.max": max(
                (server_cpu[pid] / wall for pid in workers), default=0.0
            ),
            "client.cpu_share": client_cpu / wall,
            "server.cpu_us_per_item": sum(server_cpu.values()) / good_items * 1e6,
            "server.busy_responses": float(
                stats["serve"]["busy_responses"]
                + stats.get("workers_serve", {}).get("busy_responses", 0)
            ),
            "shard.hit_skew": max(hits) / statistics.fmean(hits),
            "loadgen.late_ms.max": max(late) * 1e3 if late else 0.0,
            "request.p95_ms": drive.percentile(latencies, 0.95) * 1e3,
            "update.ack_p50_ms": drive.percentile(acks, 0.50) * 1e3 if acks else 0.0,
            "update.ack_p95_ms": drive.percentile(acks, 0.95) * 1e3 if acks else 0.0,
        }
        samples = {
            "setup_s": len(setup_samples),
            "goodput_per_s": WINDOWS,
            "request_p50_ms": len(latencies),
            "request.p95_ms": len(latencies),
            "recover_s": len(recover_samples),
            "update.ack_p50_ms": len(acks),
            "update.ack_p95_ms": len(acks),
        }
        return Outcome(
            correct=self.verdict.failed == 0,
            attempted=self.verdict.attempted,
            failed=self.verdict.failed,
            end_to_end=end_to_end,
            observed=observed,
            samples=samples,
            notes=self.notes + self.verdict.details,
            inputs=self.provenance,
        )


def run_workload(
    workload: Workload,
    rib: Sequence[inputs.Route],
    traffic_seed: int,
    update_seed: int,
    seconds: float,
    repeats: int = REPEATS,
) -> Outcome:
    child.WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=child.WORK_ROOT))
    try:
        return _Run(
            workdir, workload, rib, traffic_seed, update_seed, seconds, repeats
        ).run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
