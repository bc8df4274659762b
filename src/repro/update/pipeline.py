"""The whole incremental update pipeline (Figure 6): trie → TCAM → DRed.

Two end-to-end pipelines apply the same BGP update stream and produce
per-update :class:`~repro.update.ttf.TtfSample` records:

* :class:`ClueUpdatePipeline` — incremental ONRTC, O(1) TCAM layout,
  direct parallel DRed probe (stages 2 and 3 overlap in hardware);
* :class:`ClplUpdatePipeline` — plain trie, Shah–Gupta PLO layout, RRC-ME
  DRed bookkeeping (stage 3 waits on the control plane).

Each pipeline owns real data structures (not just cost counters): the TCAM
mirrors hold actual slots and the tests verify that, after any update
sequence, CLUE's TCAM still contains exactly the freshly-compressed table
and serves correct lookups with the priority encoder off.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

from repro.compress.labels import CompressionMode
from repro.compress.onrtc import TableDiff
from repro.engine.dred import DredCache
from repro.engine.queues import UpdateQueue
from repro.net.prefix import Prefix
from repro.update.dred_update import ClplDredUpdater, ClueDredUpdater
from repro.update.tcam_update import ClueTcamMirror, PloTcamMirror
from repro.update.trie_update import OnrtcTrieUpdater, PlainTrieUpdater
from repro.update.ttf import TtfReport, TtfSample, UpdateCostModel
from repro.workload.updategen import UpdateMessage

Route = Tuple[Prefix, int]


def default_dred_banks(
    count: int, capacity: int, exclude_own: bool
) -> List[DredCache]:
    """A bank of DRed caches as the engines provision them."""
    return [
        DredCache(capacity, chip_index, exclude_own)
        for chip_index in range(count)
    ]


@dataclass
class PipelineTotals:
    """Aggregate operation counts over a whole stream (sanity/benchmarks)."""

    updates: int = 0
    tcam_moves: int = 0
    tcam_writes: int = 0
    dred_ops: int = 0
    sram_accesses: int = 0
    trie_nodes: int = 0


class ClueUpdatePipeline:
    """CLUE's three-stage update path over real structures."""

    def __init__(
        self,
        routes: Iterable[Route],
        mode: CompressionMode = CompressionMode.DONT_CARE,
        cost_model: Optional[UpdateCostModel] = None,
        dred_banks: Optional[Sequence[DredCache]] = None,
        tcam_capacity: Optional[int] = None,
        lazy: bool = False,
    ) -> None:
        routes = list(routes)
        self.cost_model = cost_model or UpdateCostModel()
        self.trie_stage = OnrtcTrieUpdater(routes, mode=mode, lazy=lazy)
        self.tcam_stage = ClueTcamMirror(
            self.trie_stage.table.routes(), capacity=tcam_capacity
        )
        self.dred_stage = ClueDredUpdater(dred_banks)
        self.report = TtfReport("clue")
        self.totals = PipelineTotals()
        #: Entry-level diff of the most recent update (for callers that
        #: mirror the compressed table elsewhere, e.g. live engine chips).
        self.last_diff = None

    def apply(self, message: UpdateMessage) -> TtfSample:
        """Run one update through all three stages."""
        outcome = self.trie_stage.apply(message)
        assert outcome.diff is not None
        self.last_diff = outcome.diff
        tcam_result = self.tcam_stage.apply_diff(outcome.diff)
        dred_result = self.dred_stage.apply(message, outcome.diff)

        model = self.cost_model
        sample = TtfSample(
            timestamp=message.timestamp,
            ttf1_us=model.trie_us(outcome.nodes_touched),
            ttf2_us=model.tcam_us(
                tcam_result.moves, tcam_result.writes, tcam_result.invalidates
            ),
            ttf3_us=model.dred_us(0, dred_result.tcam_ops),
            parallel_23=True,
        )
        self.report.add(sample)
        totals = self.totals
        totals.updates += 1
        totals.tcam_moves += tcam_result.moves
        totals.tcam_writes += tcam_result.writes
        totals.dred_ops += dred_result.tcam_ops
        totals.trie_nodes += outcome.nodes_touched
        return sample

    def run(self, messages: Iterable[UpdateMessage]) -> TtfReport:
        """Apply a whole stream; returns the accumulated report."""
        for message in messages:
            self.apply(message)
        return self.report

    # -- invariants --------------------------------------------------------

    def tcam_matches_table(self) -> bool:
        """The TCAM content equals the current compressed table exactly."""
        stored = {
            entry.prefix: entry.next_hop
            for entry in self.tcam_stage.updater.entries()
        }
        return stored == self.trie_stage.table.table


@dataclass
class SchedulerStats:
    """What the backpressured scheduler did to an update stream."""

    offered: int = 0
    applied: int = 0
    pump_calls: int = 0
    shed: int = 0


class UpdateScheduler:
    """Bounded admission in front of a CLUE pipeline.

    A BGP storm must not stall lookups, so updates wait in a bounded
    :class:`~repro.engine.queues.UpdateQueue` and the caller decides how
    many to apply per :meth:`pump`.  Every pumped update runs the full
    three-stage pipeline: the disjoint table makes each TCAM update at
    most one shift, so there is nothing to gain from postponing it.
    Offers to a full queue are *shed* and counted — the caller sees
    ``False`` and is expected to rely on BGP re-advertisement, never on
    the queue blocking the data plane.

    ``on_diff`` is invoked with every applied update's entry diff; the
    integrated system uses it to keep the live chips' tables in step.
    """

    def __init__(
        self,
        pipeline: "ClueUpdatePipeline",
        capacity: int = 256,
        on_diff: Optional[Callable[[TableDiff], None]] = None,
    ) -> None:
        self.pipeline = pipeline
        self.queue: UpdateQueue[UpdateMessage] = UpdateQueue(capacity)
        self.on_diff = on_diff
        self.stats = SchedulerStats()

    def offer(self, message: UpdateMessage) -> bool:
        """Admit one update; ``False`` means the queue shed it."""
        self.stats.offered += 1
        accepted = self.queue.offer(message)
        if not accepted:
            self.stats.shed += 1
        return accepted

    def pump(self, budget: int = 8) -> int:
        """Apply up to ``budget`` queued updates; returns how many ran."""
        if budget < 0:
            raise ValueError("pump budget must be non-negative")
        # Counted even when nothing runs: recovery derives the driving
        # cadence from durable state, so every call must be visible.
        self.stats.pump_calls += 1
        applied = 0
        while applied < budget and not self.queue.is_empty:
            self.pipeline.apply(self.queue.pop())
            if self.on_diff is not None:
                self.on_diff(self.pipeline.last_diff)
            applied += 1
        self.stats.applied += applied
        return applied

    def drain(self) -> int:
        """Pump until the queue is empty; returns total applied."""
        applied = 0
        while not self.queue.is_empty:
            applied += self.pump(budget=len(self.queue))
        return applied


class ClplUpdatePipeline:
    """The baseline pipeline: plain trie, PLO TCAM, RRC-ME DRed."""

    def __init__(
        self,
        routes: Iterable[Route],
        cost_model: Optional[UpdateCostModel] = None,
        dred_banks: Optional[Sequence[DredCache]] = None,
        tcam_capacity: Optional[int] = None,
    ) -> None:
        routes = list(routes)
        self.cost_model = cost_model or UpdateCostModel()
        self.trie_stage = PlainTrieUpdater(routes)
        self.tcam_stage = PloTcamMirror(routes, capacity=tcam_capacity)
        self.dred_stage = ClplDredUpdater(self.trie_stage.trie, dred_banks)
        self.report = TtfReport("clpl")
        self.totals = PipelineTotals()

    def apply(self, message: UpdateMessage) -> TtfSample:
        outcome = self.trie_stage.apply(message)
        tcam_result = self.tcam_stage.apply(message)
        dred_result = self.dred_stage.apply(message)

        model = self.cost_model
        sample = TtfSample(
            timestamp=message.timestamp,
            ttf1_us=model.trie_us(outcome.nodes_touched),
            ttf2_us=model.tcam_us(
                tcam_result.moves, tcam_result.writes, tcam_result.invalidates
            ),
            ttf3_us=model.dred_us(
                dred_result.sram_accesses, dred_result.tcam_ops
            ),
            parallel_23=False,
        )
        self.report.add(sample)
        totals = self.totals
        totals.updates += 1
        totals.tcam_moves += tcam_result.moves
        totals.tcam_writes += tcam_result.writes
        totals.dred_ops += dred_result.tcam_ops
        totals.sram_accesses += dred_result.sram_accesses
        totals.trie_nodes += outcome.nodes_touched
        return sample

    def run(self, messages: Iterable[UpdateMessage]) -> TtfReport:
        for message in messages:
            self.apply(message)
        return self.report

    # -- invariants --------------------------------------------------------

    def tcam_matches_table(self) -> bool:
        """The TCAM content equals the uncompressed table exactly."""
        stored = {
            entry.prefix: entry.next_hop
            for entry in self.tcam_stage.updater.entries()
        }
        return stored == self.trie_stage.trie.as_dict()
