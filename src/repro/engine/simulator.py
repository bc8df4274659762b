"""Cycle-driven simulator of the parallel TCAM lookup engine (Figure 1).

The model follows the paper's own simulation settings (Figure 15): packets
arrive at up to one per clock, each TCAM needs ``lookup_cycles`` (4) clocks
per search, every chip has a bounded FIFO (256) and a DRed partition (1024
prefixes).  Dispatch implements Section III-B's rules:

(a) home queue not full → enqueue for a MAIN lookup in the home chip;
(b) home queue full → idlest other queue, as a DRED lookup *only*;
(c) DRed miss → bounce back and repeat (a).

Functional note: chips execute searches against trie-backed tables rather
than the linear-scan :class:`~repro.tcam.device.Tcam` model — a cycle
simulation performs millions of searches and the device model is O(slots)
per search.  Counting semantics are identical (slot activations are charged
from the known partition sizes); the device model is exercised by the
update pipeline and the unit tests instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Iterator, List, Optional, Sequence, Tuple

from repro.engine.dred import DredCache, DredEntry
from repro.engine.events import Completion, LookupKind, Packet
from repro.engine.fastlpm import (
    LOOKUP_BACKENDS,
    FastLpmTable,
    make_lookup_table,
)
from repro.engine.queues import BoundedFifo
from repro.engine.reorder import ReorderBuffer
from repro.engine.schemes import CluePolicy, SchemePolicy
from repro.engine.stats import EngineStats
from repro.net.prefix import Prefix
from repro.trie.trie import BinaryTrie

Route = Tuple[Prefix, int]


@dataclass
class EngineConfig:
    """Knobs of the simulated engine (defaults = the paper's Figure 15)."""

    chip_count: int = 4
    lookup_cycles: int = 4
    queue_capacity: int = 256
    dred_capacity: int = 1024
    arrivals_per_cycle: float = 1.0
    max_dred_attempts: int = 64
    #: Extra cycles a control-path (SRAM) resolution costs when a dead
    #: chip's traffic misses in a survivor's DRed.
    control_path_cycles: int = 8
    #: Chip table implementation: ``"trie"`` (reference BinaryTrie),
    #: ``"fast"`` (flattened stride table, see :mod:`repro.engine.fastlpm`)
    #: or ``"verify"`` (both, cross-checked on every lookup).
    lookup_backend: str = "trie"

    def __post_init__(self) -> None:
        if self.chip_count < 1:
            raise ValueError("need at least one chip")
        if self.lookup_cycles < 1:
            raise ValueError("lookups take at least one cycle")
        if self.queue_capacity < 1:
            raise ValueError("queue capacity must be at least one slot")
        if self.dred_capacity < 1:
            raise ValueError("DRed capacity must be at least one prefix")
        if self.max_dred_attempts < 1:
            raise ValueError("allow at least one DRed attempt")
        if self.arrivals_per_cycle <= 0:
            raise ValueError("arrival rate must be positive")
        if self.control_path_cycles < 0:
            raise ValueError("control-path penalty must be non-negative")
        if self.lookup_backend not in LOOKUP_BACKENDS:
            raise ValueError(
                f"unknown lookup backend {self.lookup_backend!r} "
                f"(choose from {LOOKUP_BACKENDS})"
            )


class ChipState:
    """One TCAM chip: main table, DRed partition, input FIFO, busy timer."""

    def __init__(
        self,
        index: int,
        routes: Sequence[Route],
        config: EngineConfig,
        exclude_own_dred: bool,
        uses_dred: bool,
    ) -> None:
        self.index = index
        self.backend = config.lookup_backend
        self.table = make_lookup_table(routes, self.backend)
        self.table_slots = len(self.table)
        self.queue: BoundedFifo[Tuple[Packet, LookupKind]] = BoundedFifo(
            config.queue_capacity
        )
        self.dred: Optional[DredCache] = (
            DredCache(config.dred_capacity, index, exclude_own_dred)
            if uses_dred
            else None
        )
        self.busy_until = 0
        #: False while the chip is failed (see LookupEngine.kill_chip).
        self.alive = True

    def load_routes(self, routes: Sequence[Route]) -> None:
        """Replace the chip's table content, keeping the configured backend.

        Rebalance and snapshot restore go through here so a ``"fast"``
        engine stays on the fast path across table reloads.
        """
        self.table = make_lookup_table(routes, self.backend)
        self.table_slots = len(self.table)


class LookupEngine:
    """The parallel lookup engine of Figure 1, ready to run packet streams.

    ``tables`` gives each chip's main-partition content; ``home_of`` is the
    Indexing Logic (step II); ``reference`` the control-plane trie (needed
    by CLPL's RRC-ME and by result verification).
    """

    def __init__(
        self,
        tables: Sequence[Sequence[Route]],
        home_of: Callable[[int], int],
        scheme: SchemePolicy,
        config: Optional[EngineConfig] = None,
        reference: Optional[BinaryTrie] = None,
    ) -> None:
        self.config = config or EngineConfig()
        if len(tables) != self.config.chip_count:
            raise ValueError(
                f"{len(tables)} tables for {self.config.chip_count} chips"
            )
        self.scheme = scheme
        self.home_of = home_of
        self.reference = reference
        self.chips = [
            ChipState(
                index,
                routes,
                self.config,
                scheme.exclude_own_dred,
                scheme.uses_dred,
            )
            for index, routes in enumerate(tables)
        ]
        self.stats = EngineStats(
            per_chip_lookups=[0] * self.config.chip_count,
            per_chip_main=[0] * self.config.chip_count,
            per_chip_dred=[0] * self.config.chip_count,
        )
        self.reorder = ReorderBuffer()
        self._cycle = 0
        self._next_tag = 0
        # One FIFO backlog of everything awaiting dispatch: fresh arrivals
        # and bounced DRed misses alike.  A single queue is what guarantees
        # progress — giving bounced packets strict priority can livelock the
        # engine with doomed DRed retries that crowd out the MAIN lookups
        # that would warm the DReds.
        self._pending: Deque[Packet] = deque()
        self._arrival_credit = 0.0
        #: Optional per-cycle observer, called with each cycle number.
        self.on_cycle: Optional[Callable[[int], None]] = None
        #: Optional fault source consulted each cycle (see
        #: :class:`repro.faults.injector.FaultInjector` — anything with a
        #: ``tick(cycle)`` method fits).
        self.fault_injector: Optional[object] = None

    # ------------------------------------------------------------------
    # Dispatch (Figure 1, steps II-V)
    # ------------------------------------------------------------------

    def idlest_chip(self, exclude: Optional[int]) -> Optional[int]:
        """The alive chip with the shortest non-full queue (rule (b))."""
        best: Optional[int] = None
        best_depth = -1
        for chip in self.chips:
            if exclude is not None and chip.index == exclude:
                continue
            if not chip.alive:
                continue
            queue = chip.queue
            depth = len(queue)
            if depth >= queue.capacity:
                continue
            if best is None or depth < best_depth:
                best = chip.index
                best_depth = depth
        return best

    def _try_dispatch(self, packet: Packet) -> bool:
        home = self.chips[packet.home]
        if not home.alive:
            return self._dispatch_failover(packet)
        queue = home.queue
        if len(queue) < queue.capacity:
            queue.push((packet, LookupKind.MAIN))
            return True
        if packet.dred_attempts >= self.config.max_dred_attempts:
            # Livelock guard: after pathological bouncing the packet waits
            # for its home chip instead of burning more DRed slots.
            return False
        target = self.scheme.divert(self, packet)
        if target is None:
            return False
        chip_index, kind = target
        chip = self.chips[chip_index]
        if chip.queue.is_full:
            return False
        chip.queue.push((packet, kind))
        self.stats.diverted += 1
        return True

    def _dispatch_failover(self, packet: Packet) -> bool:
        """Re-home a dead chip's packet onto a survivor (degraded mode).

        DRed schemes serve the orphaned range from a survivor's DRed; a
        miss there escalates to the control path (see :meth:`_serve_chip`),
        which warms the DRed so subsequent hits stay on the data plane —
        exactly the disjointness dividend: the dead chip's entries are
        cacheable as-is, no recomputation needed.  Non-DRed schemes fall
        back to their ordinary divert rule (full duplication can serve
        anything anywhere; SLPL can only fail over its hot set).
        """
        if self.scheme.uses_dred:
            target_index = self.idlest_chip(exclude=packet.home)
            if target_index is None:
                return False
            kind = LookupKind.DRED
        else:
            target = self.scheme.divert(self, packet)
            if target is None:
                return False
            target_index, kind = target
        chip = self.chips[target_index]
        if chip.queue.is_full:
            return False
        chip.queue.push((packet, kind))
        if not packet.failed_over:
            packet.failed_over = True
            self.stats.failed_over_packets += 1
        return True

    def _drain(self) -> int:
        """Dispatch the backlog in FIFO order until head-of-line blocks.

        Head-of-line blocking is deliberate: it models the input link's
        backpressure and guarantees progress (the head's home chip frees a
        slot every ``lookup_cycles``).  Returns the number of packets
        dispatched, which the run loop's quiescence detector needs."""
        backlog = self._pending
        dispatched = 0
        while backlog:
            if not self._try_dispatch(backlog[0]):
                break
            backlog.popleft()
            dispatched += 1
        return dispatched

    # ------------------------------------------------------------------
    # Execution (Figure 1, step V)
    # ------------------------------------------------------------------

    def _serve_chip(self, chip: ChipState) -> Optional[Completion]:
        cycle = self._cycle
        if not chip.alive:
            return None
        if chip.busy_until > cycle or chip.queue.is_empty:
            return None
        stats = self.stats
        index = chip.index
        packet, kind = chip.queue.pop()
        done_at = cycle + self.config.lookup_cycles
        chip.busy_until = done_at
        stats.per_chip_lookups[index] += 1
        if kind is LookupKind.MAIN:
            stats.main_lookups += 1
            stats.per_chip_main[index] += 1
            address = packet.address
            match = chip.table.lookup_prefix(address)
            if match is not None:
                prefix, hop = match
                self.scheme.on_main_hit(self, index, address, prefix, hop)
                return Completion(
                    packet.tag, address, hop, done_at,
                    index, kind, packet.arrival_cycle,
                )
            return Completion(
                packet.tag, address, None, done_at,
                index, kind, packet.arrival_cycle,
            )
        # DRed lookup (diverted traffic).
        stats.dred_lookups += 1
        stats.per_chip_dred[index] += 1
        assert chip.dred is not None
        entry = chip.dred.lookup(packet.address)
        if entry is not None:
            stats.dred_hits += 1
            return Completion(
                packet.tag, packet.address, entry.next_hop, done_at,
                index, kind, packet.arrival_cycle,
            )
        stats.dred_misses += 1
        home_chip = self.chips[packet.home]
        if not home_chip.alive:
            return self._resolve_via_control_path(packet, chip, done_at, kind)
        stats.bounced += 1
        packet.dred_attempts += 1
        self._pending.append(packet)  # rule (c): back through rule (a)
        return None

    def _resolve_via_control_path(
        self,
        packet: Packet,
        chip: ChipState,
        done_at: int,
        kind: LookupKind,
    ) -> Completion:
        """Answer a failed-over DRed miss from the control plane.

        Bouncing back to rule (a) would livelock: the home chip is dead, so
        no MAIN lookup will ever warm the DReds for its range.  Instead the
        control plane's SRAM copy of the table answers (at a latency
        penalty) and the matching entry — a disjoint compressed entry, so
        cacheable verbatim — is pushed into the serving chip's DRed, keeping
        later packets for the range on the data plane.
        """
        self.stats.control_path_resolutions += 1
        home_chip = self.chips[packet.home]
        match = home_chip.table.lookup_prefix(packet.address)
        if match is None and self.reference is not None:
            match = self.reference.lookup_prefix(packet.address)
        next_hop: Optional[int] = None
        if match is not None:
            prefix, next_hop = match
            # Warm the survivor's DRed with the dead chip's entry unless the
            # survivor already holds it in MAIN (a range-spanning replica) —
            # caching those would break the DRed-exclusion invariant.
            if chip.dred is not None and chip.table.get(prefix) is None:
                if chip.dred.insert(prefix, next_hop, owner=packet.home):
                    self.stats.dred_insertions += 1
        return Completion(
            packet.tag,
            packet.address,
            next_hop,
            done_at + self.config.control_path_cycles,
            chip.index,
            kind,
            packet.arrival_cycle,
        )

    # ------------------------------------------------------------------
    # Main loop
    # ------------------------------------------------------------------

    def run(
        self,
        addresses: Iterator[int],
        packet_count: int,
        max_cycles: Optional[int] = None,
    ) -> EngineStats:
        """Inject ``packet_count`` packets and run until all complete.

        ``addresses`` supplies destination addresses (e.g. a
        :class:`~repro.workload.trafficgen.TrafficGenerator`).  Arrival rate
        follows ``config.arrivals_per_cycle``; the engine then drains.
        Returns the accumulated statistics (also kept on ``self.stats``).

        Two implementations sit behind this entry point:

        * :meth:`_run_reference` — the readable cycle-by-cycle simulation,
          the executable specification of the engine's semantics.  It is
          always used when anything can observe or perturb individual
          cycles (an ``on_cycle`` observer, a fault injector, a dead chip)
          and for the ``"trie"`` and ``"verify"`` backends.
        * :meth:`_run_turbo` — a fused steady-state loop, used only when
          every chip runs the flattened ``"fast"`` backend under the CLUE
          policy with nothing watching individual cycles.  It inlines the
          stride-table lookup, dispatch rules and DRed maintenance into a
          single loop body and produces byte-identical statistics and
          engine state (``tests/engine/test_cycle_skip.py`` asserts
          fingerprint equality against the reference path).
        """
        if (
            self.on_cycle is None
            and self.fault_injector is None
            and type(self.scheme) is CluePolicy
            and all(
                chip.alive
                and chip.dred is not None
                and type(chip.table) is FastLpmTable
                for chip in self.chips
            )
        ):
            return self._run_turbo(addresses, packet_count, max_cycles)
        return self._run_reference(addresses, packet_count, max_cycles)

    def _run_reference(
        self,
        addresses: Iterator[int],
        packet_count: int,
        max_cycles: Optional[int] = None,
    ) -> EngineStats:
        """The cycle-by-cycle engine loop (see :meth:`run`).

        Cycle accounting is event-driven: after a *quiescent* cycle — no
        fault fired, nothing arrived, nothing dispatched, no chip popped a
        packet — every following cycle is provably identical until the
        next event (a chip's busy timer expiring with queued work, the
        next arrival becoming due, or the next scheduled fault), so the
        clock jumps straight there.  Per-cycle statistics that the skipped
        cycles would have accumulated (``chip_downtime_cycles``,
        ``stalled_arrivals``, arrival credit) are applied in closed form,
        keeping every counter byte-identical to the cycle-by-cycle run.
        Skipping disables itself whenever an ``on_cycle`` observer is
        attached (observers must see every cycle) or the fault source does
        not expose ``next_cycle``.
        """
        config = self.config
        # Targets are relative to this call so that consecutive run() calls
        # (e.g. traffic chunks interleaved with updates) each make progress.
        target = self.stats.completions + packet_count
        limit = self._cycle + (
            max_cycles if max_cycles is not None else packet_count * 100
        )
        injected = 0
        # Hot-loop local bindings (the loop body runs once per simulated
        # cycle — attribute lookups here dominate the non-lookup cost).
        stats = self.stats
        chips = self.chips
        pending = self._pending
        home_of = self.home_of
        offer = self.reorder.offer
        serve_chip = self._serve_chip
        next_address = iter(addresses).__next__
        rate = config.arrivals_per_cycle
        rate_is_integral = float(rate).is_integer()
        while stats.completions < target:
            cycle = self._cycle
            if cycle > limit:
                raise RuntimeError(
                    f"simulation exceeded its cycle budget "
                    f"({stats.completions}/{target} done)"
                )
            # Step 0: scheduled faults strike before anything else happens
            # this cycle (chip deaths, corruption, stalls, storms).
            injector = self.fault_injector
            fault_fired = 0
            if injector is not None:
                fault_fired = injector.tick(cycle) or 0
            dead_chips = 0
            for chip in chips:
                if not chip.alive:
                    dead_chips += 1
            if dead_chips:
                stats.chip_downtime_cycles += dead_chips
            # Step I: arrivals for this cycle.
            arrived = 0
            self._arrival_credit += rate
            while self._arrival_credit >= 1.0 and injected < packet_count:
                self._arrival_credit -= 1.0
                packet = Packet(
                    tag=self._next_tag,
                    address=next_address(),
                    home=0,
                    arrival_cycle=cycle,
                )
                packet.home = home_of(packet.address)
                self._next_tag += 1
                injected += 1
                arrived += 1
                stats.arrivals += 1
                pending.append(packet)
            # Steps II-IV: dispatch the backlog (arrivals and bounces).
            dispatched = self._drain() if pending else 0
            if pending:
                stats.stalled_arrivals += len(pending)
            # Step V: every chip serves its queue.
            popped = 0
            for chip in chips:
                # Inline eligibility check: most chips are mid-lookup on
                # most cycles, and skipping the method call for them is a
                # measurable share of the loop.
                if not chip.alive or chip.busy_until > cycle:
                    continue
                if chip.queue.is_empty:
                    continue
                popped += 1
                completion = serve_chip(chip)
                if completion is not None:
                    stats.completions += 1
                    latency = completion.latency
                    stats.latencies_sum += latency
                    if latency > stats.latency_max:
                        stats.latency_max = latency
                    offer(completion)
            on_cycle = self.on_cycle
            if on_cycle is not None:
                on_cycle(cycle)
            cycle += 1
            self._cycle = cycle
            stats.cycles = cycle
            # Event-driven skip: a cycle where nothing happened repeats
            # verbatim until the next scheduled event, so jump there.
            if (
                on_cycle is None
                and fault_fired == 0
                and arrived == 0
                and dispatched == 0
                and popped == 0
            ):
                next_event = self._next_event_cycle(
                    cycle, injector, injected, packet_count, limit
                )
                if next_event is not None and next_event > cycle:
                    skipped = next_event - cycle
                    # Closed-form catch-up of the per-cycle counters the
                    # skipped (identical) cycles would have accumulated.
                    if dead_chips:
                        stats.chip_downtime_cycles += dead_chips * skipped
                    if pending:
                        stats.stalled_arrivals += len(pending) * skipped
                    if rate_is_integral:
                        # Integral rates stay float-exact under scaling.
                        self._arrival_credit += rate * skipped
                    else:
                        # Fractional rates must replay the additions to
                        # reproduce the reference run's rounding exactly.
                        credit = self._arrival_credit
                        for _ in range(skipped):
                            credit += rate
                        self._arrival_credit = credit
                    self._cycle = next_event
                    stats.cycles = next_event
        return self.stats

    def _run_turbo(
        self,
        addresses: Iterator[int],
        packet_count: int,
        max_cycles: Optional[int] = None,
    ) -> EngineStats:
        """Fused fast-path engine loop (CLUE + flattened tables only).

        Semantically identical to :meth:`_run_reference`; structurally a
        single loop body with the per-packet machinery inlined:

        * the DIR-24-8 stride descent of :class:`FastLpmTable` (three array
          indexes instead of a per-bit trie walk);
        * dispatch rules (a)/(b)/(c) and the idlest-queue scan;
        * CLUE's ``on_main_hit`` DRed maintenance, with the pure-recency
          refresh special-cased to an ``OrderedDict.move_to_end``;
        * the DRed lookup — the same probe-plan scan over the occupied
          lengths that :meth:`DredCache.lookup` runs in the reference loop;
        * the reorder buffer's in-order fast path.

        Scalar statistics accumulate in locals and are flushed back to
        ``self`` in a ``finally`` block, so the engine state is consistent
        even when the cycle-budget guard raises.  The gate in :meth:`run`
        guarantees nothing can observe or perturb a cycle mid-run (no
        observer, no fault injector, all chips alive), which is what makes
        the local accumulation and the one-time structure bindings below
        safe.  Equivalence with the reference loop is enforced by the
        fingerprint-parity and golden-pin tests in
        ``tests/engine/test_cycle_skip.py``.
        """
        config = self.config
        stats = self.stats
        target = stats.completions + packet_count
        limit = self._cycle + (
            max_cycles if max_cycles is not None else packet_count * 100
        )
        injected = 0

        # --- one-time structure bindings (safe: nothing rebinds these
        # mid-run without an observer, and the gate excluded observers) ---
        chips = self.chips
        n = len(chips)
        chip_range = range(n)
        pending = self._pending
        pending_popleft = pending.popleft
        pending_append = pending.append
        home_of = self.home_of
        # Flattened Indexing Logic (see builders.FlatHomeIndex): answer
        # step II with one array index; ``-1`` falls back to the exact
        # callable.  An all-sentinel array keeps the loop uniform when the
        # index is not flattened.
        home_l1 = getattr(home_of, "home_l1", None)
        if home_l1 is None:
            home_l1 = [-1] * (1 << 16)
        next_address = iter(addresses).__next__
        rate = config.arrivals_per_cycle
        rate_is_integral = float(rate).is_integer()
        lookup_cycles = config.lookup_cycles
        qcap = config.queue_capacity
        max_attempts = config.max_dred_attempts
        # NamedTuple construction goes through an eval-generated __new__
        # wrapper; tuple.__new__ with the ready tuple skips that frame.
        tuple_new = tuple.__new__
        completion_type = Completion
        make_packet = Packet
        # Completed packets are unreachable (Completions copy the scalars
        # out), so recycle them: overwriting four slots is cheaper than a
        # dataclass construction, and the allocation churn it avoids is
        # what kept the cyclic GC busy.
        free_packets: List[Packet] = []
        free_pop = free_packets.pop
        free_append = free_packets.append
        kind_main = LookupKind.MAIN
        kind_dred = LookupKind.DRED
        _list = list

        queues = [chip.queue for chip in chips]
        queue_items = [queue._items for queue in queues]
        # Queue depths tracked as plain ints alongside the deques: the
        # dispatch rules and the idlest-queue scan read depths far more
        # often than they change, and len() is a measurable share of the
        # loop.  Purely derived state — never flushed.
        depths = [len(items) for items in queue_items]
        l1s = [chip.table._l1 for chip in chips]
        hops = [chip.table._hops for chip in chips]
        dreds = [chip.dred for chip in chips]
        dred_entries = [dred._entries for dred in dreds]
        dred_moves = [dred._entries.move_to_end for dred in dreds]
        dred_probes = [dred._probe for dred in dreds]
        dred_hits_pc = [dred.hits for dred in dreds]
        dred_misses_pc = [dred.misses for dred in dreds]
        dred_refreshes_pc = [dred.refreshes for dred in dreds]
        # CLUE on_main_hit pushes a hit prefix into every other chip's DRed
        # except chips already holding it in MAIN.  That target set depends
        # only on the prefix and the (static mid-run) table contents, so it
        # is computed once per distinct table-entry object — keyed by the
        # entry tuple's id (an int key probes without calling the
        # Python-level ``Prefix.__hash__``; the stride table keeps every
        # entry object alive, so ids are stable for the whole run).  Each
        # target is a mutable ``[entries, move_to_end, dred, chip, egen,
        # rgen]`` record: ``egen``/``rgen`` remember the target DRed's
        # eviction count and the global replace generation at the last
        # verification that its cached entry is exactly
        # ``(prefix, hop, serving chip)``.  While both generations are
        # unchanged nothing can have disturbed that entry, so the refresh
        # collapses to a pure recency bump — no lookup, no field compare.
        replica_targets: dict = {}
        replica_targets_get = replica_targets.get
        evicts = [dred.evictions for dred in dreds]
        replace_gen = 0
        busy = [chip.busy_until for chip in chips]
        enq = [queue.total_enqueued for queue in queues]
        qpeak = [queue.peak_occupancy for queue in queues]

        reorder = self.reorder
        rb_pending = reorder._pending
        rb_pending_pop = rb_pending.pop
        rb_released_append = reorder.released.append
        rb_next_tag = reorder._next_tag
        rb_peak = reorder.peak_occupancy

        # Per-chip stats lists are mutated in place (they are plain lists).
        pcl = stats.per_chip_lookups
        pcm = stats.per_chip_main
        pcd = stats.per_chip_dred

        # --- scalar statistics, accumulated locally, flushed in finally ---
        cycle = self._cycle
        next_tag = self._next_tag
        credit = self._arrival_credit
        arrivals = stats.arrivals
        completions = stats.completions
        main_lookups = stats.main_lookups
        dred_lookups = stats.dred_lookups
        dred_hits = stats.dred_hits
        dred_misses = stats.dred_misses
        dred_insertions = stats.dred_insertions
        diverted = stats.diverted
        bounced = stats.bounced
        stalled = stats.stalled_arrivals
        latencies_sum = stats.latencies_sum
        latency_max = stats.latency_max

        try:
            while completions < target:
                if cycle > limit:
                    raise RuntimeError(
                        f"simulation exceeded its cycle budget "
                        f"({completions}/{target} done)"
                    )
                # Step I: arrivals for this cycle.
                arrived = 0
                dispatched = 0
                credit += rate
                while credit >= 1.0 and injected < packet_count:
                    credit -= 1.0
                    address = next_address()
                    home = home_l1[address >> 16]
                    if home < 0:
                        home = home_of(address)
                    if free_packets:
                        packet = free_pop()
                        packet.tag = next_tag
                        packet.address = address
                        packet.home = home
                        packet.arrival_cycle = cycle
                        packet.dred_attempts = 0
                    else:
                        packet = make_packet(next_tag, address, home, cycle)
                    next_tag += 1
                    injected += 1
                    arrived += 1
                    arrivals += 1
                    if pending:
                        pending_append(packet)
                        continue
                    depth = depths[home]
                    if depth < qcap:
                        queue_items[home].append((packet, kind_main))
                        enq[home] += 1
                        depth += 1
                        depths[home] = depth
                        if depth > qpeak[home]:
                            qpeak[home] = depth
                        dispatched += 1
                    else:
                        pending_append(packet)
                # Steps II-IV: dispatch the backlog in FIFO order until the
                # head blocks (rules (a) and (b) inlined).
                while pending:
                    packet = pending[0]
                    home = packet.home
                    depth = depths[home]
                    if depth < qcap:
                        queue_items[home].append((packet, kind_main))
                        enq[home] += 1
                        depth += 1
                        depths[home] = depth
                        if depth > qpeak[home]:
                            qpeak[home] = depth
                        pending_popleft()
                        dispatched += 1
                        continue
                    if packet.dred_attempts >= max_attempts:
                        break  # livelock guard: wait for the home chip
                    best = -1
                    best_depth = qcap
                    for index in chip_range:
                        if index == home:
                            continue
                        depth = depths[index]
                        if depth < best_depth:
                            best = index
                            best_depth = depth
                    if best < 0:
                        break  # every foreign queue is full too
                    queue_items[best].append((packet, kind_dred))
                    enq[best] += 1
                    depth = best_depth + 1
                    depths[best] = depth
                    if depth > qpeak[best]:
                        qpeak[best] = depth
                    diverted += 1
                    pending_popleft()
                    dispatched += 1
                if pending:
                    stalled += len(pending)
                # Step V: every free chip serves its queue head.
                popped = 0
                for index in chip_range:
                    if busy[index] > cycle:
                        continue
                    items = queue_items[index]
                    if not items:
                        continue
                    popped += 1
                    packet, kind = items.popleft()
                    depths[index] -= 1
                    done_at = cycle + lookup_cycles
                    busy[index] = done_at
                    pcl[index] += 1
                    address = packet.address
                    if kind is kind_main:
                        main_lookups += 1
                        pcm[index] += 1
                        entry = l1s[index][address >> 16]
                        if type(entry) is _list:
                            entry = entry[(address >> 8) & 0xFF]
                            if type(entry) is _list:
                                entry = entry[address & 0xFF]
                        if entry is not None:
                            prefix, hop = entry
                            # CLUE on_main_hit: push the hit prefix into
                            # every other chip's DRed (owner exclusion can
                            # never trigger here: owner != that chip;
                            # chips already holding the prefix in MAIN are
                            # excluded by the memoised target set).
                            targets = replica_targets_get(id(entry))
                            if targets is None:
                                targets = tuple(
                                    [
                                        dred_entries[other],
                                        dred_moves[other],
                                        dreds[other],
                                        other,
                                        -1,
                                        -1,
                                    ]
                                    for other in chip_range
                                    if hops[other].get(prefix) is None
                                )
                                replica_targets[id(entry)] = targets
                            for state in targets:
                                other = state[3]
                                if (
                                    state[4] == evicts[other]
                                    and state[5] == replace_gen
                                ):
                                    # Verified steady state: the cached
                                    # entry is still ours — pure recency.
                                    dred_refreshes_pc[other] += 1
                                    state[1](prefix)
                                    dred_insertions += 1
                                    continue
                                entries = state[0]
                                existing = entries.get(prefix)
                                if existing is None:
                                    dred = state[2]
                                    dred.insert(prefix, hop, index)
                                    evicts[other] = dred.evictions
                                else:
                                    dred_refreshes_pc[other] += 1
                                    if (
                                        existing.next_hop != hop
                                        or existing.owner != index
                                    ):
                                        # Replica owner flip: replace the
                                        # entry and invalidate every
                                        # cached verification (rare —
                                        # only boundary-spanning replica
                                        # values alternate owners).
                                        entries[prefix] = DredEntry(
                                            prefix, hop, index
                                        )
                                        state[2]._by_length[prefix.length][
                                            prefix.value
                                        ] = prefix
                                        replace_gen += 1
                                    state[1](prefix)
                                state[4] = evicts[other]
                                state[5] = replace_gen
                                dred_insertions += 1
                            completion = tuple_new(completion_type, (
                                packet.tag, address, hop, done_at,
                                index, kind, packet.arrival_cycle,
                            ))
                        else:
                            completion = tuple_new(completion_type, (
                                packet.tag, address, None, done_at,
                                index, kind, packet.arrival_cycle,
                            ))
                    else:
                        # DRed lookup (diverted traffic).
                        dred_lookups += 1
                        pcd[index] += 1
                        # LPM scan over the probe plan (longest occupied
                        # length first), as in DredCache.lookup.
                        hit = None
                        for shift, bucket in dred_probes[index]:
                            prefix = bucket.get(address >> shift)
                            if prefix is not None:
                                hit = dred_entries[index][prefix]
                                dred_moves[index](prefix)
                                break
                        if hit is None:
                            dred_misses_pc[index] += 1
                            dred_misses += 1
                            bounced += 1
                            packet.dred_attempts += 1
                            pending_append(packet)  # rule (c)
                            continue
                        dred_hits_pc[index] += 1
                        dred_hits += 1
                        completion = tuple_new(completion_type, (
                            packet.tag, address, hit.next_hop, done_at,
                            index, kind, packet.arrival_cycle,
                        ))
                    completions += 1
                    latency = done_at - packet.arrival_cycle
                    latencies_sum += latency
                    if latency > latency_max:
                        latency_max = latency
                    # Reorder buffer, inlined (mirrors ReorderBuffer.offer
                    # with ``_next_tag``/``peak_occupancy`` held locally).
                    tag = packet.tag
                    if tag == rb_next_tag and not rb_pending:
                        if rb_peak == 0:
                            rb_peak = 1
                        rb_next_tag = tag + 1
                        rb_released_append(completion)
                    else:
                        rb_pending[tag] = completion
                        if len(rb_pending) > rb_peak:
                            rb_peak = len(rb_pending)
                        while rb_next_tag in rb_pending:
                            rb_released_append(rb_pending_pop(rb_next_tag))
                            rb_next_tag += 1
                    free_append(packet)
                cycle += 1
                # Event-driven skip (same invariants as the reference
                # loop, specialised to the no-fault/all-alive gate).
                if arrived == 0 and dispatched == 0 and popped == 0:
                    if injected >= packet_count or rate < 1.0:
                        next_event = limit + 1
                        for index in chip_range:
                            if queue_items[index]:
                                done_at = busy[index]
                                if done_at < next_event:
                                    next_event = done_at
                        if injected < packet_count:
                            # rate < 1.0: find the cycle whose credit
                            # top-up crosses 1.0 (the top-up precedes the
                            # >= 1.0 check, hence the -1).
                            probe = credit
                            wait = 0
                            while probe < 1.0:
                                probe += rate
                                wait += 1
                            arrival_cycle = cycle + wait - 1
                            if arrival_cycle < next_event:
                                next_event = arrival_cycle
                        if next_event > cycle:
                            skipped = next_event - cycle
                            if pending:
                                stalled += len(pending) * skipped
                            if rate_is_integral:
                                credit += rate * skipped
                            else:
                                for _ in range(skipped):
                                    credit += rate
                            cycle = next_event
        finally:
            self._cycle = cycle
            self._next_tag = next_tag
            self._arrival_credit = credit
            stats.cycles = cycle
            stats.arrivals = arrivals
            stats.completions = completions
            stats.main_lookups = main_lookups
            stats.dred_lookups = dred_lookups
            stats.dred_hits = dred_hits
            stats.dred_misses = dred_misses
            stats.dred_insertions = dred_insertions
            stats.diverted = diverted
            stats.bounced = bounced
            stats.stalled_arrivals = stalled
            stats.latencies_sum = latencies_sum
            stats.latency_max = latency_max
            reorder._next_tag = rb_next_tag
            reorder.peak_occupancy = rb_peak
            for index in chip_range:
                chips[index].busy_until = busy[index]
                queue = queues[index]
                queue.total_enqueued = enq[index]
                queue.peak_occupancy = qpeak[index]
                dred = dreds[index]
                dred.hits = dred_hits_pc[index]
                dred.misses = dred_misses_pc[index]
                dred.refreshes = dred_refreshes_pc[index]
        return self.stats

    def _next_event_cycle(
        self,
        cycle: int,
        injector: Optional[object],
        injected: int,
        packet_count: int,
        limit: int,
    ) -> Optional[int]:
        """The next cycle at which a quiescent engine can change state.

        Candidates: the earliest busy-timer expiry among alive chips that
        hold queued work, the cycle the next arrival becomes due, and the
        fault source's ``next_cycle``.  Everything is clamped to
        ``limit + 1`` so a deadlocked engine still trips the cycle-budget
        guard with the same counters as a cycle-by-cycle run.  Returns
        None when skipping is unsafe (fault source without ``next_cycle``).
        """
        if injector is not None:
            fault_cycle = getattr(injector, "next_cycle", False)
            if fault_cycle is False:
                return None
        else:
            fault_cycle = None
        next_event = limit + 1
        for chip in self.chips:
            if chip.alive and not chip.queue.is_empty:
                if chip.busy_until < next_event:
                    next_event = chip.busy_until
        if injected < packet_count:
            rate = self.config.arrivals_per_cycle
            if rate >= 1.0:
                return None  # an arrival is due every cycle
            # The cycle's credit top-up happens before the >= 1.0 check,
            # so the arrival lands on the cycle whose addition crosses 1.0.
            credit = self._arrival_credit
            wait = 0
            while credit < 1.0:
                credit += rate
                wait += 1
            arrival_cycle = cycle + wait - 1
            if arrival_cycle < next_event:
                next_event = arrival_cycle
        if fault_cycle is not None and fault_cycle < next_event:
            next_event = fault_cycle
        return next_event

    # ------------------------------------------------------------------
    # Chip failure and recovery
    # ------------------------------------------------------------------

    def kill_chip(self, chip_index: int) -> None:
        """Fail one chip: it stops serving until :meth:`revive_chip`.

        Jobs already queued at the chip are orphaned back to the front of
        the dispatch backlog (their queue order preserved) and re-homed by
        the failover rule on the next drain.  Idempotent on a dead chip.
        """
        chip = self.chips[chip_index]
        if not chip.alive:
            return
        chip.alive = False
        chip.busy_until = self._cycle
        self.stats.chip_failures += 1
        orphans = []
        while not chip.queue.is_empty:
            packet, _kind = chip.queue.pop()
            orphans.append(packet)
        self._pending.extendleft(reversed(orphans))

    def revive_chip(self, chip_index: int) -> None:
        """Bring a failed chip back; its table content is whatever the
        control plane maintained while it was down (callers that stop
        mirroring updates into dead chips must reload/rebalance first).
        Idempotent on an alive chip."""
        chip = self.chips[chip_index]
        if chip.alive:
            return
        chip.alive = True
        chip.busy_until = self._cycle
        self.stats.chip_recoveries += 1

    @property
    def alive_chips(self) -> List[int]:
        """Indices of the chips currently serving."""
        return [chip.index for chip in self.chips if chip.alive]

    # ------------------------------------------------------------------
    # Update interference
    # ------------------------------------------------------------------

    def inject_stall(self, chip_index: int, cycles: int) -> None:
        """Block one chip for ``cycles`` — a TCAM update in progress.

        Slot writes and entry moves occupy the chip's single access port,
        which is exactly why the paper separates TTF2/TTF3 (they interrupt
        lookups) from TTF1 (which does not).  Callers convert an update's
        operation count into cycles and charge the owning chip here; see
        ``bench_ablation_update_interference.py`` for the premise-1
        experiment this enables.
        """
        if cycles < 0:
            raise ValueError("stall must be non-negative")
        chip = self.chips[chip_index]
        chip.busy_until = max(chip.busy_until, self._cycle) + cycles

    @property
    def current_cycle(self) -> int:
        """The simulator's clock (monotone across multiple run() calls)."""
        return self._cycle

    # ------------------------------------------------------------------
    # Verification hook
    # ------------------------------------------------------------------

    def verify_completions(self, covered_only: bool = True) -> bool:
        """Every released completion matches the reference LPM result.

        With ``covered_only`` (don't-care compression), packets the original
        table missed are exempt.
        """
        if self.reference is None:
            raise ValueError("no reference trie attached")
        for completion in self.reorder.released:
            expected = self.reference.lookup(completion.address)
            if covered_only and expected is None:
                continue
            if completion.next_hop != expected:
                return False
        return True
