"""ClueSystem — the integrated forwarding plane (the paper's full design).

This façade wires all three pillars into one object that behaves like a
line card:

* construction compresses the table with ONRTC, splits it into exactly
  even range partitions, loads them onto the simulated chips and builds
  the range Indexing Logic;
* :meth:`process_traffic` drives the parallel lookup engine with dynamic
  redundancy;
* :meth:`apply_update` runs one BGP message through the whole update
  pipeline (trie → TCAM → DRed) *and* propagates the entry diff into the
  live chips, so lookups remain correct while the table churns — the
  integration the paper argues the three problems must be solved together.

The same DRed banks are shared between the lookup engine (which fills them
on main-table hits) and the update pipeline (which invalidates on
withdraw), exactly as in the hardware design.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.compress.labels import CompressionMode
from repro.core.config import SystemConfig
from repro.core.metrics import RecoveryStats, SystemReport
from repro.compress.onrtc import CompressionReport, TableDiff
from repro.engine.builders import FlatHomeIndex, clue_engine, place_clue
from repro.engine.simulator import EngineConfig
from repro.engine.stats import EngineStats
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.net.prefix import Prefix
from repro.partition.index_logic import RangeIndex
from repro.update.pipeline import ClueUpdatePipeline, UpdateScheduler
from repro.update.ttf import TtfSample
from repro.workload.updategen import UpdateGenerator, UpdateMessage

Route = Tuple[Prefix, int]

#: Version of the :meth:`ClueSystem.capture_state` layout.
STATE_VERSION = 1


@dataclass
class RebalanceReport:
    """What one idle-time repartitioning did."""

    moved_entries: int
    flushed_dred_entries: int
    partition_sizes: List[int]
    #: Chips the table was spread over (failed chips are excluded).
    survivor_chips: List[int]

    @property
    def is_even(self) -> bool:
        return max(self.partition_sizes) - min(self.partition_sizes) <= 1


@dataclass
class ChipAuditReport:
    """Outcome of one :meth:`ClueSystem.verify_chips` pass."""

    chips_checked: List[int]
    entries_checked: int = 0
    hops_repaired: int = 0
    stray_removed: int = 0
    missing_restored: int = 0

    @property
    def repairs(self) -> int:
        """Total drift corrected (or merely detected with ``repair=False``)."""
        return self.hops_repaired + self.stray_removed + self.missing_restored

    @property
    def clean(self) -> bool:
        return self.repairs == 0


class ClueSystem:
    """A complete CLUE forwarding plane over a routing table.

    >>> from repro.workload import generate_rib, RibParameters
    >>> system = ClueSystem(generate_rib(1, RibParameters(size=512)))
    >>> system.compression_report().ratio < 1.0
    True
    """

    def __init__(
        self,
        routes: Iterable[Route],
        config: Optional[SystemConfig] = None,
    ) -> None:
        routes = list(routes)
        self.config = config or SystemConfig()

        # Pillar 1+3: compression with incremental maintenance, the TCAM
        # mirror and the (for now bank-less) DRed updater.
        self.pipeline = ClueUpdatePipeline(
            routes,
            mode=self.config.compression_mode,
            cost_model=self.config.cost_model,
            lazy=self.config.lazy_compression,
        )
        self._original_size = len(routes)

        # Pillar 2: even partitioning and the parallel engine.  Its
        # home_of (a FlatHomeIndex) alone holds the live placement.
        self.engine = clue_engine(
            self.pipeline.trie_stage.table.routes(),
            self.pipeline.trie_stage.table.source,
            self.config.engine,
            self.config.partitions_per_chip,
            self.config.partition_loads,
        ).engine
        # Share the engine's DRed banks with the update pipeline so table
        # changes invalidate live cached entries.
        self.pipeline.dred_stage.caches = [
            chip.dred for chip in self.engine.chips if chip.dred is not None
        ]
        # Backpressured admission path for update storms (the direct
        # apply_update() path stays available for calm streams).
        self.scheduler = UpdateScheduler(
            self.pipeline,
            capacity=self.config.update_queue_capacity,
            on_diff=self._apply_diff_to_chips,
        )
        # Round-robin cursor of the incremental chip audit.
        self._audit_cursor = 0
        #: Running total of entries verify_chips() has repaired.
        self.audit_repairs = 0
        #: Durability and invariant-audit counters (journal/checkpoint/
        #: restore machinery fills these in; see repro.persist).
        self.recovery_stats = RecoveryStats()
        # Persistent incremental auditor (keeps its rotation cursor and
        # candidate-trie cache across invariant_step calls).
        self._invariant_auditor = None

    # ------------------------------------------------------------------
    # Data plane
    # ------------------------------------------------------------------

    def lookup(self, address: int) -> Optional[int]:
        """One-off LPM against the current table (control-plane path)."""
        return self.pipeline.trie_stage.table.source.lookup(address)

    def process_traffic(
        self, addresses: Iterator[int], packet_count: int
    ) -> EngineStats:
        """Run a packet burst through the parallel engine."""
        return self.engine.run(addresses, packet_count)

    def process_lookups(
        self, addresses: Sequence[int]
    ) -> List[Optional[int]]:
        """Answer a batch of lookups through the engine, in arrival order.

        This is the RPC-shaped data path (see :mod:`repro.serve`): the
        batch runs through the same parallel engine as
        :meth:`process_traffic` — DRed redundancy, diversion, statistics
        and all — and the per-address next hops are harvested from the
        reorder buffer (``None`` = no matching route).  The harvested
        completions are released from the buffer so a long-lived serving
        process stays bounded in memory.
        """
        addresses = list(addresses)
        released = self.engine.reorder.released
        start = len(released)
        self.engine.run(iter(addresses), len(addresses))
        hops = [completion.next_hop for completion in released[start:]]
        del released[start:]
        return hops

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def apply_update(self, message: UpdateMessage) -> TtfSample:
        """Run one BGP update through trie, TCAM, DRed and the live chips."""
        sample = self.pipeline.apply(message)
        diff = self.pipeline.last_diff
        if diff is not None:
            self._apply_diff_to_chips(diff)
        return sample

    def _chips_covering(self, prefix: Prefix) -> List[int]:
        """Every chip whose address range the prefix overlaps.

        Partition boundaries are aligned with entry boundaries *at
        partitioning time* (disjointness guarantees it), but an entry added
        later — don't-care merging can emit wide covering entries — may
        span several of the frozen ranges.  Such an entry must live in
        every chip whose range it serves, or lookups homed to the later
        ranges would miss.  :meth:`rebalance` collapses the replicas back
        to one copy each.
        """
        home = self.engine.home_of
        first = home.index.home_of(prefix.network)
        last = home.index.home_of(prefix.broadcast)
        return sorted(set(home.mapping[first : last + 1]))

    def _apply_diff_to_chips(self, diff: TableDiff) -> None:
        for prefix, _hop in diff.removes:
            for chip_index in self._chips_covering(prefix):
                self.engine.chips[chip_index].table.delete(prefix)
        for prefix, hop in diff.adds:
            for chip_index in self._chips_covering(prefix):
                self.engine.chips[chip_index].table.insert(prefix, hop)

    def apply_updates(self, messages: Iterable[UpdateMessage]) -> List[TtfSample]:
        """Apply a stream of updates."""
        return [self.apply_update(message) for message in messages]

    # ------------------------------------------------------------------
    # Backpressured update path (storm survival)
    # ------------------------------------------------------------------

    def offer_update(self, message: UpdateMessage) -> bool:
        """Admit one update through the bounded queue; False = shed."""
        accepted = self.scheduler.offer(message)
        self._sync_scheduler_stats()
        return accepted

    def pump_updates(self, budget: int = 8) -> int:
        """Apply up to ``budget`` queued updates; returns how many ran."""
        applied = self.scheduler.pump(budget)
        self._sync_scheduler_stats()
        return applied

    def drain_updates(self) -> int:
        """Apply every queued update; returns how many ran."""
        applied = self.scheduler.drain()
        self._sync_scheduler_stats()
        return applied

    def _sync_scheduler_stats(self) -> None:
        self.engine.stats.shed_updates = self.scheduler.stats.shed

    # ------------------------------------------------------------------
    # Fault tolerance
    # ------------------------------------------------------------------

    def fail_chip(self, chip_index: int) -> None:
        """Take one chip down; its traffic fails over to survivors' DReds.

        The control plane keeps mirroring table diffs into the dead chip's
        shadow table, so :meth:`recover_chip` brings it back consistent.
        Call :meth:`rebalance` to re-spread the table over the survivors
        once the outage looks long-lived.
        """
        self.engine.kill_chip(chip_index)

    def recover_chip(self, chip_index: int) -> None:
        """Bring a failed chip back into service."""
        self.engine.revive_chip(chip_index)

    def attach_faults(
        self,
        schedule: FaultSchedule,
        storm_seed: Optional[int] = None,
    ) -> FaultInjector:
        """Arm a fault schedule against the live engine.

        Storm events synthesise ``count`` BGP updates (seeded, against the
        current table) and push them through the backpressured scheduler —
        shedding happens exactly as it would under a real burst.  Returns
        the injector (also installed on the engine).
        """
        generator = UpdateGenerator(
            list(self.pipeline.trie_stage.table.source.routes()),
            seed=schedule.seed if storm_seed is None else storm_seed,
        )

        def storm_sink(cycle: int, count: int) -> None:
            del cycle
            for message in generator.take(count):
                self.offer_update(message)
            self.pump_updates(budget=count)

        injector = FaultInjector(self.engine, schedule, storm_sink=storm_sink)
        self.engine.fault_injector = injector
        return injector

    def verify_chips(
        self,
        chips: Optional[Sequence[int]] = None,
        repair: bool = True,
    ) -> ChipAuditReport:
        """Cross-check chip tables against the compressed table; heal drift.

        For every audited chip, the expected content is derived from the
        control plane's compressed table and the live index (an entry
        belongs to each chip whose range it covers).  Three kinds of drift
        are detected — wrong next hop (e.g. injected slot corruption),
        stray entries, and missing entries — and repaired in place when
        ``repair`` is true, deleting each repaired prefix from every DRed
        so no cached copy of the drifted entry outlives the repair.
        ``chips=None`` audits everything; pass a subset (or use
        :meth:`audit_step`) to spread the scan over idle windows.
        """
        chip_count = self.config.engine.chip_count
        targets = sorted(set(chips if chips is not None else range(chip_count)))
        table = self.pipeline.trie_stage.table.table
        expected: List[dict] = [dict() for _ in range(chip_count)]
        target_set = set(targets)
        for prefix, hop in table.items():
            for chip_index in self._chips_covering(prefix):
                if chip_index in target_set:
                    expected[chip_index][prefix] = hop
        report = ChipAuditReport(chips_checked=targets)
        repaired = set()
        for chip_index in targets:
            chip = self.engine.chips[chip_index]
            actual = chip.table.as_dict()
            wanted = expected[chip_index]
            report.entries_checked += len(actual.keys() | wanted.keys())
            for prefix, hop in wanted.items():
                stored = actual.get(prefix)
                if stored is None:
                    report.missing_restored += 1
                    repaired.add(prefix)
                elif stored != hop:
                    report.hops_repaired += 1
                    repaired.add(prefix)
                else:
                    continue
                if repair:
                    chip.table.insert(prefix, hop)
            for prefix in actual:
                if prefix not in wanted:
                    report.stray_removed += 1
                    repaired.add(prefix)
                    if repair:
                        chip.table.delete(prefix)
        if repair:
            self.audit_repairs += report.repairs
            # Lookups may have cached a drifted entry in some DRed; a
            # repaired prefix just gets deleted there, as in TTF3.
            for chip in self.engine.chips:
                if chip.dred is not None:
                    for prefix in repaired:
                        chip.dred.delete(prefix)
        return report

    def audit_step(self, repair: bool = True) -> ChipAuditReport:
        """Audit the next chip in round-robin order (incremental form)."""
        chip_index = self._audit_cursor
        self._audit_cursor = (chip_index + 1) % self.config.engine.chip_count
        return self.verify_chips(chips=[chip_index], repair=repair)

    def check_dred_exclusion(self) -> bool:
        """CLUE's invariant: DRed *i* never holds chip *i*'s own prefixes."""
        for chip in self.engine.chips:
            if chip.dred is None:
                continue
            for prefix in chip.dred._entries:
                if chip.table.get(prefix) is not None:
                    return False
        return True

    # ------------------------------------------------------------------
    # Maintenance (idle-time re-optimisation)
    # ------------------------------------------------------------------

    def recompress(self) -> TableDiff:
        """Shed lazy-maintenance drift: swap the minimal table back in.

        Only meaningful when the system runs with
        ``SystemConfig.lazy_compression``; with exact maintenance the diff
        is empty.  The diff is propagated to the TCAM mirror and the live
        chips like any update.
        """
        table = self.pipeline.trie_stage.table
        if not hasattr(table, "recompress"):
            return TableDiff()
        diff = table.recompress()
        self.pipeline.tcam_stage.apply_diff(diff)
        self._apply_diff_to_chips(diff)
        return diff

    def rebalance(self) -> "RebalanceReport":
        """Re-partition the (possibly drifted) table into exact even ranges.

        Churn makes partitions drift apart: updates land wherever their
        addresses fall, so some ranges grow while others shrink.  A real
        control plane re-runs the (cheap) even partitioning during idle
        time and reloads the chips; this does exactly that, reporting how
        many entries had to move between chips.  DRed banks are flushed —
        ownership changes would otherwise break the exclusion invariant —
        and simply refill from traffic.

        Failed chips are excluded: after a chip death the table is re-spread
        exactly evenly over the N−1 survivors (disjointness makes the
        re-split O(M) with no covering redundancy); a later rebalance after
        :meth:`recover_chip` folds the chip back in.
        """
        survivors = self.engine.alive_chips
        if not survivors:
            raise RuntimeError("cannot rebalance with every chip failed")
        result, home, new_tables = place_clue(
            self.pipeline.trie_stage.table.routes(),
            survivors,
            self.config.engine.chip_count,
            self.config.partitions_per_chip,
        )
        old_homes = {
            prefix: chip_index
            for chip_index, chip in enumerate(self.engine.chips)
            for prefix, _hop in chip.table.routes()
        }
        moved = sum(
            old_homes.get(prefix) != chip_index
            for chip_index, table in enumerate(new_tables)
            for prefix, _hop in table
        )

        flushed = 0
        for chip_index, chip in enumerate(self.engine.chips):
            chip.load_routes(new_tables[chip_index])
            if chip.dred is not None:
                flushed += len(chip.dred)
                for prefix in list(chip.dred._entries):
                    chip.dred.delete(prefix)

        self.engine.home_of = home
        return RebalanceReport(
            moved_entries=moved,
            flushed_dred_entries=flushed,
            partition_sizes=result.sizes(),
            survivor_chips=survivors,
        )

    # ------------------------------------------------------------------
    # Durability (snapshot capture / restore / fingerprint)
    # ------------------------------------------------------------------

    def capture_state(self) -> Dict:
        """The full control-plane state as a JSON-ready dict.

        Everything the crash-consistency contract covers is here: the
        source trie (ground truth), the compressed table it determines,
        the live partitioning (boundaries + chip mapping, which drift
        from the config after :meth:`rebalance`), per-chip TCAM content
        and liveness, and the scheduler's queue.  DRed is a prefix cache,
        not state: a restore starts with cold DReds, as a rebooted line
        card does.  Data-plane counters (engine stats, TTF samples) are
        metrics, not state, and are not captured.  Keys an older v1
        snapshot carries beyond these (``dred``, the storm flag and
        deferred-diff batch, the storm watermarks) are ignored on
        restore.

        Raises :class:`ValueError` under ``lazy_compression`` — the lazy
        table depends on update history, so rebuilding it from the source
        trie would not be deterministic.
        """
        from repro.persist import codec

        if self.config.lazy_compression:
            raise ValueError(
                "state capture requires exact ONRTC maintenance "
                "(lazy_compression must be off); the lazy table is a "
                "function of update history, not of the trie"
            )
        table = self.pipeline.trie_stage.table
        return {
            "version": STATE_VERSION,
            "config": self._config_state(),
            "source_routes": codec.encode_routes(table.source.routes()),
            "compressed": codec.encode_routes(table.table.items()),
            **self._placement_state(),
            "chips": self._chip_states(),
            "scheduler": self._scheduler_state(include_stats=True),
            "audit_repairs": self.audit_repairs,
            "audit_cursor": self._audit_cursor,
        }

    @classmethod
    def from_state(
        cls, state: Dict, config: Optional[SystemConfig] = None
    ) -> "ClueSystem":
        """Rebuild a system from a :meth:`capture_state` dict.

        The compressed table is *recomputed* from the snapshot's source
        routes (ONRTC is a pure function of the trie) and verified
        against the snapshot's recorded table — a mismatch means the
        snapshot is internally inconsistent and raises
        :class:`ValueError`, which the restore path treats like any
        other corrupt snapshot (fall back to an older one).

        ``config`` overrides the serialized configuration; note the cost
        model (TTF conversion constants) is not serialized — pass a
        config to restore a non-default one.
        """
        from repro.persist import codec

        try:
            version = int(state["version"])
            if version != STATE_VERSION:
                raise ValueError(
                    f"snapshot state v{version} unsupported "
                    f"(this build reads v{STATE_VERSION})"
                )
            if config is None:
                config = cls._config_from_state(state["config"])
            system = cls(codec.decode_routes(state["source_routes"]), config)
            recompressed = codec.encode_routes(
                system.pipeline.trie_stage.table.table.items()
            )
            if recompressed != state["compressed"]:
                raise ValueError(
                    "snapshot is internally inconsistent: its compressed "
                    "table is not the deterministic recompression of its "
                    "source trie"
                )
            system.engine.home_of = FlatHomeIndex(
                RangeIndex([int(b) for b in state["boundaries"]]),
                [int(c) for c in state["partition_to_chip"]],
            )
            system._restore_chips(state["chips"])
            system._restore_scheduler(state["scheduler"])
            system.audit_repairs = int(state.get("audit_repairs", 0))
            system._audit_cursor = int(state.get("audit_cursor", 0))
            return system
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"malformed snapshot state: {exc!r}") from exc

    def state_fingerprint(self) -> str:
        """SHA-256 over the state the journal alone determines.

        A restored system replaying a journal suffix, or a backup applying
        shipped records, must converge to exactly this: the compressed
        table, the partitioning, per-chip TCAM content and liveness, and
        the scheduler's queue.  DRed is soft state — a prefix cache that
        lookups fill and updates invalidate — so it is left out, as are
        counters and metrics.
        """
        from repro.persist import codec
        from repro.persist.snapshot import state_digest

        table = self.pipeline.trie_stage.table
        return state_digest(
            {
                "compressed": codec.encode_routes(table.table.items()),
                **self._placement_state(),
                "chips": self._chip_states(),
                "scheduler": self._scheduler_state(include_stats=False),
            }
        )

    # -- capture/restore helpers ---------------------------------------

    def _placement_state(self) -> Dict:
        home = self.engine.home_of
        return {
            "boundaries": list(home.index.boundaries),
            "partition_to_chip": list(home.mapping),
        }

    def _config_state(self) -> Dict:
        engine = self.config.engine
        return {
            "engine": {
                "chip_count": engine.chip_count,
                "lookup_cycles": engine.lookup_cycles,
                "queue_capacity": engine.queue_capacity,
                "dred_capacity": engine.dred_capacity,
                "arrivals_per_cycle": engine.arrivals_per_cycle,
                "max_dred_attempts": engine.max_dred_attempts,
                "control_path_cycles": engine.control_path_cycles,
                "lookup_backend": engine.lookup_backend,
            },
            "partitions_per_chip": self.config.partitions_per_chip,
            "compression_mode": self.config.compression_mode.name,
            "update_queue_capacity": self.config.update_queue_capacity,
        }

    @staticmethod
    def _config_from_state(data: Dict) -> SystemConfig:
        engine = data["engine"]
        try:
            mode = CompressionMode[data["compression_mode"]]
        except KeyError as exc:
            raise ValueError(
                f"unknown compression mode {data['compression_mode']!r}"
            ) from exc
        return SystemConfig(
            engine=EngineConfig(
                chip_count=int(engine["chip_count"]),
                lookup_cycles=int(engine["lookup_cycles"]),
                queue_capacity=int(engine["queue_capacity"]),
                dred_capacity=int(engine["dred_capacity"]),
                arrivals_per_cycle=float(engine["arrivals_per_cycle"]),
                max_dred_attempts=int(engine["max_dred_attempts"]),
                control_path_cycles=int(engine["control_path_cycles"]),
                # Absent in v1 snapshots written before the backend knob.
                lookup_backend=str(engine.get("lookup_backend", "trie")),
            ),
            partitions_per_chip=int(data["partitions_per_chip"]),
            compression_mode=mode,
            update_queue_capacity=int(data["update_queue_capacity"]),
        )

    def _chip_states(self) -> List[Dict]:
        from repro.persist import codec

        return [
            {
                "table": codec.encode_routes(chip.table.routes()),
                "alive": chip.alive,
            }
            for chip in self.engine.chips
        ]

    def _scheduler_state(self, include_stats: bool) -> Dict:
        from repro.persist import codec

        scheduler = self.scheduler
        queue = scheduler.queue
        state = {
            "queue": [codec.encode_message(m) for m in queue.items()],
        }
        if include_stats:
            state["queue_counters"] = [
                queue.offered,
                queue.accepted,
                queue.shed,
                queue.peak_occupancy,
            ]
            state["stats"] = {
                field.name: getattr(scheduler.stats, field.name)
                for field in dataclasses.fields(scheduler.stats)
            }
        return state

    def _restore_chips(self, chip_states: List[Dict]) -> None:
        from repro.persist import codec

        if len(chip_states) != len(self.engine.chips):
            raise ValueError(
                f"snapshot has {len(chip_states)} chips, "
                f"engine has {len(self.engine.chips)}"
            )
        for chip, chip_state in zip(self.engine.chips, chip_states):
            chip.load_routes(codec.decode_routes(chip_state["table"]))
            # Set liveness directly: kill_chip() would count a fresh
            # failure in the engine stats.
            chip.alive = bool(chip_state["alive"])

    def _restore_scheduler(self, state: Dict) -> None:
        from repro.persist import codec

        scheduler = self.scheduler
        queue = scheduler.queue
        for text in state["queue"]:
            queue.offer(codec.decode_message(text))
        if "queue_counters" in state:
            counters = [int(value) for value in state["queue_counters"]]
            if len(counters) == 5:
                # Older v1 layout: a since-deleted ``deferred`` count
                # sat before the peak.
                del counters[3]
            (
                queue.offered,
                queue.accepted,
                queue.shed,
                queue.peak_occupancy,
            ) = counters
        known = {field.name for field in dataclasses.fields(scheduler.stats)}
        for name, value in state.get("stats", {}).items():
            if name in known:
                setattr(scheduler.stats, name, value)
        self._sync_scheduler_stats()

    # ------------------------------------------------------------------
    # Invariant auditing (see repro.persist.audit)
    # ------------------------------------------------------------------

    def audit_invariants(
        self, sample_size: int = 256, seed: int = 0, halt: bool = False
    ):
        """Full invariant pass: disjointness, trie↔table equivalence on
        sampled addresses, partition coverage/evenness, DRed exclusion.

        Violations land in :attr:`recovery_stats`; with ``halt`` a broken
        invariant raises :class:`~repro.persist.audit.InvariantViolationError`.
        """
        from repro.persist.audit import InvariantAuditor

        auditor = InvariantAuditor(self, sample_size=sample_size, seed=seed)
        report = auditor.run(halt=False)
        self.recovery_stats.audit_runs += 1
        self.recovery_stats.audit_violations += len(report.violations)
        if halt and not report.ok:
            from repro.persist.audit import InvariantViolationError

            raise InvariantViolationError(report)
        return report

    def invariant_step(self, budget: int = 64, halt: bool = False):
        """One bounded increment of the invariant audit (round-robin over
        the checks, the way :meth:`audit_step` spreads the chip scan)."""
        from repro.persist.audit import InvariantAuditor, InvariantViolationError

        if self._invariant_auditor is None:
            self._invariant_auditor = InvariantAuditor(self)
        report = self._invariant_auditor.step(budget=budget)
        self.recovery_stats.audit_runs += 1
        self.recovery_stats.audit_violations += len(report.violations)
        if halt and not report.ok:
            raise InvariantViolationError(report)
        return report

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def compression_report(self) -> CompressionReport:
        return CompressionReport(
            original_entries=len(self.pipeline.trie_stage.table.source),
            compressed_entries=len(self.pipeline.trie_stage.table),
            mode=self.config.compression_mode,
        )

    def report(self) -> SystemReport:
        return SystemReport(
            compression=self.compression_report(),
            engine_stats=self.engine.stats,
            ttf=self.pipeline.report,
            tcam_entries_per_chip=[
                len(chip.table) for chip in self.engine.chips
            ],
            chip_repairs=self.audit_repairs,
            recovery=self.recovery_stats,
        )
