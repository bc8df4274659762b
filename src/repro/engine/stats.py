"""Aggregated measurements of one lookup-engine run.

Everything Section V plots about the parallel engine comes from these
counters: speedup factor (Figure 16), DRed hit rate (Figures 16/17),
per-chip load shares (Figure 15, Table II), and the control-plane
interaction counts that differentiate CLUE's DRed maintenance from CLPL's.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, List


@dataclass
class EngineStats:
    """Counters accumulated by :class:`repro.engine.simulator.LookupEngine`."""

    cycles: int = 0
    arrivals: int = 0
    completions: int = 0
    main_lookups: int = 0
    dred_lookups: int = 0
    dred_hits: int = 0
    dred_misses: int = 0
    diverted: int = 0
    bounced: int = 0
    stalled_arrivals: int = 0
    control_plane_interactions: int = 0
    sram_accesses: int = 0
    dred_insertions: int = 0
    per_chip_lookups: List[int] = field(default_factory=list)
    per_chip_main: List[int] = field(default_factory=list)
    per_chip_dred: List[int] = field(default_factory=list)
    latencies_sum: int = 0
    latency_max: int = 0
    # -- fault-tolerance counters (see repro.faults) -------------------
    chip_failures: int = 0
    chip_recoveries: int = 0
    chip_downtime_cycles: int = 0
    failed_over_packets: int = 0
    control_path_resolutions: int = 0
    corrupted_entries: int = 0
    shed_updates: int = 0

    # ------------------------------------------------------------------

    @property
    def dred_hit_rate(self) -> float:
        """h — fraction of DRed lookups that hit (the paper's hit rate)."""
        total = self.dred_hits + self.dred_misses
        return self.dred_hits / total if total else 0.0

    def throughput(self) -> float:
        """Completed lookups per cycle."""
        return self.completions / self.cycles if self.cycles else 0.0

    def speedup(self, lookup_cycles: int) -> float:
        """t — throughput relative to a single chip.

        One chip completes ``1/lookup_cycles`` lookups per cycle, so the
        speedup factor is ``throughput × lookup_cycles``.
        """
        return self.throughput() * lookup_cycles

    def chip_load_shares(self) -> List[float]:
        """Fraction of all lookups each chip served (Figure 15's bars)."""
        total = sum(self.per_chip_lookups)
        if not total:
            return [0.0] * len(self.per_chip_lookups)
        return [count / total for count in self.per_chip_lookups]

    @property
    def mean_latency(self) -> float:
        """Average arrival-to-completion latency in cycles."""
        return self.latencies_sum / self.completions if self.completions else 0.0

    def availability(self) -> float:
        """Fraction of chip-cycles the chips were alive."""
        chip_cycles = self.cycles * max(1, len(self.per_chip_lookups))
        if not chip_cycles:
            return 1.0
        return 1.0 - self.chip_downtime_cycles / chip_cycles

    # ------------------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """Every counter as plain ints/lists (JSON- and diff-friendly)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "EngineStats":
        """Inverse of :meth:`as_dict` (strict: unknown keys raise).

        Serving-plane stats snapshots travel as JSON; round-tripping
        through this constructor preserves :meth:`fingerprint` exactly,
        which is what lets a client-side snapshot be compared against an
        in-process run.
        """
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown EngineStats fields: {sorted(unknown)}"
            )
        return cls(**data)  # type: ignore[arg-type]

    def fingerprint(self) -> str:
        """Digest over *every* counter, canonically serialised.

        Two runs fingerprint equal iff all counters (including the
        per-chip breakdowns and latency aggregates) are identical.  This
        is the equivalence bar between lookup backends and between the
        cycle-by-cycle and event-skipping run loops: byte-identical
        statistics, not merely matching headline numbers.
        """
        payload = json.dumps(asdict(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("ascii")).hexdigest()
