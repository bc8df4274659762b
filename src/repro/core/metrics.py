"""Cross-cutting report of a full CLUE system run."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional

from repro.compress.onrtc import CompressionReport
from repro.engine.stats import EngineStats
from repro.update.ttf import TtfReport


@dataclass
class RecoveryStats:
    """Durability and audit counters for one system lifetime.

    ``time_to_recovered_us`` is the TTF-style headline of the crash
    story: wall time from "restore requested" to "state rebuilt, journal
    suffix replayed, invariants re-proved" — the update-path analogue of
    the paper's time-to-forward.
    """

    #: Operations appended to the write-ahead journal.
    journal_records: int = 0
    #: fsync batches issued by the journal.
    journal_syncs: int = 0
    #: Checkpoints written.
    snapshots_written: int = 0
    #: Successful restores performed into this process.
    restores: int = 0
    #: Journal records replayed by those restores.
    replayed_updates: int = 0
    #: Wall time of the most recent restore (load + rebuild + replay).
    time_to_recovered_us: float = 0.0
    #: Invariant-audit passes (full or incremental).
    audit_runs: int = 0
    #: Invariant violations those audits recorded.
    audit_violations: int = 0

    @property
    def active(self) -> bool:
        """True once any durability or audit machinery has run."""
        return bool(
            self.journal_records
            or self.snapshots_written
            or self.restores
            or self.audit_runs
        )

    def as_dict(self) -> Dict[str, object]:
        """Every counter as JSON-ready scalars."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RecoveryStats":
        """Inverse of :meth:`as_dict` (strict: unknown keys raise)."""
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown RecoveryStats fields: {sorted(unknown)}"
            )
        return cls(**data)  # type: ignore[arg-type]


@dataclass
class SystemReport:
    """What one integrated run produced, for printing or assertions.

    Bundles the three pillars' metrics: compression (entries saved),
    lookup (speedup/hit rate/balance) and update (TTF distribution).
    """

    compression: CompressionReport
    engine_stats: Optional[EngineStats] = None
    ttf: Optional[TtfReport] = None
    tcam_entries_per_chip: Optional[List[int]] = None
    #: Entries the self-healing audit (verify_chips) has repaired.
    chip_repairs: Optional[int] = None
    #: Durability counters (journal/checkpoint/restore/invariant audit).
    recovery: Optional[RecoveryStats] = None

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready nested dict (the admin STATS payload's shape).

        Engine and recovery stats round-trip exactly through their own
        ``from_dict`` constructors; compression and TTF are summarised
        (the raw TTF samples stay server-side — shipping every sample
        over the wire would scale with update count).
        """
        data: Dict[str, object] = {
            "compression": {
                "original_entries": self.compression.original_entries,
                "compressed_entries": self.compression.compressed_entries,
                "mode": self.compression.mode.name,
            },
            "engine_stats": (
                self.engine_stats.as_dict()
                if self.engine_stats is not None
                else None
            ),
            "tcam_entries_per_chip": (
                list(self.tcam_entries_per_chip)
                if self.tcam_entries_per_chip is not None
                else None
            ),
            "chip_repairs": self.chip_repairs,
            "recovery": (
                self.recovery.as_dict() if self.recovery is not None else None
            ),
        }
        if self.ttf is not None and len(self.ttf):
            total = self.ttf.total()
            data["ttf"] = {
                "samples": len(self.ttf),
                "total_mean_us": total.mean_us,
                "total_max_us": total.max_us,
                "ttf1_mean_us": self.ttf.ttf1().mean_us,
                "ttf2_mean_us": self.ttf.ttf2().mean_us,
                "ttf3_mean_us": self.ttf.ttf3().mean_us,
            }
        else:
            data["ttf"] = None
        return data

    def summary_lines(self, lookup_cycles: int = 4) -> List[str]:
        """Human-readable one-liners, used by examples and benches."""
        lines = [
            (
                f"compression: {self.compression.original_entries} -> "
                f"{self.compression.compressed_entries} entries "
                f"({self.compression.ratio:.1%})"
            )
        ]
        if self.tcam_entries_per_chip is not None:
            lines.append(
                "tcam entries/chip: "
                + ", ".join(str(count) for count in self.tcam_entries_per_chip)
            )
        if self.engine_stats is not None:
            stats = self.engine_stats
            lines.append(
                f"lookup: speedup {stats.speedup(lookup_cycles):.2f}, "
                f"DRed hit rate {stats.dred_hit_rate:.1%}, "
                f"loads {['%.1f%%' % (100 * s) for s in stats.chip_load_shares()]}"
            )
        if self.engine_stats is not None and (
            self.engine_stats.chip_failures
            or self.engine_stats.shed_updates
            or self.engine_stats.corrupted_entries
        ):
            stats = self.engine_stats
            lines.append(
                f"faults: {stats.chip_failures} chip failures "
                f"({stats.chip_downtime_cycles} downtime chip-cycles, "
                f"availability {stats.availability():.1%}), "
                f"{stats.failed_over_packets} packets failed over, "
                f"{stats.shed_updates} updates shed"
            )
        if self.chip_repairs:
            lines.append(f"audit: {self.chip_repairs} entries repaired")
        if self.recovery is not None and self.recovery.active:
            recovery = self.recovery
            line = (
                f"durability: {recovery.journal_records} journaled ops "
                f"({recovery.journal_syncs} fsync batches), "
                f"{recovery.snapshots_written} snapshots"
            )
            if recovery.restores:
                line += (
                    f", {recovery.restores} restores "
                    f"({recovery.replayed_updates} replayed, "
                    f"time to recovered "
                    f"{recovery.time_to_recovered_us:.0f} us)"
                )
            if recovery.audit_runs:
                line += (
                    f", invariant audits {recovery.audit_runs} "
                    f"({recovery.audit_violations} violations)"
                )
            lines.append(line)
        if self.ttf is not None and len(self.ttf):
            lines.append(
                f"update: TTF mean {self.ttf.total().mean_us:.3f} us "
                f"(ttf1 {self.ttf.ttf1().mean_us:.3f}, "
                f"ttf2 {self.ttf.ttf2().mean_us:.3f}, "
                f"ttf3 {self.ttf.ttf3().mean_us:.3f})"
            )
        return lines
