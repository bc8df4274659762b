"""Continuous invariant auditing for the integrated CLUE system.

The compressed table's pairwise disjointness is the contract everything
else rests on: priority-encoder-free lookup, O(1) TCAM update, and exact
even range partitioning.  After a restore — and incrementally while the
simulator runs — the auditor re-proves the contract:

* **disjoint** — no two compressed entries overlap;
* **equivalence** — the compressed table forwards sampled addresses
  exactly like the control-plane trie (``covered_only`` under don't-care
  compression, strict otherwise);
* **partition** — range boundaries are monotone from 0, every chip holds
  exactly the entries its ranges imply (drift detected via
  ``verify_chips(repair=False)``), and the per-chip spread stays within a
  tolerance;
* **dred-exclusion** — DRed *i* never caches a prefix chip *i* owns;
* **dred-fresh** — every DRed entry ``(p, hop, owner)`` still matches the
  compressed table's entry for ``p``, and chip ``owner`` still holds
  ``p``: a changed prefix's cached copy "just gets deleted" (TTF3), so a
  stale one is an update-path bug that answers with the wrong hop.

:meth:`InvariantAuditor.run` performs the full pass (the restore path);
:meth:`InvariantAuditor.step` spends a bounded budget on one check at a
time, round-robin, so a simulation can audit continuously the way
``ClueSystem.audit_step`` spreads the chip scan.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.compress.labels import CompressionMode
from repro.compress.verify import find_overlap
from repro.net.prefix import ADDRESS_SPACE
from repro.trie.trie import BinaryTrie

#: Check names in rotation order for the incremental form.
AUDIT_CHECKS = (
    "disjoint",
    "equivalence",
    "partition",
    "dred-exclusion",
    "dred-fresh",
)


@dataclass(frozen=True)
class InvariantViolation:
    """One broken invariant, with enough detail to debug it."""

    check: str
    detail: str


@dataclass
class AuditReport:
    """Outcome of one full or incremental audit pass."""

    checks_run: List[str] = field(default_factory=list)
    violations: List[InvariantViolation] = field(default_factory=list)
    addresses_sampled: int = 0
    entries_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations

    def merge(self, other: "AuditReport") -> "AuditReport":
        self.checks_run.extend(other.checks_run)
        self.violations.extend(other.violations)
        self.addresses_sampled += other.addresses_sampled
        self.entries_checked += other.entries_checked
        return self

    def summary(self) -> str:
        if self.ok:
            return (
                f"ok ({', '.join(self.checks_run)}; "
                f"{self.addresses_sampled} addresses sampled)"
            )
        lines = [f"{len(self.violations)} violation(s):"]
        lines += [f"  [{v.check}] {v.detail}" for v in self.violations]
        return "\n".join(lines)


class InvariantViolationError(RuntimeError):
    """Raised when an audit is asked to halt on a broken invariant."""

    def __init__(self, report: AuditReport) -> None:
        super().__init__(f"control-plane invariant broken: {report.summary()}")
        self.report = report


class InvariantAuditor:
    """Audits one :class:`~repro.core.system.ClueSystem` instance."""

    def __init__(
        self,
        system,
        sample_size: int = 256,
        seed: int = 0,
        evenness_tolerance: float = 4.0,
    ) -> None:
        if sample_size < 1:
            raise ValueError("sample size must be positive")
        if evenness_tolerance < 1.0:
            raise ValueError("evenness tolerance is a max/mean ratio >= 1")
        self.system = system
        self.sample_size = sample_size
        self.evenness_tolerance = evenness_tolerance
        self._rng = random.Random(seed)
        self._check_cursor = 0
        self._chip_cursor = 0
        # The reference LPM view of the compressed table, cached until the
        # pipeline applies another update.
        self._candidate_trie: Optional[BinaryTrie] = None
        self._candidate_stamp = -1

    # -- full pass ---------------------------------------------------------

    def run(self, halt: bool = False) -> AuditReport:
        """Run every check; optionally raise on the first violation."""
        report = AuditReport()
        report.merge(self._check_disjoint())
        report.merge(self._check_equivalence(self.sample_size))
        report.merge(self._check_partition(chips=None))
        report.merge(self.check_dred())
        if halt and not report.ok:
            raise InvariantViolationError(report)
        return report

    def check_dred(self) -> AuditReport:
        """Just the two DRed checks, exclusion and freshness: one pass
        over the cached entries, cheap enough for every STATS call."""
        report = self._check_dred_exclusion()
        report.merge(self._check_dred_fresh())
        return report

    # -- incremental pass --------------------------------------------------

    def step(self, budget: int = 64, halt: bool = False) -> AuditReport:
        """Run the next check in rotation, bounded by ``budget``.

        ``budget`` caps the sampled addresses of the equivalence check;
        the partition check audits a single chip per step.  Five steps
        cover the whole rotation.
        """
        if budget < 1:
            raise ValueError("audit budget must be positive")
        check = AUDIT_CHECKS[self._check_cursor]
        self._check_cursor = (self._check_cursor + 1) % len(AUDIT_CHECKS)
        if check == "disjoint":
            report = self._check_disjoint()
        elif check == "equivalence":
            report = self._check_equivalence(min(budget, self.sample_size))
        elif check == "partition":
            chip = self._chip_cursor
            self._chip_cursor = (
                chip + 1
            ) % self.system.config.engine.chip_count
            report = self._check_partition(chips=[chip])
        elif check == "dred-exclusion":
            report = self._check_dred_exclusion()
        else:
            report = self._check_dred_fresh()
        if halt and not report.ok:
            raise InvariantViolationError(report)
        return report

    # -- individual checks -------------------------------------------------

    def _table(self):
        return self.system.pipeline.trie_stage.table

    def _check_disjoint(self) -> AuditReport:
        report = AuditReport(checks_run=["disjoint"])
        table = self._table().table
        report.entries_checked += len(table)
        overlap = find_overlap(table)
        if overlap is not None:
            report.violations.append(
                InvariantViolation(
                    "disjoint",
                    f"compressed entries {overlap[0]} and {overlap[1]} "
                    f"overlap",
                )
            )
        return report

    def _candidate(self) -> BinaryTrie:
        stamp = self.system.pipeline.totals.updates
        if self._candidate_trie is None or stamp != self._candidate_stamp:
            self._candidate_trie = BinaryTrie.from_routes(
                self._table().table.items()
            )
            self._candidate_stamp = stamp
        return self._candidate_trie

    def _sample_addresses(self, count: int) -> List[int]:
        """Half uniform, half pinned to entry boundaries (where LPM answers
        change, so where a broken table actually shows)."""
        addresses: List[int] = []
        prefixes = list(self._table().table)
        for _ in range(count - count // 2):
            addresses.append(self._rng.randrange(ADDRESS_SPACE))
        if prefixes:
            for _ in range(count // 2):
                prefix = prefixes[self._rng.randrange(len(prefixes))]
                addresses.append(
                    prefix.network
                    if self._rng.random() < 0.5
                    else prefix.broadcast
                )
        return addresses

    def _check_equivalence(self, count: int) -> AuditReport:
        report = AuditReport(checks_run=["equivalence"])
        table = self._table()
        covered_only = table.mode is CompressionMode.DONT_CARE
        candidate = self._candidate()
        source = table.source
        for address in self._sample_addresses(count):
            report.addresses_sampled += 1
            expected = source.lookup(address)
            if covered_only and expected is None:
                continue
            actual = candidate.lookup(address)
            if actual != expected:
                report.violations.append(
                    InvariantViolation(
                        "equivalence",
                        f"address {address:#010x}: trie says {expected}, "
                        f"compressed table says {actual}",
                    )
                )
                break
        return report

    def _check_partition(
        self, chips: Optional[Sequence[int]]
    ) -> AuditReport:
        report = AuditReport(checks_run=["partition"])
        boundaries = self.system.engine.home_of.index.boundaries
        if boundaries[0] != 0 or boundaries != sorted(boundaries):
            report.violations.append(
                InvariantViolation(
                    "partition",
                    "range boundaries are not monotone from address 0",
                )
            )
        drift = self.system.verify_chips(chips=chips, repair=False)
        report.entries_checked += drift.entries_checked
        if not drift.clean:
            report.violations.append(
                InvariantViolation(
                    "partition",
                    f"chips {drift.chips_checked} drifted from the "
                    f"compressed table: {drift.hops_repaired} wrong hops, "
                    f"{drift.stray_removed} stray, "
                    f"{drift.missing_restored} missing",
                )
            )
        if chips is None:
            sizes = [
                len(chip.table)
                for chip in self.system.engine.chips
                if chip.alive
            ]
            if sizes and max(sizes) > 0:
                mean = sum(sizes) / len(sizes)
                if mean > 0 and max(sizes) / mean > self.evenness_tolerance:
                    report.violations.append(
                        InvariantViolation(
                            "partition",
                            f"per-chip spread {sizes} exceeds "
                            f"max/mean tolerance {self.evenness_tolerance}",
                        )
                    )
        return report

    def _check_dred_exclusion(self) -> AuditReport:
        report = AuditReport(checks_run=["dred-exclusion"])
        if not self.system.check_dred_exclusion():
            report.violations.append(
                InvariantViolation(
                    "dred-exclusion",
                    "a DRed bank caches a prefix its own chip serves",
                )
            )
        return report

    def _check_dred_fresh(self) -> AuditReport:
        report = AuditReport(checks_run=["dred-fresh"])
        table = self._table().table
        chips = self.system.engine.chips
        for chip in chips:
            if chip.dred is None:
                continue
            for prefix, entry in chip.dred._entries.items():
                report.entries_checked += 1
                expected = table.get(prefix)
                if entry.next_hop != expected:
                    problem = (
                        f"caches hop {entry.next_hop}, compressed table "
                        f"says {expected}"
                    )
                elif chips[entry.owner].table.get(prefix) is None:
                    problem = f"owner chip {entry.owner} no longer holds it"
                else:
                    continue
                report.violations.append(
                    InvariantViolation(
                        "dred-fresh",
                        f"DRed {chip.index} entry {prefix}: {problem}",
                    )
                )
                return report
        return report
