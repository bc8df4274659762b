"""The shared invariant-oracle layer (DESIGN.md §13).

Every campaign cell, whatever its topology, is judged by the same seven
oracles.  An oracle looks at one :class:`CellEvidence` — the facts the
executor gathered while driving the cell — and returns a
:class:`OracleVerdict`: *pass*, *fail* (with the concrete witness), or
*skip* (with the applicability rule that makes the check meaningless for
this cell, e.g. replay verification on a topology that keeps no
journal).  A skip is not a weaker pass: the report shows it, so a matrix
that silently never exercises an invariant is visible at a glance.

Contract the executors uphold: the replay pair is the last thing a cell
captures — after traffic and after any healing pass, at a flushed
quiesce point — since the state fingerprint covers only what the
journal determines (DRed is a prefix cache, checked against the table
by ``dred-fresh`` instead); and differential oracles (reference-trie
comparisons) only apply when every table mutation flowed through the
acked update stream — fault profiles that inject updates behind the
driver's back (``external_updates``) switch them to skip.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.campaign.spec import Cell
from repro.net.prefix import Prefix
from repro.persist.manager import StorageAudit
from repro.trie.trie import BinaryTrie
from repro.workload.trafficgen import TrafficGenerator

PASS = "pass"
FAIL = "fail"
SKIP = "skip"

#: Every oracle, in report order.
ORACLE_NAMES = (
    "zero-acked-loss",
    "lpm-equivalence",
    "replay-fingerprint",
    "dred-exclusion",
    "chip-audit",
    "state-audit",
    "storage-audit",
)


@dataclass(frozen=True)
class OracleVerdict:
    """One oracle's judgement of one cell."""

    name: str
    status: str  # pass | fail | skip
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != FAIL

    def as_dict(self) -> Dict[str, str]:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class CellEvidence:
    """What one executed cell left behind for the oracles to judge.

    ``systems`` holds per-shard :class:`ClueSystem` objects: the live
    ones for in-process topologies, and for topologies whose engines
    live in subprocesses an in-process restore of a copy of the state
    directory that is fingerprint-equal to the live server (equal
    tables, placement, chip liveness and scheduler state; its DReds
    start cold, so the live shards' own DRed verdicts in
    ``shard_loads`` stand in for them).  ``lookup_fn`` is
    the cell's *data path* — ``process_lookups`` or a network client —
    never the control-plane trie, so chip-level corruption stays
    visible.  ``reference`` mirrors the initial RIB plus exactly the
    acked update stream.  ``prechecked`` carries the data-path oracles'
    verdicts when the executor had to run them while its server was
    still up; those oracles report the precheck instead of calling a
    data path that no longer exists.
    """

    cell: Cell
    reference: BinaryTrie
    lookup_fn: Optional[Callable[[Sequence[int]], List[Optional[int]]]] = None
    systems: List[object] = field(default_factory=list)
    acked_prefixes: List[Tuple[Prefix, Optional[int]]] = field(
        default_factory=list
    )
    acked_updates: int = 0
    shed_updates: int = 0
    external_updates: bool = False
    #: ``(live, replay)`` state fingerprints at the end of the cell.
    replay: Optional[Tuple[str, str]] = None
    storage_audits: List[StorageAudit] = field(default_factory=list)
    prechecked: Dict[str, OracleVerdict] = field(default_factory=dict)
    #: Per-range ``{shard, range, lookup_hits, update_hits, dred_entries,
    #: dred_violations}`` rows as the live server reported them: the load
    #: accounting reshard decisions run on, and each shard's own audit of
    #: its live DRed (see ``ShardWorker.report_dict``).
    shard_loads: List[Dict[str, object]] = field(default_factory=list)
    #: Source path + SHA-256 per trace kind when the cell ran a
    #: ``file:`` workload; ``None`` for synthetic workloads.
    provenance: Optional[Dict[str, Dict[str, object]]] = None


def judge(evidence: CellEvidence) -> List[OracleVerdict]:
    """Run every oracle; returns one verdict per oracle, in order."""
    verdicts = []
    for name in ORACLE_NAMES:
        if name in evidence.prechecked:
            verdicts.append(evidence.prechecked[name])
        else:
            verdicts.append(_ORACLES[name](evidence))
    return verdicts


# -- differential oracles ------------------------------------------------


def _skip_external(evidence: CellEvidence, name: str) -> Optional[OracleVerdict]:
    if evidence.external_updates:
        return OracleVerdict(
            name,
            SKIP,
            "fault profile injects updates outside the acked stream; "
            "the reference trie cannot mirror them",
        )
    if evidence.lookup_fn is None:
        return OracleVerdict(name, SKIP, "cell exposes no data path")
    return None

def zero_acked_loss(evidence: CellEvidence) -> OracleVerdict:
    """Every acked update is visible on the data path.

    Spot-checks the *prefixes of acked updates* directly: for each, an
    address inside the prefix must answer what the reference trie —
    which mirrors exactly the acked stream — answers.  A lost acked
    announce or a resurrected withdrawn route shows up here even if
    traffic-weighted sampling would never visit the prefix.
    """
    name = "zero-acked-loss"
    skip = _skip_external(evidence, name)
    if skip is not None:
        return skip
    if not evidence.acked_prefixes:
        return OracleVerdict(name, SKIP, "cell acked no updates")
    addresses = [prefix.network for prefix, _hop in evidence.acked_prefixes]
    actual = evidence.lookup_fn(addresses)
    checked = indeterminate = 0
    for (prefix, _hop), address, hop in zip(
        evidence.acked_prefixes, addresses, actual
    ):
        expected = evidence.reference.lookup(address)
        if expected is None:
            # Don't-care merging over-approximates: an address with no
            # route (e.g. under a withdrawn prefix nothing else covers)
            # may legitimately still answer — same carve-out as the
            # equivalence audit in repro.persist.audit.
            indeterminate += 1
            continue
        if hop != expected:
            return OracleVerdict(
                name,
                FAIL,
                f"acked update on {prefix}: address {address:#010x} "
                f"answers {hop}, reference says {expected}",
            )
        checked += 1
    return OracleVerdict(
        name,
        PASS,
        f"{checked} acked-update prefixes verified, {indeterminate} "
        f"indeterminate (uncovered space) "
        f"({evidence.acked_updates} acked, {evidence.shed_updates} shed)",
    )


def lpm_equivalence(evidence: CellEvidence) -> OracleVerdict:
    """Sampled data-path LPM answers equal the reference trie's."""
    name = "lpm-equivalence"
    skip = _skip_external(evidence, name)
    if skip is not None:
        return skip
    routes = list(evidence.reference.routes())
    if not routes:
        return OracleVerdict(name, SKIP, "reference table is empty")
    sampler = TrafficGenerator(routes, seed=evidence.cell.seed + 3)
    addresses = sampler.take(evidence.cell.budget.sample_addresses)
    checked = indeterminate = 0
    for start in range(0, len(addresses), 256):
        chunk = addresses[start : start + 256]
        hops = evidence.lookup_fn(chunk)
        for address, hop in zip(chunk, hops):
            expected = evidence.reference.lookup(address)
            if expected is None:
                # Uncovered space: don't-care merging may answer anyway.
                indeterminate += 1
                continue
            if hop != expected:
                return OracleVerdict(
                    name,
                    FAIL,
                    f"address {address:#010x} answers {hop}, "
                    f"reference trie says {expected}",
                )
            checked += 1
    return OracleVerdict(
        name,
        PASS,
        f"{checked} sampled addresses agree, {indeterminate} indeterminate",
    )


# -- durability oracles --------------------------------------------------


def replay_fingerprint(evidence: CellEvidence) -> OracleVerdict:
    """Journal replay reproduces the live state byte for byte."""
    name = "replay-fingerprint"
    if not evidence.cell.durable:
        return OracleVerdict(name, SKIP, "topology keeps no journal")
    if evidence.replay is None:
        return OracleVerdict(
            name, SKIP, "executor captured no replay fingerprints"
        )
    live, replayed = evidence.replay
    if live != replayed:
        return OracleVerdict(
            name,
            FAIL,
            f"live state {live[:16]}… != clean replay {replayed[:16]}… — "
            f"the journal does not reproduce the system",
        )
    return OracleVerdict(name, PASS, f"fingerprint {live[:16]}… reproduced")


def storage_audit(evidence: CellEvidence) -> OracleVerdict:
    """The on-disk journal + snapshots remain a valid recovery basis."""
    name = "storage-audit"
    if not evidence.cell.durable:
        return OracleVerdict(name, SKIP, "topology keeps no journal")
    if not evidence.storage_audits:
        return OracleVerdict(name, SKIP, "executor captured no storage audit")
    records = 0
    for index, audit in enumerate(evidence.storage_audits):
        if not audit.ok:
            return OracleVerdict(
                name, FAIL, f"shard {index}: {'; '.join(audit.problems)}"
            )
        records += audit.journal_records
    return OracleVerdict(
        name,
        PASS,
        f"{len(evidence.storage_audits)} state dir(s), "
        f"{records} journal records, all snapshots verified",
    )


# -- engine-internal oracles ---------------------------------------------


def _skip_no_systems(evidence: CellEvidence, name: str) -> Optional[OracleVerdict]:
    if not evidence.systems:
        return OracleVerdict(name, SKIP, "executor captured no engine internals")
    return None


def _live_dred_failure(
    evidence: CellEvidence, name: str, check: str
) -> Optional[OracleVerdict]:
    """FAIL for the first live shard whose own DRed audit broke ``check``."""
    for row in evidence.shard_loads:
        detail = row.get("dred_violations", {}).get(check)
        if detail:
            return OracleVerdict(
                name, FAIL, f"live shard {row.get('shard')}: {check}: {detail}"
            )
    return None


def dred_exclusion(evidence: CellEvidence) -> OracleVerdict:
    """No chip's DRed caches a prefix homed on that same chip."""
    name = "dred-exclusion"
    skip = _skip_no_systems(evidence, name)
    if skip is not None:
        return skip
    failure = _live_dred_failure(evidence, name, "dred-exclusion")
    if failure is not None:
        return failure
    for index, system in enumerate(evidence.systems):
        if not system.check_dred_exclusion():
            return OracleVerdict(
                name,
                FAIL,
                f"shard {index}: a DRed cache holds a prefix homed on "
                f"its own chip",
            )
    return OracleVerdict(
        name, PASS, f"{len(evidence.systems)} shard(s) exclusion-clean"
    )


def chip_audit(evidence: CellEvidence) -> OracleVerdict:
    """Chip tables match the compressed table (detect-only, no repair)."""
    name = "chip-audit"
    skip = _skip_no_systems(evidence, name)
    if skip is not None:
        return skip
    checked = 0
    for index, system in enumerate(evidence.systems):
        report = system.verify_chips(repair=False)
        if not report.clean:
            return OracleVerdict(
                name,
                FAIL,
                f"shard {index}: {report.repairs} drifted entries "
                f"({report.hops_repaired} wrong hops, "
                f"{report.stray_removed} stray, "
                f"{report.missing_restored} missing)",
            )
        checked += report.entries_checked
    return OracleVerdict(name, PASS, f"{checked} chip entries verified")


def state_audit(evidence: CellEvidence) -> OracleVerdict:
    """Full control-plane invariant pass (disjointness, equivalence, …)."""
    name = "state-audit"
    skip = _skip_no_systems(evidence, name)
    if skip is not None:
        return skip
    failure = _live_dred_failure(evidence, name, "dred-fresh")
    if failure is not None:
        return failure
    for index, system in enumerate(evidence.systems):
        report = system.audit_invariants(
            sample_size=evidence.cell.budget.sample_addresses
        )
        if not report.ok:
            first = report.violations[0]
            return OracleVerdict(
                name,
                FAIL,
                f"shard {index}: {len(report.violations)} violation(s), "
                f"first: {first.check}: {first.detail}",
            )
    return OracleVerdict(
        name, PASS, f"{len(evidence.systems)} shard(s) invariant-clean"
    )


_ORACLES: Dict[str, Callable[[CellEvidence], OracleVerdict]] = {
    "zero-acked-loss": zero_acked_loss,
    "lpm-equivalence": lpm_equivalence,
    "replay-fingerprint": replay_fingerprint,
    "dred-exclusion": dred_exclusion,
    "chip-audit": chip_audit,
    "state-audit": state_audit,
    "storage-audit": storage_audit,
}
