"""The invariant-oracle layer, judged against hand-built evidence."""

import pytest

from repro.campaign.oracles import (
    FAIL,
    ORACLE_NAMES,
    PASS,
    SKIP,
    CellEvidence,
    OracleVerdict,
    judge,
)
from repro.campaign.spec import Cell, CellBudget
from repro.persist.manager import StorageAudit
from repro.trie.trie import BinaryTrie
from repro.workload.ribgen import RibParameters, generate_rib

ROUTES = generate_rib(3, RibParameters(size=120))


def _cell(topology="inproc", fault="none"):
    return Cell(
        workload="fig15",
        fault=fault,
        backend="fast",
        topology=topology,
        seed=5,
        budget=CellBudget(sample_addresses=64),
    )


def _evidence(**kwargs):
    reference = kwargs.pop("reference", BinaryTrie.from_routes(ROUTES))

    def honest_lookup(addresses):
        return [reference.lookup(address) for address in addresses]

    defaults = dict(
        cell=_cell(),
        reference=reference,
        lookup_fn=honest_lookup,
        acked_prefixes=[(ROUTES[0][0], ROUTES[0][1])],
        acked_updates=1,
    )
    defaults.update(kwargs)
    return CellEvidence(**defaults)


def _verdict(verdicts, name):
    return next(v for v in verdicts if v.name == name)


def test_every_oracle_reports_exactly_once():
    verdicts = judge(_evidence())
    assert [v.name for v in verdicts] == list(ORACLE_NAMES)


def test_honest_data_path_passes_differential_oracles():
    verdicts = judge(_evidence())
    assert _verdict(verdicts, "zero-acked-loss").status == PASS
    assert _verdict(verdicts, "lpm-equivalence").status == PASS


def test_lying_data_path_fails_lpm_equivalence():
    reference = BinaryTrie.from_routes(ROUTES)

    def liar(addresses):
        return [
            None if reference.lookup(a) is not None else 1 for a in addresses
        ]

    verdicts = judge(_evidence(lookup_fn=liar))
    verdict = _verdict(verdicts, "lpm-equivalence")
    assert verdict.status == FAIL
    assert "reference trie says" in verdict.detail


def test_lost_acked_update_is_named():
    reference = BinaryTrie.from_routes(ROUTES)
    prefix, hop = ROUTES[0]

    def drops_one(addresses):
        return [
            (None if address == prefix.network else reference.lookup(address))
            for address in addresses
        ]

    evidence = _evidence(
        lookup_fn=drops_one, acked_prefixes=[(prefix, hop)]
    )
    verdict = _verdict(judge(evidence), "zero-acked-loss")
    assert verdict.status == FAIL
    assert str(prefix) in verdict.detail


def test_uncovered_space_is_indeterminate_not_a_failure():
    # A withdrawn prefix nothing covers: reference says None, and the
    # compressed table may answer anything (don't-care merging).
    reference = BinaryTrie.from_routes(ROUTES)
    prefix = ROUTES[0][0]
    reference.remove_route(prefix)

    def overapproximates(addresses):
        return [reference.lookup(a) if reference.lookup(a) is not None else 7
                for a in addresses]

    evidence = _evidence(
        reference=reference,
        lookup_fn=overapproximates,
        acked_prefixes=[(prefix, None)],
    )
    verdict = _verdict(judge(evidence), "zero-acked-loss")
    assert verdict.status == PASS
    assert "indeterminate" in verdict.detail


def test_external_updates_switch_differential_oracles_to_skip():
    verdicts = judge(_evidence(external_updates=True))
    for name in ("zero-acked-loss", "lpm-equivalence"):
        verdict = _verdict(verdicts, name)
        assert verdict.status == SKIP
        assert "outside the acked stream" in verdict.detail


def test_replay_oracle_skips_without_a_journal():
    verdict = _verdict(judge(_evidence()), "replay-fingerprint")
    assert verdict.status == SKIP
    assert "no journal" in verdict.detail


def test_replay_mismatch_fails_with_both_fingerprints():
    evidence = _evidence(
        cell=_cell(topology="inproc-durable"),
        replay=("a" * 64, "b" * 64),
    )
    verdict = _verdict(judge(evidence), "replay-fingerprint")
    assert verdict.status == FAIL
    assert "aaaa" in verdict.detail and "bbbb" in verdict.detail


def test_replay_match_passes():
    evidence = _evidence(
        cell=_cell(topology="inproc-durable"),
        replay=("c" * 64, "c" * 64),
    )
    assert _verdict(judge(evidence), "replay-fingerprint").status == PASS


def test_storage_audit_failure_names_the_shard():
    evidence = _evidence(
        cell=_cell(topology="serve-2"),
        storage_audits=[
            StorageAudit(journal_records=5),
            StorageAudit(problems=["journal unreadable: boom"]),
        ],
    )
    verdict = _verdict(judge(evidence), "storage-audit")
    assert verdict.status == FAIL
    assert "shard 1" in verdict.detail
    assert "journal unreadable" in verdict.detail


def test_engine_oracles_skip_for_subprocess_cells():
    verdicts = judge(_evidence(systems=[]))
    for name in ("dred-exclusion", "chip-audit", "state-audit"):
        assert _verdict(verdicts, name).status == SKIP


def test_live_shard_dred_violations_fail_the_dred_oracles():
    """A restored copy starts with cold DReds, so the live shards' own
    DRed audits (their STATS rows) decide dred-exclusion and the DRed
    half of state-audit."""
    from repro.core import ClueSystem, SystemConfig
    from repro.engine.simulator import EngineConfig

    system = ClueSystem(
        ROUTES, SystemConfig(engine=EngineConfig(lookup_backend="fast"))
    )
    clean = {"shard": 0, "dred_entries": 5, "dred_violations": {}}
    verdicts = judge(_evidence(systems=[system], shard_loads=[clean]))
    for name in ("dred-exclusion", "state-audit"):
        assert _verdict(verdicts, name).status == PASS

    stale = {
        "shard": 1,
        "dred_entries": 3,
        "dred_violations": {
            "dred-exclusion": "a DRed bank caches a prefix its own chip serves",
            "dred-fresh": "DRed 0 entry 10.0.0.0/8: caches hop 3, ...",
        },
    }
    verdicts = judge(_evidence(systems=[system], shard_loads=[clean, stale]))
    for name in ("dred-exclusion", "state-audit"):
        verdict = _verdict(verdicts, name)
        assert verdict.status == FAIL
        assert "live shard 1" in verdict.detail


def test_prechecked_verdicts_override_oracles():
    injected = OracleVerdict("chip-audit", FAIL, "established mid-flight")
    verdicts = judge(_evidence(prechecked={"chip-audit": injected}))
    assert _verdict(verdicts, "chip-audit") is injected


def test_verdict_ok_semantics():
    assert OracleVerdict("x", PASS).ok
    assert OracleVerdict("x", SKIP).ok, "a skip is not a failure"
    assert not OracleVerdict("x", FAIL).ok
