"""Equivalence tests for the engine's fast paths.

Two optimisations must be invisible in the statistics:

* the event-driven cycle skip in ``_run_reference`` (quiescent cycles are
  jumped over with closed-form counter catch-up), and
* the fused ``_run_turbo`` loop used for all-``fast``-backend CLUE runs.

Each test pits an optimised run against a configuration that forces the
plain cycle-by-cycle loop (an ``on_cycle`` observer disables skipping; a
``trie`` backend or an observer disables turbo) and requires *byte
identical* stats fingerprints — every counter, not headline numbers.
"""

import pytest

from repro.engine.builders import build_clue_engine, measure_partition_load
from repro.engine.simulator import EngineConfig
from repro.faults import FaultInjector, FaultSchedule
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.trafficgen import TrafficGenerator, TrafficParameters

PACKETS = 3_000

#: Pinned fingerprint for the seeded workload below (rib seed 11, traffic
#: seed 17, 4 chips, 3k packets, rate 1.0).  Both backends and both run
#: loops must reproduce it exactly; a change here means the engine's
#: observable behaviour changed and needs a deliberate re-pin.
GOLDEN_FINGERPRINT = (
    "b47f7773d9706b52672a8d637c350eb7b3130233367c29777687d94499bb92f6"
)


@pytest.fixture(scope="module")
def routes():
    return generate_rib(11, RibParameters(size=2_000))


def fresh_engine(
    routes, backend="trie", rate=1.0, observer=None, partition_loads=None
):
    built = build_clue_engine(
        routes,
        EngineConfig(
            chip_count=4, lookup_backend=backend, arrivals_per_cycle=rate
        ),
        partition_loads=partition_loads,
    )
    built.engine.on_cycle = observer
    return built.engine


def run_stats(routes, packets=PACKETS, traffic_seed=17, **kwargs):
    engine = fresh_engine(routes, **kwargs)
    stats = engine.run(TrafficGenerator(routes, seed=traffic_seed), packets)
    assert engine.verify_completions()
    return engine, stats


class TestCycleSkip:
    """Skipping quiescent cycles must not change any counter."""

    @pytest.mark.parametrize("rate", [1.0, 0.3, 0.25])
    def test_skip_matches_observed_run(self, routes, rate):
        # An attached observer forces the cycle-by-cycle loop; fractional
        # rates interleave quiescent cycles between arrivals so the
        # unobserved run actually exercises the skip (and its fractional
        # credit replay).
        seen = []
        _, observed = run_stats(
            routes, rate=rate, observer=seen.append, packets=1_000
        )
        _, skipped = run_stats(routes, rate=rate, packets=1_000)
        assert skipped.fingerprint() == observed.fingerprint()
        # The observer saw every cycle exactly once, in order.
        assert seen == list(range(observed.cycles))

    def test_skip_matches_under_faults(self, routes):
        # Stalls and a chip death/revival create long quiescent stretches;
        # the skip must consult the schedule's next_cycle and land faults
        # on exactly the right cycle.
        def faulted(observer):
            engine = fresh_engine(routes, rate=0.25, observer=observer)
            schedule = (
                FaultSchedule(seed=3)
                .stall(cycle=300, chip=1, cycles=200)
                .chip_down(2_000, chip=2)
                .chip_up(4_000, chip=2)
            )
            engine.fault_injector = FaultInjector(engine, schedule)
            stats = engine.run(
                TrafficGenerator(routes, seed=19), 1_500
            )
            assert engine.verify_completions()
            return stats

        observed = faulted(lambda cycle: None)
        skipped = faulted(None)
        assert skipped.chip_failures == 1
        assert skipped.chip_recoveries == 1
        assert skipped.fingerprint() == observed.fingerprint()

    def test_opaque_fault_source_disables_skip(self, routes):
        # A fault injector that does not expose ``next_cycle`` makes the
        # next fault unpredictable, so the engine must fall back to
        # visiting every cycle — and still agree with the observed run.
        class OpaqueInjector:
            def tick(self, cycle):
                return 0

        engine = fresh_engine(routes, rate=0.5)
        engine.fault_injector = OpaqueInjector()
        stats = engine.run(TrafficGenerator(routes, seed=23), 800)
        _, observed = run_stats(
            routes, rate=0.5, traffic_seed=23, packets=800,
            observer=lambda cycle: None,
        )
        # Only the fault-injector attachment differs, and it never fires.
        assert stats.fingerprint() == observed.fingerprint()

    def test_cycle_budget_still_enforced(self, routes):
        engine = fresh_engine(routes, rate=0.1)
        with pytest.raises(RuntimeError, match="cycle budget"):
            engine.run(TrafficGenerator(routes, seed=29), 500, max_cycles=50)


class TestTurboParity:
    """The fused fast-backend loop must match the reference loop exactly."""

    def test_backends_fingerprint_identical(self, routes):
        _, trie_stats = run_stats(routes, backend="trie")
        _, fast_stats = run_stats(routes, backend="fast")
        assert fast_stats.fingerprint() == trie_stats.fingerprint()

    def test_turbo_matches_forced_reference(self, routes):
        # Same fast backend, but an observer forces _run_reference — this
        # isolates the run-loop difference from the backend difference.
        _, turbo = run_stats(routes, backend="fast")
        _, reference = run_stats(
            routes, backend="fast", observer=lambda cycle: None
        )
        assert turbo.fingerprint() == reference.fingerprint()

    def test_verify_backend_agrees(self, routes):
        # The cross-checking backend runs the reference loop with both
        # tables consulted per lookup; any drift raises, and the stats
        # must still land on the same fingerprint.
        _, trie_stats = run_stats(routes, packets=600)
        _, verify_stats = run_stats(routes, backend="verify", packets=600)
        assert verify_stats.fingerprint() == trie_stats.fingerprint()

    def test_fractional_rate_parity(self, routes):
        _, trie_stats = run_stats(routes, backend="trie", rate=0.3)
        _, fast_stats = run_stats(routes, backend="fast", rate=0.3)
        assert fast_stats.fingerprint() == trie_stats.fingerprint()

    def test_parity_survives_updates_between_runs(self, routes):
        # Table updates between two run() calls: the second call must see
        # the repainted tables and still match the trie run doing the
        # same updates.
        extra = routes[100][0], 9  # hop change on a live route

        def churned(backend):
            engine = fresh_engine(routes, backend=backend)
            traffic = TrafficGenerator(routes, seed=31)
            engine.run(traffic, 1_000)
            for chip in engine.chips:
                if extra[0] in chip.table:
                    chip.table.insert(*extra)
            stats = engine.run(traffic, 1_000)
            assert engine.verify_completions(covered_only=True)
            return stats

        assert churned("fast").fingerprint() == churned("trie").fingerprint()

    def test_dead_chip_forces_reference_and_matches(self, routes):
        # A dead chip fails the turbo gate; the fast backend must take the
        # reference loop and agree with the trie backend's identical run.
        def killed(backend):
            engine = fresh_engine(routes, backend=backend)
            engine.kill_chip(1)
            stats = engine.run(TrafficGenerator(routes, seed=37), 1_000)
            assert engine.verify_completions()
            return stats

        assert killed("fast").fingerprint() == killed("trie").fingerprint()


@pytest.fixture(scope="module")
def fig15_workload():
    """The Figure 15 engine workload on the two chip placements of Table II.

    ``fig15`` is the natural partition→chip mapping; ``adversarial`` pins
    the hottest partitions on chip 0 (loads measured on the same stream),
    which makes the run divert-heavy — the placement that leans on the
    DRed lookup.
    """
    rib = generate_rib(101, RibParameters(size=8_000))
    addresses = TrafficGenerator(
        rib, seed=61, parameters=TrafficParameters(zipf_exponent=1.4)
    ).take(20_000)
    probe = build_clue_engine(rib, EngineConfig(chip_count=4))
    loads = measure_partition_load(
        probe.index, addresses, probe.partition_result.count
    )
    return rib, addresses, {"fig15": None, "adversarial": loads}


def placed_run(workload, placement, backend, packets=None):
    rib, addresses, loads = workload
    engine = fresh_engine(
        rib, backend=backend, partition_loads=loads[placement]
    )
    addresses = addresses[:packets]
    stats = engine.run(iter(addresses), len(addresses))
    assert engine.verify_completions()
    return stats


class TestPlacementParity:
    """Fused loop vs ``trie`` backend on both Table II placements."""

    @pytest.mark.parametrize(
        "placement, min_diverted_share", [("fig15", 0.1), ("adversarial", 0.5)]
    )
    def test_fused_loop_matches_trie_backend(
        self, fig15_workload, placement, min_diverted_share
    ):
        trie = placed_run(fig15_workload, placement, "trie")
        fast = placed_run(fig15_workload, placement, "fast")
        assert fast.fingerprint() == trie.fingerprint()
        # The comparison is only worth something if the DRed lookup ran,
        # hit and missed.
        assert fast.diverted >= min_diverted_share * fast.arrivals
        assert fast.dred_hits > 0 and fast.bounced > 0

    @pytest.mark.parametrize("placement", ["fig15", "adversarial"])
    def test_verify_backend_slice(self, fig15_workload, placement):
        # Both tables consulted on every lookup; any drift raises.
        verify = placed_run(fig15_workload, placement, "verify", 2_000)
        fast = placed_run(fig15_workload, placement, "fast", 2_000)
        assert verify.completions == 2_000
        assert verify.fingerprint() == fast.fingerprint()


class TestDeterminismPin:
    """Golden fingerprint: the engine's observable behaviour is pinned."""

    @pytest.mark.parametrize("backend", ["trie", "fast"])
    def test_golden_fingerprint(self, routes, backend):
        _, stats = run_stats(routes, backend=backend)
        assert stats.fingerprint() == GOLDEN_FINGERPRINT
