"""Stateful property test over the whole integrated ClueSystem.

Hypothesis interleaves routing updates — applied directly, or offered in
bursts that overload the bounded update queue and pumped a few at a time —
and traffic bursts against a live system, and checks the global
consistency invariants after every step: the three table copies (control
trie → compressed table → TCAM mirror → chip tables) never diverge, and
the data path answers every completed lookup exactly like the control
plane.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import ClueSystem, SystemConfig
from repro.engine.simulator import EngineConfig
from repro.net.prefix import Prefix
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.trafficgen import TrafficGenerator
from repro.workload.updategen import UpdateKind, UpdateMessage

prefix_strategy = st.integers(4, 24).flatmap(
    lambda length: st.builds(
        Prefix,
        st.integers(0, (1 << length) - 1),
        st.just(length),
    )
)


#: Update queue depth; a burst offers more than 75% of it.
QUEUE = 16


class ClueSystemMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.routes = generate_rib(55, RibParameters(size=300))
        self.system = ClueSystem(
            self.routes,
            SystemConfig(
                engine=EngineConfig(
                    chip_count=2, queue_capacity=16, dred_capacity=64
                ),
                partitions_per_chip=2,
                update_queue_capacity=QUEUE,
            ),
        )
        self.traffic = TrafficGenerator(self.routes, seed=56)
        self.clock = 0.0

    @rule(prefix=prefix_strategy, hop=st.integers(0, 7))
    def announce(self, prefix, hop):
        self.clock += 0.001
        self.system.apply_update(
            UpdateMessage(UpdateKind.ANNOUNCE, prefix, hop, self.clock)
        )

    @rule(prefix=prefix_strategy)
    def withdraw(self, prefix):
        self.clock += 0.001
        self.system.apply_update(
            UpdateMessage(UpdateKind.WITHDRAW, prefix, None, self.clock)
        )

    @rule(
        burst=st.lists(
            st.tuples(prefix_strategy, st.none() | st.integers(0, 7)),
            min_size=QUEUE * 3 // 4 + 1,
            max_size=QUEUE + 8,
        ),
        budget=st.integers(1, 3),
    )
    def queued_burst(self, burst, budget):
        for prefix, hop in burst:
            self.clock += 0.001
            kind = UpdateKind.WITHDRAW if hop is None else UpdateKind.ANNOUNCE
            self.system.offer_update(
                UpdateMessage(kind, prefix, hop, self.clock)
            )
        queued = len(self.system.scheduler.queue)
        assert self.system.pump_updates(budget) == min(budget, queued)

    @rule()
    def traffic_burst(self):
        self.system.process_traffic(self.traffic, 150)
        assert self.system.engine.verify_completions()
        self.system.engine.reorder.released.clear()

    @rule()
    def rebalance(self):
        report = self.system.rebalance()
        assert report.is_even

    @invariant()
    def copies_consistent(self):
        system = self.system
        assert system.pipeline.tcam_matches_table()
        table = system.pipeline.trie_stage.table.table
        union = {}
        for chip in system.engine.chips:
            for prefix, hop in chip.table.routes():
                # Range-spanning entries are replicated across chips but
                # must agree with the compressed table everywhere.
                assert union.setdefault(prefix, hop) == hop
        assert union == table
        # Every entry is present in the chip owning its first address.
        for prefix, hop in table.items():
            home = system.engine.home_of(prefix.network)
            assert system.engine.chips[home].table.get(prefix) == hop


TestClueSystemMachine = ClueSystemMachine.TestCase
TestClueSystemMachine.settings = settings(
    max_examples=8, stateful_step_count=15, deadline=None
)
