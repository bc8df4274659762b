"""Parallel TCAM lookup engine with dynamic redundancy (Figure 1)."""

from repro.engine.builders import (
    BuiltEngine,
    build_clpl_engine,
    build_clue_engine,
    build_round_robin_engine,
    build_slpl_engine,
    map_partitions_to_chips,
    measure_partition_load,
)
from repro.engine.dred import DredCache, DredEntry
from repro.engine.events import Completion, LookupKind, Packet
from repro.engine.fastlpm import (
    LOOKUP_BACKENDS,
    BackendMismatchError,
    FastLpmTable,
    VerifyingLpmTable,
    make_lookup_table,
)
from repro.engine.queues import BoundedFifo, UpdateQueue
from repro.engine.reorder import ReorderBuffer
from repro.engine.rrcme import Expansion, minimal_expansion
from repro.engine.schemes import (
    CluePolicy,
    ClplPolicy,
    RoundRobinPolicy,
    SchemePolicy,
    SlplPolicy,
)
from repro.engine.simulator import ChipState, EngineConfig, LookupEngine
from repro.engine.stats import EngineStats

__all__ = [
    "BackendMismatchError",
    "BoundedFifo",
    "BuiltEngine",
    "ChipState",
    "CluePolicy",
    "ClplPolicy",
    "Completion",
    "DredCache",
    "DredEntry",
    "EngineConfig",
    "EngineStats",
    "Expansion",
    "FastLpmTable",
    "LOOKUP_BACKENDS",
    "LookupEngine",
    "LookupKind",
    "Packet",
    "ReorderBuffer",
    "RoundRobinPolicy",
    "SchemePolicy",
    "SlplPolicy",
    "UpdateQueue",
    "VerifyingLpmTable",
    "build_clpl_engine",
    "build_clue_engine",
    "build_round_robin_engine",
    "build_slpl_engine",
    "make_lookup_table",
    "map_partitions_to_chips",
    "measure_partition_load",
    "minimal_expansion",
]
