"""Engine builders: wire a routing table into a ready-to-run engine.

Each builder performs a scheme's full setup pipeline — compression (or
not), partitioning, partition→chip mapping, indexing logic, redundancy
provisioning — and returns a :class:`BuiltEngine` bundling the engine with
everything the benchmarks report on (partition sizes, TCAM entry counts,
redundancy).

The partition→chip mapping accepts a measured per-partition load so the
benches can reproduce Table II / Figure 15's *adversarial* mapping: sort
partitions by traffic share and give the hottest block to chip 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Counter as CounterType
from collections import Counter
from typing import List, Optional, Sequence, Tuple

from repro.compress.labels import CompressionMode
from repro.compress.onrtc import compress
from repro.engine.schemes import (
    CluePolicy,
    ClplPolicy,
    RoundRobinPolicy,
    SchemePolicy,
    SlplPolicy,
)
from repro.engine.simulator import EngineConfig, LookupEngine
from repro.net.prefix import Prefix
from repro.partition.base import PartitionResult
from repro.partition.even import even_partition
from repro.partition.idbit import idbit_partition
from repro.partition.index_logic import (
    BitIndex,
    IndexingLogic,
    PrefixIndex,
    RangeIndex,
    build_index,
)
from repro.partition.subtree import subtree_partition
from repro.trie.traversal import subtree_routes
from repro.trie.trie import BinaryTrie

Route = Tuple[Prefix, int]


class FlatHomeIndex:
    """Step II (Indexing Logic) flattened to one array index per packet.

    CLUE's range table is a binary search over partition boundaries; on the
    simulator's hot path that bisect (plus the partition→chip mapping hop)
    runs once per arriving packet.  The same trick as the DIR-24-8 lookup
    backend applies: precompute the answer per /16 block.  Blocks that a
    partition boundary splits keep a ``-1`` sentinel and fall back to the
    exact bisect — there are at most ``partition_count - 1`` such blocks.

    The instance is callable with the same signature as the lambda it
    replaces; the engine's fused loop recognises the ``home_l1`` attribute
    and indexes the array directly.
    """

    __slots__ = ("index", "mapping", "home_l1")

    def __init__(self, index: RangeIndex, mapping: Sequence[int]) -> None:
        self.index = index
        self.mapping = list(mapping)
        home_l1 = [-1] * (1 << 16)
        fences = list(index.boundaries) + [1 << 32]
        for partition in range(len(index.boundaries)):
            start, end = fences[partition], fences[partition + 1]
            chip = self.mapping[partition]
            first_block = (start + 0xFFFF) >> 16  # first fully-covered /16
            for block in range(first_block, end >> 16):
                home_l1[block] = chip
        self.home_l1 = home_l1

    def __call__(self, address: int) -> int:
        chip = self.home_l1[address >> 16]
        if chip >= 0:
            return chip
        return self.mapping[self.index.home_of(address)]


@dataclass
class BuiltEngine:
    """A configured engine plus the setup artefacts benchmarks report."""

    engine: LookupEngine
    scheme: SchemePolicy
    partition_result: PartitionResult
    index: IndexingLogic
    partition_to_chip: List[int]
    tcam_entries_per_chip: List[int]

    @property
    def total_tcam_entries(self) -> int:
        """Main-partition entries across all chips (DRed slots excluded)."""
        return sum(self.tcam_entries_per_chip)


def measure_partition_load(
    index: IndexingLogic, addresses: Sequence[int], partition_count: int
) -> List[int]:
    """Packets per partition for a traffic sample (Table II's percentages)."""
    loads: CounterType[int] = Counter(
        index.home_of(address) for address in addresses
    )
    return [loads.get(partition, 0) for partition in range(partition_count)]


def map_partitions_to_chips(
    partition_count: int,
    chip_count: int,
    loads: Optional[Sequence[int]] = None,
) -> List[int]:
    """Assign partitions to chips in contiguous groups.

    Without ``loads``, partition ``p`` goes to chip ``p // (count/chips)``
    (the natural mapping).  With ``loads``, partitions are sorted by load,
    descending, and dealt out in blocks — the paper's worst-case mapping
    where chip 0 receives the eight hottest partitions.
    """
    if partition_count % chip_count:
        raise ValueError("partition count must divide evenly among chips")
    per_chip = partition_count // chip_count
    mapping = [0] * partition_count
    if loads is None:
        order = list(range(partition_count))
    else:
        if len(loads) != partition_count:
            raise ValueError("one load per partition required")
        order = sorted(
            range(partition_count), key=lambda p: loads[p], reverse=True
        )
    for position, partition in enumerate(order):
        mapping[partition] = position // per_chip
    return mapping


def _chip_tables(
    result: PartitionResult, partition_to_chip: List[int], chip_count: int
) -> List[List[Route]]:
    tables: List[List[Route]] = [[] for _ in range(chip_count)]
    for partition in result.partitions:
        tables[partition_to_chip[partition.index]].extend(
            partition.all_routes()
        )
    return tables


def place_clue(
    compressed: Sequence[Route],
    chips: Sequence[int],
    chip_count: int,
    partitions_per_chip: int,
    partition_loads: Optional[Sequence[int]] = None,
) -> Tuple[PartitionResult, FlatHomeIndex, List[List[Route]]]:
    """CLUE's placement: even ranges, their Indexing Logic, their chips.

    The disjoint ``compressed`` table is cut into ``partitions_per_chip``
    even ranges per chip in ``chips`` (every chip at construction, the
    survivors after a chip death), the ranges are dealt to those chips and
    step II is flattened into a :class:`FlatHomeIndex`.  Returns the
    partitions, that index and the tables of all ``chip_count`` chips
    (empty for chips outside ``chips``).
    """
    partition_count = len(chips) * partitions_per_chip
    result = even_partition(compressed, partition_count)
    mapping = [
        chips[local]
        for local in map_partitions_to_chips(
            partition_count, len(chips), partition_loads
        )
    ]
    home = FlatHomeIndex(RangeIndex.from_partition(result), mapping)
    return result, home, _chip_tables(result, mapping, chip_count)


def clue_engine(
    compressed: Sequence[Route],
    reference: BinaryTrie,
    config: EngineConfig,
    partitions_per_chip: int,
    partition_loads: Optional[Sequence[int]],
) -> BuiltEngine:
    """Place a table compressed from ``reference``; wire up CLUE."""
    count = config.chip_count
    result, home, tables = place_clue(
        compressed, range(count), count, partitions_per_chip, partition_loads
    )
    engine = LookupEngine(tables, home, CluePolicy(), config, reference)
    return BuiltEngine(
        engine=engine,
        scheme=engine.scheme,
        partition_result=result,
        index=home.index,
        partition_to_chip=home.mapping,
        tcam_entries_per_chip=[len(table) for table in tables],
    )


def build_clue_engine(
    routes: Sequence[Route],
    config: Optional[EngineConfig] = None,
    partitions_per_chip: int = 8,
    mode: CompressionMode = CompressionMode.DONT_CARE,
    partition_loads: Optional[Sequence[int]] = None,
) -> BuiltEngine:
    """ONRTC-compress, even-partition and wire up the CLUE engine."""
    reference = BinaryTrie.from_routes(routes)
    return clue_engine(
        list(compress(reference, mode).items()),
        reference,
        config or EngineConfig(),
        partitions_per_chip,
        partition_loads,
    )


def build_clpl_engine(
    routes: Sequence[Route],
    config: Optional[EngineConfig] = None,
    partitions_per_chip: int = 8,
    partition_loads: Optional[Sequence[int]] = None,
) -> BuiltEngine:
    """Sub-tree partition the uncompressed table and wire up CLPL."""
    config = config or EngineConfig()
    reference = BinaryTrie.from_routes(routes)
    partition_count = config.chip_count * partitions_per_chip
    result = subtree_partition(reference, partition_count)
    index = PrefixIndex.from_partition(result)
    mapping = map_partitions_to_chips(
        partition_count, config.chip_count, partition_loads
    )
    tables = _chip_tables(result, mapping, config.chip_count)
    engine = LookupEngine(
        tables,
        home_of=lambda address: mapping[index.home_of(address)],
        scheme=ClplPolicy(),
        config=config,
        reference=reference,
    )
    return BuiltEngine(
        engine=engine,
        scheme=engine.scheme,
        partition_result=result,
        index=index,
        partition_to_chip=mapping,
        tcam_entries_per_chip=[len(table) for table in tables],
    )


def build_slpl_engine(
    routes: Sequence[Route],
    training_addresses: Sequence[int],
    config: Optional[EngineConfig] = None,
    redundancy_fraction: float = 0.25,
) -> BuiltEngine:
    """ID-bit partition plus statically replicated hot prefixes (SLPL).

    ``training_addresses`` plays the role of the long-period statistics the
    scheme selects its redundancy from; the hottest prefixes are replicated
    into every chip until ``redundancy_fraction`` extra entries are spent.
    """
    config = config or EngineConfig()
    reference = BinaryTrie.from_routes(routes)
    result = idbit_partition(routes, config.chip_count)
    index = BitIndex.from_partition(result)
    mapping = list(range(config.chip_count))  # buckets already packed
    tables = _chip_tables(result, mapping, config.chip_count)

    hits: CounterType[Prefix] = Counter()
    for address in training_addresses:
        match = reference.lookup_prefix(address)
        if match is not None:
            hits[match[0]] += 1
    budget = int(len(routes) * redundancy_fraction)
    chips_minus_one = max(1, config.chip_count - 1)
    hot_set = BinaryTrie()
    spent = 0
    for prefix, _count in hits.most_common():
        if hot_set.effective_hop(prefix) is not None:
            continue  # already covered by a hotter (shorter) replica group
        # Replicating a prefix alone would be wrong: a diverted packet whose
        # true LPM is a more-specific route under it would match the replica
        # instead.  Replicate the whole descendant closure so any chip can
        # answer exactly.
        closure = subtree_routes(reference, prefix)
        cost = len(closure) * chips_minus_one
        if spent + cost > budget:
            continue
        spent += cost
        hot_set.insert(prefix, closure[0][1] if closure else 0)
        for chip_index, table in enumerate(tables):
            for replica_prefix, replica_hop in closure:
                if index.home_of(replica_prefix.network) != chip_index:
                    table.append((replica_prefix, replica_hop))

    engine = LookupEngine(
        tables,
        home_of=index.home_of,
        scheme=SlplPolicy(hot_set),
        config=config,
        reference=reference,
    )
    return BuiltEngine(
        engine=engine,
        scheme=engine.scheme,
        partition_result=result,
        index=index,
        partition_to_chip=mapping,
        tcam_entries_per_chip=[len(table) for table in tables],
    )


def build_round_robin_engine(
    routes: Sequence[Route],
    config: Optional[EngineConfig] = None,
) -> BuiltEngine:
    """Full-duplication baseline: whole table on every chip."""
    config = config or EngineConfig()
    reference = BinaryTrie.from_routes(routes)
    tables = [list(routes) for _ in range(config.chip_count)]
    counter = {"next": 0}

    def round_robin(address: int) -> int:
        del address
        chip = counter["next"]
        counter["next"] = (chip + 1) % config.chip_count
        return chip

    result = PartitionResult(
        algorithm="round-robin-duplicate",
        partitions=[],
    )
    engine = LookupEngine(
        tables,
        home_of=round_robin,
        scheme=RoundRobinPolicy(),
        config=config,
        reference=reference,
    )
    return BuiltEngine(
        engine=engine,
        scheme=engine.scheme,
        partition_result=result,
        index=RangeIndex([0]),
        partition_to_chip=[0] * config.chip_count,
        tcam_entries_per_chip=[len(table) for table in tables],
    )


__all__ = [
    "BuiltEngine",
    "build_clpl_engine",
    "build_clue_engine",
    "build_round_robin_engine",
    "build_slpl_engine",
    "clue_engine",
    "map_partitions_to_chips",
    "measure_partition_load",
    "place_clue",
    "build_index",
]
