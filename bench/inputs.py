"""Seeded inputs and reference answers, all built before any clock starts.

The server under test receives only the table file and wire bytes; the
generators, the payload encoding and the :class:`BinaryTrie` oracle all
run here, in the benchmark's own process, outside the timed windows.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.net.prefix import Prefix
from repro.serve import protocol
from repro.serve.chaos import apply_to_reference
from repro.trie.trie import BinaryTrie
from repro.workload.profiles import WORKLOADS
from repro.workload.ribgen import RibParameters, generate_rib
from repro.workload.traces import save_table
from repro.workload.updategen import UpdateGenerator, UpdateMessage

Route = Tuple[Prefix, int]

#: The table every committed bench already uses (rrc01 stand-in).
RIB_SEED = 101
RIB_SIZE = 8_000
#: Seeds of the committed benches, used when ``--seed`` is not given.
DEFAULT_TRAFFIC_SEED = 61
DEFAULT_UPDATE_SEED = 47

UPDATE_BATCH = 16
#: Independently seeded traffic streams concatenated into one lookup pool.
POOL_SEGMENTS = 8


def build_rib() -> List[Route]:
    return list(generate_rib(RIB_SEED, RibParameters(size=RIB_SIZE)))


def write_table(rib: Sequence[Route], path: Path) -> str:
    """Save the table the server loads; returns the file's SHA-256."""
    save_table(rib, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


@dataclass
class LookupPool:
    """Pre-encoded lookup requests with their expected answers.

    The load loop cycles through the pool, so a run's length never
    changes its inputs; the pool (``batches`` x ``batch_size``
    addresses) is far larger than DRed's 4 x 1024 entries, so cycling
    does not turn a miss-heavy workload into a hit-heavy one.
    """

    profile: str
    batch_size: int
    addresses: List[List[int]]
    payloads: List[bytes]
    #: ``encode_hops`` of the oracle's answers, per batch.
    expected: List[bytes]
    sha256: str

    def __len__(self) -> int:
        return len(self.payloads)


def build_lookup_pool(
    rib: Sequence[Route],
    oracle: BinaryTrie,
    profile: str,
    seed: int,
    batches: int,
    batch_size: int,
) -> LookupPool:
    # One generator per segment: a single stream's speed depends on which
    # prefixes its seed made hot (and which shard owns them), so a pool
    # drawn from several averages that out and runs with different
    # seeds stay comparable.
    flat: List[int] = []
    total = batches * batch_size
    for segment in range(POOL_SEGMENTS):
        share = total * (segment + 1) // POOL_SEGMENTS - len(flat)
        generator = WORKLOADS[profile].traffic_generator(
            rib, seed * POOL_SEGMENTS + segment
        )
        flat.extend(generator.take(share))
    addresses = [
        flat[start : start + batch_size]
        for start in range(0, len(flat), batch_size)
    ]
    lookup = oracle.lookup
    return LookupPool(
        profile=profile,
        batch_size=batch_size,
        addresses=addresses,
        payloads=[protocol.encode_addresses(batch) for batch in addresses],
        expected=[
            protocol.encode_hops([lookup(address) for address in batch])
            for batch in addresses
        ],
        sha256=hashlib.sha256(protocol.encode_addresses(flat)).hexdigest(),
    )


@dataclass
class UpdateStream:
    """Pre-encoded update batches of :data:`UPDATE_BATCH` messages."""

    batches: List[List[UpdateMessage]]
    payloads: List[bytes]
    sha256: str

    def __len__(self) -> int:
        return len(self.payloads)


def build_update_stream(
    rib: Sequence[Route], seed: int, batches: int
) -> UpdateStream:
    messages = UpdateGenerator(rib, seed=seed).take(batches * UPDATE_BATCH)
    grouped = [
        messages[start : start + UPDATE_BATCH]
        for start in range(0, len(messages), UPDATE_BATCH)
    ]
    payloads = [protocol.encode_updates(batch) for batch in grouped]
    return UpdateStream(
        batches=grouped,
        payloads=payloads,
        sha256=hashlib.sha256(b"".join(payloads)).hexdigest(),
    )


class Timeline:
    """The oracle's answer for every pool address at every stream version.

    Version ``v`` is the table after the first ``v`` update batches.  A
    lookup that overlapped in-flight batches may be answered from any
    version between "batches acked before it was sent" and "batches sent
    before its reply arrived"; :meth:`admissible` is that set.  Only the
    positions whose answer ever changes are stored; every other position
    is judged against the static expectation.
    """

    def __init__(
        self,
        pool: LookupPool,
        oracle: BinaryTrie,
        batches: Sequence[Sequence[UpdateMessage]],
    ) -> None:
        """``oracle`` is advanced through ``batches`` (pass a copy)."""
        positions: Dict[int, List[Tuple[int, int]]] = {}
        current: Dict[int, Optional[int]] = {}
        for batch, addresses in enumerate(pool.addresses):
            hops = protocol.decode_hops(pool.expected[batch])
            for position, address in enumerate(addresses):
                positions.setdefault(address, []).append((batch, position))
                current[address] = hops[position]
        ordered = sorted(positions)
        lookup = oracle.lookup
        history: Dict[int, List[Tuple[int, Optional[int]]]] = {}
        for version, batch in enumerate(batches, start=1):
            apply_to_reference(oracle, batch)
            for message in batch:
                prefix = message.prefix
                low = bisect_left(ordered, prefix.network)
                high = bisect_right(ordered, prefix.broadcast)
                for address in ordered[low:high]:
                    answer = lookup(address)
                    if answer != current[address]:
                        history.setdefault(address, [(0, current[address])]).append(
                            (version, answer)
                        )
                        current[address] = answer
        #: Per pool batch: ``{position: [(version, answer), ...]}``.
        self.dynamic: List[Dict[int, List[Tuple[int, Optional[int]]]]] = [
            {} for _ in pool.addresses
        ]
        #: Every pool address whose answer changes at some version.
        self.addresses: List[int] = sorted(history)
        for address, changes in history.items():
            for batch, position in positions[address]:
                self.dynamic[batch][position] = changes

    @staticmethod
    def admissible(
        changes: Sequence[Tuple[int, Optional[int]]], low: int, high: int
    ) -> List[Optional[int]]:
        """Answers the position may show between versions ``low`` and ``high``."""
        answers = []
        for index, (version, answer) in enumerate(changes):
            ends = changes[index + 1][0] if index + 1 < len(changes) else high + 1
            if version <= high and ends > low:
                answers.append(answer)
        return answers


def probe_addresses(batches: Sequence[Sequence[UpdateMessage]]) -> List[int]:
    """One address inside every prefix the batches mention.

    The zero-acked-loss check: once the acked stream has been applied to
    the oracle, the served answers over these addresses must match it.
    """
    prefixes = {message.prefix for batch in batches for message in batch}
    return sorted(prefix.network for prefix in prefixes)
