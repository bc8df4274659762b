"""Flattened stride-table LPM backend for the lookup-engine fast path.

The cycle simulator performs one :meth:`lookup_prefix` per MAIN lookup —
millions per benchmark — and the reference :class:`~repro.trie.trie.
BinaryTrie` costs a Python-level method call per address bit.  This module
trades precomputation for O(1) array-indexed lookups, the classic
DIR-24-8 move (Gupta, Lin & McKeown, INFOCOM 1998; see
:mod:`repro.swlookup.dir248` for the faithful hardware model): each chip's
table is compiled into a three-level 16/8/8 stride table whose slots hold
the precomputed ``(prefix, hop)`` answer, so the data path is at most
three list indexings with no per-bit work.

Design notes:

* **Semantics are identical to the trie.**  Slots are painted from a
  shadow :class:`BinaryTrie` by a preorder descent, so genuine
  longest-prefix-match holds even for overlapping content (SLPL replica
  closures, round-robin full duplication, transient mid-update states).
* **Updates are incremental.**  Insert/delete repaints only the region
  the changed prefix covers (descending the shadow subtree underneath
  it), not the whole table — a /24 change touches a handful of slots.
* **Entries are shared tuples.**  A repaint allocates one ``(Prefix,
  hop)`` tuple per visible route and aliases it across every slot the
  route covers, keeping memory proportional to painted regions.
* Blocks are created on demand and never collapsed back to a single
  slot; a stale block after deletions costs one extra indexing, never
  a wrong answer.

The ``"verify"`` backend (:class:`VerifyingLpmTable`) runs both
implementations side by side and raises :class:`BackendMismatchError` on
the first divergence — the equivalence guardrail for engine refactors.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.net.prefix import ADDRESS_WIDTH, Prefix
from repro.trie.node import TrieNode
from repro.trie.trie import BinaryTrie

Route = Tuple[Prefix, int]
Entry = Tuple[Prefix, int]

#: First-level stride (bits 0-15): one slot per /16.
_L1_BITS = 16
_L1_SIZE = 1 << _L1_BITS
#: Second and third level strides (bits 16-23 and 24-31).
_SUB_SIZE = 1 << 8

#: Valid values of :attr:`repro.engine.simulator.EngineConfig.lookup_backend`.
LOOKUP_BACKENDS = ("trie", "fast", "verify")


class BackendMismatchError(AssertionError):
    """The fast backend disagreed with the reference trie."""


def make_lookup_table(routes: Iterable[Route], backend: str = "trie"):
    """Build a chip lookup table for the configured backend.

    ``"trie"`` is the reference :class:`BinaryTrie`; ``"fast"`` the
    flattened :class:`FastLpmTable`; ``"verify"`` runs both and checks
    every lookup (:class:`VerifyingLpmTable`).
    """
    if backend == "trie":
        return BinaryTrie.from_routes(routes)
    if backend == "fast":
        return FastLpmTable(routes)
    if backend == "verify":
        return VerifyingLpmTable(routes)
    raise ValueError(
        f"unknown lookup backend {backend!r} (choose from {LOOKUP_BACKENDS})"
    )


class FastLpmTable:
    """Routing table with O(1) flattened lookups and incremental repaint.

    Implements the full mapping interface of :class:`BinaryTrie` (insert,
    delete, get, routes, iteration, …) — structural queries delegate to
    the shadow trie — plus the flattened ``lookup``/``lookup_prefix``
    data path.

    >>> table = FastLpmTable([(Prefix.from_bits("1"), 1),
    ...                       (Prefix.from_bits("100"), 2)])
    >>> table.lookup_prefix(0b100 << 29)
    (Prefix('128.0.0.0/3'), 2)
    >>> table.lookup(0b111 << 29)
    1
    """

    def __init__(self, routes: Iterable[Route] = ()) -> None:
        self._trie = BinaryTrie.from_routes(routes)
        self._hops: Dict[Prefix, int] = self._trie.as_dict()
        self._l1: List[object] = []
        #: Repaint bookkeeping (pinned by tests/engine/test_fastlpm.py, see
        #: DESIGN.md §10.1).
        self.rebuilds = 0
        self.repaints = 0
        self.rebuild()

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------

    def lookup_prefix(self, address: int) -> Optional[Entry]:
        """LPM lookup returning the matching ``(prefix, hop)`` pair."""
        entry = self._l1[address >> 16]
        if type(entry) is list:
            entry = entry[(address >> 8) & 0xFF]
            if type(entry) is list:
                entry = entry[address & 0xFF]
        return entry

    def lookup(self, address: int) -> Optional[int]:
        """Longest-prefix-match lookup of a 32-bit address."""
        entry = self._l1[address >> 16]
        if type(entry) is list:
            entry = entry[(address >> 8) & 0xFF]
            if type(entry) is list:
                entry = entry[address & 0xFF]
        return None if entry is None else entry[1]

    # ------------------------------------------------------------------
    # Mapping operations (mirror BinaryTrie's contract)
    # ------------------------------------------------------------------

    def insert(self, prefix: Prefix, next_hop: int) -> bool:
        """Insert or overwrite a route; repaints only its region."""
        is_new = self._trie.insert(prefix, next_hop)
        self._hops[prefix] = next_hop
        self._repaint(prefix)
        return is_new

    def delete(self, prefix: Prefix) -> bool:
        """Remove a route; repaints only its region."""
        if not self._trie.delete(prefix):
            return False
        del self._hops[prefix]
        self._repaint(prefix)
        return True

    def get(self, prefix: Prefix) -> Optional[int]:
        """Exact-match lookup — O(1), unlike the trie's per-bit walk."""
        return self._hops.get(prefix)

    def routes(self) -> Iterator[Route]:
        """Routes in the trie's inorder (address order), like the trie."""
        return self._trie.routes()

    def as_dict(self) -> Dict[Prefix, int]:
        return dict(self._trie.routes())

    def __len__(self) -> int:
        return len(self._hops)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self._hops

    def __iter__(self) -> Iterator[Route]:
        return self._trie.routes()

    def __getattr__(self, name: str):
        # Structural queries (prefixes, next_hops, is_disjoint, find_node,
        # effective_hop, node_count, …) delegate to the shadow trie.
        # Only non-mutating attributes may be reached this way; the
        # mutators are overridden above so the flat table never drifts.
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self._trie, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<FastLpmTable routes={len(self._hops)}>"

    # ------------------------------------------------------------------
    # Compilation (full rebuild and incremental repaint)
    # ------------------------------------------------------------------

    def rebuild(self) -> None:
        """Recompile the whole stride table from the shadow trie."""
        self._l1 = [None] * _L1_SIZE
        self._paint_node(self._trie.root, 0, 0, None)
        self.rebuilds += 1

    def _repaint(self, prefix: Prefix) -> None:
        """Recompute every slot ``prefix`` covers (and nothing else).

        Routes below the prefix still paint themselves via the subtree
        descent; the covering answer inherited from above is recomputed
        once.  After a delete has pruned the path entirely, the region is
        a uniform fill with the inherited answer.
        """
        node = self._trie.find_node(prefix)
        best = self._best_above(prefix)
        if node is None:
            self._fill(prefix.value, prefix.length, best)
        else:
            self._paint_node(node, prefix.value, prefix.length, best)
        self.repaints += 1

    def _best_above(self, prefix: Prefix) -> Optional[Entry]:
        """The LPM entry a strictly shorter route contributes at ``prefix``."""
        node = self._trie.root
        length = prefix.length
        best: Optional[Entry] = None
        if length and node.next_hop is not None:
            best = (Prefix.root(), node.next_hop)
        value = 0
        for position in range(length):
            bit = (prefix.value >> (length - 1 - position)) & 1
            node = node.child(bit)
            if node is None:
                break
            value = (value << 1) | bit
            if position + 1 < length and node.next_hop is not None:
                best = (Prefix(value, position + 1), node.next_hop)
        return best

    def _paint_node(
        self,
        node: TrieNode,
        value: int,
        depth: int,
        best: Optional[Entry],
    ) -> None:
        """Preorder descent: paint each childless half with the best entry."""
        if node.next_hop is not None:
            best = (Prefix(value, depth), node.next_hop)
        left, right = node.left, node.right
        if left is None and right is None:
            self._fill(value, depth, best)
            return
        if left is not None:
            self._paint_node(left, value << 1, depth + 1, best)
        else:
            self._fill(value << 1, depth + 1, best)
        if right is not None:
            self._paint_node(right, (value << 1) | 1, depth + 1, best)
        else:
            self._fill((value << 1) | 1, depth + 1, best)

    def _fill(self, value: int, depth: int, entry: Optional[Entry]) -> None:
        """Paint ``entry`` over every slot the region ``value/depth`` covers.

        Callers guarantee the region holds no longer route than the ones
        already painted by the surrounding descent, so replacing a block
        with plain entries here is always correct.
        """
        if depth <= _L1_BITS:
            shift = _L1_BITS - depth
            start = value << shift
            count = 1 << shift
            self._l1[start:start + count] = [entry] * count
            return
        l1_index = value >> (depth - _L1_BITS)
        block = self._l1[l1_index]
        if type(block) is not list:
            # Blockify: the old uniform answer becomes the default.
            block = [block] * _SUB_SIZE
            self._l1[l1_index] = block
        if depth <= 24:
            shift = 24 - depth
            start = (value << shift) & 0xFF
            count = 1 << shift
            block[start:start + count] = [entry] * count
            return
        sub = block[(value >> (depth - 24)) & 0xFF]
        if type(sub) is not list:
            sub = [sub] * _SUB_SIZE
            block[(value >> (depth - 24)) & 0xFF] = sub
        shift = ADDRESS_WIDTH - depth
        start = (value << shift) & 0xFF
        count = 1 << shift
        sub[start:start + count] = [entry] * count

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def slot_stats(self) -> Dict[str, int]:
        """Allocated stride-table structure (memory footprint driver)."""
        l2_blocks = 0
        l3_blocks = 0
        for slot in self._l1:
            if type(slot) is list:
                l2_blocks += 1
                for sub in slot:
                    if type(sub) is list:
                        l3_blocks += 1
        return {
            "level1_slots": _L1_SIZE,
            "level2_blocks": l2_blocks,
            "level3_blocks": l3_blocks,
        }


class VerifyingLpmTable:
    """Parity harness: reference trie and fast table, checked per lookup.

    Every data-path query runs on both backends and must agree; mutations
    are applied to both.  This is ``EngineConfig(lookup_backend="verify")``
    — slower than either backend alone, but it turns any semantic drift
    into an immediate :class:`BackendMismatchError` instead of a silently
    wrong benchmark figure.
    """

    def __init__(self, routes: Iterable[Route] = ()) -> None:
        routes = list(routes)
        self.trie = BinaryTrie.from_routes(routes)
        self.fast = FastLpmTable(routes)
        #: Data-path queries that were cross-checked.
        self.checked = 0

    # -- data path (checked) -------------------------------------------

    def lookup_prefix(self, address: int) -> Optional[Entry]:
        expected = self.trie.lookup_prefix(address)
        actual = self.fast.lookup_prefix(address)
        if expected != actual:
            raise BackendMismatchError(
                f"lookup_prefix({address:#010x}): trie says {expected!r}, "
                f"fast table says {actual!r}"
            )
        self.checked += 1
        return actual

    def lookup(self, address: int) -> Optional[int]:
        expected = self.trie.lookup(address)
        actual = self.fast.lookup(address)
        if expected != actual:
            raise BackendMismatchError(
                f"lookup({address:#010x}): trie says {expected!r}, "
                f"fast table says {actual!r}"
            )
        self.checked += 1
        return actual

    def get(self, prefix: Prefix) -> Optional[int]:
        expected = self.trie.get(prefix)
        actual = self.fast.get(prefix)
        if expected != actual:
            raise BackendMismatchError(
                f"get({prefix}): trie says {expected!r}, "
                f"fast table says {actual!r}"
            )
        return actual

    # -- mutations (mirrored) ------------------------------------------

    def insert(self, prefix: Prefix, next_hop: int) -> bool:
        is_new = self.trie.insert(prefix, next_hop)
        self.fast.insert(prefix, next_hop)
        return is_new

    def delete(self, prefix: Prefix) -> bool:
        found = self.trie.delete(prefix)
        self.fast.delete(prefix)
        return found

    # -- structural reads (trie is authoritative) ----------------------

    def routes(self) -> Iterator[Route]:
        return self.trie.routes()

    def as_dict(self) -> Dict[Prefix, int]:
        return self.trie.as_dict()

    def __len__(self) -> int:
        return len(self.trie)

    def __contains__(self, prefix: Prefix) -> bool:
        return prefix in self.trie

    def __iter__(self) -> Iterator[Route]:
        return self.trie.routes()

    def __getattr__(self, name: str):
        if name.startswith("_"):
            raise AttributeError(name)
        return getattr(self.trie, name)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<VerifyingLpmTable routes={len(self.trie)} checked={self.checked}>"
