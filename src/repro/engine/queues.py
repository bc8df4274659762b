"""Bounded FIFO in front of each TCAM chip (Figure 1's per-chip queues).

The queue-full signal is the engine's only load indicator: rule (b)
diverts a packet exactly when its home queue is full, and picks the target
by comparing queue depths.  Occupancy statistics feed the load-balancing
analysis.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Generic, Optional, TypeVar

T = TypeVar("T")


class BoundedFifo(Generic[T]):
    """A fixed-capacity FIFO with occupancy statistics."""

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self.peak_occupancy = 0
        self.total_enqueued = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._items

    def push(self, item: T) -> None:
        """Enqueue; the caller must have checked :attr:`is_full`."""
        items = self._items
        depth = len(items)
        if depth >= self.capacity:
            raise OverflowError("queue is full")
        items.append(item)
        self.total_enqueued += 1
        if depth >= self.peak_occupancy:
            self.peak_occupancy = depth + 1

    def pop(self) -> T:
        """Dequeue the oldest item."""
        return self._items.popleft()

    def peek(self) -> Optional[T]:
        """The oldest item without removing it."""
        return self._items[0] if self._items else None


class UpdateQueue(Generic[T]):
    """Bounded control-plane update queue with shed accounting.

    Unlike :class:`BoundedFifo` (whose full signal *diverts* packets), an
    update queue under a BGP storm must make a load-shedding decision:
    an offer to a full queue is refused and counted as *shed* — the caller
    (peer session) is expected to re-advertise later.
    """

    def __init__(self, capacity: int) -> None:
        if capacity <= 0:
            raise ValueError("update queue capacity must be positive")
        self.capacity = capacity
        self._items: Deque[T] = deque()
        self.offered = 0
        self.accepted = 0
        self.shed = 0
        self.peak_occupancy = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def is_full(self) -> bool:
        return len(self._items) >= self.capacity

    @property
    def is_empty(self) -> bool:
        return not self._items

    @property
    def occupancy(self) -> float:
        """Fill fraction in [0, 1]."""
        return len(self._items) / self.capacity

    def offer(self, item: T) -> bool:
        """Admit an item if there is room; False means it was shed."""
        self.offered += 1
        if self.is_full:
            self.shed += 1
            return False
        self._items.append(item)
        self.accepted += 1
        if len(self._items) > self.peak_occupancy:
            self.peak_occupancy = len(self._items)
        return True

    def pop(self) -> T:
        """Dequeue the oldest update."""
        return self._items.popleft()

    def items(self) -> list:
        """A copy of the queued items, oldest first (snapshot capture)."""
        return list(self._items)
