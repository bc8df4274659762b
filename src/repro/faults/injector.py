"""FaultInjector — replays a :class:`~repro.faults.schedule.FaultSchedule`
into a live :class:`~repro.engine.simulator.LookupEngine`.

The engine consults :meth:`FaultInjector.tick` once per simulated cycle
(attach via ``engine.fault_injector = injector``); every event whose cycle
has come due is applied, in order:

* ``chip-down`` / ``chip-up`` → :meth:`LookupEngine.kill_chip` /
  :meth:`~LookupEngine.revive_chip`; the engine's dispatch then fails the
  dead chip's traffic over to survivors' DReds;
* ``corrupt`` → one deterministic (seeded) entry of the chip's table gets
  its next hop flipped — the silent-wrong-answer fault an audit such as
  :meth:`repro.core.system.ClueSystem.verify_chips` must catch;
* ``stall`` → :meth:`LookupEngine.inject_stall` (the chip's access port is
  busy for the window);
* ``storm`` → handed to ``storm_sink(cycle, count)`` when the caller wired
  one (the integrated system turns it into a burst of BGP updates through
  the backpressured scheduler); without a sink the storm degrades to
  update-write stalls spread round-robin over the surviving chips, which
  is what an unprotected line card would experience.

All randomness is drawn from ``random.Random(schedule.seed)``, so a given
(schedule, engine) pair replays identically run after run.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, List, Optional

from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.engine.simulator import LookupEngine

#: Cycles one storm update occupies a chip's access port when no
#: storm sink absorbs the burst (one TCAM write per update, CLUE's O(1)).
STORM_STALL_CYCLES = 1


class FaultInjector:
    """Applies scheduled faults to an engine as its clock advances."""

    def __init__(
        self,
        engine: "LookupEngine",
        schedule: FaultSchedule,
        storm_sink: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        self.engine = engine
        self.schedule = schedule
        self.storm_sink = storm_sink
        self._events = list(schedule.events)
        self._position = 0
        self._rng = random.Random(schedule.seed)
        #: Events applied so far, in application order (for reports/tests).
        self.applied: List[FaultEvent] = []

    # ------------------------------------------------------------------

    @property
    def exhausted(self) -> bool:
        """True once every scheduled event has been applied."""
        return self._position >= len(self._events)

    @property
    def next_cycle(self) -> Optional[int]:
        """Cycle of the next unapplied event, or None when exhausted.

        The engine's event-driven run loop uses this to skip idle cycles
        without skipping *over* a scheduled fault; a fault source that
        cannot promise its next firing cycle must simply not define the
        attribute, which disables skipping entirely.
        """
        if self._position >= len(self._events):
            return None
        return self._events[self._position].cycle

    def tick(self, cycle: int) -> int:
        """Apply every event due at or before ``cycle``; returns how many."""
        fired = 0
        while (
            self._position < len(self._events)
            and self._events[self._position].cycle <= cycle
        ):
            event = self._events[self._position]
            self._position += 1
            self._apply(event)
            self.applied.append(event)
            fired += 1
        return fired

    # ------------------------------------------------------------------

    def _apply(self, event: FaultEvent) -> None:
        if event.kind is FaultKind.CHIP_DOWN:
            self.engine.kill_chip(event.chip)
        elif event.kind is FaultKind.CHIP_UP:
            self.engine.revive_chip(event.chip)
        elif event.kind is FaultKind.CORRUPT:
            self._corrupt(event.chip)
        elif event.kind is FaultKind.STALL:
            self.engine.inject_stall(event.chip, event.duration)
        elif event.kind is FaultKind.STORM:
            self._storm(event)
        elif event.kind in (FaultKind.KILL_PRIMARY, FaultKind.KILL_BACKUP):
            raise ValueError(
                f"{event.kind.value} is a process-level fault; strip it "
                f"with FaultSchedule.engine_only() — only the campaign's "
                f"ha/reshard topologies may execute it"
            )
        else:  # pragma: no cover - exhaustive over FaultKind
            raise ValueError(f"unknown fault kind {event.kind!r}")

    def _corrupt(self, chip_index: int) -> None:
        """Flip one stored next hop — a single-event upset in the chip."""
        chip = self.engine.chips[chip_index]
        routes = sorted(
            chip.table.routes(), key=lambda route: route[0].sort_key()
        )
        if not routes:
            return
        prefix, hop = routes[self._rng.randrange(len(routes))]
        chip.table.insert(prefix, hop + 1 + self._rng.randrange(7))
        self.engine.stats.corrupted_entries += 1

    def _storm(self, event: FaultEvent) -> None:
        if self.storm_sink is not None:
            self.storm_sink(event.cycle, event.count)
            return
        # No control-plane sink: the burst hits the chips directly as
        # one TCAM write per update, round-robin over surviving chips.
        alive = [chip.index for chip in self.engine.chips if chip.alive]
        if not alive:
            return
        per_chip = [0] * len(alive)
        for position in range(event.count):
            per_chip[position % len(alive)] += STORM_STALL_CYCLES
        for slot, chip_index in enumerate(alive):
            if per_chip[slot]:
                self.engine.inject_stall(chip_index, per_chip[slot])
