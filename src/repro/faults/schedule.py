"""Deterministic fault schedules for the forwarding plane.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent` records,
each pinned to a simulator cycle.  The taxonomy covers the failure modes a
deployed line card actually sees:

* **chip death / recovery** — a whole TCAM chip stops answering (power,
  seating, thermal shutdown) and possibly comes back;
* **transient slot corruption** — a single stored entry silently flips
  (SEU/bit rot); the chip keeps answering, *wrongly*, until an audit
  repairs it;
* **queue-stall windows** — the chip's access port is occupied for a
  window of cycles (e.g. a firmware housekeeping burst);
* **BGP update storms** — a burst of routing updates arrives at once and
  must be absorbed without stalling lookups.

Schedules are plain data: build them programmatically, generate them with
:meth:`FaultSchedule.random` (seedable, reproducible), or read/write the
text format via :func:`repro.workload.traces.load_faults` /
:func:`~repro.workload.traces.save_faults`.  The ``seed`` carried by the
schedule also drives every random choice the injector makes while applying
it (e.g. which slot a corruption hits), so a (schedule, engine) pair always
replays identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, List, Optional


class FaultKind(Enum):
    """What kind of fault an event injects."""

    CHIP_DOWN = "chip-down"
    CHIP_UP = "chip-up"
    CORRUPT = "corrupt"
    STALL = "stall"
    STORM = "storm"
    #: Process-level kills (SIGKILL a whole replica).  These are *cluster*
    #: faults: the campaign's ha/reshard drills fire them at live server
    #: processes; the in-engine injector refuses them, and
    #: :meth:`FaultSchedule.engine_only` strips them before a schedule is
    #: handed to ``--faults``.
    KILL_PRIMARY = "kill-primary"
    KILL_BACKUP = "kill-backup"


#: Kinds the process-level drills execute against processes, not the engine.
PROCESS_KINDS = frozenset({FaultKind.KILL_PRIMARY, FaultKind.KILL_BACKUP})


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    ``chip`` names the target chip for chip/slot events (``None`` for
    storms, which hit the control plane); ``duration`` is the stall window
    in cycles; ``count`` the number of updates in a storm burst.
    """

    cycle: int
    kind: FaultKind
    chip: Optional[int] = None
    duration: int = 0
    count: int = 0

    def __post_init__(self) -> None:
        if self.cycle < 0:
            raise ValueError("fault cycle must be non-negative")
        needs_chip = self.kind in (
            FaultKind.CHIP_DOWN,
            FaultKind.CHIP_UP,
            FaultKind.CORRUPT,
            FaultKind.STALL,
        )
        if needs_chip and (self.chip is None or self.chip < 0):
            raise ValueError(f"{self.kind.value} event needs a chip index")
        if self.kind is FaultKind.STALL and self.duration < 1:
            raise ValueError("stall window must be at least one cycle")
        if self.kind is FaultKind.STORM and self.count < 1:
            raise ValueError("storm burst must carry at least one update")


@dataclass
class FaultSchedule:
    """An ordered, seedable collection of fault events.

    >>> schedule = FaultSchedule(seed=7)
    >>> schedule.chip_down(100, chip=2).chip_up(600, chip=2)  # doctest: +ELLIPSIS
    FaultSchedule(...)
    >>> [event.kind.value for event in schedule.events]
    ['chip-down', 'chip-up']
    """

    events: List[FaultEvent] = field(default_factory=list)
    seed: int = 0

    def __post_init__(self) -> None:
        self.events = sorted(self.events, key=lambda event: event.cycle)

    # -- builders (fluent, for tests and programmatic schedules) ---------

    def add(self, event: FaultEvent) -> "FaultSchedule":
        """Insert one event, keeping cycle order (stable for ties)."""
        position = len(self.events)
        while position and self.events[position - 1].cycle > event.cycle:
            position -= 1
        self.events.insert(position, event)
        return self

    def chip_down(self, cycle: int, chip: int) -> "FaultSchedule":
        return self.add(FaultEvent(cycle, FaultKind.CHIP_DOWN, chip=chip))

    def chip_up(self, cycle: int, chip: int) -> "FaultSchedule":
        return self.add(FaultEvent(cycle, FaultKind.CHIP_UP, chip=chip))

    def corrupt(self, cycle: int, chip: int) -> "FaultSchedule":
        return self.add(FaultEvent(cycle, FaultKind.CORRUPT, chip=chip))

    def stall(self, cycle: int, chip: int, cycles: int) -> "FaultSchedule":
        return self.add(
            FaultEvent(cycle, FaultKind.STALL, chip=chip, duration=cycles)
        )

    def storm(self, cycle: int, count: int) -> "FaultSchedule":
        return self.add(FaultEvent(cycle, FaultKind.STORM, count=count))

    def kill_primary(self, cycle: int) -> "FaultSchedule":
        return self.add(FaultEvent(cycle, FaultKind.KILL_PRIMARY))

    def kill_backup(self, cycle: int) -> "FaultSchedule":
        return self.add(FaultEvent(cycle, FaultKind.KILL_BACKUP))

    # -- introspection ----------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    @property
    def has_storms(self) -> bool:
        """True when any event injects a BGP update storm.

        Storm events push synthesized updates straight into the
        scheduler, *behind* any write-ahead journal wrapping the system —
        so a durable serving plane must refuse schedules with storms
        (chip deaths, corruption and stalls never touch the journal and
        stay allowed).
        """
        return any(
            event.kind is FaultKind.STORM for event in self.events
        )

    @property
    def has_process_kills(self) -> bool:
        """True when any event kills a whole replica process."""
        return any(event.kind in PROCESS_KINDS for event in self.events)

    def process_kills(self) -> List[FaultEvent]:
        """The process-level events, in cycle order (the drills' input)."""
        return [e for e in self.events if e.kind in PROCESS_KINDS]

    def engine_only(self) -> "FaultSchedule":
        """A copy without process-level events, safe for ``--faults``."""
        return FaultSchedule(
            events=[e for e in self.events if e.kind not in PROCESS_KINDS],
            seed=self.seed,
        )

    def chips_touched(self) -> List[int]:
        """Distinct chip indices named by any event, sorted."""
        return sorted(
            {event.chip for event in self.events if event.chip is not None}
        )

    def last_cycle(self) -> int:
        """Cycle of the latest event (0 for an empty schedule)."""
        return self.events[-1].cycle if self.events else 0

    def validate(self, chip_count: int) -> "FaultSchedule":
        """Check every chip index fits a ``chip_count``-chip engine.

        A schedule written for a bigger box would otherwise surface as an
        ``IndexError`` deep inside the injector mid-run; the CLI calls
        this up front so the mismatch reports as a one-line operational
        error instead.  Returns ``self`` for chaining.
        """
        if chip_count < 1:
            raise ValueError("need at least one chip")
        for event in self.events:
            if event.chip is not None and event.chip >= chip_count:
                raise ValueError(
                    f"fault event at cycle {event.cycle} targets chip "
                    f"{event.chip}, but the engine only has "
                    f"{chip_count} chip(s)"
                )
        return self

    # -- generation --------------------------------------------------------

    @classmethod
    def random(
        cls,
        seed: int,
        horizon: int,
        chip_count: int,
        chip_failures: int = 1,
        corruptions: int = 2,
        stalls: int = 2,
        storms: int = 1,
        recovery_cycles: Optional[int] = None,
        storm_size: int = 256,
    ) -> "FaultSchedule":
        """A reproducible random schedule over ``horizon`` cycles.

        Each chip failure is paired with a recovery ``recovery_cycles``
        later (default: a quarter of the horizon) when it fits before the
        horizon.  The same ``seed`` always yields the same schedule.
        """
        if horizon < 1:
            raise ValueError("horizon must be at least one cycle")
        if chip_count < 1:
            raise ValueError("need at least one chip")
        rng = random.Random(seed)
        outage = recovery_cycles or max(1, horizon // 4)
        schedule = cls(seed=seed)
        for _ in range(chip_failures):
            chip = rng.randrange(chip_count)
            down_at = rng.randrange(horizon)
            schedule.chip_down(down_at, chip)
            if down_at + outage < horizon:
                schedule.chip_up(down_at + outage, chip)
        for _ in range(corruptions):
            schedule.corrupt(rng.randrange(horizon), rng.randrange(chip_count))
        for _ in range(stalls):
            schedule.stall(
                rng.randrange(horizon),
                rng.randrange(chip_count),
                rng.randrange(4, 64),
            )
        for _ in range(storms):
            schedule.storm(
                rng.randrange(horizon), max(1, rng.randrange(storm_size) + 1)
            )
        return schedule


def merge_schedules(schedules: Iterable[FaultSchedule]) -> FaultSchedule:
    """Combine several schedules into one, keeping cycle order.

    The merged schedule inherits the first schedule's seed.
    """
    schedules = list(schedules)
    seed = schedules[0].seed if schedules else 0
    events: List[FaultEvent] = []
    for schedule in schedules:
        events.extend(schedule.events)
    return FaultSchedule(events=events, seed=seed)
