"""Named fault profiles — the fault axis of a campaign spec.

A :class:`FaultProfile` names one reproducible :class:`FaultSchedule`
shape so a campaign cell can say ``fault = "chip-flap"`` instead of
hand-building event lists.  Engine-level events are pinned to small
absolute cycles (every profile fires within the first few hundred
engine cycles, so even a 1k-packet smoke cell exercises it); the
process-level profiles (``kill-primary``, ``kill-backup``,
``kill-promoting``) pin their kills to fractions of the *driving
horizon* — the drills in :mod:`repro.serve.chaos` read each kill's cycle
as the update-batch index it fires before.

Profile flags tell the campaign expansion what a combination can
legally promise:

* ``journal_safe=False`` (storms) — the events push updates into the
  scheduler behind any write-ahead journal, so durable topologies must
  exclude the cell (the same rule ``serve --journal --faults`` enforces);
* ``external_updates=True`` — the profile mutates the table outside the
  driver's acked stream, so differential oracles that mirror acked
  updates onto a reference trie are inapplicable and auto-skip;
* ``self_heal=True`` — the runner schedules a ``verify_chips`` repair
  pass (the PR 1 self-healing audit) before the oracles run, modelling
  a production box whose background audit is on;
* ``process_level=True`` — only the ``ha``/``reshard`` drills may
  execute it (the in-engine injector refuses process kills).

``corrupt-silent`` is the deliberately-broken seed the acceptance
criteria demand: same corruption as ``corrupt`` but with the healing
audit off, so the ``chip-audit`` oracle must fail and name it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.faults.schedule import FaultSchedule


@dataclass(frozen=True)
class FaultProfile:
    """One named, reproducible fault-schedule shape."""

    name: str
    description: str
    _build: Callable[[int, int, int], FaultSchedule]
    #: False: events bypass a write-ahead journal (update storms) — the
    #: profile is incompatible with durable topologies.
    journal_safe: bool = True
    #: True: the profile injects updates outside the driver's acked
    #: stream, so mirror-based differential oracles must skip.
    external_updates: bool = False
    #: True: the runner repairs chips (verify_chips) before oracles.
    self_heal: bool = False
    #: True: contains process kills — only the ha/reshard drills apply.
    process_level: bool = False

    def build(self, seed: int, chip_count: int, horizon: int) -> FaultSchedule:
        """The concrete schedule for one cell.

        ``horizon`` is the driving horizon: update batches for process
        kills, ignored by the fixed-cycle engine events.
        """
        if chip_count < 1:
            raise ValueError("need at least one chip")
        return self._build(seed, chip_count, horizon)


def _none(seed: int, chips: int, horizon: int) -> FaultSchedule:
    return FaultSchedule(seed=seed)


def _chip_flap(seed: int, chips: int, horizon: int) -> FaultSchedule:
    return FaultSchedule(seed=seed).chip_down(40, 0).chip_up(400, 0)


def _corrupt(seed: int, chips: int, horizon: int) -> FaultSchedule:
    return FaultSchedule(seed=seed).corrupt(60, chips - 1)


def _stall(seed: int, chips: int, horizon: int) -> FaultSchedule:
    return (
        FaultSchedule(seed=seed)
        .stall(80, 0, 24)
        .stall(160, chips - 1, 48)
    )


def _storm(seed: int, chips: int, horizon: int) -> FaultSchedule:
    return FaultSchedule(seed=seed).storm(100, 200).storm(320, 120)


def _kill_primary(seed: int, chips: int, horizon: int) -> FaultSchedule:
    # Engine faults ride along on the primary; the kill lands
    # mid-horizon, while updates are still in flight.
    return (
        FaultSchedule(seed=seed)
        .chip_down(40, 0)
        .chip_up(300, 0)
        .stall(200, chips - 1, 16)
        .kill_primary(max(2, horizon // 2))
    )


def _kill_backup(seed: int, chips: int, horizon: int) -> FaultSchedule:
    # The backup dies a quarter in and a fresh one re-bootstraps; the
    # primary dies three quarters in, failing over onto the fresh one.
    return (
        FaultSchedule(seed=seed)
        .kill_backup(max(1, horizon // 4))
        .kill_primary(max(2, 3 * horizon // 4))
    )


def _kill_promoting(seed: int, chips: int, horizon: int) -> FaultSchedule:
    # Both at mid-horizon, primary first: the backup dies while it
    # promotes, and its epoch journal must restore a serving primary.
    kill_at = max(2, horizon // 2)
    return FaultSchedule(seed=seed).kill_primary(kill_at).kill_backup(kill_at)


FAULT_PROFILES: Dict[str, FaultProfile] = {
    profile.name: profile
    for profile in (
        FaultProfile(
            name="none",
            description="no faults: the calibration baseline",
            _build=_none,
        ),
        FaultProfile(
            name="chip-flap",
            description="chip 0 dies at cycle 40, recovers at 400",
            _build=_chip_flap,
        ),
        FaultProfile(
            name="corrupt",
            description="one silent slot corruption, healing audit on",
            _build=_corrupt,
            self_heal=True,
        ),
        FaultProfile(
            name="corrupt-silent",
            description="slot corruption with the healing audit OFF "
            "(a deliberately broken seed: chip-audit must fail)",
            _build=_corrupt,
        ),
        FaultProfile(
            name="stall",
            description="two access-port stall windows",
            _build=_stall,
        ),
        FaultProfile(
            name="storm",
            description="two injected BGP update bursts (bypass journal)",
            _build=_storm,
            journal_safe=False,
            external_updates=True,
        ),
        FaultProfile(
            name="kill-primary",
            description="SIGKILL the primary mid-drive, chip faults armed",
            _build=_kill_primary,
            process_level=True,
        ),
        FaultProfile(
            name="kill-backup",
            description="SIGKILL the backup, re-bootstrap a fresh one, "
            "then SIGKILL the primary",
            _build=_kill_backup,
            process_level=True,
        ),
        FaultProfile(
            name="kill-promoting",
            description="SIGKILL the primary, then the backup while it "
            "promotes; restore the backup's epoch journal",
            _build=_kill_promoting,
            process_level=True,
        ),
    )
}


def fault_profile(name: str) -> FaultProfile:
    """Look up a profile by name; unknown names list the registry."""
    try:
        return FAULT_PROFILES[name]
    except KeyError:
        raise ValueError(
            f"unknown fault profile {name!r}; "
            f"known: {', '.join(sorted(FAULT_PROFILES))}"
        ) from None
