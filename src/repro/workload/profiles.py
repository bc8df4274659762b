"""Spec-addressable workload profiles for the campaign runner.

A :class:`WorkloadProfile` names one (traffic, update) generator regime
so a campaign spec can say ``workload = "storm"`` instead of spelling
out a dozen generator parameters.  The registry deliberately spans the
regimes the CRAM-lens argument (PAPERS.md) says a lookup system must be
evaluated across, not just the single calibrated point of the paper's
figures:

* ``fig15`` — the paper's load-balance workload: Zipf 1.1 skew with the
  default temporal locality, and the long-observed BGP update mix;
* ``skewed`` — an adversarially hot trace (Zipf 1.6, 95% locality):
  most packets hit a handful of prefixes, the regime where DRed load
  diversion does all the work;
* ``storm`` — update-dominated: bursty announce/withdraw churn (every
  burst ~30x the mean rate) against mildly skewed traffic, the regime
  where the bounded queue's shed backpressure engages;
* ``uniform`` — no skew, no locality: the worst case for any cache, the
  regime where raw per-chip lookup throughput is all that matters.

Profiles are pure data; the generators they build are the existing
:class:`~repro.workload.trafficgen.TrafficGenerator` and
:class:`~repro.workload.updategen.UpdateGenerator`, so a profile name
plus a seed fully determines the byte stream a campaign cell sees.

Beyond the synthetic registry, ``file:DIR`` names a
:class:`FileWorkload`: a directory of ingested traces (``table.txt``
required, ``updates.txt``/``packets.txt`` optional, ``.gz`` accepted)
produced by ``repro ingest``.  That is how real MRT/pcap data enters
campaign cells and the serve bench; :meth:`FileWorkload.provenance`
records each source file's path and SHA-256 so a report can say
exactly which bytes a cell ran on.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.net.prefix import Prefix
from repro.workload.trafficgen import TrafficGenerator, TrafficParameters
from repro.workload.traces import load_packets, load_table, load_updates
from repro.workload.updategen import (
    UpdateGenerator,
    UpdateMessage,
    UpdateParameters,
)

Route = Tuple[Prefix, int]

#: Workload names with this prefix are file-sourced, not synthetic.
FILE_WORKLOAD_PREFIX = "file:"


@dataclass(frozen=True)
class WorkloadProfile:
    """One named (traffic, update) generator regime."""

    name: str
    description: str
    traffic: TrafficParameters = field(default_factory=TrafficParameters)
    updates: UpdateParameters = field(default_factory=UpdateParameters)
    #: Multiplier a runner applies to its update budget — storm regimes
    #: push proportionally more control-plane churn per cell.
    update_weight: float = 1.0

    def traffic_generator(
        self, routes: Sequence[Route], seed: int
    ) -> TrafficGenerator:
        return TrafficGenerator(routes, seed=seed, parameters=self.traffic)

    def update_generator(
        self, routes: Sequence[Route], seed: int
    ) -> UpdateGenerator:
        return UpdateGenerator(routes, seed=seed, parameters=self.updates)

    def take_updates(
        self, routes: Sequence[Route], seed: int, count: int
    ) -> List[UpdateMessage]:
        """The cell's update stream, scaled by :attr:`update_weight`."""
        scaled = max(1, int(count * self.update_weight))
        return self.update_generator(routes, seed).take(scaled)


WORKLOADS: Dict[str, WorkloadProfile] = {
    profile.name: profile
    for profile in (
        WorkloadProfile(
            name="fig15",
            description="paper's load-balance point: Zipf 1.1, default mix",
        ),
        WorkloadProfile(
            name="skewed",
            description="hot-prefix regime: Zipf 1.6, 95% locality",
            traffic=TrafficParameters(
                zipf_exponent=1.6,
                locality=0.95,
                working_set_size=128,
            ),
        ),
        WorkloadProfile(
            name="storm",
            description="update-dominated: heavy announce/withdraw bursts",
            traffic=TrafficParameters(zipf_exponent=1.2),
            updates=UpdateParameters(
                burst_probability=0.35,
                burst_rate_multiplier=30.0,
                burst_length_mean=200.0,
                flap_concentration=0.85,
            ),
            update_weight=2.0,
        ),
        WorkloadProfile(
            name="uniform",
            description="no skew, no locality: the cache's worst case",
            traffic=TrafficParameters(
                zipf_exponent=0.01,
                locality=0.0,
                working_set_size=1,
            ),
        ),
    )
}


def workload_profile(name: str) -> WorkloadProfile:
    """Look up a profile by name; unknown names list the registry."""
    try:
        return WORKLOADS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload profile {name!r}; "
            f"known: {', '.join(sorted(WORKLOADS))}"
        ) from None


# -- file-sourced workloads ----------------------------------------------


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class FileWorkload:
    """A workload whose traces come from files, not generators.

    The directory layout is what ``repro ingest`` writes: ``table.txt``
    (required), ``updates.txt`` and ``packets.txt`` (optional), each
    also accepted with a ``.gz`` suffix.  Missing pieces fall back to
    the synthetic generators over the file-sourced table, so a RIB-only
    ingest is already a runnable workload.
    """

    name: str
    directory: Path

    @property
    def description(self) -> str:
        return f"file-sourced traces from {self.directory}"

    def _find(self, stem: str) -> Optional[Path]:
        for suffix in ("", ".gz"):
            candidate = self.directory / f"{stem}{suffix}"
            if candidate.is_file():
                return candidate
        return None

    @property
    def table_path(self) -> Optional[Path]:
        return self._find("table.txt")

    @property
    def updates_path(self) -> Optional[Path]:
        return self._find("updates.txt")

    @property
    def packets_path(self) -> Optional[Path]:
        return self._find("packets.txt")

    def validate(self) -> None:
        """Raise ``ValueError`` unless the directory is usable."""
        if not self.directory.is_dir():
            raise ValueError(
                f"workload {self.name!r}: {self.directory} is not a directory"
            )
        if self.table_path is None:
            raise ValueError(
                f"workload {self.name!r}: no table.txt(.gz) in "
                f"{self.directory} (run 'repro ingest rib' first)"
            )

    def load_routes(self) -> List[Route]:
        self.validate()
        return load_table(self.table_path)

    def load_updates(self) -> Optional[List[UpdateMessage]]:
        path = self.updates_path
        return None if path is None else load_updates(path)

    def load_packets(self) -> Optional[List[int]]:
        path = self.packets_path
        return None if path is None else load_packets(path)

    def provenance(self) -> Dict[str, Dict[str, object]]:
        """``{trace kind: {path, sha256, bytes}}`` for every present file."""
        record: Dict[str, Dict[str, object]] = {}
        for kind, path in (
            ("table", self.table_path),
            ("updates", self.updates_path),
            ("packets", self.packets_path),
        ):
            if path is not None:
                record[kind] = {
                    "path": str(path),
                    "sha256": _sha256(path),
                    "bytes": path.stat().st_size,
                }
        return record


def is_file_workload(name: str) -> bool:
    return name.startswith(FILE_WORKLOAD_PREFIX)


def file_workload(name: str) -> FileWorkload:
    """Build a :class:`FileWorkload` from a ``file:DIR`` name."""
    if not is_file_workload(name):
        raise ValueError(f"not a file workload name: {name!r}")
    raw = name[len(FILE_WORKLOAD_PREFIX) :]
    if not raw:
        raise ValueError("file workload needs a directory: file:DIR")
    return FileWorkload(name=name, directory=Path(raw))


def resolve_workload(
    name: str,
) -> Union[WorkloadProfile, FileWorkload]:
    """Either a registry profile or a :class:`FileWorkload`."""
    if is_file_workload(name):
        return file_workload(name)
    return workload_profile(name)
