"""Campaign specs: the declarative workload × fault × backend × topology matrix.

A spec file (TOML or JSON) names the four axes by registry key, and
:meth:`CampaignSpec.expand` turns them into concrete :class:`Cell`\\ s —
the cross-product, minus glob-filtered exclusions, minus combinations
that are *structurally* invalid (a storm fault under a journal, a
process kill outside the HA topology).  Structural exclusions are not
errors: they are returned alongside the cells, each with the rule that
removed it, so a report can show the full lattice honestly.

Every cell gets a deterministic seed derived from the campaign seed and
the cell id, so two runs of the same spec — or one cell re-run alone via
``--cells`` — see byte-identical workloads and fault schedules.

TOML parsing uses :mod:`tomllib` where available (Python ≥ 3.11) and
falls back to a small subset parser otherwise; committed specs stay
loadable on every CI interpreter without new dependencies.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field, replace
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.engine.fastlpm import LOOKUP_BACKENDS
from repro.faults.profiles import FAULT_PROFILES
from repro.faults.schedule import FaultKind
from repro.workload.profiles import WORKLOADS, file_workload, is_file_workload

PathLike = Union[str, Path]

#: Serving arrangements a cell can run under.  ``inproc`` drives one
#: bare :class:`ClueSystem`; ``inproc-durable`` adds a journaling
#: :class:`PersistenceManager`; ``serve-1``/``serve-2`` run a real
#: in-process TCP server over a journaled 1- or 2-shard
#: :class:`ShardSet`; ``ha`` spawns a primary + backup subprocess pair
#: and fires the fault profile's process kills into the update stream;
#: ``reshard`` spawns one durable primary, splits a shard under live
#: load, and SIGKILLs the server mid-migration at a seed-chosen stage
#: (DESIGN.md §14).  ``serve-2proc`` is the multi-process serving plane:
#: two shard worker *processes* behind a parent front (``serve --workers
#: processes``).  Every topology is judged by all seven oracles; where
#: the engines live in subprocesses, the engine-internal ones judge an
#: in-process restore fingerprint-equal to the live server.
TOPOLOGIES = (
    "inproc",
    "inproc-durable",
    "serve-1",
    "serve-2",
    "serve-2proc",
    "ha",
    "reshard",
)

#: Topologies whose updates flow through a write-ahead journal.
DURABLE_TOPOLOGIES = frozenset(
    {"inproc-durable", "serve-1", "serve-2", "serve-2proc", "ha", "reshard"}
)


class SpecError(ValueError):
    """The spec file is malformed or names unknown axis values."""


@dataclass(frozen=True)
class CellBudget:
    """Per-cell work limits; small by default so matrices stay cheap."""

    packets: int = 1500
    updates: int = 120
    batch_size: int = 24
    sample_addresses: int = 192
    rib_size: int = 400
    chips: int = 2

    def validated(self) -> "CellBudget":
        for name in (
            "packets",
            "updates",
            "batch_size",
            "sample_addresses",
            "rib_size",
            "chips",
        ):
            if getattr(self, name) < 1:
                raise SpecError(f"budget.{name} must be at least 1")
        return self


@dataclass(frozen=True)
class Cell:
    """One concrete point of the matrix, fully determined by its fields."""

    workload: str
    fault: str
    backend: str
    topology: str
    seed: int
    budget: CellBudget

    @property
    def id(self) -> str:
        return f"{self.workload}/{self.fault}/{self.backend}/{self.topology}"

    @property
    def durable(self) -> bool:
        return self.topology in DURABLE_TOPOLOGIES

    def repro_command(self, spec_path: Optional[str] = None) -> str:
        """A copy-pastable command that re-runs exactly this cell."""
        spec = spec_path or "<spec>"
        return f"repro-clue campaign --spec {spec} --cells '{self.id}'"


@dataclass
class CampaignSpec:
    """A parsed spec file; :meth:`expand` yields the runnable cells."""

    name: str = "campaign"
    seed: int = 7
    budget: CellBudget = field(default_factory=CellBudget)
    workloads: List[str] = field(default_factory=lambda: ["fig15"])
    faults: List[str] = field(default_factory=lambda: ["none"])
    backends: List[str] = field(default_factory=lambda: ["fast"])
    topologies: List[str] = field(default_factory=lambda: ["inproc"])
    include: List[str] = field(default_factory=list)
    exclude: List[str] = field(default_factory=list)
    #: Named cell-id glob lists, e.g. the committed CI ``smoke`` subset.
    subsets: Dict[str, List[str]] = field(default_factory=dict)

    # -- validation -----------------------------------------------------

    def validate(self) -> "CampaignSpec":
        self.budget.validated()
        # ``file:DIR`` workloads are validated against the filesystem,
        # everything else against the registry.
        for name in self.workloads:
            if is_file_workload(name):
                try:
                    file_workload(name).validate()
                except ValueError as exc:
                    raise SpecError(str(exc)) from exc
        registry_workloads = [
            name for name in self.workloads if not is_file_workload(name)
        ]
        if registry_workloads or not self.workloads:
            _check_axis(
                "workloads",
                registry_workloads or self.workloads,
                sorted(WORKLOADS),
            )
        _check_axis("faults", self.faults, sorted(FAULT_PROFILES))
        _check_axis("backends", self.backends, sorted(LOOKUP_BACKENDS))
        _check_axis("topologies", self.topologies, sorted(TOPOLOGIES))
        for axis_name, axis in (
            ("workloads", self.workloads),
            ("faults", self.faults),
            ("backends", self.backends),
            ("topologies", self.topologies),
        ):
            if len(set(axis)) != len(axis):
                raise SpecError(f"matrix.{axis_name} repeats a value")
        return self

    # -- expansion ------------------------------------------------------

    def structural_exclusion(
        self, workload: str, fault: str, backend: str, topology: str
    ) -> Optional[str]:
        """The rule removing this combination, or ``None`` if runnable."""
        profile = FAULT_PROFILES[fault]
        if profile.process_level and topology not in ("ha", "reshard"):
            return (
                "process-kill faults only exist at the process level; "
                "they need the ha or reshard topology"
            )
        if topology == "ha" and not profile.process_level:
            return (
                "ha cells need a kill-primary fault: the drill judges "
                "the survivor of a failover"
            )
        if topology == "reshard" and not profile.process_level:
            return (
                "the reshard drill's one fault is its staged mid-migration "
                "SIGKILL; it needs a process-kill fault profile"
            )
        if topology == "reshard" and any(
            event.kind is FaultKind.KILL_BACKUP
            for event in profile.build(0, 1, 4).process_kills()
        ):
            return (
                "the reshard drill runs one server and no backup; "
                "backup-kill profiles need the ha topology"
            )
        if not profile.journal_safe and topology in DURABLE_TOPOLOGIES:
            return (
                "storm faults inject updates behind the write-ahead "
                "journal; durable topologies cannot replay them"
            )
        if topology == "serve-2proc" and fault in ("corrupt", "corrupt-silent"):
            return (
                "chip-corruption drills need in-process engine access "
                "(the healing pass and the chip audit); worker processes "
                "hide the engine behind the wire"
            )
        return None

    def expand(
        self,
        subset: Optional[str] = None,
        cells: Optional[Sequence[str]] = None,
        max_cells: Optional[int] = None,
    ) -> Tuple[List[Cell], List[Tuple[str, str]]]:
        """The runnable cells, plus ``(cell_id, reason)`` exclusions.

        ``subset`` selects a named glob list from the spec; ``cells``
        filters by caller-supplied id globs (both intersect the matrix —
        they never add cells the axes don't span).  ``max_cells``
        truncates the final list, keeping matrix order.
        """
        self.validate()
        patterns: Optional[List[str]] = None
        if subset is not None:
            if subset not in self.subsets:
                raise SpecError(
                    f"unknown subset {subset!r}; spec defines: "
                    f"{', '.join(sorted(self.subsets)) or '(none)'}"
                )
            patterns = list(self.subsets[subset])
        if cells is not None:
            patterns = (patterns or []) + list(cells)

        expanded: List[Cell] = []
        excluded: List[Tuple[str, str]] = []
        for workload in self.workloads:
            for fault in self.faults:
                for backend in self.backends:
                    for topology in self.topologies:
                        cell_id = f"{workload}/{fault}/{backend}/{topology}"
                        if self.include and not _matches(
                            cell_id, self.include
                        ):
                            continue
                        if _matches(cell_id, self.exclude):
                            continue
                        reason = self.structural_exclusion(
                            workload, fault, backend, topology
                        )
                        if reason is not None:
                            excluded.append((cell_id, reason))
                            continue
                        expanded.append(
                            Cell(
                                workload=workload,
                                fault=fault,
                                backend=backend,
                                topology=topology,
                                seed=_cell_seed(self.seed, cell_id),
                                budget=self.budget,
                            )
                        )
        if patterns is not None:
            wanted = [c for c in expanded if _matches(c.id, patterns)]
            unmatched = [
                p
                for p in patterns
                if not any(fnmatchcase(c.id, p) for c in expanded)
            ]
            if unmatched:
                raise SpecError(
                    f"cell pattern(s) match nothing in the matrix: "
                    f"{', '.join(unmatched)}"
                )
            expanded = wanted
        if max_cells is not None and len(expanded) > max_cells:
            expanded = expanded[:max_cells]
        return expanded, excluded


def _cell_seed(campaign_seed: int, cell_id: str) -> int:
    """Deterministic per-cell seed: stable across runs and subsets."""
    return (campaign_seed * 1_000_003 + zlib.crc32(cell_id.encode())) & 0x7FFFFFFF


def _matches(cell_id: str, patterns: Sequence[str]) -> bool:
    return any(fnmatchcase(cell_id, pattern) for pattern in patterns)


def _check_axis(name: str, values: Sequence[str], known: Sequence[str]) -> None:
    if not values:
        raise SpecError(f"matrix.{name} must name at least one value")
    unknown = [value for value in values if value not in known]
    if unknown:
        raise SpecError(
            f"matrix.{name}: unknown value(s) {', '.join(map(repr, unknown))}"
            f"; known: {', '.join(known)}"
        )


# -- spec file loading ---------------------------------------------------


def load_spec(path: PathLike) -> CampaignSpec:
    """Parse a ``.toml`` or ``.json`` spec file into a validated spec."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise SpecError(f"cannot read spec {path}: {exc}") from exc
    if path.suffix == ".json":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise SpecError(f"{path}: invalid JSON: {exc}") from exc
    elif path.suffix == ".toml":
        data = _load_toml(text, str(path))
    else:
        raise SpecError(
            f"{path}: unsupported spec format {path.suffix!r} "
            f"(use .toml or .json)"
        )
    if not isinstance(data, dict):
        raise SpecError(f"{path}: spec must be a table/object at top level")
    return spec_from_dict(data, source=str(path))


def spec_from_dict(data: Dict, source: str = "<dict>") -> CampaignSpec:
    """Build and validate a spec from parsed file data."""
    known_sections = {"campaign", "budget", "matrix", "filters", "subsets"}
    unknown = set(data) - known_sections
    if unknown:
        raise SpecError(
            f"{source}: unknown section(s) {', '.join(sorted(unknown))}; "
            f"known: {', '.join(sorted(known_sections))}"
        )
    campaign = _section(data, "campaign", source)
    budget_data = _section(data, "budget", source)
    matrix = _section(data, "matrix", source)
    filters = _section(data, "filters", source)
    subsets = _section(data, "subsets", source)

    spec = CampaignSpec()
    try:
        budget = replace(CellBudget(), **budget_data)
    except TypeError as exc:
        raise SpecError(f"{source}: bad [budget] key: {exc}") from exc
    spec = CampaignSpec(
        name=str(campaign.get("name", "campaign")),
        seed=_int_field(campaign, "seed", 7, source),
        budget=budget,
        workloads=_str_list(matrix, "workloads", ["fig15"], source),
        faults=_str_list(matrix, "faults", ["none"], source),
        backends=_str_list(matrix, "backends", ["fast"], source),
        topologies=_str_list(matrix, "topologies", ["inproc"], source),
        include=_str_list(filters, "include", [], source),
        exclude=_str_list(filters, "exclude", [], source),
        subsets={
            str(name): _glob_list(name, globs, source)
            for name, globs in subsets.items()
        },
    )
    return spec.validate()


def _section(data: Dict, name: str, source: str) -> Dict:
    section = data.get(name, {})
    if not isinstance(section, dict):
        raise SpecError(f"{source}: [{name}] must be a table/object")
    return section


def _int_field(section: Dict, key: str, default: int, source: str) -> int:
    value = section.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecError(f"{source}: {key} must be an integer")
    return value


def _str_list(
    section: Dict, key: str, default: List[str], source: str
) -> List[str]:
    value = section.get(key, default)
    if not isinstance(value, list) or not all(
        isinstance(item, str) for item in value
    ):
        raise SpecError(f"{source}: {key} must be an array of strings")
    return list(value)


def _glob_list(name: object, globs: object, source: str) -> List[str]:
    if not isinstance(globs, list) or not all(
        isinstance(item, str) for item in globs
    ):
        raise SpecError(
            f"{source}: subset {name!r} must be an array of cell-id globs"
        )
    return list(globs)


# -- TOML loading with a subset fallback ---------------------------------


def _load_toml(text: str, source: str) -> Dict:
    try:
        import tomllib
    except ImportError:
        return _parse_toml_subset(text, source)
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise SpecError(f"{source}: invalid TOML: {exc}") from exc


def _parse_toml_subset(text: str, source: str) -> Dict:
    """Parse the TOML subset campaign specs use (pre-3.11 fallback).

    Supports ``[section]`` tables and ``key = value`` pairs where the
    value is a string, integer, float, boolean, or a single-line array
    of strings/integers.  That is the whole grammar a campaign spec
    needs; anything fancier raises a clear :class:`SpecError` telling
    the author to simplify or use JSON.
    """
    data: Dict[str, Dict] = {}
    table: Dict = data.setdefault("campaign", {})
    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip()
            if not name or "." in name or '"' in name:
                raise SpecError(
                    f"{source}:{number}: unsupported table header {line!r}"
                )
            table = data.setdefault(name, {})
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise SpecError(
                f"{source}:{number}: expected 'key = value', got {line!r}"
            )
        table[key.strip()] = _parse_toml_value(value.strip(), source, number)
    return data


def _parse_toml_value(value: str, source: str, number: int) -> object:
    if not value:
        raise SpecError(f"{source}:{number}: missing value")
    if value.startswith("[") and value.endswith("]"):
        inner = value[1:-1].strip()
        if not inner:
            return []
        return [
            _parse_toml_scalar(item.strip(), source, number)
            for item in _split_array(inner, source, number)
        ]
    return _parse_toml_scalar(value, source, number)


def _split_array(inner: str, source: str, number: int) -> List[str]:
    items: List[str] = []
    current = []
    in_string = False
    for char in inner:
        if char == '"':
            in_string = not in_string
            current.append(char)
        elif char == "," and not in_string:
            items.append("".join(current))
            current = []
        else:
            current.append(char)
    if in_string:
        raise SpecError(f"{source}:{number}: unterminated string")
    if current:
        items.append("".join(current))
    return [item for item in items if item.strip()]


def _parse_toml_scalar(value: str, source: str, number: int) -> object:
    if value.startswith('"') and value.endswith('"') and len(value) >= 2:
        body = value[1:-1]
        if '"' in body or "\\" in body:
            raise SpecError(
                f"{source}:{number}: escapes in strings are not supported "
                f"by the fallback parser; simplify or use JSON"
            )
        return body
    if value == "true":
        return True
    if value == "false":
        return False
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        raise SpecError(
            f"{source}:{number}: unsupported value {value!r}"
        ) from None
