"""Top-level configuration of a CLUE system instance."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.compress.labels import CompressionMode
from repro.engine.simulator import EngineConfig
from repro.update.ttf import UpdateCostModel


@dataclass
class SystemConfig:
    """Everything needed to instantiate :class:`repro.core.system.ClueSystem`.

    Defaults mirror the paper's experimental settings: four chips, four
    clocks per lookup, 256-deep FIFOs, 1024-prefix DRed partitions, eight
    table partitions per chip (32 total, Table II), don't-care ONRTC.
    """

    engine: EngineConfig = field(default_factory=EngineConfig)
    partitions_per_chip: int = 8
    compression_mode: CompressionMode = CompressionMode.DONT_CARE
    #: Use bounded-work (lazy) ONRTC maintenance instead of exact minimal
    #: maintenance; pair with :meth:`repro.core.system.ClueSystem.recompress`
    #: to shed drift during idle periods.
    lazy_compression: bool = False
    cost_model: UpdateCostModel = field(default_factory=UpdateCostModel)
    #: Optional measured per-partition loads for adversarial chip mapping
    #: (Figure 15 / Table II).  ``None`` = natural contiguous mapping.
    partition_loads: Optional[Sequence[int]] = None
    #: Bounded control-plane update queue in front of the pipeline; offers
    #: beyond it are shed (BGP re-advertisement is the retry path).
    update_queue_capacity: int = 256
