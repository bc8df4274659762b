"""The network serving plane: CLUE as a servable system.

``repro.serve`` turns the in-process reproduction into a line-rate-ish
TCP service: batched LPM lookups and durable route updates over a
length-prefixed binary protocol, answered by range-sharded
:class:`~repro.core.system.ClueSystem` workers with per-connection
backpressure and SIGTERM-clean graceful drain.  See DESIGN.md §11.

For high availability (DESIGN.md §12) a primary ships its committed
journal to a :class:`~repro.serve.replicate.BackupReplica`
(``--replicate-to`` / ``--backup``); clients wrap a
:class:`~repro.serve.router.ReplicaMap` in an :class:`HAClient` and
survive a primary kill transparently.  The campaign's ``ha`` cells
prove it (:mod:`repro.serve.chaos`).

Live resharding (DESIGN.md §14): a serving primary splits a hot shard
or merges cold neighbours **without stopping**, through the journaled
stage machine in :class:`~repro.serve.reshard.ReshardCoordinator`;
clients ride the cutover via epoch-carrying ``MSG_REDIRECT`` responses.

Multi-process serving (DESIGN.md §15): ``serve --workers processes``
runs one worker *process* per shard behind a
:class:`~repro.serve.procs.ProcessFront`, breaking the GIL ceiling that
caps in-process sharding; the client protocol is unchanged and the
journal layout stays restorable by a single process.
"""

from repro.serve.client import (
    FailoverError,
    HAClient,
    ReshardRedirect,
    ServeClient,
    ServeClientError,
    ServeTimeoutError,
    ServerBusyError,
)
from repro.serve.procs import (
    ProcessFront,
    ProcessSupervisor,
    WorkerError,
    WorkerSpec,
)
from repro.serve.protocol import ProtocolError, ReplicateAck, UpdateAck
from repro.serve.replicate import (
    BackupReplica,
    JournalShipper,
    PromotionReport,
    ReplicationConfig,
    ReplicationError,
)
from repro.serve.reshard import (
    MigrationState,
    ReshardCoordinator,
    ReshardError,
    choose_reshard,
    choose_reshard_from_loads,
    plan_merge,
    plan_split,
    resolve_reshard,
)
from repro.serve.router import (
    ReplicaEndpoint,
    ReplicaMap,
    ShardPlan,
    ShardRouter,
    plan_shards,
)
from repro.serve.server import ClueServer, ServeConfig, ServerThread
from repro.serve.shard import ShardSet, ShardWorker
from repro.serve.stats import ServeStats

__all__ = [
    "BackupReplica",
    "ClueServer",
    "FailoverError",
    "HAClient",
    "JournalShipper",
    "MigrationState",
    "ProcessFront",
    "ProcessSupervisor",
    "PromotionReport",
    "ProtocolError",
    "ReplicaEndpoint",
    "ReplicaMap",
    "ReplicateAck",
    "ReplicationConfig",
    "ReplicationError",
    "ReshardCoordinator",
    "ReshardError",
    "ReshardRedirect",
    "ServeClient",
    "ServeClientError",
    "ServeConfig",
    "ServeStats",
    "ServeTimeoutError",
    "ServerBusyError",
    "ServerThread",
    "ShardPlan",
    "ShardRouter",
    "ShardSet",
    "ShardWorker",
    "UpdateAck",
    "WorkerError",
    "WorkerSpec",
    "choose_reshard",
    "choose_reshard_from_loads",
    "plan_merge",
    "plan_shards",
    "plan_split",
    "resolve_reshard",
]
