"""Flow orchestration: DTA campaigns, the trace store and the worker pool."""

from .campaign import (
    DEFAULT_BACKEND,
    MIN_SHARD_CYCLES,
    CampaignJob,
    CampaignRunner,
    CampaignStats,
    ShardExec,
    error_free_clocks,
    plan_shards,
)
from .durable import (
    ManifestCorrupt,
    StoreLock,
    StoreLockTimeout,
    atomic_replace,
    quarantine,
    read_envelope,
    write_envelope,
)
from .manifest import GCReport, StoreVersionError, stable_fingerprint
from .pool import (JobProgram, PoolRunResult, TaskResult, WorkerPool,
                   simulate_shard)
from .tracestore import (
    TraceStore,
    default_cache_dir,
    library_fingerprint,
    trace_key,
)

__all__ = [
    "CampaignJob",
    "CampaignRunner",
    "CampaignStats",
    "DEFAULT_BACKEND",
    "GCReport",
    "JobProgram",
    "MIN_SHARD_CYCLES",
    "ManifestCorrupt",
    "StoreLock",
    "StoreLockTimeout",
    "StoreVersionError",
    "atomic_replace",
    "quarantine",
    "read_envelope",
    "write_envelope",
    "PoolRunResult",
    "ShardExec",
    "TaskResult",
    "TraceStore",
    "WorkerPool",
    "default_cache_dir",
    "error_free_clocks",
    "library_fingerprint",
    "plan_shards",
    "simulate_shard",
    "stable_fingerprint",
    "trace_key",
]
