"""`ServingConfig`: every serving knob in one validated dataclass.

Before this existed, the serving parameters were scattered kwargs on
:class:`repro.serving.service.VoiceService`, duplicated as CLI flags
and re-declared as constants in the serving benchmark.  ``ServingConfig``
is now the single source: the service consumes it directly, the CLI
``serve`` command builds one from its flags, and
``benchmarks/bench_serving_service.py`` constructs its workloads from
one.

Fields
------
concurrency:
    Service worker tasks = maximum in-flight requests (>= 1).
shards:
    Worker processes in a sharded deployment (>= 1; the default 1
    serves from a single process).  Values above 1 are consumed by
    :class:`repro.serving.sharding.ShardManager`, which spawns one
    full engine per shard behind a consistent-hash router; each shard
    then serves with a copy of this config (``shards`` reset to 1).
max_queue_depth:
    Requests allowed to wait for a worker before ``submit`` rejects
    with ``ServiceOverloadedError`` (>= 0; 0 = no waiting room).
executor_workers:
    Threads in the bounded offload executor for realization misses and
    advanced answers; ``None`` picks ``max(2, concurrency // 2)``.
maintenance_workers:
    Per-job worker count for background maintenance when no shared
    :class:`repro.system.worker_pool.WorkerPool` is given (0 = serial).
latency_window:
    Latency samples kept for the service's percentile metrics.
session_capacity:
    Bound on live sessions in the service's
    :class:`repro.api.sessions.SessionStore` (LRU-evicted beyond it).
http_host / http_port:
    Bind address for the optional :class:`repro.api.http_server.VoiceHttpServer`
    front-end.  Port 0 binds an ephemeral port (the server reports the
    real one once started).
default_deadline_ms:
    Latency budget applied to requests that carry no ``deadline_ms`` of
    their own; expired requests get a ``timeout``-kind response.
    ``None`` (default) means no deadline.
maintenance_retry_limit / maintenance_backoff_base / maintenance_backoff_cap:
    Retry policy for failed maintenance jobs (see
    :class:`repro.serving.scheduler.MaintenanceScheduler`): retries per
    payload and the capped exponential backoff between them.
breaker_threshold / breaker_cooldown_seconds:
    Maintenance circuit breaker: consecutive failures before appends
    are rejected, and how long the breaker stays open before a
    half-open probe.
failpoints / failpoint_seed:
    Deterministic fault-injection specs (see
    :mod:`repro.reliability.faults`) installed when the service starts.
    Empty (default) injects nothing and the sites cost a dict probe.
data_dir:
    Directory for durable serving state (write-ahead journal +
    checkpoints, see :mod:`repro.storage`).  ``None`` (default) serves
    purely in memory; set, the service recovers from the directory at
    construction and journals every accepted append before acking.
journal_fsync:
    fsync each journal record (machine-crash durable) instead of only
    flushing it (process-crash durable).  Costs per-append latency.
checkpoint_every_swaps / checkpoint_every_bytes:
    Checkpoint policy: persist a checkpoint after this many snapshot
    swaps, or once this many journal bytes accumulated since the last
    checkpoint — whichever comes first.
checkpoint_keep:
    Checkpoints retained on disk (older ones are pruned).
snapshot_dir:
    Directory for frozen compact-store snapshots (see
    :mod:`repro.store.publish`).  ``None`` (default) publishes nothing
    from a single-process service.  Set, the serving side freezes
    ``store-v{version}.snap`` there — the base store at startup (after
    clearing snapshots a previous deployment left behind) and every
    maintenance swap after.  Sharded deployments always spawn shards
    by mmap-attaching the newest snapshot, so N shards share one
    page-cache copy of the store; without ``snapshot_dir`` the shard
    manager uses a private temporary directory it removes on stop.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Any

#: Default latency samples kept for percentile estimation (mirrored by
#: the service; older samples roll off so a long-lived deployment
#: reports recent tail behavior).
DEFAULT_LATENCY_WINDOW = 100_000

#: Default bound on live sessions (see ``session_capacity``).
DEFAULT_SESSION_CAPACITY = 1024


@dataclass(frozen=True)
class ServingConfig:
    """Validated configuration for one serving deployment."""

    concurrency: int = 8
    max_queue_depth: int = 64
    shards: int = 1
    executor_workers: int | None = None
    maintenance_workers: int = 0
    latency_window: int = DEFAULT_LATENCY_WINDOW
    session_capacity: int = DEFAULT_SESSION_CAPACITY
    http_host: str = "127.0.0.1"
    http_port: int = 0
    default_deadline_ms: float | None = None
    maintenance_retry_limit: int = 3
    maintenance_backoff_base: float = 0.05
    maintenance_backoff_cap: float = 2.0
    breaker_threshold: int = 5
    breaker_cooldown_seconds: float = 1.0
    failpoints: tuple = ()
    failpoint_seed: int = 0
    data_dir: str | None = None
    journal_fsync: bool = False
    checkpoint_every_swaps: int = 4
    checkpoint_every_bytes: int = 4 * 1024 * 1024
    checkpoint_keep: int = 3
    snapshot_dir: str | None = None

    def __post_init__(self) -> None:
        # Accept any iterable of specs (the CLI hands over a list).
        object.__setattr__(self, "failpoints", tuple(self.failpoints))
        if self.concurrency < 1:
            raise ValueError(f"concurrency must be >= 1, got {self.concurrency}")
        if self.max_queue_depth < 0:
            raise ValueError(f"max_queue_depth must be >= 0, got {self.max_queue_depth}")
        if self.shards < 1:
            raise ValueError(f"shards must be >= 1, got {self.shards}")
        if self.executor_workers is not None and self.executor_workers < 1:
            raise ValueError(
                f"executor_workers must be >= 1 or None, got {self.executor_workers}"
            )
        if self.maintenance_workers < 0:
            raise ValueError(
                f"maintenance_workers must be >= 0, got {self.maintenance_workers}"
            )
        if self.latency_window < 1:
            raise ValueError(f"latency_window must be >= 1, got {self.latency_window}")
        if self.session_capacity < 1:
            raise ValueError(f"session_capacity must be >= 1, got {self.session_capacity}")
        if not (0 <= self.http_port <= 65535):
            raise ValueError(f"http_port must be in [0, 65535], got {self.http_port}")
        if self.default_deadline_ms is not None and (
            not math.isfinite(self.default_deadline_ms) or self.default_deadline_ms <= 0
        ):
            raise ValueError(
                "default_deadline_ms must be a positive finite number or None, "
                f"got {self.default_deadline_ms}"
            )
        if self.maintenance_retry_limit < 0:
            raise ValueError(
                f"maintenance_retry_limit must be >= 0, got {self.maintenance_retry_limit}"
            )
        if self.maintenance_backoff_base < 0 or self.maintenance_backoff_cap < 0:
            raise ValueError("maintenance backoff base/cap must be >= 0")
        if self.breaker_threshold < 1:
            raise ValueError(
                f"breaker_threshold must be >= 1, got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_seconds < 0:
            raise ValueError(
                f"breaker_cooldown_seconds must be >= 0, got {self.breaker_cooldown_seconds}"
            )
        if not all(isinstance(spec, str) and spec.strip() for spec in self.failpoints):
            raise ValueError("failpoints must be non-empty spec strings")
        if self.data_dir is not None and not str(self.data_dir).strip():
            raise ValueError("data_dir must be a non-empty path or None")
        if self.checkpoint_every_swaps < 1:
            raise ValueError(
                f"checkpoint_every_swaps must be >= 1, got {self.checkpoint_every_swaps}"
            )
        if self.checkpoint_every_bytes < 1:
            raise ValueError(
                f"checkpoint_every_bytes must be >= 1, got {self.checkpoint_every_bytes}"
            )
        if self.checkpoint_keep < 1:
            raise ValueError(
                f"checkpoint_keep must be >= 1, got {self.checkpoint_keep}"
            )
        if self.snapshot_dir is not None and not str(self.snapshot_dir).strip():
            raise ValueError("snapshot_dir must be a non-empty path or None")

    @property
    def resolved_executor_workers(self) -> int:
        """The offload-executor size after applying the default rule."""
        if self.executor_workers is not None:
            return self.executor_workers
        return max(2, self.concurrency // 2)

    def replace(self, **overrides: Any) -> "ServingConfig":
        """A copy with the given fields replaced (re-validated)."""
        return dataclasses.replace(self, **overrides)

    def to_dict(self) -> dict[str, Any]:
        """The configuration as a JSON-ready dict (for reports/metrics)."""
        return dataclasses.asdict(self)
