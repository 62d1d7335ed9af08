"""Search service: the paper's deployment model as a subsystem.

Sections 1 and 5 describe an inherently server-shaped workload — a
fixed query streamed against a multi-megabase database, only score and
coordinates returned per record.  This package turns the one-shot
:func:`repro.scan.scan_database` into that service:

* :mod:`~repro.service.index` — persistent sharded database index
  (parse + encode once, content-hash version stamp, per-shard content
  hashes verified on load, save/load);
* :mod:`~repro.service.pool` — long-lived worker processes sweeping
  shards with the phase-1 locate kernel, merged bit-identically to the
  sequential scanner;
* :mod:`~repro.service.resilience` — fault tolerance: the
  :class:`ServiceError` taxonomy, :class:`RetryPolicy` backoff,
  deterministic :class:`FaultPlan` injection, and the
  :class:`SupervisedWorkerPool` (worker supervision, retries, shard
  quarantine);
* :mod:`~repro.service.cache` — LRU result cache keyed by query,
  scheme and index version (partial answers are never cached);
* :mod:`~repro.service.engine` — the :class:`SearchEngine` facade:
  batched queries over one index pass, scan-equivalent semantics,
  per-request metrics, graceful degradation with explicit
  ``coverage``/``degraded_shards`` on every response;
* :mod:`~repro.service.server` — a minimal stdlib request loop
  (line protocol and queue-in / report-out) behind ``repro serve``,
  reporting failures as structured ``error <code> <message>`` lines;
* :mod:`~repro.service.protocol` — the versioned, length-prefixed
  JSON frame protocol shared byte-for-byte by the TCP server and the
  client SDK (and, for option parsing and error formatting, by the
  legacy line protocol);
* :mod:`~repro.service.net` — the asyncio TCP front-end behind
  ``repro serve --tcp``: concurrent connections, per-connection
  pipelining, bounded backpressure, cross-request micro-batching and
  graceful drain;
* :mod:`~repro.service.client` — :class:`SearchClient` /
  :class:`AsyncSearchClient`, the SDK side of the wire protocol with
  connection pooling and :class:`RetryPolicy`-driven retries;
* :mod:`~repro.service.guard` — cross-layer robustness:
  :class:`CircuitBreaker` (per-endpoint fail-fast keyed on the error
  taxonomy), :class:`HedgePolicy` (tail-latency duplicate requests),
  :class:`IndexManager` (generational hot index reload under live
  traffic), plus the :class:`Deadline`/:class:`DeadlineExceeded`
  budget machinery threaded through every layer above;
* :mod:`~repro.service.chaos` — deterministic chaos harness driving a
  real TCP server through seeded fault schedules while asserting the
  service's invariants;
* :mod:`~repro.service.ingest` — crash-safe streaming ingest: a
  CRC-framed write-ahead journal (fsync before ack), sealed segments
  compacted into delta shards published atomically through
  :class:`IndexManager`, startup recovery that replays the journal and
  quarantines digest-failing deltas, and an injectable
  :class:`~repro.service.resilience.FaultFS` whose labeled crash
  points the chaos harness kills at one by one
  (``repro.service.chaos --ingest``);
* :mod:`~repro.service.cluster` — the distributed tier:
  :func:`~repro.service.cluster.partition_index` splits an index into
  contiguous per-node sub-indexes, a
  :class:`~repro.service.cluster.ClusterCoordinator` scatter-gathers
  each query over protocol v2 with per-node breakers, hedged replica
  reads and group-min deadline propagation, and
  :class:`ClusterClient` / :class:`LocalCluster` are the deployment
  surfaces (``repro cluster`` on the CLI).

Stable public surface
---------------------
``__all__`` below is the *supported* API — :class:`SearchEngine`,
:class:`SearchClient`, :class:`QueryOptions`, :class:`DatabaseIndex`,
:class:`ResultCache` and the error taxonomy.  Everything else exported
by the submodules (worker pools, the line-protocol server, fault
injection) remains importable but is internal plumbing and free to
evolve between versions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from dataclasses import replace as _dc_replace
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..analysis.stats import ScoreStatistics


@dataclass(frozen=True)
class QueryOptions:
    """Everything a caller may tune about one search request.

    One dataclass carried end-to-end — :class:`SearchEngine`,
    :class:`~repro.service.server.QueryRequest`, the line protocol,
    the TCP wire format and :class:`SearchClient` all speak it —
    replacing the three hand-copied ``top``/``min_score``/``retrieve``
    parameter lists the service layer used to maintain.

    ``statistics`` (calibrated Karlin-Altschul statistics) overrides
    the engine's default for this request; it never crosses the wire —
    a remote server applies its own engine's statistics.

    ``deadline_ms`` is the request's **end-to-end budget** in
    milliseconds, relative to when the request enters each layer: the
    client anchors it at send, the server re-anchors at receipt, and
    every layer below (batcher, engine, worker pool) derives its
    timeouts from the remaining budget.  ``None`` means no deadline; a
    value ≤ 0 means "already expired" and surfaces as
    :class:`~repro.service.resilience.DeadlineExceeded` rather than
    ``bad-request`` — an exhausted budget is a timeout, wherever it is
    discovered.

    ``kernel`` names the :mod:`repro.kernels` backend this request's
    sweep must run on (``"reference"``, ``"numpy-striped"``, ...).
    ``None`` — the default, and what an absent wire field decodes to —
    means "whatever the server is configured with" (its ``--kernel``
    flag, falling back to the process default).  Every backend is
    bit-identical on rankings, so the field selects a *cost model*,
    never an answer; cache keys still carry it so an operator can
    account hits per backend.

    Construction never raises so a request can be *carried* before it
    is *checked*; :meth:`validate` applies the range rules and is
    called by the engine on every request, which is what maps bad
    values to ``bad-request`` on every front-end.
    """

    top: int = 10
    min_score: int = 1
    retrieve: int = 0
    statistics: "ScoreStatistics | None" = None
    deadline_ms: int | None = None
    kernel: str | None = None

    def validate(self) -> "QueryOptions":
        """Range-check; returns self so calls chain."""
        if self.top < 1:
            raise ValueError(f"top must be positive, got {self.top}")
        if self.retrieve < 0:
            raise ValueError(f"retrieve cannot be negative, got {self.retrieve}")
        if self.kernel is not None:
            from ..kernels import available_backends

            if self.kernel not in available_backends():
                raise ValueError(
                    f"unknown kernel {self.kernel!r} "
                    f"(available: {', '.join(available_backends())})"
                )
        return self

    def replace(self, **changes: object) -> "QueryOptions":
        return _dc_replace(self, **changes)


def resolve_query_options(
    options: "QueryOptions | int | None" = None,
    defaults: "QueryOptions | None" = None,
    *,
    top: int | None = None,
    min_score: int | None = None,
    retrieve: int | None = None,
    statistics: "ScoreStatistics | None" = None,
    _stacklevel: int = 3,
) -> "QueryOptions":
    """Resolve a :class:`QueryOptions` from new- or old-style arguments.

    The old keyword style (``top=``/``min_score=``/``retrieve=``/
    ``statistics=``, or a bare integer in the ``options`` slot meaning
    ``top``) still works but emits a :class:`DeprecationWarning`;
    passing both styles at once is an error.
    """
    base = defaults if defaults is not None else QueryOptions()
    overrides: dict[str, object] = {}
    if isinstance(options, bool):
        raise TypeError(f"options must be QueryOptions, got {options!r}")
    if isinstance(options, int):
        # Legacy positional ``top`` in the slot QueryOptions now occupies.
        overrides["top"] = options
        options = None
    for key, value in (
        ("top", top),
        ("min_score", min_score),
        ("retrieve", retrieve),
        ("statistics", statistics),
    ):
        if value is not None:
            overrides[key] = value
    if options is not None:
        if not isinstance(options, QueryOptions):
            raise TypeError(
                f"options must be QueryOptions, got {type(options).__name__}"
            )
        if overrides:
            raise TypeError(
                "pass a QueryOptions or the legacy keywords, not both"
            )
        return options
    if overrides:
        warnings.warn(
            "top=/min_score=/retrieve=/statistics= keywords are deprecated; "
            "pass a repro.service.QueryOptions instead",
            DeprecationWarning,
            stacklevel=_stacklevel,
        )
        return base.replace(**overrides)
    return base


from .cache import CacheKey, CacheStats, ResultCache, scheme_token
from .engine import RequestMetrics, SearchEngine, SearchResponse
from .index import DatabaseIndex, IndexFormatError, Shard
from .pool import ShardWorkerPool, WorkerSpec, merge_candidates
from .resilience import (
    BadRequest,
    Deadline,
    DeadlineExceeded,
    Fault,
    FaultPlan,
    IndexCorrupt,
    Overloaded,
    RequestTimeout,
    RetryPolicy,
    ServiceError,
    ShardFailure,
    SupervisedWorkerPool,
    SweepOutcome,
    WorkerTimeout,
    corrupt_index_file,
    validate_sweep,
)
from .guard import (
    AdaptiveLimiter,
    CircuitBreaker,
    CircuitOpen,
    HedgePolicy,
    IndexManager,
)
from .protocol import PROTOCOL_VERSION, ProtocolError
from .server import QueryRequest, SearchServer
from .net import ServerConfig, TcpSearchServer
from .client import AsyncSearchClient, SearchClient
from .cluster import (
    ClusterClient,
    ClusterSupervisor,
    ClusterTopology,
    HealthMonitor,
    LocalCluster,
    partition_index,
)

#: The stable, supported surface of ``repro.service``: the engine, the
#: client SDK, the unified request options, the index, the cache, and
#: the error taxonomy.  Internal machinery (pools, servers, fault
#: injection) stays importable but unpinned.
__all__ = [
    "AdaptiveLimiter",
    "BadRequest",
    "CircuitBreaker",
    "CircuitOpen",
    "ClusterClient",
    "ClusterSupervisor",
    "ClusterTopology",
    "DatabaseIndex",
    "Deadline",
    "DeadlineExceeded",
    "HealthMonitor",
    "HedgePolicy",
    "IndexCorrupt",
    "IndexFormatError",
    "IndexManager",
    "LocalCluster",
    "Overloaded",
    "ProtocolError",
    "QueryOptions",
    "RequestTimeout",
    "ResultCache",
    "SearchClient",
    "SearchEngine",
    "ServiceError",
    "ShardFailure",
    "WorkerTimeout",
]
