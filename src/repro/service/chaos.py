"""Deterministic chaos harness for the networked search service.

Fault-tolerance code that is only exercised by the faults production
happens to throw is untested code.  This module scripts the faults:
a seeded :class:`ChaosSchedule` decides, per request, whether the
*network* misbehaves (a frame delayed, severed mid-transmission, or
corrupted in transit) or a *worker* does (a shard subprocess crashing
or hanging, via the supervised pool's
:class:`~repro.service.resilience.FaultPlan`), and when the index is
hot-reloaded under the traffic.  :func:`run_chaos` drives the whole
schedule against a **real** :class:`~repro.service.net.TcpSearchServer`
on a real socket — no mocks between client and engine — and returns a
:class:`ChaosReport` whose invariants the test suite asserts:

* every request gets exactly one answer (the client's id matching
  raises on any cross-talk, so a completed run *is* the proof);
* every answer is bit-identical to the fault-free baseline — the
  scheduled faults are all recoverable, so retries and supervision
  must heal them without changing a single ranking;
* the server drains cleanly afterwards, with zero requests in flight.

Two runs with the same seed inject the same faults in the same order.
Timing still varies, so the invariants are phrased over *outcomes*
(which are deterministic), never over durations.

Every injection and recovery lands in a :class:`ChaosEventLog`; when
the ``REPRO_CHAOS_LOG`` environment variable names a path the log is
dumped there as JSON, which is how CI archives the evidence when a
chaos run fails.

:func:`run_cluster_chaos` extends the same discipline to the
distributed tier: a seeded schedule kills shard nodes and severs the
network to others while queries flow through a live 3-node
:class:`~repro.service.cluster.LocalCluster`, and the invariants are
the cluster's own promises — no query is lost or double-answered,
degraded coverage matches the down nodes' spans *exactly*, and every
answer is bit-identical to a reference merge over the surviving
nodes' engines.

:func:`run_selfheal_chaos` closes the loop the self-healing tier
promises: a seeded kill takes a node down, the
:class:`~repro.service.cluster.healthd.HealthMonitor` ejects it
within ``eject_after`` heartbeats, the
:class:`~repro.service.cluster.supervisor.ClusterSupervisor` respawns
it and reattaches its channel, probation probes readmit it — and the
invariants are that coverage returns to exactly 1.0 within a bounded
number of heartbeats, that no query is lost or double-answered across
the respawn, and that post-heal answers are bit-identical to the
fault-free baseline.  :func:`limiter_convergence_trace` drives the
:class:`~repro.service.guard.AdaptiveLimiter` through a deterministic
slow-node schedule and proves the AIMD loop converges to the node's
real capacity instead of oscillating or collapsing.

:func:`run_ingest_chaos` turns the same discipline on the *disk*: it
probes a fault-free WAL ingest run for every labeled
:class:`~repro.service.resilience.FaultFS` barrier the lifecycle
crosses (journal create/append/sync, seal rename, delta and manifest
publish, segment retire), then kills the process at each one and
recovers over the surviving directory.  The invariants are the
crash-safe lifecycle's promises: recovery always lands on a
consistent generation, every *acknowledged* record is served after
restart (at-least-once — a record durable but unacked may also
appear), no torn shard is ever visible, and once the interrupted
records are re-ingested the rankings are bit-identical to a run that
never crashed.  Torn and short writes, lying fsyncs (the delta
quarantine path) and ENOSPC/EIO read-only degradation — including a
live TCP server leg — ride the same schedule.

``python -m repro.service.chaos --seed 7`` runs the harness directly
and exits nonzero on any invariant violation; add ``--cluster`` to
run the cluster schedule instead, ``--selfheal`` (optionally with
``--mode process``) for the kill→eject→respawn→readmit loop, or
``--ingest`` for the disk-fault crash sweep.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from ..io.atomic import atomic_write
from ..io.generate import mutate, random_dna
from . import QueryOptions
from .cache import ResultCache
from .client import SearchClient, _Connection
from .engine import SearchEngine, SearchResponse
from .guard import IndexManager
from .index import DatabaseIndex
from .ingest import IngestReadOnly, IngestService
from .net import ServerConfig, ServerThread
from .resilience import (
    CrashPoint,
    DiskFaultPlan,
    Fault,
    FaultFS,
    FaultPlan,
    RetryPolicy,
    ServiceError,
    SupervisedWorkerPool,
)

__all__ = [
    "ChaosAction",
    "ChaosConnectionFactory",
    "ChaosEventLog",
    "ChaosReport",
    "ChaosSchedule",
    "ClusterChaosReport",
    "ClusterChaosSchedule",
    "IngestChaosReport",
    "IngestChaosRun",
    "NET_FAULT_KINDS",
    "NetsplitController",
    "POOL_FAULT_KINDS",
    "CHAOS_LOG_ENV",
    "SelfHealReport",
    "build_workload",
    "limiter_convergence_trace",
    "response_signature",
    "run_chaos",
    "run_cluster_chaos",
    "run_ingest_chaos",
    "run_reload_storm",
    "run_selfheal_chaos",
    "storm_mismatches",
]

#: Environment variable naming where the event log is dumped as JSON.
CHAOS_LOG_ENV = "REPRO_CHAOS_LOG"

#: Client-side transport faults (applied by :class:`ChaosConnectionFactory`).
NET_FAULT_KINDS = ("slow", "sever", "corrupt")

#: Server-side worker faults (applied via the supervised pool's FaultPlan).
POOL_FAULT_KINDS = ("crash", "hang")


# ----------------------------------------------------------------------
# Event log
# ----------------------------------------------------------------------
class ChaosEventLog:
    """Append-only, thread-safe record of everything the harness did.

    Events are plain dicts with a monotonically increasing ``seq`` —
    the injection *order* is the reproducible part of a chaos run, so
    the log captures it explicitly.  :meth:`dump` (and the
    ``REPRO_CHAOS_LOG`` hook in :func:`run_chaos`) writes the whole
    log as JSON for CI to archive.
    """

    def __init__(self) -> None:
        self._events: list[dict] = []
        self._lock = threading.Lock()

    def record(self, kind: str, **details: object) -> None:
        with self._lock:
            self._events.append({"seq": len(self._events), "kind": kind, **details})

    @property
    def events(self) -> list[dict]:
        with self._lock:
            return list(self._events)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def dump(self, path: str | Path) -> Path:
        path = Path(path)
        atomic_write(path, json.dumps(self.events, indent=2) + "\n")
        return path

    def dump_env(self, env_var: str = CHAOS_LOG_ENV) -> Path | None:
        """Dump to the path named by ``env_var`` (no-op when unset)."""
        target = os.environ.get(env_var)
        if not target:
            return None
        return self.dump(target)


# ----------------------------------------------------------------------
# Schedule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChaosAction:
    """One scheduled fault: what goes wrong around one request.

    ``kind`` is drawn from :data:`NET_FAULT_KINDS` (the client's next
    frame is delayed/severed/corrupted) or :data:`POOL_FAULT_KINDS`
    (one shard's worker crashes or hangs on its first attempt).  All
    kinds are *recoverable*: client retries heal transport faults,
    pool retries heal worker faults, so the chaos run's answers must
    stay bit-identical to the fault-free baseline.
    """

    kind: str
    shard_id: int = 0
    seconds: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in NET_FAULT_KINDS + POOL_FAULT_KINDS:
            raise ValueError(f"unknown chaos action kind {self.kind!r}")


class ChaosSchedule:
    """A seeded, fully precomputed plan of per-request fault injections.

    The schedule is derived from ``seed`` alone before any traffic
    flows — chaos never consults the clock or live state to decide
    what to break, which is what makes a failing run replayable.
    ``actions`` maps request index → :class:`ChaosAction`;
    ``reload_after`` holds the request indices after which a hot index
    reload is triggered; ``failed_reload_after`` (at most one) marks
    where a reload whose loader dies mid-load is attempted.
    """

    def __init__(
        self,
        seed: int,
        requests: int,
        fault_rate: float = 0.35,
        shards: int = 4,
        reloads: int = 2,
        include_failed_reload: bool = True,
    ) -> None:
        if requests < 1:
            raise ValueError(f"requests must be positive, got {requests}")
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be within [0, 1], got {fault_rate}")
        self.seed = seed
        self.requests = requests
        rng = random.Random(f"chaos:{seed}")
        kinds = NET_FAULT_KINDS + POOL_FAULT_KINDS
        self.actions: dict[int, ChaosAction] = {}
        for i in range(requests):
            if rng.random() < fault_rate:
                self.actions[i] = ChaosAction(
                    kind=rng.choice(kinds),
                    shard_id=rng.randrange(shards),
                    seconds=0.02 + rng.random() * 0.05,
                )
        eligible = list(range(requests - 1))
        rng.shuffle(eligible)
        n_reloads = min(reloads, len(eligible))
        self.reload_after = frozenset(eligible[:n_reloads])
        self.failed_reload_after: int | None = None
        if include_failed_reload and len(eligible) > n_reloads:
            self.failed_reload_after = eligible[n_reloads]

    def action_for(self, request_index: int) -> ChaosAction | None:
        return self.actions.get(request_index)

    def to_payload(self) -> dict:
        """JSON-ready description (recorded at the head of the event log)."""
        return {
            "seed": self.seed,
            "requests": self.requests,
            "actions": {
                str(i): {"kind": a.kind, "shard": a.shard_id, "seconds": a.seconds}
                for i, a in sorted(self.actions.items())
            },
            "reload_after": sorted(self.reload_after),
            "failed_reload_after": self.failed_reload_after,
        }


# ----------------------------------------------------------------------
# Fault-injecting connections
# ----------------------------------------------------------------------
class _ChaosConnection(_Connection):
    """A real client connection whose next request frame can misbehave."""

    def __init__(
        self, host: str, port: int, timeout: float | None, factory: "ChaosConnectionFactory"
    ) -> None:
        self._factory = factory
        super().__init__(host, port, timeout)

    def send(self, frame: dict) -> None:
        from . import protocol

        if frame.get("type") != "request":
            super().send(frame)  # the hello handshake is never faulted
            return
        action = self._factory.take()
        if action is None:
            super().send(frame)
            return
        payload = protocol.encode_frame(frame)
        if action.kind == "slow":
            self._factory.log.record("net.slow", seconds=action.seconds)
            time.sleep(action.seconds)
            self.sock.sendall(payload)
        elif action.kind == "sever":
            # The classic torn write: length prefix out, payload lost.
            # The server reads a broken stream; the client's next recv
            # hits a dead socket and its retry machinery redials.
            self._factory.log.record("net.sever", sent=protocol.HEADER.size)
            self.sock.sendall(payload[: protocol.HEADER.size])
            self.close()
        elif action.kind == "corrupt":
            # Flip the opening brace: the frame arrives complete but is
            # garbage, the server answers a protocol error and closes,
            # and the client retries on a fresh connection.
            self._factory.log.record("net.corrupt", length=len(payload))
            body = bytearray(payload)
            body[protocol.HEADER.size] ^= 0xFF
            self.sock.sendall(bytes(body))
            self.close()
        else:  # pragma: no cover - ChaosAction validates kinds
            raise ValueError(f"unknown net fault {action.kind!r}")


class ChaosConnectionFactory:
    """``connection_factory`` for :class:`SearchClient` with an armable fault.

    The driver arms at most one :class:`ChaosAction` before issuing a
    request; the *next* request frame sent on any connection consumes
    it.  Retries therefore run clean — one scheduled fault perturbs
    exactly one transmission, which keeps the injection count equal to
    the schedule and the run reproducible.
    """

    def __init__(self, log: ChaosEventLog) -> None:
        self.log = log
        self._armed: ChaosAction | None = None
        self._lock = threading.Lock()
        self.injected = 0

    def arm(self, action: ChaosAction) -> None:
        with self._lock:
            self._armed = action

    def take(self) -> ChaosAction | None:
        with self._lock:
            action, self._armed = self._armed, None
            if action is not None:
                self.injected += 1
            return action

    def __call__(self, host: str, port: int, timeout: float | None) -> _ChaosConnection:
        return _ChaosConnection(host, port, timeout, factory=self)


# ----------------------------------------------------------------------
# Workload
# ----------------------------------------------------------------------
def build_workload(
    seed: int = 0,
    n_records: int = 12,
    record_bp: int = 160,
    shards: int = 4,
    n_queries: int = 6,
) -> tuple[list[str], DatabaseIndex, Callable[[], DatabaseIndex]]:
    """A deterministic database + query set + rebuildable loader.

    The loader rebuilds an index with *identical content* (same
    records, same sharding — so the same content hash) from scratch;
    reloading it swaps in a new generation whose answers are
    bit-identical, which is exactly what the reload invariants need.
    """
    queries = [random_dna(48 + 4 * q, seed=7_000 + seed * 100 + q) for q in range(n_queries)]
    records = []
    for i in range(n_records):
        sequence = random_dna(record_bp, seed=8_000 + seed * 100 + i)
        planted = mutate(queries[i % n_queries], rate=0.05, seed=9_000 + i)
        cut = record_bp // 3
        records.append(
            (f"rec{i}", sequence[:cut] + planted + sequence[cut + len(planted):])
        )

    def loader() -> DatabaseIndex:
        return DatabaseIndex.build(records, shards=shards, source="chaos-workload")

    return queries, loader(), loader


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
def response_signature(response: SearchResponse) -> tuple:
    """The bit-identity fingerprint of one answer: ranking + coverage."""
    return (
        tuple(
            (hit.record, hit.length, hit.hit.as_tuple())
            for hit in response.report.hits
        ),
        response.coverage,
        response.degraded_shards,
    )


@dataclass
class ChaosReport:
    """Everything a chaos run produced, for the tests to judge."""

    schedule: ChaosSchedule
    queries: list[str]
    outcomes: list[SearchResponse | Exception]
    baseline: list[SearchResponse]
    log: ChaosEventLog
    injected_net_faults: int
    served: int
    final_health: dict
    final_generation: int
    reloads_done: int
    drained_inflight: int = 0
    events_dumped_to: Path | None = None

    @property
    def failures(self) -> list[tuple[int, Exception]]:
        """Requests that ended in an exception instead of an answer."""
        return [
            (i, outcome)
            for i, outcome in enumerate(self.outcomes)
            if isinstance(outcome, Exception)
        ]

    def mismatches(self) -> list[int]:
        """Request indices whose answer differs from the baseline's."""
        bad = []
        for i, outcome in enumerate(self.outcomes):
            if isinstance(outcome, Exception):
                bad.append(i)
                continue
            expected = self.baseline[i % len(self.baseline)]
            if response_signature(outcome) != response_signature(expected):
                bad.append(i)
        return bad

    def summary(self) -> str:
        return (
            f"chaos seed={self.schedule.seed}: {len(self.outcomes)} requests, "
            f"{len(self.schedule.actions)} scheduled faults "
            f"({self.injected_net_faults} net), {self.reloads_done} reloads, "
            f"{len(self.failures)} failures, {len(self.mismatches())} mismatches, "
            f"served={self.served}, generation={self.final_generation}, "
            f"inflight after drain={self.drained_inflight}"
        )


# ----------------------------------------------------------------------
# The harness
# ----------------------------------------------------------------------
def run_chaos(
    seed: int = 0,
    requests: int = 24,
    fault_rate: float = 0.35,
    shards: int = 4,
    reloads: int = 2,
    log: ChaosEventLog | None = None,
) -> ChaosReport:
    """Drive one seeded chaos schedule against a real TCP server.

    The driver is single-threaded and issues requests strictly in
    order, so the mapping from schedule entry to injected fault is
    exact.  Worker faults are armed by assigning the supervised pool's
    ``fault_plan`` for just the one request (the driver blocks on the
    response, so the assignment cannot leak onto a neighbour's sweep);
    network faults are armed on the connection factory the same way.
    """
    log = log if log is not None else ChaosEventLog()
    schedule = ChaosSchedule(
        seed, requests, fault_rate=fault_rate, shards=shards, reloads=reloads
    )
    log.record("schedule", **schedule.to_payload())
    queries, index, loader = build_workload(seed=seed, shards=shards)
    options = QueryOptions(top=5, min_score=1)

    # Fault-free baseline: the plain inline engine is the reference the
    # chaos run's every answer must match bit for bit.
    baseline_engine = SearchEngine(loader(), cache=ResultCache(0))
    baseline = [baseline_engine.search(q, options) for q in queries]

    pool = SupervisedWorkerPool(
        workers=2,
        policy=RetryPolicy(retries=2, base_delay=0.01, max_delay=0.05, seed=seed),
        task_timeout=0.5,
        quarantine_after=10_000,  # chaos faults are one-shot; never quarantine
    )
    manager = IndexManager(index=index, loader=loader)
    engine = SearchEngine(manager, pool=pool, cache=ResultCache(0))
    factory = ChaosConnectionFactory(log)
    outcomes: list[SearchResponse | Exception] = []
    reloads_done = 0

    with ServerThread(engine, config=ServerConfig(batch_window=0.0)) as handle:
        client = SearchClient(
            handle.host,
            handle.port,
            retry=RetryPolicy(retries=3, base_delay=0.01, max_delay=0.05, seed=seed),
            timeout=15.0,
            connection_factory=factory,
        )
        try:
            for i in range(requests):
                query = queries[i % len(queries)]
                action = schedule.action_for(i)
                if action is not None:
                    log.record(
                        "inject",
                        request=i,
                        fault=action.kind,
                        shard=action.shard_id,
                    )
                    if action.kind in NET_FAULT_KINDS:
                        factory.arm(action)
                    else:
                        hang = 10.0 if action.kind == "hang" else 30.0
                        pool.fault_plan = FaultPlan(
                            [Fault(action.kind, action.shard_id, times=1, seconds=hang)]
                        )
                try:
                    outcomes.append(client.search(query, options))
                    log.record("answered", request=i)
                except Exception as exc:  # noqa: BLE001 - judged by the report
                    outcomes.append(exc)
                    log.record("request-failed", request=i, error=str(exc))
                finally:
                    pool.fault_plan = None
                if i == schedule.failed_reload_after:
                    # A reload whose loader dies mid-load: the error
                    # surfaces to the caller, the old generation keeps
                    # serving, nothing else changes.
                    def torn_loader() -> DatabaseIndex:
                        raise RuntimeError("chaos: loader torn mid-reload")

                    manager.loader = torn_loader
                    try:
                        client.reload()
                        log.record("reload-failed-silently", request=i)
                    except ServiceError as exc:
                        log.record("reload-refused", request=i, error=str(exc))
                    finally:
                        manager.loader = loader
                if i in schedule.reload_after:
                    generation = client.reload()
                    reloads_done += 1
                    log.record("reload", request=i, generation=generation)
            final_health = dict(client.health())
        finally:
            client.close()
        served = handle.server.served
    drained_inflight = handle.server._inflight
    log.record(
        "drained",
        served=served,
        inflight=drained_inflight,
        generation=manager.generation,
    )
    report = ChaosReport(
        schedule=schedule,
        queries=queries,
        outcomes=outcomes,
        baseline=baseline,
        log=log,
        injected_net_faults=factory.injected,
        served=served,
        final_health=final_health,
        final_generation=manager.generation,
        reloads_done=reloads_done,
        drained_inflight=drained_inflight,
    )
    report.events_dumped_to = log.dump_env()
    return report


def run_reload_storm(
    seed: int = 0,
    threads: int = 4,
    requests_per_thread: int = 6,
    reloads: int = 3,
) -> ChaosReport:
    """Hot-reload under genuinely concurrent load.

    ``threads`` clients hammer the server while the main thread swaps
    index generations between their requests.  Thread interleaving is
    not deterministic — the *invariants* are: every request answers,
    every answer matches the baseline (old and new generations have
    identical content), and the final generation is ``1 + reloads``.
    """
    log = ChaosEventLog()
    queries, index, loader = build_workload(seed=seed)
    options = QueryOptions(top=5, min_score=1)
    baseline_engine = SearchEngine(loader(), cache=ResultCache(0))
    baseline = [baseline_engine.search(q, options) for q in queries]

    manager = IndexManager(index=index, loader=loader)
    engine = SearchEngine(manager, cache=ResultCache(128))
    outcomes_by_thread: dict[int, list[SearchResponse | Exception]] = {}
    reloads_done = 0

    with ServerThread(engine) as handle:

        def hammer(worker: int) -> None:
            results: list[SearchResponse | Exception] = []
            with SearchClient(handle.host, handle.port, timeout=15.0) as client:
                for r in range(requests_per_thread):
                    query = queries[(worker + r) % len(queries)]
                    try:
                        results.append(client.search(query, options))
                    except Exception as exc:  # noqa: BLE001 - judged later
                        results.append(exc)
            outcomes_by_thread[worker] = results

        workers = [
            threading.Thread(target=hammer, args=(w,), daemon=True)
            for w in range(threads)
        ]
        for thread in workers:
            thread.start()
        with SearchClient(handle.host, handle.port, timeout=15.0) as admin:
            for _ in range(reloads):
                time.sleep(0.02)
                generation = admin.reload()
                reloads_done += 1
                log.record("reload", generation=generation)
            for thread in workers:
                thread.join(timeout=60)
            final_health = dict(admin.health())
        served = handle.server.served
    # Outcomes keep thread-major order; signatures are order-insensitive
    # because every outcome is judged against its own query's baseline.
    outcomes: list[SearchResponse | Exception] = []
    flat_queries: list[str] = []
    for worker in range(threads):
        for r, outcome in enumerate(outcomes_by_thread.get(worker, [])):
            outcomes.append(outcome)
            flat_queries.append(queries[(worker + r) % len(queries)])
    schedule = ChaosSchedule(
        seed, max(len(outcomes), 1), fault_rate=0.0, reloads=0,
        include_failed_reload=False,
    )
    report = ChaosReport(
        schedule=schedule,
        queries=flat_queries,
        outcomes=outcomes,
        baseline=baseline,
        log=log,
        injected_net_faults=0,
        served=served,
        final_health=final_health,
        final_generation=manager.generation,
        reloads_done=reloads_done,
        drained_inflight=handle.server._inflight,
    )
    report.events_dumped_to = log.dump_env()
    return report


def storm_mismatches(report: ChaosReport) -> list[int]:
    """Reload-storm mismatches, judged per query (thread order is free)."""
    by_query = {b.query: response_signature(b) for b in report.baseline}
    bad = []
    for i, outcome in enumerate(report.outcomes):
        if isinstance(outcome, Exception):
            bad.append(i)
        elif response_signature(outcome) != by_query[outcome.query]:
            bad.append(i)
    return bad


# ----------------------------------------------------------------------
# Cluster chaos: node kills and netsplits against a live topology
# ----------------------------------------------------------------------
class ClusterChaosSchedule:
    """A seeded plan of node kills and netsplits over a request stream.

    ``kill_at`` maps request index → node id: that node's primary is
    stopped *before* the request is issued and stays dead for the rest
    of the run (thread-mode kills are permanent — a dead FPGA does not
    restart itself).  ``split_at`` maps request index → node id: the
    network to that node is severed for exactly that one request and
    healed afterwards.  The constructor guarantees at least one node
    survives every request, so every query must still be answered —
    degraded, never lost.
    """

    def __init__(
        self,
        seed: int,
        requests: int,
        nodes: int = 3,
        kills: int = 1,
        splits: int = 4,
    ) -> None:
        if requests < 2:
            raise ValueError(f"requests must be at least 2, got {requests}")
        if nodes < 2:
            raise ValueError(f"cluster chaos needs at least 2 nodes, got {nodes}")
        self.seed = seed
        self.requests = requests
        self.nodes = nodes
        rng = random.Random(f"cluster-chaos:{seed}")
        kills = min(kills, nodes - 2) if nodes > 2 else 0
        kill_nodes = rng.sample(range(nodes), kills)
        kill_indices = rng.sample(range(1, requests), kills) if kills else []
        self.kill_at: dict[int, int] = dict(zip(kill_indices, kill_nodes))
        self.split_at: dict[int, int] = {}
        eligible = [i for i in range(requests) if i not in self.kill_at]
        rng.shuffle(eligible)
        for i in eligible[: min(splits, len(eligible))]:
            candidates = [n for n in range(nodes) if n not in self.down_at(i)]
            if len(candidates) < 2:
                continue  # splitting would leave nobody standing
            self.split_at[i] = rng.choice(candidates)
        for i in range(requests):  # the schedule's own invariant
            assert len(self.down_at(i)) < nodes, "schedule would kill the cluster"

    def down_at(self, request_index: int) -> set[int]:
        """Node ids unreachable while ``request_index`` is in flight."""
        down = {
            node for idx, node in self.kill_at.items() if idx <= request_index
        }
        if request_index in self.split_at:
            down.add(self.split_at[request_index])
        return down

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "requests": self.requests,
            "nodes": self.nodes,
            "kill_at": {str(i): n for i, n in sorted(self.kill_at.items())},
            "split_at": {str(i): n for i, n in sorted(self.split_at.items())},
        }


class _SplitClient(SearchClient):
    """A node client whose network can be severed by the controller."""

    def __init__(
        self, address: str, controller: "NetsplitController", **kwargs: object
    ) -> None:
        self._split_address = address
        self._controller = controller
        super().__init__(address, **kwargs)

    def search(self, query, options=None, trace_id=None, parent_span=None):
        self._controller.check(self._split_address)
        return super().search(query, options, trace_id=trace_id, parent_span=parent_span)

    def search_pipelined(self, queries, options=None, trace_id=None, parent_span=None):
        self._controller.check(self._split_address)
        return super().search_pipelined(
            queries, options, trace_id=trace_id, parent_span=parent_span
        )

    def ping(self) -> bool:
        if self._controller.is_down(self._split_address):
            return False
        return super().ping()


class NetsplitController:
    """Armable network partitions, by node address.

    Passed to the coordinator as its ``client_factory``: every node
    client it builds consults the controller before touching the
    socket, and a severed address raises :class:`ConnectionError` —
    indistinguishable, at the coordinator's level, from a real
    partition, and healed the instant :meth:`heal` is called.
    """

    def __init__(self, log: ChaosEventLog) -> None:
        self.log = log
        self._down: set[str] = set()
        self._lock = threading.Lock()
        self.severed = 0

    def sever(self, address: str) -> None:
        with self._lock:
            self._down.add(address)
            self.severed += 1

    def heal(self, address: str) -> None:
        with self._lock:
            self._down.discard(address)

    def is_down(self, address: str) -> bool:
        with self._lock:
            return address in self._down

    def check(self, address: str) -> None:
        if self.is_down(address):
            self.log.record("net.split-drop", address=address)
            raise ConnectionError(f"netsplit: {address} unreachable")

    def client_factory(self, address: str, **kwargs: object) -> _SplitClient:
        return _SplitClient(address, self, **kwargs)


@dataclass
class ClusterChaosReport:
    """Everything a cluster chaos run produced, for the tests to judge.

    ``expected`` holds, per request, the reference answer: a merge
    over inline per-node engines restricted to the nodes the schedule
    left reachable.  Coverage, ``degraded_shards`` and the ranking are
    all part of :func:`response_signature`, so a mismatch of *any* of
    them — a lost span, a wrongly blamed node, a reordered hit — lands
    in :meth:`mismatches`.
    """

    schedule: ClusterChaosSchedule
    queries: list[str]
    outcomes: list["SearchResponse | Exception"]
    expected: list[SearchResponse]
    baseline: list[SearchResponse]
    log: ChaosEventLog
    killed: list[int]
    severed: int
    final_health: dict
    failover_probe: dict = field(default_factory=dict)
    events_dumped_to: Path | None = None

    @property
    def failures(self) -> list[tuple[int, Exception]]:
        """Requests that raised — with a survivor guaranteed, all bugs."""
        return [
            (i, outcome)
            for i, outcome in enumerate(self.outcomes)
            if isinstance(outcome, Exception)
        ]

    def mismatches(self) -> list[int]:
        """Requests whose answer differs from the reference merge."""
        bad = []
        for i, outcome in enumerate(self.outcomes):
            if isinstance(outcome, Exception):
                bad.append(i)
            elif response_signature(outcome) != response_signature(self.expected[i]):
                bad.append(i)
        return bad

    def span_violations(self) -> list[dict]:
        """Requests where degradation does not match the down spans.

        The ISSUE-level invariant, asserted directly rather than via
        the signature: a request issued while nodes D are down must
        report ``coverage == 1 - |records(D)| / total`` and name
        exactly the non-empty members of D in ``degraded_shards``.
        """
        violations = []
        for i, outcome in enumerate(self.outcomes):
            if isinstance(outcome, Exception):
                continue
            expected = self.expected[i]
            if (
                outcome.coverage != expected.coverage
                or outcome.degraded_shards != expected.degraded_shards
            ):
                violations.append(
                    {
                        "request": i,
                        "coverage": outcome.coverage,
                        "expected_coverage": expected.coverage,
                        "degraded": outcome.degraded_shards,
                        "expected_degraded": expected.degraded_shards,
                    }
                )
        return violations

    def trace_violations(self) -> list[str]:
        """Broken stitched-trace promises from the failover probe.

        The probe kills a replicated node's primary and issues one
        traced query; the stitched trace must exist, and the
        ``failover`` event must sit on the *victim's* ``node.search``
        span — and on no other node's.
        """
        probe = self.failover_probe
        if not probe:
            return []
        problems = []
        if not probe.get("trace_id"):
            problems.append("failover probe produced no trace id")
        if not probe.get("stitched"):
            problems.append("failover probe trace was not stitched")
        victim = probe.get("victim")
        events = probe.get("events_by_node", {})
        if "failover" not in events.get(victim, ()):
            problems.append(
                f"no failover event on victim node {victim}'s span "
                f"(events: {events})"
            )
        for node, names in events.items():
            if node != victim and "failover" in names:
                problems.append(
                    f"failover event wrongly attributed to node {node}"
                )
        if probe.get("coverage") != 1.0:
            problems.append(
                f"replica did not preserve coverage ({probe.get('coverage')})"
            )
        return problems

    def clean_mismatches(self) -> list[int]:
        """Fault-free requests that differ from the single-node baseline."""
        bad = []
        for i, outcome in enumerate(self.outcomes):
            if self.schedule.down_at(i):
                continue
            expected = self.baseline[i % len(self.baseline)]
            if isinstance(outcome, Exception) or response_signature(
                outcome
            ) != response_signature(expected):
                bad.append(i)
        return bad

    def summary(self) -> str:
        return (
            f"cluster chaos seed={self.schedule.seed}: "
            f"{len(self.outcomes)} requests over {self.schedule.nodes} nodes, "
            f"{len(self.killed)} kills, {self.severed} splits, "
            f"{len(self.failures)} failures, {len(self.mismatches())} mismatches, "
            f"{len(self.span_violations())} span violations, "
            f"{len(self.trace_violations())} trace violations, "
            f"nodes up at end={self.final_health.get('nodes_up')}"
        )


def _failover_trace_probe(seed: int, log: ChaosEventLog) -> dict:
    """Kill a replicated primary; pin the failover to its trace span.

    A compact, fully observable incident: a 2-node cluster with one
    replica per node, the victim's primary killed, one *traced* query.
    The replica answers (coverage stays 1.0) and the ``failover``
    event must land on the victim's ``node.search`` span — and only
    there.  :meth:`ClusterChaosReport.trace_violations` judges the
    returned facts.
    """
    from ..obs import Observability
    from .cluster import LocalCluster

    queries, index, _loader = build_workload(seed=seed)
    options = QueryOptions(top=5, min_score=1)
    victim = 0
    with LocalCluster(
        index,
        nodes=2,
        replicas=1,
        mode="thread",
        batch_window=0.0,
        obs=Observability.create(),
    ) as cluster:
        with cluster.client(breaker_factory=None, gather_timeout=15.0) as client:
            cluster.kill_node(victim)
            log.record("trace-probe.kill", node=victim)
            response = client.search(queries[0], options)
            trace_id = client.last_trace_id
            tree = client.trace_tree(trace_id) if trace_id else None
            events_by_node: dict[int, tuple[str, ...]] = {}
            stitched = False
            if tree is not None:
                for span in tree.walk():
                    if span.name != "node.search":
                        continue
                    node = span.attrs.get("node")
                    events_by_node[node] = tuple(e.name for e in span.events)
                    if span.attrs.get("stitched"):
                        stitched = True
            probe = {
                "victim": victim,
                "trace_id": trace_id,
                "stitched": stitched,
                "coverage": response.coverage,
                "events_by_node": events_by_node,
            }
            log.record("trace-probe.result", **{
                **probe,
                "events_by_node": {
                    str(n): list(names) for n, names in events_by_node.items()
                },
            })
            return probe


def run_cluster_chaos(
    seed: int = 0,
    requests: int = 18,
    nodes: int = 3,
    kills: int = 1,
    splits: int = 4,
    log: ChaosEventLog | None = None,
) -> ClusterChaosReport:
    """Drive a seeded kill/netsplit schedule against a live cluster.

    Every request goes through a real :class:`ClusterCoordinator` over
    real TCP shard nodes (:class:`LocalCluster` in thread mode).  The
    reference answer for each request is computed inline by merging
    per-node engine answers restricted to the reachable nodes — the
    cluster's response must match it bit for bit, which simultaneously
    proves "no lost queries" (an exception is a failure), "no
    double-answered queries" (the client's request-id matching raises
    on cross-talk, so a completed run is the proof), and "degradation
    is exactly the down spans".

    Breakers are disabled for the run: the expected degraded set must
    be a pure function of the schedule, and a breaker that stays open
    for its recovery window after a heal would degrade a *reachable*
    node — correct behaviour in production, noise in a determinism
    harness.  The breaker's own state machine is tested in
    ``test_guard.py``.
    """
    from .cluster import LocalCluster, NodeAnswer, merge_node_responses
    from .cluster.topology import partition_index

    log = log if log is not None else ChaosEventLog()
    schedule = ClusterChaosSchedule(
        seed, requests, nodes=nodes, kills=kills, splits=splits
    )
    log.record("cluster-schedule", **schedule.to_payload())
    queries, index, loader = build_workload(seed=seed)
    options = QueryOptions(top=5, min_score=1)
    baseline_engine = SearchEngine(loader(), cache=ResultCache(0))
    baseline = [baseline_engine.search(q, options) for q in queries]

    # Reference cluster: the same deterministic partition, served by
    # inline engines the harness can consult with any subset of nodes.
    ref_topology, parts = partition_index(index, nodes)
    ref_engines = {
        spec.node_id: SearchEngine(part, cache=ResultCache(0))
        for spec, part in zip(ref_topology.nodes, parts)
        if not spec.empty
    }

    controller = NetsplitController(log)
    outcomes: list[SearchResponse | Exception] = []
    expected: list[SearchResponse] = []
    killed: list[int] = []
    issued: list[str] = []

    with LocalCluster(index, nodes=nodes, mode="thread", batch_window=0.0) as cluster:
        topology = cluster.topology()
        address_of = {
            node.node_id: node.address for node in topology.active_nodes
        }
        with cluster.client(
            client_factory=controller.client_factory,
            breaker_factory=None,
            gather_timeout=15.0,
        ) as client:
            for i in range(requests):
                if i in schedule.kill_at:
                    node = schedule.kill_at[i]
                    cluster.kill_node(node)
                    killed.append(node)
                    log.record("node.kill", request=i, node=node)
                split = schedule.split_at.get(i)
                if split is not None:
                    controller.sever(address_of[split])
                    log.record("net.split", request=i, node=split)
                query = queries[i % len(queries)]
                issued.append(query)
                try:
                    outcomes.append(client.search(query, options))
                    log.record("answered", request=i)
                except Exception as exc:  # noqa: BLE001 - judged by the report
                    outcomes.append(exc)
                    log.record("request-failed", request=i, error=str(exc))
                finally:
                    if split is not None:
                        controller.heal(address_of[split])
                        log.record("net.heal", request=i, node=split)
                down = schedule.down_at(i)
                live = [
                    NodeAnswer(node_id=nid, response=engine.search(query, options))
                    for nid, engine in ref_engines.items()
                    if nid not in down
                ]
                expected.append(
                    merge_node_responses(query.upper(), live, ref_topology, options)
                )
            final_health = dict(client.health())
    log.record(
        "cluster-drained",
        killed=sorted(killed),
        severed=controller.severed,
    )
    # The main loop runs without replicas (the reference merge is a
    # pure function of the schedule); the failover-attribution promise
    # needs a replica, so it gets its own compact probe.
    failover_probe = _failover_trace_probe(seed, log)
    report = ClusterChaosReport(
        schedule=schedule,
        queries=issued,
        outcomes=outcomes,
        expected=expected,
        baseline=baseline,
        log=log,
        killed=killed,
        severed=controller.severed,
        final_health=final_health,
        failover_probe=failover_probe,
    )
    report.events_dumped_to = log.dump_env()
    return report


# ----------------------------------------------------------------------
# Self-heal chaos: kill → eject → respawn → readmit, with invariants
# ----------------------------------------------------------------------
@dataclass
class SelfHealReport:
    """One kill→heal incident, phase by phase, for the tests to judge.

    Phases: ``steady`` (all nodes up), ``down`` (the victim killed and
    ejected), ``healed`` (respawned, reattached, readmitted).  Every
    phase's outcomes are judged against reference answers computed
    inline over the nodes that phase leaves reachable, so degraded
    coverage during ``down`` and bit-identical full coverage after
    ``healed`` are both part of the same check.
    """

    mode: str
    seed: int
    victim: int
    outcomes: dict[str, list[SearchResponse | Exception]]
    expected: dict[str, list[SearchResponse]]
    coverage_timeline: list[dict]
    ticks_to_eject: int
    ticks_to_recover: int
    heartbeat_budget: int
    respawned: list[int]
    issued: int
    answered: int
    final_health: dict
    log: ChaosEventLog
    #: Per phase, the SLO objectives firing at phase end (burn-rate
    #: view of the same incident the coverage timeline shows).
    slo_timeline: dict[str, tuple[str, ...]] = field(default_factory=dict)
    events_dumped_to: Path | None = None

    @property
    def failures(self) -> list[tuple[str, int, Exception]]:
        """Requests that raised — a survivor is guaranteed, so all bugs."""
        return [
            (phase, i, outcome)
            for phase, results in self.outcomes.items()
            for i, outcome in enumerate(results)
            if isinstance(outcome, Exception)
        ]

    def mismatches(self) -> list[tuple[str, int]]:
        """Answers that differ from their phase's reference merge."""
        bad = []
        for phase, results in self.outcomes.items():
            for i, outcome in enumerate(results):
                if isinstance(outcome, Exception):
                    bad.append((phase, i))
                elif response_signature(outcome) != response_signature(
                    self.expected[phase][i]
                ):
                    bad.append((phase, i))
        return bad

    def heal_violations(self) -> list[str]:
        """Broken self-healing promises, in plain words."""
        problems = []
        if self.ticks_to_recover > self.heartbeat_budget:
            problems.append(
                f"recovery took {self.ticks_to_recover} heartbeats "
                f"(budget {self.heartbeat_budget})"
            )
        if self.victim not in self.respawned:
            problems.append(f"supervisor never respawned node {self.victim}")
        for i, outcome in enumerate(self.outcomes.get("healed", [])):
            if isinstance(outcome, Exception):
                problems.append(f"healed request {i} failed: {outcome}")
            elif outcome.coverage != 1.0:
                problems.append(
                    f"healed request {i} still degraded "
                    f"(coverage {outcome.coverage:.3f})"
                )
        for i, outcome in enumerate(self.outcomes.get("down", [])):
            if isinstance(outcome, Exception):
                continue  # already a failure
            if outcome.coverage >= 1.0:
                problems.append(
                    f"down-phase request {i} claims full coverage with "
                    f"node {self.victim} dead"
                )
        if self.answered != self.issued:
            problems.append(
                f"{self.issued} requests issued but {self.answered} answered "
                "(lost or double-answered)"
            )
        return problems

    def slo_violations(self) -> list[str]:
        """Broken burn-rate promises: fire during the outage, clear after.

        Empty when the run attached no tracker (``slo_timeline`` unset).
        """
        if not self.slo_timeline:
            return []
        problems = []
        if self.slo_timeline.get("steady"):
            problems.append(
                f"SLO firing in steady state: {self.slo_timeline['steady']}"
            )
        if "coverage" not in self.slo_timeline.get("down", ()):
            problems.append(
                "coverage SLO did not fire during the outage "
                f"(firing: {self.slo_timeline.get('down')})"
            )
        if self.slo_timeline.get("healed"):
            problems.append(
                f"SLO still firing after heal: {self.slo_timeline['healed']}"
            )
        return problems

    def summary(self) -> str:
        return (
            f"selfheal seed={self.seed} mode={self.mode}: victim={self.victim}, "
            f"eject after {self.ticks_to_eject} beats, recovered after "
            f"{self.ticks_to_recover} beats (budget {self.heartbeat_budget}), "
            f"{len(self.failures)} failures, {len(self.mismatches())} mismatches, "
            f"{len(self.heal_violations())} heal violations, "
            f"{len(self.slo_violations())} slo violations"
        )


def run_selfheal_chaos(
    seed: int = 0,
    nodes: int = 3,
    mode: str = "thread",
    requests_per_phase: int = 3,
    eject_after: int = 2,
    readmit_after: int = 1,
    heartbeat_budget: int | None = None,
    log: ChaosEventLog | None = None,
) -> SelfHealReport:
    """Kill a seeded node; prove the tier heals itself within budget.

    The heartbeat loop is driven *synchronously* (``monitor.tick()``
    between request phases) rather than on its background thread, so
    "within N heartbeats" is a deterministic count, not a race.  The
    supervisor likewise heals via one explicit ``check_once()`` sweep.
    The production wiring — the same objects on their daemon threads —
    is exercised by the integration tests; this harness proves the
    *logic* heals, with the clock taken out of the verdict.
    """
    from .cluster import LocalCluster, NodeAnswer, merge_node_responses
    from .cluster.healthd import HealthMonitor
    from .cluster.supervisor import ClusterSupervisor
    from .cluster.topology import partition_index

    if heartbeat_budget is None:
        # eject_after failing beats, one supervisor sweep, readmit_after
        # probation beats, plus slack for a slow respawn probe.
        heartbeat_budget = eject_after + readmit_after + 3
    log = log if log is not None else ChaosEventLog()
    queries, index, loader = build_workload(seed=seed)
    options = QueryOptions(top=5, min_score=1)

    ref_topology, parts = partition_index(index, nodes)
    ref_engines = {
        spec.node_id: SearchEngine(part, cache=ResultCache(0))
        for spec, part in zip(ref_topology.nodes, parts)
        if not spec.empty
    }

    def reference(query: str, down: set[int]) -> SearchResponse:
        live = [
            NodeAnswer(node_id=nid, response=engine.search(query, options))
            for nid, engine in ref_engines.items()
            if nid not in down
        ]
        return merge_node_responses(query.upper(), live, ref_topology, options)

    rng = random.Random(f"selfheal:{seed}")
    outcomes: dict[str, list[SearchResponse | Exception]] = {}
    expected: dict[str, list[SearchResponse]] = {}
    timeline: list[dict] = []
    slo_timeline: dict[str, tuple[str, ...]] = {}
    issued = 0
    answered = 0

    # Burn-rate tracking over a fake clock: one tick per request, with
    # a window-sized jump between phases so the down-phase's bad
    # samples age out before the healed phase is judged — hours of
    # sliding window compressed into deterministic ticks.
    from ..obs import SloTracker

    slo_clock = [0.0]
    slo_window = float(2 * requests_per_phase)

    with LocalCluster(index, nodes=nodes, mode=mode, batch_window=0.0) as cluster:
        victim = rng.choice(sorted(ref_engines))
        with cluster.client(gather_timeout=15.0, breaker_factory=None) as client:
            coordinator = client.coordinator
            coordinator.slo = SloTracker(
                fast_window=slo_window,
                slow_window=slo_window,
                clock=lambda: slo_clock[0],
                registry=coordinator.obs.registry,
                log=coordinator.obs.log,
            )
            monitor = HealthMonitor(
                coordinator.channels,
                eject_after=eject_after,
                readmit_after=readmit_after,
                jitter=0.0,
                seed=seed,
                obs=coordinator.obs,
            )
            coordinator.monitor = monitor  # attached, tick-driven, no thread
            supervisor = ClusterSupervisor(
                cluster, coordinators=[coordinator], obs=coordinator.obs
            )
            log.record(
                "selfheal-schedule",
                seed=seed,
                mode=mode,
                victim=victim,
                eject_after=eject_after,
                readmit_after=readmit_after,
                budget=heartbeat_budget,
            )

            def run_phase(phase: str, down: set[int]) -> None:
                nonlocal issued, answered
                outcomes[phase] = []
                expected[phase] = []
                for r in range(requests_per_phase):
                    query = queries[(len(timeline) + r) % len(queries)]
                    issued += 1
                    slo_clock[0] += 1.0
                    try:
                        response = client.search(query, options)
                        outcomes[phase].append(response)
                        answered += 1
                        timeline.append(
                            {"phase": phase, "request": r, "coverage": response.coverage}
                        )
                        log.record(
                            "answered", phase=phase, request=r,
                            coverage=response.coverage,
                        )
                    except Exception as exc:  # noqa: BLE001 - judged by the report
                        outcomes[phase].append(exc)
                        timeline.append(
                            {"phase": phase, "request": r, "coverage": None}
                        )
                        log.record(
                            "request-failed", phase=phase, request=r, error=str(exc)
                        )
                    expected[phase].append(reference(query, down))

            def snap_slo(phase: str) -> None:
                firing = tuple(
                    status.objective.name
                    for status in coordinator.slo.evaluate()
                    if status.firing
                )
                slo_timeline[phase] = firing
                log.record("slo", phase=phase, firing=list(firing))

            monitor.tick()  # everyone starts as a confirmed member
            run_phase("steady", set())
            snap_slo("steady")

            cluster.kill_node(victim)
            log.record("node.kill", node=victim)
            ticks_to_eject = 0
            while monitor.is_up(victim) and ticks_to_eject < heartbeat_budget:
                monitor.tick()
                ticks_to_eject += 1
            log.record("node.ejected", node=victim, ticks=ticks_to_eject)
            run_phase("down", {victim})
            snap_slo("down")

            respawned = supervisor.check_once()
            log.record("supervisor.sweep", respawned=respawned)
            ticks_to_recover = ticks_to_eject
            while not monitor.is_up(victim) and ticks_to_recover < heartbeat_budget + 1:
                monitor.tick()
                ticks_to_recover += 1
            log.record("node.readmitted", node=victim, ticks=ticks_to_recover)
            # Let the outage's bad samples age out of the window before
            # judging the healed phase — the "clears after heal" half.
            slo_clock[0] += slo_window
            run_phase("healed", set())
            snap_slo("healed")
            final_health = dict(client.health())

    log.record(
        "selfheal-drained",
        victim=victim,
        ticks_to_eject=ticks_to_eject,
        ticks_to_recover=ticks_to_recover,
    )
    report = SelfHealReport(
        mode=mode,
        seed=seed,
        victim=victim,
        outcomes=outcomes,
        expected=expected,
        coverage_timeline=timeline,
        ticks_to_eject=ticks_to_eject,
        ticks_to_recover=ticks_to_recover,
        heartbeat_budget=heartbeat_budget,
        respawned=respawned,
        issued=issued,
        answered=answered,
        final_health=final_health,
        log=log,
        slo_timeline=slo_timeline,
    )
    report.events_dumped_to = log.dump_env()
    return report


def limiter_convergence_trace(
    seed: int = 0,
    capacity: int = 4,
    initial: int = 64,
    rounds: int = 60,
    settle_rounds: int = 10,
) -> dict:
    """Drive the AIMD limiter through a slow-node schedule; judge convergence.

    A deterministic discrete-time model of a node that can finish
    ``capacity`` requests per round on time: each round the server
    admits ``limit`` requests, the first ``capacity`` complete on time
    (additive increase), the rest miss their deadline (multiplicative
    decrease, one cut per round thanks to the cooldown).  The limiter
    must *converge*: once past the transient, the limit stays in a
    band around capacity and cuts become one-per-excursion instead of
    a collapse to the floor.  Returned trace: per-round limits, cut
    count, and a ``converged`` verdict over the final
    ``settle_rounds``.
    """
    from .guard import AdaptiveLimiter

    fake_now = [0.0]
    limiter = AdaptiveLimiter(
        initial=initial,
        min_limit=1,
        max_limit=initial,
        cooldown=0.5,
        clock=lambda: fake_now[0],
    )
    trace: list[int] = []
    for _ in range(rounds):
        fake_now[0] += 1.0  # each round is past the cooldown: cuts allowed
        admitted = limiter.limit
        on_time = min(admitted, capacity)
        for _ in range(on_time):
            limiter.on_success()
        for _ in range(admitted - on_time):
            limiter.on_overload()
        trace.append(limiter.limit)
    settle = trace[-settle_rounds:]
    # Converged: the limit hugs capacity — never at the static ceiling,
    # never collapsed to the floor, and within a 4x band of capacity.
    converged = all(1 <= limit <= max(4 * capacity, 4) for limit in settle)
    return {
        "capacity": capacity,
        "initial": initial,
        "trace": trace,
        "cuts": limiter.cuts,
        "settle": settle,
        "converged": converged,
    }


# ----------------------------------------------------------------------
# Ingest disk-fault chaos
# ----------------------------------------------------------------------
@dataclass
class IngestChaosRun:
    """One fault scenario's outcome inside an ingest chaos sweep."""

    label: str
    kind: str
    crashed: bool
    acked: int
    served_new: int
    ok: bool
    notes: list[str] = field(default_factory=list)

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        tail = f" ({'; '.join(self.notes)})" if self.notes else ""
        return (
            f"{self.kind}@{self.label}: {status} crashed={self.crashed} "
            f"acked={self.acked} served_new={self.served_new}{tail}"
        )


@dataclass
class IngestChaosReport:
    """Everything an ingest chaos sweep produced, for the tests to judge."""

    seed: int
    seal_every: int
    labels: list[str]
    runs: list[IngestChaosRun]
    log: ChaosEventLog
    events_dumped_to: Path | None = None

    @property
    def failures(self) -> list[IngestChaosRun]:
        return [run for run in self.runs if not run.ok]

    def summary(self) -> str:
        return (
            f"ingest chaos seed={self.seed}: {len(self.labels)} crash points, "
            f"{len(self.runs)} runs, {len(self.failures)} failures"
        )


def _ingest_workload(
    seed: int, n_new: int
) -> tuple[list[str], list[tuple[str, str]], Callable[[], DatabaseIndex]]:
    """Queries, the records to stream in, and the immutable base loader.

    Every streamed record carries a planted mutation of one query, so a
    record that recovery silently dropped would *change a ranking* —
    the bit-identity check doubles as a served-records check.
    """
    queries, _index, loader = build_workload(
        seed=seed, n_records=8, record_bp=120, shards=2, n_queries=4
    )
    new_records = []
    for i in range(n_new):
        sequence = random_dna(140, seed=20_000 + seed * 100 + i)
        planted = mutate(queries[i % len(queries)], rate=0.04, seed=21_000 + i)
        new_records.append((f"live{i}", sequence[:40] + planted + sequence[40:]))
    return queries, new_records, loader


def _ingest_signatures(
    manager: IndexManager, queries: list[str]
) -> list[tuple]:
    engine = SearchEngine(manager)
    options = QueryOptions(top=10)
    return [response_signature(engine.search(q, options)) for q in queries]


def _ingest_lifecycle(
    service: IngestService, records: list[tuple[str, str]]
) -> list[str]:
    """Stream ``records`` then force-seal; returns the acked names.

    A :class:`CrashPoint` (or read-only trip) propagates to the caller
    with the acked list reflecting exactly the acknowledgements that
    made it out before the fault — which is the contract under test.
    """
    acked: list[str] = []
    for name, sequence in records:
        service.ingest(name, sequence)
        acked.append(name)
    service.seal()
    return acked


def run_ingest_chaos(
    seed: int = 0,
    n_new: int = 7,
    seal_every: int = 3,
    tcp: bool = True,
    log: ChaosEventLog | None = None,
) -> IngestChaosReport:
    """Kill the WAL ingest lifecycle at every labeled disk barrier.

    The sweep first runs the lifecycle fault-free to (a) enumerate
    every :class:`FaultFS` barrier it crosses and (b) record the
    reference rankings.  Then, per barrier: a fresh directory, a
    scheduled crash at that barrier, a recovery over the survivors,
    and the invariants:

    * recovery lands on a consistent generation (no exception, no
      degraded shards for a plain crash);
    * every acked record is served post-recovery, and nothing is
      served that was never submitted (at-least-once, never-lost);
    * after re-ingesting whatever the crash interrupted, rankings are
      **bit-identical** to the fault-free reference;
    * torn writes behave like crashes (the torn tail is cut), short
      writes and ENOSPC/EIO degrade to read-only while searches keep
      answering, and a lying fsync on a delta publish quarantines the
      delta (visible partial coverage) instead of serving garbage.

    With ``tcp=True`` the ENOSPC scenario also runs against a real
    :class:`~repro.service.net.TcpSearchServer`: the ``ingest`` verb
    answers ``read-only`` error frames while ``search`` keeps serving
    — the server degrades, it does not crash.
    """
    events = log if log is not None else ChaosEventLog()
    queries, new_records, loader = _ingest_workload(seed, n_new)
    submitted = {name for name, _ in new_records}
    base_names = {name for name in _served(loader())}
    runs: list[IngestChaosRun] = []

    # Fault-free probe: enumerate barriers + reference rankings.
    probe_fs = FaultFS()
    with tempfile.TemporaryDirectory(prefix="repro-ingest-ref-") as ref_dir:
        manager = IndexManager(index=loader(), loader=loader)
        service = IngestService(
            manager, ref_dir, seal_every=seal_every, fs=probe_fs
        )
        _ingest_lifecycle(service, new_records)
        reference = _ingest_signatures(manager, queries)
    labels = list(dict.fromkeys(probe_fs.labels_seen))
    events.record("probe", labels=len(labels), reference_queries=len(queries))

    def recover_and_converge(
        directory: str, acked: list[str], kind: str, label: str
    ) -> IngestChaosRun:
        """Restart over ``directory`` and judge the lifecycle invariants."""
        notes: list[str] = []
        manager = IndexManager(index=loader(), loader=loader)
        try:
            revived = IngestService(
                manager, directory, seal_every=seal_every, fs=FaultFS()
            )
        except Exception as exc:  # noqa: BLE001 - recovery must never fail
            events.record("recovery-failed", label=label, error=repr(exc))
            return IngestChaosRun(
                label, kind, True, len(acked), 0, False,
                [f"recovery raised {exc!r}"],
            )
        served = set(revived.served_names())
        served_new = served - base_names
        index = manager.current()[0]
        if set(acked) - served:
            notes.append(f"acked records lost: {sorted(set(acked) - served)}")
        if served_new - submitted:
            notes.append(f"served never-submitted: {sorted(served_new - submitted)}")
        if index.degraded:
            notes.append(f"degraded shards after plain crash: {index.degraded}")
        # Converge: re-ingest whatever the crash interrupted, in the
        # original order, then the rankings must be bit-identical to
        # the run that never crashed.
        for name, sequence in new_records:
            if name not in served:
                revived.ingest(name, sequence)
        revived.seal()
        if _ingest_signatures(manager, queries) != reference:
            notes.append("post-recovery rankings differ from fault-free reference")
        events.record(
            "recovered", label=label, fault=kind,
            acked=len(acked), served_new=len(served_new), ok=not notes,
        )
        return IngestChaosRun(
            label, kind, True, len(acked), len(served_new), not notes, notes
        )

    # -- the crash sweep: one run per labeled barrier -------------------
    for label in labels:
        plan = DiskFaultPlan.crash_at(label)
        with tempfile.TemporaryDirectory(prefix="repro-ingest-chaos-") as chaos_dir:
            acked: list[str] = []
            crashed = False
            try:
                manager = IndexManager(index=loader(), loader=loader)
                service = IngestService(
                    manager, chaos_dir, seal_every=seal_every, fs=FaultFS(plan)
                )
                for name, sequence in new_records:
                    service.ingest(name, sequence)
                    acked.append(name)
                service.seal()
            except CrashPoint:
                crashed = True
            events.record("crash-injected", label=label, acked=len(acked))
            run = recover_and_converge(chaos_dir, acked, "crash", label)
            run.crashed = crashed
            if not crashed:
                run.ok = False
                run.notes.append("scheduled crash point was never reached")
            runs.append(run)

    # -- torn write: half the append lands, then the crash --------------
    with tempfile.TemporaryDirectory(prefix="repro-ingest-chaos-") as chaos_dir:
        acked = []
        crashed = False
        try:
            manager = IndexManager(index=loader(), loader=loader)
            service = IngestService(
                manager, chaos_dir, seal_every=seal_every,
                fs=FaultFS(DiskFaultPlan.torn_at("journal.append", after=2)),
            )
            for name, sequence in new_records:
                service.ingest(name, sequence)
                acked.append(name)
            service.seal()
        except CrashPoint:
            crashed = True
        run = recover_and_converge(chaos_dir, acked, "torn", "journal.append")
        run.crashed = crashed
        if not crashed:
            run.ok = False
            run.notes.append("torn write never triggered")
        runs.append(run)

    # -- short write: ENOSPC mid-frame → read-only, then restart heals --
    with tempfile.TemporaryDirectory(prefix="repro-ingest-chaos-") as chaos_dir:
        notes = []
        acked = []
        manager = IndexManager(index=loader(), loader=loader)
        service = IngestService(
            manager, chaos_dir, seal_every=seal_every,
            fs=FaultFS(DiskFaultPlan.short_at("journal.append", after=2)),
        )
        tripped = False
        for name, sequence in new_records:
            try:
                service.ingest(name, sequence)
                acked.append(name)
            except IngestReadOnly:
                tripped = True
                break
        if not tripped or not service.read_only:
            notes.append("short write did not trip read-only")
        try:
            _ingest_signatures(manager, queries)
        except Exception as exc:  # noqa: BLE001 - serving must survive
            notes.append(f"search failed while read-only: {exc!r}")
        run = recover_and_converge(chaos_dir, acked, "short", "journal.append")
        run.notes = notes + run.notes
        run.ok = run.ok and not notes
        runs.append(run)

    # -- lying fsync on the journal: acks a crash then discards ---------
    # This is the one fault that *forfeits* acked⊆served — the disk
    # claimed durability it did not deliver.  The lifecycle's promise
    # shrinks to: recovery still lands consistent, nothing fabricated
    # is served, and re-ingest converges to the reference.
    with tempfile.TemporaryDirectory(prefix="repro-ingest-chaos-") as chaos_dir:
        acked = []
        crashed = False
        try:
            manager = IndexManager(index=loader(), loader=loader)
            service = IngestService(
                manager, chaos_dir, seal_every=seal_every,
                fs=FaultFS(
                    DiskFaultPlan.fsync_drop_at("journal.sync").merged(
                        DiskFaultPlan.crash_at("seal.rename")
                    )
                ),
            )
            for name, sequence in new_records:
                service.ingest(name, sequence)
                acked.append(name)
            service.seal()
        except CrashPoint:
            crashed = True
        run = recover_and_converge(chaos_dir, acked, "fsync-drop", "journal.sync")
        run.crashed = crashed
        run.notes = [
            note for note in run.notes if not note.startswith("acked records lost")
        ]
        run.ok = not run.notes and crashed
        if not crashed:
            run.notes.append("lying-fsync crash never triggered")
        runs.append(run)

    # -- lying fsync on a delta publish: quarantine, never garbage ------
    with tempfile.TemporaryDirectory(prefix="repro-ingest-chaos-") as chaos_dir:
        notes = []
        acked = []
        crashed = False
        try:
            manager = IndexManager(index=loader(), loader=loader)
            service = IngestService(
                manager, chaos_dir, seal_every=seal_every,
                fs=FaultFS(
                    DiskFaultPlan.fsync_drop_at("delta.sync").merged(
                        DiskFaultPlan.crash_at("segment.retire")
                    )
                ),
            )
            for name, sequence in new_records:
                service.ingest(name, sequence)
                acked.append(name)
            service.seal()
        except CrashPoint:
            crashed = True
        if not crashed:
            notes.append("delta lying-fsync crash never triggered")
        manager = IndexManager(index=loader(), loader=loader)
        try:
            revived = IngestService(
                manager, chaos_dir, seal_every=seal_every, fs=FaultFS()
            )
        except Exception as exc:  # noqa: BLE001
            notes.append(f"recovery raised {exc!r}")
            revived = None
        served_new: set[str] = set()
        if revived is not None:
            index = manager.current()[0]
            served = set(revived.served_names())
            served_new = served - base_names
            # The quarantined placeholder keeps the lost delta's record
            # slots, so the gap between total records and served ones
            # is exactly the quarantined capacity.
            lost_capacity = index.record_count - len(base_names) - len(served_new)
            if not index.degraded:
                notes.append("quarantine not surfaced as degraded shards")
            if len(set(acked) - served) > lost_capacity:
                notes.append("acked records lost beyond the quarantined delta")
            if served_new - submitted:
                notes.append(f"served never-submitted: {sorted(served_new - submitted)}")
            # Set-convergence: every submitted record is servable again
            # once re-ingested (the quarantined placeholders keep their
            # degraded slots, so bit-identity is out of scope here).
            for name, sequence in new_records:
                if name not in served:
                    revived.ingest(name, sequence)
            revived.seal()
            final_served = set(revived.served_names())
            if not submitted <= final_served:
                notes.append(
                    f"records missing after re-ingest: {sorted(submitted - final_served)}"
                )
        events.record("quarantine-run", notes=list(notes))
        runs.append(
            IngestChaosRun(
                "delta.sync", "fsync-drop", crashed,
                len(acked), len(served_new), not notes, notes,
            )
        )

    # -- ENOSPC / EIO: read-only degradation, serving uninterrupted -----
    for kind, label in (("enospc", "journal.append"), ("eio", "journal.sync")):
        with tempfile.TemporaryDirectory(prefix="repro-ingest-chaos-") as chaos_dir:
            notes = []
            plan = (
                DiskFaultPlan.enospc_at(label, after=1, times=None)
                if kind == "enospc"
                else DiskFaultPlan.eio_at(label, after=1, times=None)
            )
            manager = IndexManager(index=loader(), loader=loader)
            service = IngestService(
                manager, chaos_dir, seal_every=seal_every, fs=FaultFS(plan)
            )
            acked = []
            tripped = False
            for name, sequence in new_records:
                try:
                    service.ingest(name, sequence)
                    acked.append(name)
                except IngestReadOnly:
                    tripped = True
                    break
            if not tripped or not service.read_only:
                notes.append(f"{kind} did not trip read-only")
            try:
                service.ingest("after-fault", "ACGT")
                notes.append("ingest accepted while read-only")
            except IngestReadOnly:
                pass
            try:
                _ingest_signatures(manager, queries)
            except Exception as exc:  # noqa: BLE001
                notes.append(f"search failed while read-only: {exc!r}")
            events.record("read-only-run", fault=kind, label=label, ok=not notes)
            runs.append(
                IngestChaosRun(label, kind, False, len(acked), 0, not notes, notes)
            )

    # -- the TCP leg: a full disk degrades the server, never kills it ---
    if tcp:
        notes = []
        with tempfile.TemporaryDirectory(prefix="repro-ingest-chaos-") as chaos_dir:
            manager = IndexManager(index=loader(), loader=loader)
            service = IngestService(
                manager, chaos_dir, seal_every=seal_every,
                fs=FaultFS(
                    DiskFaultPlan.enospc_at("journal.append", after=2, times=None)
                ),
            )
            engine = SearchEngine(manager)
            engine.attach_ingest(service)
            handle = ServerThread(engine).start()
            try:
                with SearchClient(handle.host, handle.port) as client:
                    for name, sequence in new_records[:2]:
                        client.ingest(name, sequence)
                    read_only_seen = False
                    try:
                        client.ingest(*new_records[2])
                    except ServiceError as exc:
                        read_only_seen = exc.code == "read-only"
                    if not read_only_seen:
                        notes.append("full disk did not answer a read-only error frame")
                    response = client.search(queries[0], QueryOptions(top=5))
                    if response.coverage != 1.0:
                        notes.append("search degraded while ingest is read-only")
                    health = client.health()
                    ingest_state = health.get("ingest")
                    if not (
                        isinstance(ingest_state, dict) and ingest_state.get("read_only")
                    ):
                        notes.append("health does not surface read-only ingest")
                    if not client.ping():
                        notes.append("server unreachable after disk fault")
            except Exception as exc:  # noqa: BLE001 - the server must survive
                notes.append(f"TCP leg failed: {exc!r}")
            finally:
                handle.stop()
        events.record("tcp-read-only-run", ok=not notes)
        runs.append(
            IngestChaosRun(
                "journal.append", "enospc-tcp", False, 2, 0, not notes, notes
            )
        )

    report = IngestChaosReport(
        seed=seed, seal_every=seal_every, labels=labels, runs=runs, log=events
    )
    report.events_dumped_to = events.dump_env()
    return report


def _served(index: DatabaseIndex) -> list[str]:
    return [name for shard in index.active_shards for name in shard.names]


def main(argv: Sequence[str] | None = None) -> int:
    """Direct entry point: run one chaos schedule and judge it."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--requests", type=int, default=24)
    parser.add_argument("--fault-rate", type=float, default=0.35)
    parser.add_argument(
        "--cluster",
        action="store_true",
        help="run the cluster kill/netsplit schedule instead",
    )
    parser.add_argument(
        "--selfheal",
        action="store_true",
        help="run the kill→eject→respawn→readmit self-healing schedule",
    )
    parser.add_argument(
        "--ingest",
        action="store_true",
        help="run the WAL ingest disk-fault crash sweep instead",
    )
    parser.add_argument(
        "--mode",
        choices=("thread", "process"),
        default="thread",
        help="node mode for --selfheal (process spawns real `repro serve` children)",
    )
    parser.add_argument("--nodes", type=int, default=3, help="cluster node count")
    parser.add_argument("--log", help="dump the event log to this JSON path")
    args = parser.parse_args(argv)
    if args.ingest:
        ireport = run_ingest_chaos(seed=args.seed)
        if args.log:
            ireport.events_dumped_to = ireport.log.dump(args.log)
        elif os.environ.get(CHAOS_LOG_ENV):
            ireport.events_dumped_to = ireport.log.dump(os.environ[CHAOS_LOG_ENV])
        print(ireport.summary())
        for run in ireport.runs:
            print(f"  {run.describe()}")
        if ireport.events_dumped_to is not None:
            print(f"event log: {ireport.events_dumped_to}")
        return 0 if not ireport.failures else 1
    if args.selfheal:
        sreport = run_selfheal_chaos(seed=args.seed, nodes=args.nodes, mode=args.mode)
        if args.log:
            sreport.events_dumped_to = sreport.log.dump(args.log)
        print(sreport.summary())
        if sreport.events_dumped_to is not None:
            print(f"event log: {sreport.events_dumped_to}")
        convergence = limiter_convergence_trace(seed=args.seed)
        print(
            f"limiter convergence: capacity={convergence['capacity']} "
            f"settle={convergence['settle']} converged={convergence['converged']}"
        )
        ok = (
            not sreport.failures
            and not sreport.mismatches()
            and not sreport.heal_violations()
            and not sreport.slo_violations()
            and convergence["converged"]
        )
        return 0 if ok else 1
    if args.cluster:
        creport = run_cluster_chaos(
            seed=args.seed, requests=args.requests, nodes=args.nodes
        )
        if args.log:
            creport.events_dumped_to = creport.log.dump(args.log)
        print(creport.summary())
        if creport.events_dumped_to is not None:
            print(f"event log: {creport.events_dumped_to}")
        ok = (
            not creport.failures
            and not creport.mismatches()
            and not creport.span_violations()
            and not creport.clean_mismatches()
            and not creport.trace_violations()
        )
        return 0 if ok else 1
    report = run_chaos(
        seed=args.seed, requests=args.requests, fault_rate=args.fault_rate
    )
    if args.log:
        report.events_dumped_to = report.log.dump(args.log)
    print(report.summary())
    if report.events_dumped_to is not None:
        print(f"event log: {report.events_dumped_to}")
    ok = (
        not report.failures
        and not report.mismatches()
        and report.drained_inflight == 0
        and report.served == len(report.outcomes)
    )
    return 0 if ok else 1


if __name__ == "__main__":
    import sys

    sys.exit(main())
