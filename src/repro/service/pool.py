"""Long-lived worker processes mapping index shards across cores.

Each task sweeps one :class:`~repro.service.index.Shard` with the
phase-1 locate kernel — the software row sweep or a simulated
:class:`~repro.core.accelerator.SWAccelerator` — for a *batch* of
queries at once, and returns only the per-shard top-k candidate
tuples ``(score, global_index, i, j)``.  That is the paper's
deployment contract scaled out: the expensive O(m·n) sweep happens
next to the data, and "only a few bytes" per record travel back.

Correctness contract: merging per-shard candidates with the key
``(-score, global_index)`` reproduces :func:`repro.scan.scan_database`
rankings **bit-identically** — the scanner stable-sorts database-order
hits by descending score, which is exactly that total order.  A
per-shard top-k can never evict a global top-k member under a total
order, so the truncation is lossless.  The property test in
``tests/test_service_engine.py`` pins this across worker counts.

Both pools run on :class:`WorkerSet`: long-lived worker processes
(fork where available, spawn otherwise), like the paper's board that
is configured once and then has the database streamed past it.  Each
task carries its shard payload and a :class:`WorkerSpec`, so workers
keep no state between tasks (hot reloads need no extra handling) and
accelerator state never crosses the process boundary.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import multiprocessing
import os
import signal
import threading
import time
import weakref
from dataclasses import dataclass
from multiprocessing.connection import Connection, wait
from typing import Sequence

from ..align.scoring import LinearScoring, SubstitutionMatrix
from ..kernels import KernelBackend, HwSimBackend, available_backends, default_kernel, get_backend
from .index import DatabaseIndex

__all__ = [
    "Candidate",
    "ShardSweep",
    "WorkerSpec",
    "ShardWorkerPool",
    "WorkerSet",
    "merge_candidates",
    "shard_task",
    "sweep_inline",
]

#: ``(score, global_index, i, j)`` — the pool's wire format for one
#: database hit, deliberately tiny (the paper's three-word readout
#: plus the record id it belongs to).
Candidate = tuple[int, int, int, int]


@dataclass(frozen=True)
class WorkerSpec:
    """How a worker builds its locate kernel.

    ``kind`` names a :mod:`repro.kernels` backend, or one of two
    legacy aliases: ``"software"`` (the process-default backend —
    ``REPRO_KERNEL`` when set, else ``reference``) and
    ``"accelerator"`` (the ``hw-sim`` backend with ``elements`` /
    ``engine`` as configured).  The spec — not the kernel — is what
    crosses the process boundary, so device state is built fresh in
    each worker.
    """

    kind: str = "software"
    elements: int = 100
    engine: str = "emulator"

    def __post_init__(self) -> None:
        if self.kind not in ("software", "accelerator") and (
            self.kind not in available_backends()
        ):
            raise ValueError(
                f"unknown worker kind {self.kind!r} (use 'software', "
                f"'accelerator', or one of: {', '.join(available_backends())})"
            )
        if self.elements < 1:
            raise ValueError(f"need at least one element, got {self.elements}")

    def resolved_kernel(self) -> str:
        """The registry backend name this spec resolves to.

        Resolved at call time (not construction) so a spec pickled
        into a worker subprocess honours that process's environment.
        """
        if self.kind == "software":
            return default_kernel()
        if self.kind == "accelerator":
            return "hw-sim"
        return self.kind

    def make_backend(
        self, scheme: LinearScoring | SubstitutionMatrix
    ) -> KernelBackend:
        """The kernel backend a worker sweeps with."""
        name = self.resolved_kernel()
        if name == "hw-sim":
            # A fresh device per task: accelerator state never
            # crosses the process boundary.
            return HwSimBackend(elements=self.elements, engine=self.engine)
        return get_backend(name)


@dataclass(frozen=True)
class ShardSweep:
    """One shard's sweep result for a batch of queries."""

    shard_id: int
    candidates: tuple[tuple[Candidate, ...], ...]  # per query
    cells: int
    records: int
    seconds: float
    worker: str


def shard_task(
    shard,
    queries: Sequence[str],
    scheme: LinearScoring | SubstitutionMatrix,
    spec: WorkerSpec,
    min_score: int,
    k: int,
) -> tuple:
    """The picklable argument tuple one shard sweep task carries.

    Every sweep path feeds :func:`_sweep_shard` this same tuple, which
    keeps their healthy-path results byte-for-byte interchangeable.
    """
    return (
        shard.shard_id,
        shard.start,
        shard.offsets,
        shard.payload,
        tuple(queries),
        scheme,
        spec,
        min_score,
        k,
    )


def _sweep_shard(
    args: tuple,
) -> ShardSweep:
    """Sweep one shard for every query (runs inside a worker process)."""
    (shard_id, start, offsets, payload, queries, scheme, spec, min_score, k) = args
    backend = spec.make_backend(scheme)
    t0 = time.perf_counter()
    n_records = len(offsets) - 1
    records = [
        payload[int(offsets[r]) : int(offsets[r + 1])] for r in range(n_records)
    ]
    # One batched call: every query × every record of the shard in one
    # kernel invocation, so a batched backend amortizes its row sweeps
    # across the whole shard (single-pair backends fall back to the
    # equivalent pairwise loop inside ``locate_batch``).
    hits = backend.locate_batch(queries, records, scheme)
    cells = 0
    per_query: list[list[Candidate]] = [[] for _ in queries]
    for r, codes in enumerate(records):
        gidx = start + r
        for qi, query in enumerate(queries):
            cells += len(query) * len(codes)
            hit = hits[qi][r]
            if hit.score >= min_score:
                per_query[qi].append((hit.score, gidx, hit.i, hit.j))
    topk = tuple(
        tuple(heapq.nsmallest(k, cands, key=lambda c: (-c[0], c[1])))
        for cands in per_query
    )
    return ShardSweep(
        shard_id=shard_id,
        candidates=topk,
        cells=cells,
        records=n_records,
        seconds=time.perf_counter() - t0,
        worker=f"worker-{os.getpid()}",
    )


def sweep_inline(
    shards,
    queries: Sequence[str],
    scheme: LinearScoring | SubstitutionMatrix,
    spec: WorkerSpec,
    min_score: int,
    k: int,
    deadline=None,
) -> list[ShardSweep]:
    """Sweep ``shards`` one by one in this process.

    ``deadline`` (a :class:`~repro.service.resilience.Deadline`) is
    checked before each shard.
    """
    sweeps = []
    for shard in shards:
        if deadline is not None:
            deadline.check("inline sweep")
        sweeps.append(_sweep_shard(shard_task(shard, queries, scheme, spec, min_score, k)))
    return sweeps


def merge_candidates(
    sweeps: Sequence[ShardSweep], n_queries: int, k: int
) -> list[list[Candidate]]:
    """Merge per-shard top-k lists into global top-k per query.

    Sorting by ``(-score, global_index)`` is the scanner's stable-sort
    order, so the merged ranking is bit-identical to a sequential
    :func:`~repro.scan.scan_database` over the same records.
    """
    merged: list[list[Candidate]] = []
    for qi in range(n_queries):
        pooled = [c for sweep in sweeps for c in sweep.candidates[qi]]
        pooled.sort(key=lambda c: (-c[0], c[1]))
        merged.append(pooled[:k])
    return merged


def _serve_tasks(conn: Connection) -> None:
    """A worker's life: receive ``(tag, fn, args)``, reply ``(tag, ok, value)``."""
    # Signals are meant for the server: the pool stops a worker by
    # killing it, and an inherited wakeup fd would wake the server's loop.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.set_wakeup_fd(-1)
    gc.freeze()  # inherited objects' finalizers belong to the server
    while True:
        try:
            tag, fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = (tag, True, fn(*args))
        except Exception as exc:  # reported; the worker lives on
            reply = (tag, False, f"{type(exc).__name__}: {exc}")
        conn.send(reply)


@dataclass
class _Worker:
    process: multiprocessing.process.BaseProcess
    conn: Connection

    def stop(self) -> None:
        self.process.kill()
        self.process.join()
        self.conn.close()


@dataclass
class _Attempt:
    shard: object
    attempt: int
    tag: tuple[int, int, int]  # (sweep, shard id, attempt)
    kill_at: float


def _stop_workers(workers: list[_Worker | None]) -> None:
    for slot, worker in enumerate(workers):
        workers[slot] = None
        if worker is not None:
            worker.stop()


class WorkerSet:
    """A fixed set of long-lived sweep workers, the core of both pools.

    Workers start on first use and serve one sweep at a time; a worker
    that dies or is killed is replaced at its next launch.  They are
    daemonic, and stop on :meth:`close` or when the set is collected.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self._workers: list[_Worker | None] = [None] * size
        self.lock = threading.RLock()  # held by each run; layers may hold it too
        self._sweeps = itertools.count()
        weakref.finalize(self, _stop_workers, self._workers)

    def close(self) -> None:
        """Stop every worker (the set stays usable)."""
        _stop_workers(self._workers)

    def _worker(self, slot: int) -> _Worker:
        worker = self._workers[slot]
        if worker is None or not worker.process.is_alive():
            self._kill(slot)  # reaps one that died while idle
            methods = multiprocessing.get_all_start_methods()
            ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
            conn, child = ctx.Pipe()
            process = ctx.Process(
                target=_serve_tasks, args=(child,), daemon=True, name=f"repro-sweep-{slot}"
            )
            process.start()
            child.close()
            worker = self._workers[slot] = _Worker(process, conn)
        return worker

    def _kill(self, slot: int) -> int | None:
        """Stop the worker in ``slot``; its exit code."""
        worker, self._workers[slot] = self._workers[slot], None
        if worker is not None:
            worker.stop()
            return worker.process.exitcode

    def run(self, shards, launch, settle, deadline=None, timeout: float | None = None) -> None:
        """Sweep ``shards`` on the workers until every attempt settles.

        ``launch(shard, attempt)`` gives the ``(fn, args)`` a worker runs;
        ``settle(shard, attempt, status, value)`` gets ``("ok", result)``,
        ``("error", message)``, ``("died", exit_code)`` or ``("timeout",
        seconds)`` and returns when to start the next attempt, or ``None``.
        An attempt is killed after ``timeout`` seconds; an expired
        ``deadline`` raises, and any exception kills what still runs.  A
        reply not tagged ``(sweep, shard, attempt)`` of a running attempt
        is dropped.
        """
        pending = [(shard, 0, 0.0) for shard in shards]
        running: dict[int, _Attempt] = {}
        with self.lock:
            sweep = next(self._sweeps)
            try:
                while pending or running:
                    if deadline is not None:
                        deadline.check("pool sweep")
                    now = time.monotonic()
                    idle = [s for s in range(self.size) if s not in running]
                    waiting = []
                    for shard, attempt, ready_at in pending:
                        if idle and ready_at <= now:
                            slot = idle.pop(0)
                            running[slot] = self._start(
                                slot, sweep, shard, attempt, launch, deadline, timeout
                            )
                        else:
                            waiting.append((shard, attempt, ready_at))
                    pending = waiting
                    wake = [run.kill_at for run in running.values()]
                    if idle:
                        wake += [ready_at for _, _, ready_at in pending]
                    if deadline is not None:
                        wake.append(deadline.expires_at)
                    delay = max(min(wake, default=math.inf) - time.monotonic(), 0.0)
                    busy = [w for w in map(self._workers.__getitem__, running) if w]
                    wait(
                        [w.conn for w in busy] + [w.process.sentinel for w in busy],
                        None if math.isinf(delay) else delay,
                    )
                    if deadline is not None:  # outranks the kill timers it capped
                        deadline.check("pool sweep")
                    for slot, run in list(running.items()):
                        result = self._resolve(slot, run, timeout)
                        if result is not None:
                            del running[slot]
                            ready_at = settle(run.shard, run.attempt, *result)
                            if ready_at is not None:
                                pending.append((run.shard, run.attempt + 1, ready_at))
            finally:
                for slot in running:
                    self._kill(slot)

    def _start(self, slot, sweep, shard, attempt, launch, deadline, timeout) -> _Attempt:
        fn, args = launch(shard, attempt)
        tag = (sweep, shard.shard_id, attempt)
        try:
            self._worker(slot).conn.send((tag, fn, args))
        except OSError:
            pass  # the worker just died; its sentinel reports it
        kill_at = time.monotonic() + (math.inf if timeout is None else timeout)
        if deadline is not None:
            kill_at = min(kill_at, deadline.expires_at)
        return _Attempt(shard, attempt, tag, kill_at)

    def _resolve(self, slot: int, run: _Attempt, timeout) -> tuple[str, object] | None:
        """The attempt's outcome, or ``None`` while it is still running."""
        worker = self._workers[slot]
        if worker is None:  # stopped by a concurrent close()
            return ("died", None)
        alive = worker.process.is_alive()  # read after this: a last reply counts
        try:
            if worker.conn.poll():
                tag, ok, value = worker.conn.recv()
                if tag != run.tag:
                    return None  # a reply to an attempt already given up on
                return ("ok", value) if ok else ("error", value)
        except (EOFError, OSError):
            pass  # the pipe closed under a dying worker
        if not alive:
            return ("died", self._kill(slot))
        if time.monotonic() >= run.kill_at:
            self._kill(slot)
            return ("timeout", timeout)
        return None


class _WorkerPool:
    """What both pools share: a :class:`WorkerSet` and its lifecycle."""

    def __init__(self, workers: int = 1, spec: WorkerSpec | None = None) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker, got {workers}")
        self.workers = workers
        self.spec = spec if spec is not None else WorkerSpec()
        self._set = WorkerSet(workers)

    def close(self) -> None:
        """Stop the pool's workers; a later sweep starts fresh ones."""
        self._set.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardWorkerPool(_WorkerPool):
    """Maps shard sweeps over long-lived workers (or inline for 1 worker).

    No supervision: a failed shard raises
    :class:`~repro.service.resilience.ShardFailure`.
    """

    #: No supervision: always healthy, nothing quarantined.
    healthy = True
    quarantined: tuple[int, ...] = ()

    def sweep(
        self,
        index: DatabaseIndex,
        queries: Sequence[str],
        scheme: LinearScoring | SubstitutionMatrix,
        min_score: int,
        k: int,
        deadline=None,
        spec: WorkerSpec | None = None,
    ) -> list[ShardSweep]:
        """Sweep every active shard for every query; per-shard results.

        Shards the index quarantined at load time are excluded, exactly
        as the supervised pool excludes them.  ``deadline`` (a
        :class:`~repro.service.resilience.Deadline`) is checked before
        each inline shard sweep; on the workers it kills whatever is
        still running once the budget is gone.  ``spec`` overrides the
        pool's kernel spec for this sweep only (a request-level
        ``QueryOptions.kernel``).
        """
        spec = spec if spec is not None else self.spec
        shards = index.active_shards
        if self.workers == 1 or len(shards) <= 1:
            return sweep_inline(shards, queries, scheme, spec, min_score, k, deadline)
        sweeps = []

        def launch(shard, attempt):
            return _sweep_shard, (shard_task(shard, queries, scheme, spec, min_score, k),)

        def settle(shard, attempt, status, value):
            if status != "ok":
                from .resilience import ShardFailure

                raise ShardFailure(shard.shard_id, f"worker {status}: {value}")
            sweeps.append(value)

        self._set.run(shards, launch, settle, deadline)
        return sorted(sweeps, key=lambda s: s.shard_id)

    @staticmethod
    def busy_seconds(sweeps: Sequence[ShardSweep]) -> dict[str, float]:
        """Total sweep seconds per worker (for utilization reporting)."""
        busy: dict[str, float] = {}
        for sweep in sweeps:
            busy[sweep.worker] = busy.get(sweep.worker, 0.0) + sweep.seconds
        return busy
