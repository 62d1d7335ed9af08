"""Fault-tolerance tests: supervision, retries, quarantine, degradation.

The acceptance contract (ISSUE 2): a worker crash mid-batch is retried
and the final ranking is bit-identical to ``scan_database``; an
unrecoverable shard yields a response with ``coverage < 1.0`` and the
shard listed in ``degraded_shards``; a hung sweep is timed out and the
engine completes via fallback — all with zero uncaught exceptions
reaching ``SearchServer.serve``.
"""

import dataclasses
import gc
import io
import math
import multiprocessing
import os
import signal
import sys
import threading
import time

import pytest

from repro.align.scoring import DEFAULT_DNA
from repro.io.fasta import FastaRecord
from repro.io.generate import mutate, random_dna
from repro.kernels import _FACTORIES, _INSTANCES, KernelBackend, get_backend, register_backend
from repro.scan import scan_database
from repro.service import (
    DatabaseIndex,
    Fault,
    FaultPlan,
    IndexCorrupt,
    IndexManager,
    QueryOptions,
    ResultCache,
    RetryPolicy,
    SearchEngine,
    SearchServer,
    ServiceError,
    ShardFailure,
    ShardWorkerPool,
    SupervisedWorkerPool,
    WorkerSpec,
    WorkerTimeout,
    corrupt_index_file,
    validate_sweep,
)
from repro.service.client import SearchClient
from repro.service.net import ServerThread
from repro.service.pool import _sweep_shard, shard_task

#: Fast backoff for tests — real delays, deterministic, but tiny.
FAST = RetryPolicy(retries=2, base_delay=0.005, max_delay=0.02, jitter=0.5, seed=7)


def ranking(hits):
    return [(h.record, h.length, h.hit.as_tuple()) for h in hits]


@pytest.fixture(scope="module")
def planted():
    query = random_dna(60, seed=501)
    records = []
    for i in range(12):
        seq = random_dna(200, seed=600 + i)
        if i == 5:
            copy = mutate(query, rate=0.05, seed=700)
            seq = seq[:80] + copy + seq[80 + len(copy):]
        records.append(FastaRecord(f"rec{i}", seq))
    index = DatabaseIndex.build(records, shards=4)
    base = scan_database(query, records, retrieve=0)
    return query, records, index, base


class TestTaxonomy:
    def test_codes_and_hierarchy(self):
        assert issubclass(ShardFailure, ServiceError)
        assert issubclass(WorkerTimeout, ServiceError)
        assert issubclass(IndexCorrupt, ServiceError)
        assert ServiceError.code == "internal"
        assert ShardFailure(3, "boom").code == "shard-failure"
        assert WorkerTimeout(1, 2.0).code == "worker-timeout"
        assert IndexCorrupt("bad").code == "index-corrupt"

    def test_messages_carry_shard(self):
        assert "shard 3" in str(ShardFailure(3, "boom"))
        assert "shard 1" in str(WorkerTimeout(1, 2.0))
        assert WorkerTimeout(1, 2.0).seconds == 2.0


class TestRetryPolicy:
    def test_deterministic(self):
        a = RetryPolicy(seed=1)
        b = RetryPolicy(seed=1)
        assert [a.delay(i, token=9) for i in range(5)] == [
            b.delay(i, token=9) for i in range(5)
        ]

    def test_seed_and_token_vary_jitter(self):
        assert RetryPolicy(seed=1).delay(0) != RetryPolicy(seed=2).delay(0)
        policy = RetryPolicy()
        assert policy.delay(0, token=1) != policy.delay(0, token=2)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        assert [policy.delay(i) for i in range(5)] == [0.1, 0.2, 0.4, 0.5, 0.5]

    def test_jitter_bounds(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=10.0, jitter=0.5)
        for attempt in range(6):
            raw = min(0.1 * 2.0**attempt, 10.0)
            for token in range(10):
                d = policy.delay(attempt, token=token)
                assert raw * 0.5 <= d <= raw

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy().delay(-1)


class TestFaultPlan:
    def test_times_semantics(self):
        plan = FaultPlan.crash_on(2, times=2)
        assert plan.fault_for(2, 0).kind == "crash"
        assert plan.fault_for(2, 1).kind == "crash"
        assert plan.fault_for(2, 2) is None
        assert plan.fault_for(1, 0) is None

    def test_persistent_fault(self):
        plan = FaultPlan.hang_on(0, seconds=1.0, times=None)
        assert plan.fault_for(0, 99).seconds == 1.0

    def test_merged_plans(self):
        plan = FaultPlan.crash_on(0).merged(FaultPlan.error_on(1, times=None))
        assert plan.fault_for(0, 0).kind == "crash"
        assert plan.fault_for(1, 5).kind == "error"

    def test_validation(self):
        with pytest.raises(ValueError):
            Fault("explode", 0)
        with pytest.raises(ValueError):
            Fault("crash", -1)
        with pytest.raises(ValueError):
            Fault("crash", 0, times=0)
        with pytest.raises(ValueError):
            Fault("hang", 0, seconds=0.0)

    def test_bad_npz_is_file_level_only(self, tmp_path):
        plan = FaultPlan([Fault("bad-npz", 1)])
        assert plan.fault_for(1, 0) is None  # never injected into workers
        path = tmp_path / "db.idx"
        DatabaseIndex.build(
            [(f"r{i}", random_dna(50, seed=i)) for i in range(6)], shards=3
        ).save(path)
        assert plan.apply_to_file(path) == 1
        with pytest.raises(IndexCorrupt):
            DatabaseIndex.load(path)


class TestValidateSweep:
    def test_catches_corruption(self, planted):
        from repro.service.pool import _sweep_shard, shard_task
        from repro.service.resilience import _corrupt_sweep

        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        shard = index.shards[1]
        task = shard_task(shard, (query,), DEFAULT_DNA, WorkerSpec(), 1, 5)
        sweep = _sweep_shard(task)
        validate_sweep(sweep, shard, 1, 1, 5)  # genuine result passes
        with pytest.raises(ShardFailure):
            validate_sweep(_corrupt_sweep(sweep), shard, 1, 1, 5)
        with pytest.raises(ShardFailure):
            validate_sweep(sweep, index.shards[2], 1, 1, 5)
        with pytest.raises(ShardFailure):
            validate_sweep(sweep, shard, 2, 1, 5)


class TestSupervisedPool:
    def test_healthy_sweep_matches_plain_pool(self, planted):
        from repro.service import ShardWorkerPool

        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        plain = ShardWorkerPool(workers=2).sweep(index, [query], DEFAULT_DNA, 1, 10)
        outcome = SupervisedWorkerPool(workers=2, policy=FAST).sweep(
            index, [query], DEFAULT_DNA, 1, 10
        )
        assert outcome.complete and not outcome.failed
        assert outcome.attempts == index.shard_count
        by_id = {s.shard_id: s for s in plain}
        for sweep in outcome.sweeps:
            assert sweep.candidates == by_id[sweep.shard_id].candidates

    def test_crash_is_retried(self, planted):
        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        pool = SupervisedWorkerPool(
            workers=2, policy=FAST, fault_plan=FaultPlan.crash_on(1, times=1)
        )
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert outcome.complete
        assert outcome.worker_deaths == 1
        assert outcome.retries >= 1
        assert pool.healthy

    def test_exhausted_shard_quarantined_and_skipped(self, planted):
        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=1, base_delay=0.005),
            fault_plan=FaultPlan.crash_on(2, times=None),
        )
        first = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert set(first.failed) == {2}
        assert isinstance(first.failed[2], ShardFailure)
        assert pool.quarantined == (2,)
        attempts = pool.attempts_total
        second = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert set(second.failed) == {2}
        # The quarantined shard consumed no further attempts.
        assert pool.attempts_total == attempts + index.shard_count - 1
        pool.heal(2)
        assert pool.quarantined == ()

    def test_timeout_kills_hung_worker(self, planted):
        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=0),
            task_timeout=0.25,
            fault_plan=FaultPlan.hang_on(0, seconds=30.0, times=None),
        )
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert outcome.timeouts == 1
        assert isinstance(outcome.failed[0], WorkerTimeout)

    def test_corrupt_result_detected_and_healed_by_retry(self, planted):
        query, _, index, base = planted
        from repro.align.scoring import DEFAULT_DNA

        pool = SupervisedWorkerPool(
            workers=2, policy=FAST, fault_plan=FaultPlan.corrupt_on(3, times=1)
        )
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert outcome.complete
        assert outcome.retries >= 1
        assert pool.health[3].failures == 1

    def test_injected_error_reported(self, planted):
        query, _, index, _ = planted
        from repro.align.scoring import DEFAULT_DNA

        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=0),
            fault_plan=FaultPlan.error_on(1, times=None),
        )
        outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert "injected worker error" in str(outcome.failed[1])

    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisedWorkerPool(workers=0)
        with pytest.raises(ValueError):
            SupervisedWorkerPool(task_timeout=0.0)
        with pytest.raises(ValueError):
            SupervisedWorkerPool(quarantine_after=0)


class TestEngineFaultTolerance:
    """The ISSUE acceptance criteria, end to end through SearchEngine."""

    def test_crash_mid_batch_retried_bit_identical(self, planted):
        query, records, index, base = planted
        other = random_dna(50, seed=811)
        base_other = scan_database(other, records, retrieve=0)
        pool = SupervisedWorkerPool(
            workers=2, policy=FAST, fault_plan=FaultPlan.crash_on(1, times=1)
        )
        engine = SearchEngine(index, pool=pool, cache=ResultCache(0))
        responses = engine.search_batch([query, other])
        assert ranking(responses[0].report.hits) == ranking(base.hits)
        assert ranking(responses[1].report.hits) == ranking(base_other.hits)
        assert all(r.coverage == 1.0 and not r.degraded_shards for r in responses)
        assert pool.worker_deaths_total == 1

    def test_unrecoverable_shard_degrades_response(self, planted):
        query, records, index, base = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=1, base_delay=0.005),
            fault_plan=FaultPlan.crash_on(1, times=None),
        )
        engine = SearchEngine(
            index, pool=pool, cache=ResultCache(0), fallback_scan=False
        )
        response = engine.search(query)
        assert response.degraded
        assert response.coverage < 1.0
        assert response.degraded_shards == (1,)
        # The partial answer is exactly a scan over the surviving records.
        shard = index.shards[1]
        survivors = [r for r in records if r.identifier not in set(shard.names)]
        expected = scan_database(query, survivors, retrieve=0)
        assert ranking(response.report.hits) == ranking(expected.hits)
        assert response.report.records_scanned == len(survivors)
        assert "degraded coverage=" in response.render(max_rows=3)

    def test_degraded_responses_are_never_cached(self, planted):
        query, _, index, _ = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=0),
            fault_plan=FaultPlan.crash_on(1, times=None),
        )
        engine = SearchEngine(index, pool=pool, fallback_scan=False)
        first = engine.search(query)
        assert first.degraded
        assert len(engine.cache) == 0
        # The operator repairs the shard: faults stop, quarantine heals.
        pool.fault_plan = None
        pool.heal()
        second = engine.search(query)
        assert not second.metrics.cache_hit  # re-swept, not replayed
        assert second.coverage == 1.0
        third = engine.search(query)
        assert third.metrics.cache_hit  # the full answer was cacheable

    def test_hung_sweep_times_out_and_fallback_completes(self, planted):
        query, _, index, base = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=1, base_delay=0.005),
            task_timeout=0.25,
            fault_plan=FaultPlan.hang_on(0, seconds=30.0, times=None),
        )
        engine = SearchEngine(index, pool=pool, cache=ResultCache(0))
        response = engine.search(query)
        assert ranking(response.report.hits) == ranking(base.hits)
        assert response.coverage == 1.0 and not response.degraded_shards
        assert pool.timeouts_total >= 1
        assert engine.fallback_sweeps == 1

    def test_unhealthy_pool_falls_back_to_inline_scan(self, planted):
        query, _, index, base = planted
        plan = FaultPlan(
            [Fault("crash", s, times=None) for s in range(index.shard_count)]
        )
        pool = SupervisedWorkerPool(
            workers=2, policy=RetryPolicy(retries=0), fault_plan=plan
        )
        engine = SearchEngine(index, pool=pool, cache=ResultCache(0))
        first = engine.search(query)
        assert ranking(first.report.hits) == ranking(base.hits)
        assert not pool.healthy
        attempts = pool.attempts_total
        second = engine.search(query)
        assert ranking(second.report.hits) == ranking(base.hits)
        assert pool.attempts_total == attempts  # pool bypassed while unhealthy
        assert engine.fallback_sweeps == 2

    def test_quarantined_index_load_serves_partial(self, planted, tmp_path):
        query, records, index, base = planted
        path = tmp_path / "db.idx"
        index.save(path)
        corrupt_index_file(path, shard_id=2)
        loaded = DatabaseIndex.load(path, on_corrupt="quarantine")
        engine = SearchEngine(loaded, cache=ResultCache(0))
        response = engine.search(query)
        assert response.coverage < 1.0
        assert response.degraded_shards == (2,)
        shard = index.shards[2]
        survivors = [r for r in records if r.identifier not in set(shard.names)]
        expected = scan_database(query, survivors, retrieve=0)
        assert ranking(response.report.hits) == ranking(expected.hits)

    def test_describe_reports_supervision(self, planted):
        query, _, index, _ = planted
        pool = SupervisedWorkerPool(workers=2, policy=FAST)
        engine = SearchEngine(index, pool=pool)
        engine.search(query)
        info = engine.describe()
        assert info["pool"] == "healthy"
        assert info["sweep attempts"] == index.shard_count
        assert info["fallback sweeps"] == 0


class TestServerFaultTolerance:
    def test_no_uncaught_exceptions_reach_serve(self, planted):
        """Crashing shards, malformed requests, service errors: the loop
        answers every line and exits only on quit."""
        query, _, index, _ = planted
        pool = SupervisedWorkerPool(
            workers=2,
            policy=RetryPolicy(retries=1, base_delay=0.005),
            fault_plan=FaultPlan.crash_on(1, times=None),
        )
        engine = SearchEngine(index, pool=pool, fallback_scan=False)
        server = SearchServer(engine)
        out = io.StringIO()
        script = (
            f"scan {query} top=3\n"      # degraded but served
            "scan\n"                      # bad request
            "scan ACGT top=zero\n"        # bad request
            "stats\n"
            f"scan {query} top=2\n"
            "quit\n"
        )
        served = server.serve(io.StringIO(script), out)
        text = out.getvalue()
        assert served == 2
        assert text.count("degraded coverage=") == 2
        assert text.count("error bad-request") == 2
        assert "unhealthy" not in text  # three of four shards still sweep

    def test_service_error_renders_taxonomy_code(self, planted):
        query, _, index, _ = planted

        class FailingEngine(SearchEngine):
            def search(self, *args, **kwargs):
                raise WorkerTimeout(3, 1.5)

        server = SearchServer(FailingEngine(index))
        response = server.handle_line(f"scan {query}")
        assert response == "error worker-timeout shard 3: sweep exceeded 1.5s timeout"

    def test_internal_errors_are_contained(self, planted):
        query, _, index, _ = planted

        class ExplodingEngine(SearchEngine):
            def search(self, *args, **kwargs):
                raise RuntimeError("kernel\npanic")

        server = SearchServer(ExplodingEngine(index))
        out = io.StringIO()
        server.serve(io.StringIO(f"scan {query}\nquit\n"), out)
        assert "error internal RuntimeError: kernel panic" in out.getvalue()


class TestCLIResilience:
    def test_serve_retries_and_timeout_flags(self, tmp_path, capsys, monkeypatch, planted):
        from repro.cli import main
        from repro.io.fasta import write_fasta

        query, records, _, _ = planted
        db = tmp_path / "db.fasta"
        write_fasta(records, db)
        monkeypatch.setattr(
            "sys.stdin", io.StringIO(f"scan {query} top=2\nstats\nquit\n")
        )
        assert (
            main(
                [
                    "serve",
                    str(db),
                    "--workers",
                    "2",
                    "--retries",
                    "1",
                    "--timeout",
                    "30",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "rec5" in out
        assert "pool: healthy" in out
        assert "served 1 requests" in out


# ----------------------------------------------------------------------
# Long-lived workers: reuse, respawn, lifecycle
# ----------------------------------------------------------------------
def _stall_on_shard_one(args):
    """A shard sweep that never finishes for shard 1 (runs in the worker)."""
    if args[0] == 1:
        time.sleep(60)
    return _sweep_shard(args)


def _run_with_hard_timeout(fn, seconds):
    """``fn()``'s result or exception; fails if it takes over ``seconds``."""
    box = {}

    def target():
        try:
            box["result"] = fn()
        except Exception as exc:  # handed to the test
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"sweep still running after {seconds}s"
    return box


def _labels(sweeps):
    return {sweep.worker for sweep in sweeps}


class _OffsetBackend(KernelBackend):
    """Reference hits with scores raised by 1000, so its sweeps stand out."""

    name = "test-offset"

    def locate(self, s, t, scheme=DEFAULT_DNA):
        hit = get_backend("reference").locate(s, t, scheme)
        return dataclasses.replace(hit, score=hit.score + 1000)


class TestLongLivedWorkers:
    def test_plain_pool_worker_sigkill_raises_shard_failure(self, planted, monkeypatch):
        from repro.service import pool as pool_module

        query, _, index, _ = planted
        monkeypatch.setattr(pool_module, "_sweep_shard", _stall_on_shard_one)
        pool = ShardWorkerPool(workers=2)

        def kill_busy_workers():
            time.sleep(1.0)  # shards 0, 2 and 3 finish; shard 1 stalls
            for worker in pool._set._workers:
                if worker is not None:
                    os.kill(worker.process.pid, signal.SIGKILL)

        killer = threading.Thread(target=kill_busy_workers, daemon=True)
        killer.start()
        box = _run_with_hard_timeout(
            lambda: pool.sweep(index, [query], DEFAULT_DNA, 1, 10), 20
        )
        killer.join()
        assert isinstance(box.get("error"), ShardFailure)
        assert box["error"].shard_id == 1
        pool.close()

    def test_plain_pool_deadline_kills_work_in_flight(self, planted, monkeypatch):
        from repro.service import DeadlineExceeded
        from repro.service import pool as pool_module
        from repro.service.resilience import Deadline

        query, _, index, _ = planted
        monkeypatch.setattr(pool_module, "_sweep_shard", _stall_on_shard_one)
        with ShardWorkerPool(workers=2) as pool:
            box = _run_with_hard_timeout(
                lambda: pool.sweep(
                    index, [query], DEFAULT_DNA, 1, 10, deadline=Deadline.after(0.5)
                ),
                20,
            )
            assert isinstance(box.get("error"), DeadlineExceeded)
            live = [w for w in pool._set._workers if w is not None]
            assert len(live) < pool.workers  # the stalled worker was killed

    def test_worker_is_reused_across_healthy_sweeps(self, planted):
        query, _, index, _ = planted
        with SupervisedWorkerPool(workers=1, policy=FAST) as pool:
            labels = [
                _labels(pool.sweep(index, [query], DEFAULT_DNA, 1, 10).sweeps)
                for _ in range(3)
            ]
        assert len(labels[0]) == 1
        assert labels == [labels[0]] * 3

    def test_crash_retry_runs_on_new_worker_bit_identical(self, planted):
        query, records, index, base = planted
        with SupervisedWorkerPool(workers=1, policy=FAST) as pool:
            (first,) = _labels(pool.sweep(index, [query], DEFAULT_DNA, 1, 10).sweeps)
            pool.fault_plan = FaultPlan.crash_on(1, times=1)
            outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
            assert outcome.complete and outcome.worker_deaths == 1
            by_shard = {s.shard_id: s.worker for s in outcome.sweeps}
            assert by_shard[0] == first  # before the crash: the old worker
            assert by_shard[1] != first  # the retry: a fresh process
            engine = SearchEngine(index, pool=pool, cache=ResultCache(0))
            response = engine.search(query)
        assert pool.worker_deaths_total == 2
        assert ranking(response.report.hits) == ranking(base.hits)

    def test_hung_worker_killed_then_replacement_serves(self, planted):
        query, _, index, _ = planted
        with SupervisedWorkerPool(
            workers=1,
            policy=RetryPolicy(retries=0),
            task_timeout=0.3,
            fault_plan=FaultPlan.hang_on(0, seconds=30.0, times=None),
        ) as pool:
            started = time.monotonic()
            hung = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
            assert time.monotonic() - started < 10
            assert hung.timeouts == 1
            assert isinstance(hung.failed[0], WorkerTimeout)
            pool.fault_plan = None
            pool.heal()
            healed = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert healed.complete
        assert len(healed.sweeps) == index.shard_count
        assert _labels(healed.sweeps) == _labels(hung.sweeps)  # the replacement

    def test_reload_between_sweeps_bit_identical(self, planted):
        query, records, index, base = planted
        extra = FastaRecord("late", mutate(query, rate=0.02, seed=991))
        generations = iter([records + [extra]])

        def loader():
            return DatabaseIndex.build(next(generations), shards=3)

        manager = IndexManager(index=index, loader=loader)
        pool = SupervisedWorkerPool(workers=2, policy=FAST)
        with SearchEngine(manager, pool=pool, cache=ResultCache(0)) as engine:
            before = engine.search(query)
            workers = _labels(pool.sweep(index, [query], DEFAULT_DNA, 1, 10).sweeps)
            manager.reload()
            after = engine.search(query)
            again = pool.sweep(engine.index, [query], DEFAULT_DNA, 1, 10)
        assert ranking(before.report.hits) == ranking(base.hits)
        expected = scan_database(query, records + [extra], retrieve=0)
        assert ranking(after.report.hits) == ranking(expected.hits)
        assert _labels(again.sweeps) <= workers  # same workers, new generation

    def test_kernel_override_leaves_no_state_on_worker(self, planted):
        query, _, index, base = planted
        register_backend("test-offset", _OffsetBackend)
        try:
            pool = SupervisedWorkerPool(workers=1, policy=FAST)
            with SearchEngine(index, pool=pool, cache=ResultCache(0)) as engine:
                before = engine.search(query)
                offset = engine.search(query, QueryOptions(kernel="test-offset"))
                after = engine.search(query)
        finally:
            _FACTORIES.pop("test-offset", None)
            _INSTANCES.pop("test-offset", None)
        assert offset.report.hits[0].hit.score == base.hits[0].hit.score + 1000
        assert ranking(before.report.hits) == ranking(base.hits)
        assert ranking(after.report.hits) == ranking(base.hits)
        workers = [dict(r.metrics.worker_busy) for r in (before, offset, after)]
        assert len(workers[0]) == 1
        assert workers[0].keys() == workers[1].keys() == workers[2].keys()

    def test_late_result_from_abandoned_attempt_never_accepted(self, planted):
        from repro.service.resilience import _corrupt_sweep

        query, _, index, _ = planted
        task = shard_task(index.shards[0], (query,), DEFAULT_DNA, WorkerSpec(), 1, 10)
        with SupervisedWorkerPool(workers=1, policy=RetryPolicy(retries=0)) as pool:
            # A reply queued for an attempt nobody waits on any more: a
            # corrupt sweep of shard 0, tagged with an earlier sweep.
            worker = pool._set._worker(0)
            worker.conn.send(((-1, 0, 0), _corrupt_sweep, (_sweep_shard(task),)))
            outcome = pool.sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert outcome.complete and outcome.attempts == index.shard_count
        assert pool.health == {}  # the stale corrupt reply was never judged
        inline = ShardWorkerPool(workers=1).sweep(index, [query], DEFAULT_DNA, 1, 10)
        assert [s.candidates for s in outcome.sweeps] == [s.candidates for s in inline]

    def test_concurrent_sweeps_lose_no_bookkeeping(self, planted):
        query, _, index, _ = planted
        inline = ShardWorkerPool(workers=1).sweep(index, [query], DEFAULT_DNA, 1, 10)
        pool = SupervisedWorkerPool(
            workers=3, policy=FAST, fault_plan=FaultPlan.crash_on(1, times=1)
        )
        threads, sweeps_each, results = 4, 3, []

        def hammer():
            for _ in range(sweeps_each):
                results.append(pool.sweep(index, [query], DEFAULT_DNA, 1, 10))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert not any(thread.is_alive() for thread in workers)
        n = threads * sweeps_each
        assert len(results) == n
        assert all(
            [s.candidates for s in r.sweeps] == [s.candidates for s in inline]
            for r in results
        )
        assert pool.sweeps_run == n
        assert pool.worker_deaths_total == pool.retries_total == n
        assert pool.attempts_total == n * (index.shard_count + 1)

    def test_server_thread_exit_leaves_no_children(self, planted):
        gc.collect()
        query, _, index, _ = planted
        pool = SupervisedWorkerPool(workers=2, policy=FAST)
        engine = SearchEngine(index, pool=pool, cache=ResultCache(0))
        with ServerThread(engine) as handle:
            with SearchClient(handle.host, handle.port) as client:
                assert client.search(query).coverage == 1.0
            assert len(multiprocessing.active_children()) >= 1
        assert multiprocessing.active_children() == []
