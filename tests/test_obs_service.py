"""Integration tests: the observability layer wired through the service."""

import json
import socket
import time

import pytest

from repro.io.fasta import FastaRecord, write_fasta
from repro.io.generate import mutate, random_dna
from repro.obs import NULL_OBS, Observability
from repro.scan import scan_database
from repro.service import (
    BadRequest,
    DatabaseIndex,
    FaultPlan,
    QueryOptions,
    ResultCache,
    RetryPolicy,
    SearchClient,
    SearchEngine,
    SupervisedWorkerPool,
)
from repro.service import protocol
from repro.service.net import ServerThread

from conftest import ServeProcess, recv_frame


def make_database(n=8, length=240, seed=700, query=None):
    records = []
    for i in range(n):
        seq = random_dna(length, seed=seed + i)
        if i == 2 and query is not None:
            planted = mutate(query, rate=0.05, seed=900)
            seq = seq[:80] + planted + seq[80 + len(planted):]
        records.append(FastaRecord(f"rec{i}", seq))
    return records


@pytest.fixture(scope="module")
def planted():
    query = random_dna(50, seed=601)
    records = make_database(query=query)
    index = DatabaseIndex.build(records, shard_bp=500)
    return query, records, index


def ranking(hits):
    return [(h.record, h.length, h.hit.as_tuple()) for h in hits]


POLICY = RetryPolicy(retries=2, base_delay=0.005, max_delay=0.02, jitter=0.0, seed=1)


def supervised_engine(index, plan=None, fallback=True, obs=None, quarantine_after=1):
    pool = SupervisedWorkerPool(
        workers=2,
        policy=POLICY,
        fault_plan=plan,
        quarantine_after=quarantine_after,
    )
    return SearchEngine(
        index, pool=pool, cache=ResultCache(0), fallback_scan=fallback, obs=obs
    )


class TestEngineMetrics:
    def test_healthy_path_counters_and_histograms(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, workers=2, obs=obs)
        engine.search(query)  # miss + sweep
        engine.search(query)  # cache hit
        snap = obs.registry.snapshot()
        assert snap["counters"]["repro_requests_total"] == 2.0
        assert snap["counters"]["repro_cache_misses_total"] == 1.0
        assert snap["counters"]["repro_cache_hits_total"] == 1.0
        assert snap["counters"]["repro_cells_swept_total"] == index.cells(len(query))
        # One sweep (the hit skipped it), two end-to-end requests.
        assert snap["histograms"]["repro_sweep_seconds"]["count"] == 1
        assert snap["histograms"]["repro_request_seconds"]["count"] == 2
        assert snap["gauges"]["repro_degraded_shards"] == 0.0

    def test_sustained_cups_gauge_tracks_property(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, workers=1, cache=ResultCache(0), obs=obs)
        engine.search(query)
        engine.search(query[::-1])
        gauge = obs.registry.snapshot()["gauges"]["repro_sustained_cups"]
        assert gauge == pytest.approx(engine.sustained_cups)
        assert gauge > 0
        assert "sustained rate" in engine.describe()

    def test_rankings_identical_with_obs_enabled(self, planted):
        """Telemetry must never perturb the answer."""
        query, records, index = planted
        base = scan_database(query, records, retrieve=0)
        engine = SearchEngine(
            index, workers=2, cache=ResultCache(0), obs=Observability.create()
        )
        assert ranking(engine.search(query).report.hits) == ranking(base.hits)

    def test_null_obs_default_registers_nothing(self, planted):
        query, _, index = planted
        engine = SearchEngine(index, cache=ResultCache(0))
        engine.search(query)
        assert engine.obs is NULL_OBS
        assert NULL_OBS.registry.snapshot() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }


class TestEngineTraces:
    def test_trace_tree_shape(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, workers=1, cache=ResultCache(0), obs=obs)
        engine.search(query)
        (root,) = obs.tracer.recent
        assert root.name == "engine.search"
        child_names = [c.name for c in root.children]
        assert child_names[0] == "cache.lookup"
        assert "pool.sweep" in child_names
        assert child_names[-1] == "response.build"
        pool_span = root.children[child_names.index("pool.sweep")]
        shard_spans = [c for c in pool_span.children if c.name == "shard.sweep"]
        assert len(shard_spans) == index.shard_count
        assert {c.attrs["shard"] for c in shard_spans} == set(
            range(index.shard_count)
        )
        assert all(c.duration >= 0 for c in shard_spans)

    def test_cache_hit_trace_has_no_sweep(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = SearchEngine(index, obs=obs)
        engine.search(query)
        engine.search(query)
        hit_trace = obs.tracer.recent[-1]
        assert "pool.sweep" not in [c.name for c in hit_trace.children]


class TestFaultTelemetry:
    def test_transient_crash_counts_retries(self, planted):
        query, records, index = planted
        base = scan_database(query, records, retrieve=0)
        obs = Observability.create()
        engine = supervised_engine(
            index, plan=FaultPlan.crash_on(0, times=1), obs=obs, quarantine_after=3
        )
        response = engine.search(query)
        assert ranking(response.report.hits) == ranking(base.hits)
        snap = obs.registry.snapshot()
        assert snap["counters"]["repro_retries_total"] > 0
        assert snap["counters"]["repro_worker_deaths_total"] > 0
        assert snap["counters"]["repro_quarantines_total"] == 0.0

    def test_permanent_crash_counts_quarantine_and_degraded_gauge(self, planted):
        query, _, index = planted
        obs = Observability.create()
        engine = supervised_engine(
            index, plan=FaultPlan.crash_on(0, times=None), fallback=False, obs=obs
        )
        response = engine.search(query)
        assert response.degraded
        snap = obs.registry.snapshot()
        assert snap["counters"]["repro_quarantines_total"] > 0
        assert snap["gauges"]["repro_degraded_shards"] == len(
            response.degraded_shards
        )

    def test_fallback_heal_counts_and_traces(self, planted):
        query, records, index = planted
        base = scan_database(query, records, retrieve=0)
        obs = Observability.create()
        engine = supervised_engine(
            index, plan=FaultPlan.crash_on(0, times=None), fallback=True, obs=obs
        )
        response = engine.search(query)
        assert ranking(response.report.hits) == ranking(base.hits)
        snap = obs.registry.snapshot()
        assert snap["counters"]["repro_fallback_sweeps_total"] > 0
        events = [
            e.name for span in obs.tracer.recent for s in span.walk() for e in s.events
        ]
        assert "fallback" in events
        assert "retry" in events

    def test_supervised_pool_inherits_engine_obs(self, planted):
        _, _, index = planted
        obs = Observability.create()
        engine = supervised_engine(index, obs=obs)
        assert engine.pool.obs is obs


class TestServerVerbs:
    """The ``metrics``/``trace`` admin verbs over TCP.  ``stats`` is covered
    by ``tests/test_net.py::TestAdminVerbs``."""

    def test_metrics_verb_renders_prometheus(self, planted):
        query, _, index = planted
        with ServerThread(SearchEngine(index, obs=Observability.create())) as handle:
            with SearchClient(handle.host, handle.port) as client:
                client.search(query, QueryOptions(top=2))
                text = client.metrics()
        assert "# TYPE repro_requests_total counter" in text
        assert 'repro_sweep_seconds_bucket{le="+Inf"} 1' in text

    def test_metrics_verb_without_registry(self, planted):
        _, _, index = planted
        with ServerThread(SearchEngine(index)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                assert client.metrics() == ""

    def test_trace_verb_lists_and_renders(self, planted):
        query, _, index = planted
        with ServerThread(SearchEngine(index, obs=Observability.create())) as handle:
            with SearchClient(handle.host, handle.port) as client:
                client.search(query, QueryOptions(top=2))
                # The net.batch span lands in the ring just after the reply.
                deadline = time.monotonic() + 5.0
                while (listing := client.trace()).startswith("#"):
                    assert time.monotonic() < deadline, "search trace never landed"
                    time.sleep(0.01)
                assert "net.batch" in listing
                rendered = client.trace(listing.split()[0])
        assert "engine.search" in rendered
        assert "cache.lookup" in rendered

    def test_trace_verb_error_paths(self, planted):
        _, _, index = planted
        with ServerThread(SearchEngine(index, obs=Observability.create())) as handle:
            with SearchClient(handle.host, handle.port) as client:
                assert client.trace() == "# no traces recorded"
                with pytest.raises(BadRequest, match="unknown trace id"):
                    client.trace("t999999")
        with ServerThread(SearchEngine(index)) as handle:
            with SearchClient(handle.host, handle.port) as client:
                assert "tracing disabled" in client.trace()

    def test_unknown_verb_mentions_new_verbs(self, planted):
        _, _, index = planted
        with ServerThread(SearchEngine(index)) as handle:
            with socket.create_connection((handle.host, handle.port), timeout=10) as sock:
                frame = {"v": 2, "type": "request", "id": 1, "verb": "frobnicate"}
                sock.sendall(protocol.encode_frame(frame))
                reply = recv_frame(sock)
        assert reply["type"] == "error" and reply["code"] == "protocol"
        assert "metrics" in reply["message"] and "trace" in reply["message"]


class TestServeDumper:
    def test_serve_writes_metrics_file(self, tmp_path, planted):
        """``--metrics-file`` is rewritten while the server runs, not only at exit."""
        query, records, _ = planted
        write_fasta(records, tmp_path / "db.fasta")
        path = tmp_path / "metrics.json"
        with ServeProcess(
            "db.fasta", "--metrics-file", str(path), "--metrics-interval", "0",
            cwd=tmp_path,
        ) as server:
            with SearchClient(server.address) as client:
                client.search(query, QueryOptions(top=2))
            deadline = time.monotonic() + 10.0
            while _requests_dumped(path) != 1.0:
                assert time.monotonic() < deadline, "no periodic dump after the search"
                time.sleep(0.05)
            assert server.stop()[0] == 0


def _requests_dumped(path) -> float | None:
    try:
        return json.loads(path.read_text())["counters"].get("repro_requests_total")
    except (OSError, ValueError):
        return None


class TestCLIObservability:
    def _db(self, tmp_path, records):
        db = tmp_path / "db.fasta"
        write_fasta(records, db)
        return db

    def test_serve_with_metrics_file_and_logging(self, tmp_path, planted):
        query, records, _ = planted
        db = self._db(tmp_path, records)
        path = tmp_path / "metrics.json"
        with ServeProcess(
            db.name, "--log-level", "warning", "--metrics-file", str(path), cwd=tmp_path
        ) as server:
            with SearchClient(server.address) as client:
                response = client.search(query, QueryOptions(top=2))
                assert "repro_requests_total 1" in client.metrics()
            code, out, _ = server.stop()
        assert code == 0 and "served 1 requests" in out
        assert response.report.best().record == "rec2"
        # The interval (5 s) has not elapsed: the count comes from the
        # final dump after drain.
        snapshot = json.loads(path.read_text())
        assert snapshot["counters"]["repro_requests_total"] == 1.0

    def test_stats_command_renders_snapshot(self, tmp_path, capsys, planted):
        from repro.cli import main

        query, records, _ = planted
        db = self._db(tmp_path, records)
        path = tmp_path / "metrics.json"
        with ServeProcess(db.name, "--metrics-file", str(path), cwd=tmp_path) as server:
            with SearchClient(server.address) as client:
                client.search(query, QueryOptions(top=2))
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "counters / gauges" in out
        assert "repro_requests_total" in out
        assert "repro_request_seconds" in out  # histogram table row

    def test_stats_command_empty_snapshot(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "empty.json"
        path.write_text('{"counters": {}, "gauges": {}, "histograms": {}}\n')
        assert main(["stats", str(path)]) == 0
        assert "no metrics in snapshot" in capsys.readouterr().out

    def test_serve_log_json_emits_structured_stderr(self, tmp_path, planted):
        _, _, index = planted
        index.save(tmp_path / "db.idx")
        with ServeProcess("db.idx", "--log-json", "--log-level", "info", cwd=tmp_path) as server:
            code, _, err = server.stop()
        assert code == 0
        payloads = [json.loads(line) for line in err.splitlines() if line]
        assert any(p["event"] == "index.loaded" for p in payloads)
