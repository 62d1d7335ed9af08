"""Traced entry point: ``repro.cli.main`` with timing spans around each layer.

Usage::

    python perfbench/traced_serve.py SPANS.json serve INDEX --tcp HOST:PORT ...

Wraps the public calls of each layer (kernel sweep results, worker
pools, engine, cache, protocol, index, ingest) with spans kept in
memory, runs the CLI unchanged, and writes every span to ``SPANS.json``
once the server has drained.  Nothing inside the program changes.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time


class Recorder:
    """In-memory spans: name, start, end, parent span, attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.requests: list[dict] = []
        self.received: dict[int, float] = {}
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` timed as span ``name``; ``attrs(args, result)`` adds fields."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span_id = next(self._ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            span = {"name": name, "id": span_id, "parent": parent,
                    "start": start, "end": end}
            if attrs is not None:
                span.update(attrs(args, result))
            with self._lock:
                self.spans.append(span)
            self._local.last = span
            return result

        return traced

    def keep_last_as_batch(self) -> None:
        """Remember this thread's last finished span as its current batch."""
        self._local.batch = self._local.last

    def batch(self) -> dict:
        return getattr(self._local, "batch", None) or {}

    def receive(self, request_id: int) -> None:
        with self._lock:
            self.received[request_id] = time.perf_counter()

    def answered(self, request_id: int, batch_id: int | None) -> None:
        with self._lock:
            self.requests.append({
                "id": request_id,
                "received": self.received.pop(request_id, None),
                "answered": time.perf_counter(),
                "batch": batch_id,
            })

    def dump(self, path: str) -> None:
        with self._lock:
            payload = {"spans": self.spans, "requests": self.requests}
        with open(path, "w") as fh:
            json.dump(payload, fh)


def install(rec: Recorder) -> None:
    """Patch each layer's public entry points with spans."""
    from repro.service import protocol
    from repro.service.cache import ResultCache
    from repro.service.engine import SearchEngine
    from repro.service.guard import IndexManager
    from repro.service.index import DatabaseIndex
    from repro.service.ingest import IngestService, Journal
    from repro.service.pool import ShardWorkerPool
    from repro.service.resilience import SupervisedWorkerPool, SweepOutcome

    def sweep_attrs(args, result):
        pool = args[0]
        retries = 0
        if isinstance(result, SweepOutcome):
            retries = result.retries
            result = result.sweeps
        return {
            "shard_s": sum(s.seconds for s in result),
            "shards": len(result),
            "workers": pool.workers,
            "retries": retries,
        }

    for cls in (ShardWorkerPool, SupervisedWorkerPool):
        cls.sweep = rec.wrap("pool.sweep", cls.sweep, sweep_attrs)

    def batch_attrs(args, result):
        lengths = [len(q) for q in args[1]]
        return {"queries": len(lengths), "lengths": lengths}

    search_batch = rec.wrap("engine.batch", SearchEngine.search_batch, batch_attrs)

    @functools.wraps(search_batch)
    def engine_batch(*args, **kwargs):
        result = search_batch(*args, **kwargs)
        rec.keep_last_as_batch()
        return result

    SearchEngine.search_batch = engine_batch

    ResultCache.get = rec.wrap(
        "cache.get", ResultCache.get, lambda a, r: {"hit": r is not None}
    )
    ResultCache.evict_where = rec.wrap(
        "cache.evict", ResultCache.evict_where, lambda a, r: {"purged": r}
    )
    load = DatabaseIndex.load.__func__
    DatabaseIndex.load = classmethod(rec.wrap("index.load", load))
    IndexManager.reload = rec.wrap("index.reload", IndexManager.reload)
    Journal.append = rec.wrap("ingest.append", Journal.append)

    IngestService.ingest = rec.wrap("ingest.ingest", IngestService.ingest)

    protocol.encode_frame = rec.wrap(
        "protocol.encode", protocol.encode_frame,
        lambda a, r: {"bytes": len(r), "response": a[0].get("type") == "response"},
    )
    protocol.decode_frame = rec.wrap(
        "protocol.decode", protocol.decode_frame, lambda a, r: {"bytes": len(a[0])}
    )
    protocol.error_frame = rec.wrap(
        "net.error", protocol.error_frame, lambda a, r: {"code": r.get("code")}
    )

    parse_request = protocol.parse_request

    @functools.wraps(parse_request)
    def parse(frame):
        request = parse_request(frame)
        if request.verb == "search":
            rec.receive(request.request_id)
        return request

    protocol.parse_request = parse
    response_frame = protocol.response_frame

    @functools.wraps(response_frame)
    def respond(request_id, response, *args, **kwargs):
        # Runs on the dispatch thread right after the batch that
        # answered this request, so the thread's last batch is its own.
        rec.answered(request_id, rec.batch().get("id"))
        return response_frame(request_id, response, *args, **kwargs)

    protocol.response_frame = respond


def main(argv: list[str]) -> int:
    spans_path, cli_argv = argv[0], argv[1:]
    rec = Recorder()
    install(rec)
    from repro.cli import main as cli_main

    try:
        return cli_main(cli_argv)
    finally:
        rec.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
