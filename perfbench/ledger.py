"""Per-layer metrics: joins the traced server's spans with client samples.

Each request is attributed the batch that answered it: the engine
span (``engine.batch``), the pool sweep inside it (``pool.sweep``,
carrying the summed ``ShardSweep.seconds``), the wait between receipt
and answer outside the batch (``net.queue``), and the protocol work.
What the client saw beyond those is ``ledger.unattributed_ms``.
"""

from __future__ import annotations

import time

import numpy as np


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q)) if len(values) else 0.0


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def layer_metrics(trace: dict, samples) -> dict[str, float]:
    """Per-layer figures of one traced phase (times in ms unless named)."""
    spans = trace["spans"]
    by_id = {s["id"]: s for s in spans}
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(span) -> float:
        return span["end"] - span["start"]

    def named(name):
        return [s for s in spans if s["name"] == name]

    batches = named("engine.batch")
    sweep_of = {}
    for b in batches:
        sweeps = [c for c in children.get(b["id"], []) if c["name"] == "pool.sweep"]
        sweep_of[b["id"]] = sweeps[0] if sweeps else None

    by_request = {r["id"]: r for r in trace["requests"]}
    shard, sweep, dispatch, batch_ms, self_ms, queue, server, service = ([] for _ in range(8))
    for sample in samples:
        req = by_request.get(sample.request_id)
        if req is None or req["batch"] not in by_id:
            continue
        b = by_id[req["batch"]]
        sw = sweep_of.get(b["id"])
        wall = dur(sw) if sw else 0.0
        shard_s = sw["shard_s"] if sw else 0.0
        # Shard time on the critical path: the shards spread over the
        # pool's workers; inline and one-worker pools run them in series.
        critical = shard_s / max(1, min(sw["workers"], sw["shards"])) if sw else 0.0
        shard.append(shard_s)
        sweep.append(wall)
        dispatch.append(max(0.0, wall - critical))
        batch_ms.append(dur(b))
        self_ms.append(dur(b) - wall)
        if req["received"] is not None:
            queue.append(req["answered"] - req["received"] - dur(b))
        server.append(sample.service - dur(b))
        service.append(sample.service)

    gets = named("cache.get")
    encodes = [s for s in named("protocol.encode") if s["response"]]
    decodes = named("protocol.decode")
    loads = named("index.load")
    reloads = named("index.reload")
    appends = named("ingest.append")
    seals = []
    for s in named("ingest.ingest"):
        kids = children.get(s["id"], [])
        if any(k["name"] == "index.reload" for k in kids):
            seals.append(dur(s) - sum(dur(k) for k in kids if k["name"] == "ingest.append"))
    spreads = [max(b["lengths"]) / mean(b["lengths"]) for b in batches if b["lengths"]]
    sweep_ms = mean(sweep) * 1e3
    dispatch_ms = mean(dispatch) * 1e3
    encode_us = mean([dur(s) for s in encodes]) * 1e6
    decode_us = mean([dur(s) for s in decodes]) * 1e6
    attributed = mean(queue) + mean(batch_ms) + (encode_us + decode_us) * 1e-6
    return {
        "kernels.shard_ms": mean(shard) * 1e3,
        "pool.sweep_ms": sweep_ms,
        "pool.dispatch_ms": dispatch_ms,
        "pool.dispatch_frac": dispatch_ms / sweep_ms if sweep_ms > 0 else 0.0,
        "pool.retries": float(sum(s["retries"] for s in named("pool.sweep"))),
        "engine.batch_ms": mean(batch_ms) * 1e3,
        "engine.self_ms": mean(self_ms) * 1e3,
        "engine.batch_queries": mean([b["queries"] for b in batches]),
        "engine.batch_len_spread": mean(spreads),
        "cache.hit_rate": sum(s["hit"] for s in gets) / len(gets) if gets else 0.0,
        "cache.purged": float(sum(s["purged"] for s in named("cache.evict"))),
        "net.server_ms": mean(server) * 1e3,
        "net.queue_ms": mean(queue) * 1e3,
        "net.refused": float(len(named("net.error"))),
        "protocol.encode_us": encode_us,
        "protocol.decode_us": decode_us,
        "protocol.response_bytes": mean([s["bytes"] for s in encodes]),
        "index.load_s": dur(loads[0]) if loads else 0.0,
        "index.reloads": float(len(reloads)),
        "index.reload_ms": mean([dur(s) for s in reloads]) * 1e3,
        "ingest.append_ms": mean([dur(s) for s in appends]) * 1e3,
        "ingest.seal_ms": mean(seals) * 1e3,
        "ingest.seals": float(len(seals)),
        "ledger.unattributed_ms": (mean(service) - attributed) * 1e3,
    }


def bare_kernel(records, queries, shard_bp, batch: int, budget_s: float = 1.0):
    """Direct ``locate_batch`` on the workload's shard and query shapes.

    Sweeps distinct queries ``batch`` at a time over every shard (as
    the server sweeps one micro-batch) until ``budget_s`` of kernel
    time is spent, after one untimed warm-up call.  Returns MCUPS.
    """
    from repro.kernels import get_backend
    from repro.service import DatabaseIndex
    from repro.service.index import DEFAULT_SHARD_BP

    index = DatabaseIndex.build(records, shard_bp=shard_bp or DEFAULT_SHARD_BP)
    shards = [
        [payload for _, _, payload in shard.iter_records()] for shard in index.active_shards
    ]
    backend = get_backend("numpy-striped")
    backend.locate_batch(queries[:1], shards[0])
    distinct = list(dict.fromkeys(queries))
    seconds = 0.0
    cells = 0
    swept = 0
    for lo in range(0, len(distinct), batch):
        group = distinct[lo : lo + batch]
        t0 = time.perf_counter()
        for targets in shards:
            backend.locate_batch(group, targets)
        seconds += time.perf_counter() - t0
        cells += sum(len(q) for q in group) * index.total_bp
        swept += len(group)
        if seconds >= budget_s and swept >= 3:
            break
    return cells / seconds / 1e6


def fpga_prediction(queries, database_bp: int) -> tuple[float, float]:
    """``repro.core.timing``'s cycles x clock period for the same cells.

    Returns ``(seconds, mcups)`` on the paper-calibrated clock.
    """
    from repro.core.timing import PAPER_CLOCK, estimate_run

    seconds = 0.0
    cells = 0
    for query in queries:
        timing = estimate_run(len(query), database_bp, clock=PAPER_CLOCK)
        seconds += timing.total_seconds
        cells += timing.cells
    return seconds, cells / seconds / 1e6
