"""One benchmark run: inputs and oracle, set-up, load, ranking check, metrics.

An untraced run (:func:`run_untraced`) measures the end-to-end metrics
of ``BENCHMARK.json``.  A traced run (:func:`run_traced`) gives the
per-layer ledger: one untraced and one traced phase, each half the run,
plus a bare-kernel measurement outside the server.
"""

from __future__ import annotations

import asyncio
import contextlib
import itertools
import json
import os
import platform
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import harness
from ledger import bare_kernel, fpga_prediction, layer_metrics, percentile
from repro.io.fasta import write_fasta
from repro.service import QueryOptions
from workloads import (
    CONNECTIONS, MIN_SCORE, TOP, WORKLOADS, check_ranking, compute_oracle, generate,
    probe_records,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: An open-loop run whose sends lag their schedule by more than this
#: at p95 measured the generator, not the service: it is invalid.
LATE_LIMIT_MS = 50.0
#: Oracle worker processes (at most the two cores the runs assume).
ORACLE_PROCESSES = min(2, os.cpu_count() or 1)


@dataclass
class Outcome:
    """What one run reports."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    late: bool = False
    header: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0 and not self.late


def options(workload) -> QueryOptions:
    return QueryOptions(top=TOP, min_score=MIN_SCORE, deadline_ms=workload.deadline_ms)


async def load(workload, inputs, port: int, ids) -> harness.LoadResult:
    if workload.loop == "closed":
        return await harness.closed_loop(
            port, inputs.queries, options(workload), CONNECTIONS,
            inputs.seconds, ids,
        )
    return await harness.open_loop(
        port, inputs.queries, inputs.arrivals, inputs.ingest, options(workload),
        CONNECTIONS, ids,
    )


def prepare(workload, seed: int, seconds: float, workdir: Path, oracle=compute_oracle):
    """Inputs, FASTA and oracle for one run (all before any timing)."""
    inputs = generate(workload, seed, seconds)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs.fasta = workdir / "db.fasta"
    write_fasta(inputs.records, inputs.fasta)
    inputs.oracle = oracle(
        inputs.queries + [inputs.warm], inputs.records, str(SRC), ORACLE_PROCESSES, workdir
    )
    return inputs


def start(workload, inputs, workdir: Path, ids, spans: Path | None = None,
          ingest: bool = False):
    """FASTA to first answered request: ``repro index`` plus server start.

    ``ingest`` turns on WAL ingest with one seal/publish per record.
    Returns the running server and the set-up seconds.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    serve_args = workload.serve_args
    if ingest:
        serve_args += ("--ingest-dir", str(workdir / "ingest"), "--seal-every", "1")
    t0 = time.perf_counter()
    index = workdir / "db.idx"
    harness.build_index(SRC, inputs.fasta, index, workload.shard_bp)
    server = harness.Server(SRC, index, workdir, serve_args, spans)
    try:
        frame = asyncio.run(harness.first_answer(server.port, inputs.warm, options(workload), ids))
        if frame.get("type") != "response":
            raise RuntimeError(f"first request failed: {frame}")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0


def check(inputs, result: harness.LoadResult, outcome: Outcome) -> None:
    """Every response against the oracle; every failure counted."""
    live = {name: seq for _, name, seq in inputs.ingest}
    outcome.attempted += len(result.samples) + len(inputs.ingest)
    outcome.failed += len(inputs.ingest) - len(result.ingested)
    for sample in result.samples:
        if not sample.ok:
            outcome.failed += 1
            frame = sample.frame
            outcome.notes.append(f"request failed: {frame.get('code')} {frame.get('message')}")
        elif not check_ranking(
            harness.rows_of(sample.frame), inputs.oracle[sample.query], live, sample.query
        ):
            outcome.failed += 1
            outcome.mismatches += 1
            outcome.notes.append(f"ranking mismatch for query {sample.query[:24]}...")


def mark_late(outcome: Outcome, late_p95_ms: float) -> None:
    """A generator that fell behind its schedule makes the run invalid."""
    if late_p95_ms > LATE_LIMIT_MS:
        outcome.late = True
        outcome.notes.append(
            f"invalid run: sends lagged their schedule by {late_p95_ms:.1f} ms at p95"
        )


def client_figures(workload, inputs, result: harness.LoadResult) -> dict[str, float]:
    """Client-side figures of one load phase (latencies in ms)."""
    ok = [s for s in result.samples if s.ok]
    latencies = [s.latency * 1e3 for s in result.samples]
    # Short: the workload's base query length.  Long: anything longer,
    # or every query when all have the base length.
    short = [s.latency * 1e3 for s in result.samples if len(s.query) <= workload.query_bp]
    long = [s.latency * 1e3 for s in result.samples if len(s.query) > workload.query_bp]
    long = long or latencies
    cells = sum(len(s.query) for s in ok) * inputs.database_bp
    return {
        "qps": len(ok) / result.elapsed,
        "e2e_mcups": cells / result.elapsed / 1e6,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "short_p95_ms": percentile(short, 95),
        "long_p50_ms": percentile(long, 50),
        "ingest_ack_p50_ms": percentile([a * 1e3 for a in result.ingest_acks], 50),
        "late_p95_ms": percentile([s.late * 1e3 for s in result.samples], 95),
        "mean_service_ms": sum(s.service for s in ok) * 1e3 / max(1, len(ok)),
    }


def header(workload, inputs, seed: int, seconds: float, trace: int) -> dict:
    lengths = sorted({len(q) for q in inputs.queries})
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel": "numpy-striped",
        "database_records": len(inputs.records),
        "database_bp": inputs.database_bp,
        "query_bp": [lengths[0], lengths[-1]],
        "queries_prepared": len(inputs.queries),
        "loop": workload.loop,
        "connections": CONNECTIONS,
    }


def paper_row(queries, database_bp: int, bare_mcups: float | None, e2e_mcups: float) -> dict:
    """The run's useful cells next to ``repro.core.timing``'s FPGA prediction."""
    fpga_s, fpga_mcups = fpga_prediction(queries, database_bp)
    row = {
        "useful_cells": sum(len(q) for q in queries) * database_bp,
        "fpga_predicted_s": fpga_s,
        "fpga_predicted_mcups": fpga_mcups,
        "e2e_mcups": e2e_mcups,
    }
    if bare_mcups is not None:
        row["bare_kernel_mcups"] = bare_mcups
        row["vs_fpga"] = bare_mcups / fpga_mcups
    return row


def run_untraced(workload, seed: int, seconds: float, work: Path,
                 oracle=compute_oracle, load_fn=load) -> Outcome:
    inputs = prepare(workload, seed, seconds, work / "inputs", oracle)
    outcome = Outcome(header=header(workload, inputs, seed, seconds, 0))
    ids = itertools.count(1)
    setups = []
    server = None
    try:
        for k in range(SETUPS):
            if server is not None:
                server.stop()
                server = None
            server, setup_s = start(
                workload, inputs, work / f"setup{k}", ids, ingest=bool(inputs.ingest)
            )
            setups.append(setup_s)
        result = asyncio.run(load_fn(workload, inputs, server.port, ids))
        peak_rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    check(inputs, result, outcome)
    figures = client_figures(workload, inputs, result)
    mark_late(outcome, figures["late_p95_ms"])
    outcome.metrics = {
        "setup_s": statistics.median(setups),
        "qps": figures["qps"],
        "e2e_mcups": figures["e2e_mcups"],
        "latency_p50_ms": figures["latency_p50_ms"],
        "latency_p95_ms": figures["latency_p95_ms"],
        "peak_rss_mb": peak_rss,
    }
    answered = [s.query for s in result.samples if s.ok]
    outcome.header["requests"] = len(result.samples)
    outcome.header["failed_frac"] = outcome.failed / max(1, outcome.attempted)
    outcome.header["paper_row"] = paper_row(
        answered, inputs.database_bp, None, figures["e2e_mcups"]
    )
    if workload.loop == "open":
        for key in ("short_p95_ms", "long_p50_ms", "ingest_ack_p50_ms", "late_p95_ms"):
            outcome.header[key] = figures[key]
    return outcome


def run_traced(workload, seed: int, seconds: float, work: Path,
               oracle=compute_oracle) -> Outcome:
    """Per-layer ledger: an untraced and a traced phase of ``seconds / 2``."""
    inputs = prepare(workload, seed, seconds / 2, work / "inputs", oracle)
    outcome = Outcome(header=header(workload, inputs, seed, seconds, 1))
    batch = CONNECTIONS if workload.loop == "closed" else 1
    bare_mcups = bare_kernel(inputs.records, inputs.queries, workload.shard_bp, batch)
    ids = itertools.count(1)
    phases = {}
    for phase in ("untraced", "traced"):
        workdir = work / phase
        spans = workdir / "spans.json" if phase == "traced" else None
        server, _ = start(workload, inputs, workdir, ids, spans, ingest=bool(inputs.ingest))
        try:
            result = asyncio.run(load(workload, inputs, server.port, ids))
        finally:
            server.stop()
        check(inputs, result, outcome)
        phases[phase] = (result, client_figures(workload, inputs, result))
    plain, traced = phases["untraced"][1], phases["traced"][1]
    mark_late(outcome, max(plain["late_p95_ms"], traced["late_p95_ms"]))
    trace = json.loads((work / "traced" / "spans.json").read_text())
    ingest_trace, acks = trace, phases["untraced"][0].ingest_acks
    if not inputs.ingest:
        ingest_trace, acks = ingest_probe(workload, inputs, seed, work / "probe", ids)
    ingest_layers = layer_metrics(ingest_trace, [])
    answered = [s.query for s in phases["untraced"][0].samples if s.ok]
    row = paper_row(answered, inputs.database_bp, bare_mcups, plain["e2e_mcups"])
    metrics = layer_metrics(trace, phases["traced"][0].samples)
    metrics.update({
        "kernels.bare_mcups": bare_mcups,
        "kernels.vs_fpga": row["vs_fpga"],
        "ledger.e2e_over_kernel": plain["e2e_mcups"] / bare_mcups,
        "trace.overhead_frac": traced["mean_service_ms"] / plain["mean_service_ms"] - 1.0,
        "loadgen.late_p95_ms": plain["late_p95_ms"],
        "loadgen.failed_frac": outcome.failed / max(1, outcome.attempted),
        "loadgen.short_p95_ms": plain["short_p95_ms"],
        "loadgen.long_p50_ms": plain["long_p50_ms"],
        "ingest.ack_p50_ms": percentile([a * 1e3 for a in acks], 50),
    })
    for key in ("index.reload_ms", "ingest.append_ms", "ingest.seal_ms"):
        metrics[key] = ingest_layers[key]
    outcome.metrics = metrics
    outcome.header["paper_row"] = row
    return outcome


def ingest_probe(workload, inputs, seed: int, workdir: Path, ids):
    """Ingest and reload cost for a workload whose traffic ingests nothing.

    Ingests a few records, one seal/publish each, into an otherwise idle
    traced server over the workload's database.  Returns the spans and
    the ack latencies.
    """
    spans = workdir / "spans.json"
    server, _ = start(workload, inputs, workdir, ids, spans, ingest=True)
    try:
        acks = asyncio.run(harness.ingest_probe(server.port, probe_records(seed), ids))
    finally:
        server.stop()
    return json.loads(spans.read_text()), acks


def run(workload_name: str, seed: int, seconds: float, trace: int, **hooks) -> Outcome:
    """One run in a scratch directory of the checkout, removed afterwards.

    ``hooks`` (``oracle=``, ``load_fn=``) replace the oracle or the load
    generator; the self-tests use them to corrupt or break a run.
    """
    workload = WORKLOADS[workload_name]
    work = ROOT / ".perfbench_work" / f"{workload_name}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        if trace:
            return run_traced(workload, seed, seconds, work, **hooks)
        return run_untraced(workload, seed, seconds, work, **hooks)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
