"""Workload definitions, seeded input generation and the ranking oracle.

Every input is a pure function of ``(workload, seed, seconds)``.  Sizes
are fixed and only sequence content and order depend on the seed, so the
cost of a run does not drift from seed to seed: record and query lengths
come from fixed, seed-shuffled sets, and the open-loop arrival schedule
is one fixed draw of the workload.

The oracle is :func:`repro.scan.scan_database` on the ``reference``
kernel, computed for every distinct query before any timed section.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

#: Response rows are compared on these fields, in rank order.
Row = tuple[str, int, int, int]  # (record, score, i, j)

TOP = 10
MIN_SCORE = 1
#: Run length (``run_seconds``) the closed-loop query budgets are sized for.
FULL_SECONDS = 15.0
#: Client connections: one per core of the two-core machine the load
#: generator shares with the server.
CONNECTIONS = 2
#: Length of each record the mixed-ingest stream ingests.
INGEST_BP = 300


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one generated database."""

    name: str
    records: int  # database records
    record_bp: tuple[int, int]  # record lengths, evenly spaced in [lo, hi]
    shard_bp: int | None  # `repro index --shard-bp`; None = one shard
    serve_args: tuple[str, ...]  # extra `repro serve` flags
    loop: str  # "closed" or "open"
    query_bp: int  # the common (short) query length
    max_queries: int = 0  # closed loop: unique queries per FULL_SECONDS of run
    # Open-loop (mixed-ingest) knobs.
    rate: float = 0.0  # offered requests per second
    long_every: int = 0  # every n-th request is a long query
    long_bp: tuple[int, int] = (0, 0)
    hot_set: int = 0  # distinct hot short queries
    deadline_ms: int | None = None
    ingest_per_second: float = 0.0


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Why each workload exists is stated in BENCHMARK.json.
        # pool-short: 200 x 300 bp in 8 shards, so each shard sweep is cheap
        # and forking a supervised worker per shard dominates a request.
        Workload(
            name="pool-short",
            records=200,
            record_bp=(300, 300),
            shard_bp=7_500,
            serve_args=("--workers", "1", "--retries", "1"),
            loop="closed",
            query_bp=48,
            max_queries=235,
        ),
        # kernel-long: 12 records of 2-5 kbp (42 kbp), one shard, inline
        # sweep.  Sized so a 15 s run answers ~200 requests and the
        # reference oracle for them fits the run's time budget.
        Workload(
            name="kernel-long",
            records=12,
            record_bp=(2_000, 5_000),
            shard_bp=None,
            serve_args=(),
            loop="closed",
            query_bp=100,
            max_queries=240,
        ),
        # mixed-ingest: a query micro-batched with a long one is padded to
        # its length, so the latency tail follows how many short queries
        # land behind each long query.  A 9 kbp database keeps such a batch
        # near 0.1 s at 14 requests/s.  One query in 16 is long, so p95
        # falls inside the long queries, not on the edge between classes.
        # Three 300 bp ingests (10% of the database) give three
        # seal/publish cycles per 15 s run.
        Workload(
            name="mixed-ingest",
            records=30,
            record_bp=(300, 300),
            shard_bp=None,
            serve_args=(),
            loop="open",
            query_bp=48,
            rate=14.0,
            long_every=16,
            long_bp=(1_000, 2_000),
            hot_set=8,
            deadline_ms=10_000,
            ingest_per_second=0.2,
        ),
    )
}


@dataclass
class Inputs:
    """Everything the program receives for one run, plus the oracle."""

    records: list[tuple[str, str]]
    queries: list[str]  # closed loop: send order; open loop: one per arrival
    arrivals: list[float] = field(default_factory=list)  # open loop, seconds
    ingest: list[tuple[float, str, str]] = field(default_factory=list)  # (due, name, seq)
    oracle: dict[str, list[Row]] = field(default_factory=dict)
    seconds: float = 0.0  # run length
    warm: str = ""  # the set-up's first request, not sent again
    fasta: Path | None = None

    @property
    def database_bp(self) -> int:
        return sum(len(s) for _, s in self.records)


def _dna(rng: random.Random, n: int) -> str:
    return "".join(rng.choices("ACGT", k=n))


def probe_records(seed: int) -> list[tuple[str, str]]:
    """Three records a traced run ingests into an idle server when the
    workload's own traffic has no ingest stream."""
    rng = random.Random(f"probe:{seed}")
    return [(f"probe{k:04d}", _dna(rng, INGEST_BP)) for k in range(3)]


def _spaced(lo: int, hi: int, n: int) -> list[int]:
    """``n`` lengths evenly spaced over ``[lo, hi]`` (seed-independent)."""
    if n == 1:
        return [(lo + hi) // 2]
    return [lo + (hi - lo) * k // (n - 1) for k in range(n)]


def generate(workload: Workload, seed: int, seconds: float) -> Inputs:
    """The run's database, queries, arrival schedule and ingest stream."""
    rng = random.Random(f"{workload.name}:{seed}")
    lengths = _spaced(*workload.record_bp, workload.records)
    rng.shuffle(lengths)
    records = [(f"rec{k:04d}", _dna(rng, n)) for k, n in enumerate(lengths)]
    warm = _dna(rng, workload.query_bp)
    if workload.loop == "closed":
        budget = max(8, round(workload.max_queries * seconds / FULL_SECONDS))
        queries = [_dna(rng, workload.query_bp) for _ in range(budget)]
        return Inputs(records=records, queries=queries, seconds=seconds, warm=warm)
    # Open loop: a Poisson process conditioned on its count, so every
    # seed offers exactly the same number of requests in the window.
    # The arrival instants and the long-query order are one fixed draw
    # of the workload (common to every seed); the seed varies the
    # sequences.  Run-to-run spread then measures the service, not
    # which seed happened to bunch its long queries together.
    schedule = random.Random(f"{workload.name}:schedule:{seconds}")
    count = max(1, round(workload.rate * seconds))
    arrivals = sorted(schedule.uniform(0.0, seconds) for _ in range(count))
    n_long = len(range(workload.long_every - 1, count, workload.long_every))
    long_lengths = _spaced(*workload.long_bp, max(1, n_long))
    schedule.shuffle(long_lengths)
    hot = [_dna(rng, workload.query_bp) for _ in range(workload.hot_set)]
    queries = []
    for k in range(count):
        if (k + 1) % workload.long_every == 0:
            queries.append(_dna(rng, long_lengths[(k + 1) // workload.long_every - 1]))
        elif k % 2 == 0 and hot:
            queries.append(hot[(k // 2) % len(hot)])
        else:
            queries.append(_dna(rng, workload.query_bp))
    n_ingest = max(1, round(workload.ingest_per_second * seconds))
    step = seconds / (n_ingest + 1)
    ingest = [
        (step * (k + 1), f"live{k:04d}", _dna(rng, INGEST_BP))
        for k in range(n_ingest)
    ]
    return Inputs(
        records=records, queries=queries, arrivals=arrivals, ingest=ingest,
        seconds=seconds, warm=warm,
    )


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def oracle_rows(query: str, records: list[tuple[str, str]]) -> list[Row]:
    """The reference ranking of one query (what every response must equal)."""
    from repro.scan import scan_database

    report = scan_database(
        query, records, kernel="reference", top=TOP, min_score=MIN_SCORE, retrieve=0
    )
    return [(h.record, h.hit.score, h.hit.i, h.hit.j) for h in report.hits]


def compute_oracle(
    queries: list[str], records: list[tuple[str, str]], src: str, processes: int,
    workdir: Path,
) -> dict[str, list[Row]]:
    """Reference rankings for every distinct query, over ``processes`` workers.

    Each worker is this file run as a script on its share of the
    queries; all of them have exited when this returns.
    """
    distinct = sorted(set(queries), key=len, reverse=True)
    env = dict(os.environ, PYTHONPATH=src)
    workers: list[tuple[subprocess.Popen, Path]] = []
    try:
        for k in range(processes):
            job, out = workdir / f"oracle{k}.json", workdir / f"oracle{k}.out.json"
            job.write_text(json.dumps({"records": records, "queries": distinct[k::processes]}))
            proc = subprocess.Popen([sys.executable, __file__, str(job), str(out)], env=env)
            workers.append((proc, out))
        for proc, _ in workers:
            if proc.wait() != 0:
                raise RuntimeError(f"oracle worker exited with {proc.returncode}")
    finally:
        for proc, _ in workers:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    oracle: dict[str, list[Row]] = {}
    for _, out in workers:
        for query, rows in json.loads(out.read_text()).items():
            oracle[query] = [tuple(row) for row in rows]
    return oracle


def pair_row(query: str, name: str, sequence: str) -> Row:
    """The reference hit of one query against one (ingested) record."""
    from repro.kernels import get_backend

    hit = get_backend("reference").locate(query.upper(), sequence.upper())
    return (name, hit.score, hit.i, hit.j)


def check_ranking(
    got: list[Row],
    expected: list[Row],
    live: dict[str, str] | None = None,
    query: str = "",
) -> bool:
    """Does one response's ranking agree with the oracle?

    With no live records the ranking must equal the oracle exactly.  A
    response may also rank records ingested during the run (``live``,
    name to sequence): each such row must equal its own reference pair
    hit, and the base records must be exactly the oracle's ranking,
    cut to the rows the live ones left.
    """
    live = live or {}
    base = [row for row in got if row[0] not in live]
    extra = [row for row in got if row[0] in live]
    if extra:
        if len(got) != min(TOP, len(expected) + len(extra)):
            return False
        for row in extra:
            if row != pair_row(query, row[0], live[row[0]]):
                return False
        order = [(-row[1]) for row in got]
        if order != sorted(order):
            return False
    return base == expected[: len(base)] and len(base) == min(len(expected), TOP - len(extra))


if __name__ == "__main__":
    # Oracle worker: ``workloads.py JOB.json OUT.json``.
    job = json.loads(Path(sys.argv[1]).read_text())
    records = [tuple(r) for r in job["records"]]
    ranked = {q: oracle_rows(q, records) for q in job["queries"]}
    Path(sys.argv[2]).write_text(json.dumps(ranked))
