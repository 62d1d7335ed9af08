"""Experiments S1 + KB1 — software kernel design space and backends.

**S1** (the baseline's anatomy): the paper's speedup denominator is
"an optimized C program"; our stand-in is the NumPy row sweep.  The S1
tests measure how much each software implementation level buys — pure
Python loops, the vectorized scan kernel, the generic-DP engine — in
CUPS on the same workload, quantifying why the vectorized kernel is
the fair baseline (matching the HPC guidance: measure before
claiming).

**KB1** (kernel backends): the :mod:`repro.kernels` registry promises
that the ``numpy-striped`` backend is a drop-in for the reference row
sweep — bit-identical ``(score, i, j)`` — while being an order of
magnitude faster on the short-record batch workload the serving stack
actually runs (many queries × many database records per shard sweep).
KB1 pins both halves of that promise:

* **identity** — every backend under test returns identical hits over
  the whole workload (a smoke-scale version of the Hypothesis
  cross-backend property tests);
* **throughput** — sustained CUPS of one ``locate_batch`` call over
  the full query × record cross product, best of ``REPEATS`` passes,
  on two shapes: many short records (what a shard sweep mostly holds)
  and a few long ones (2 × 100 bp queries against 12 records of
  2–5 kbp, the perfbench ``kernel-long`` shape).  Acceptance:
  ``numpy-striped`` is at least :data:`MIN_SPEEDUP`× the reference
  backend on the short shape and :data:`MIN_LONG_SPEEDUP`× on the
  long one.

Alongside the printed tables a direct run writes ``BENCH_kernels.json``
via :mod:`repro.analysis.results`: the short shape's figures at the
top level and the long shape's under ``"long"``.  ``python
benchmarks/bench_kernels.py --tiny`` runs a seconds-scale smoke for CI;
``--check-against PATH`` additionally compares both measured speedups
against a committed baseline JSON and fails on a >20% regression of
either.
"""

import time

from repro.align.generic_dp import smith_waterman_recurrence, sweep
from repro.align.smith_waterman import sw_locate_best
from repro.analysis.cups import format_cups, measure_cups
from repro.analysis.report import render_table
from repro.analysis.results import write_bench_json
from repro.baselines.software import locate_pure
from repro.io.generate import random_dna
from repro.kernels import get_backend

M, N = 100, 3_000
QUERY = random_dna(M, seed=181)
DB = random_dna(N, seed=182)

#: KB1 backends under test: the denominator first, then the challenger.
BACKENDS = ("reference", "numpy-striped")
REPEATS = 3
#: Acceptance floor: striped must sustain at least this multiple of
#: the reference backend's CUPS on the KB1 workload.
MIN_SPEEDUP = 10.0
#: The same floor on the long-record shape, where the reference
#: kernel's per-row vectors are already long (the int64 striped sweep
#: with a cumulative-max scan ran at 0.7-0.9x the reference here).
MIN_LONG_SPEEDUP = 2.0
#: ``(queries, query_bp, records, record_bp)`` per mode and shape;
#: ``record_bp`` is a length or an inclusive ``(shortest, longest)``.
SHAPES = {
    "full": {"short": (8, 64, 240, 128), "long": (2, 100, 12, (2_000, 5_000))},
    "tiny": {"short": (6, 64, 200, 96), "long": (2, 100, 8, (1_500, 3_000))},
}
#: ``--check-against`` tolerance: the measured speedup may drop at
#: most this fraction below the committed baseline's.
REGRESSION_TOLERANCE = 0.20


# ----------------------------------------------------------------------
# S1 — implementation levels, single pair
# ----------------------------------------------------------------------
def test_s1_numpy_kernel(benchmark):
    hit = benchmark(sw_locate_best, QUERY, DB)
    assert hit.score > 0


def test_s1_pure_python(benchmark):
    hit = benchmark(locate_pure, QUERY, DB)
    assert hit.score > 0


def test_s1_generic_dp(benchmark):
    result = benchmark(sweep, smith_waterman_recurrence(), QUERY, DB)
    assert result.value > 0


def test_s1_kernel_hierarchy(benchmark):
    def compare():
        cells = M * N
        rows = []
        for label, fn in (
            ("NumPy row sweep (baseline)", lambda: sw_locate_best(QUERY, DB)),
            ("pure Python loops", lambda: locate_pure(QUERY, DB)),
            ("generic-DP engine", lambda: sweep(smith_waterman_recurrence(), QUERY, DB)),
        ):
            t = measure_cups(fn, cells, label)
            rows.append([label, format_cups(t.cups)])
        return rows

    rows = benchmark.pedantic(compare, rounds=1, iterations=1)
    print()
    print(render_table(["implementation", "throughput"], rows, title="S1: software kernels"))
    # The vectorized kernel must dominate by a large factor — the
    # reason it stands in for the paper's optimized C.
    assert "CUPS" in rows[0][1]


# ----------------------------------------------------------------------
# KB1 — batched backend sweep
# ----------------------------------------------------------------------
def _build_workload(n_queries, query_bp, n_records, record_bp, seed=500):
    """Random DNA; record lengths evenly spaced over ``record_bp``."""
    lo, hi = record_bp if isinstance(record_bp, tuple) else (record_bp, record_bp)
    step = (hi - lo) // max(1, n_records - 1)
    queries = [random_dna(query_bp, seed=seed + i) for i in range(n_queries)]
    records = [random_dna(lo + i * step, seed=seed + 100 + i) for i in range(n_records)]
    return queries, records


def _time_backend(name, queries, records, repeats=REPEATS):
    """Best-of-``repeats`` sustained CUPS of one full batch sweep."""
    backend = get_backend(name)
    cells = sum(len(q) for q in queries) * sum(len(t) for t in records)
    # Untimed warmup: first-call costs (allocator, import, cache
    # population) belong to neither backend's sustained figure.
    backend.locate_batch(queries[:1], records[:2])
    best_wall = None
    hits = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = backend.locate_batch(queries, records)
        wall = time.perf_counter() - t0
        if best_wall is None or wall < best_wall:
            best_wall = wall
            hits = out
    return {
        "cells": cells,
        "wall_seconds": best_wall,
        "cups": cells / best_wall if best_wall > 0 else 0.0,
    }, hits


def run_kb1(queries, records, repeats=REPEATS, min_speedup=MIN_SPEEDUP):
    """The KB1 comparison on one shape; returns (rows, json payload)."""
    runs = {}
    reference_hits = None
    for name in BACKENDS:
        run, hits = _time_backend(name, queries, records, repeats=repeats)
        runs[name] = run
        if reference_hits is None:
            reference_hits = hits
        else:
            # The identity half of the contract, checked on the same
            # workload the throughput half measures.
            assert hits == reference_hits, (
                f"backend {name!r} disagrees with {BACKENDS[0]!r} on this workload"
            )
    speedup = runs["numpy-striped"]["cups"] / runs[BACKENDS[0]]["cups"]
    payload = {
        "experiment": "KB1",
        "queries": len(queries),
        "query_bp": len(queries[0]),
        "records": len(records),
        "record_bp": [min(map(len, records)), max(map(len, records))],
        "repeats": repeats,
        "min_speedup": min_speedup,
        "runs": runs,
        "speedup": speedup,
    }
    rows = [
        [name, f"{run['cells']:,}", f"{run['wall_seconds']:.4f}", format_cups(run["cups"])]
        for name, run in runs.items()
    ]
    rows.append(["speedup", "-", "-", f"{speedup:.1f}x"])
    assert speedup >= min_speedup, (
        f"numpy-striped sustains only {speedup:.1f}x the reference backend "
        f"(acceptance floor {min_speedup:.0f}x)"
    )
    return rows, payload


def run_shapes(mode):
    """KB1 on both shapes of ``mode``; prints the tables, returns the payload."""
    floors = {"short": MIN_SPEEDUP, "long": MIN_LONG_SPEEDUP}
    payload = {}
    for shape, (n_q, q_bp, n_r, r_bp) in SHAPES[mode].items():
        queries, records = _build_workload(n_q, q_bp, n_r, r_bp)
        rows, shape_payload = run_kb1(queries, records, min_speedup=floors[shape])
        print(
            render_table(
                ["backend", "cells", "seconds", "sustained"],
                rows,
                title=f"KB1 {shape}: {n_q} queries x {n_r} records",
            )
        )
        if shape == "short":
            payload.update(shape_payload)
        else:
            payload[shape] = shape_payload
    return payload


def check_against(payload, baseline_path):
    """Fail when either measured speedup regressed >20% vs the baseline.

    Returns ``[(label, measured, committed, floor)]`` per shape.
    """
    import json

    with open(baseline_path) as fh:
        baseline = json.load(fh)
    checks = []
    for label, measured, committed in (
        ("short", payload["speedup"], baseline["speedup"]),
        ("long", payload["long"]["speedup"], baseline["long"]["speedup"]),
    ):
        floor = committed * (1.0 - REGRESSION_TOLERANCE)
        if measured < floor:
            raise AssertionError(
                f"{label}-record speedup regressed: measured {measured:.1f}x vs "
                f"committed baseline {committed:.1f}x (floor {floor:.1f}x)"
            )
        checks.append((label, measured, committed, floor))
    return checks


def test_kb1_striped_speedup(benchmark):
    print()
    payload = benchmark.pedantic(lambda: run_shapes("full"), rounds=1, iterations=1)
    write_bench_json("kernels", payload)


def main(argv=None):
    """Direct (non-pytest) entry point: ``--tiny`` for the CI smoke run."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="seconds-scale smoke workload (CI: same acceptance floor)",
    )
    parser.add_argument(
        "--check-against",
        metavar="PATH",
        default=None,
        help="committed baseline JSON; fail if either speedup regressed >20%% vs it",
    )
    args = parser.parse_args(argv)
    payload = run_shapes("tiny" if args.tiny else "full")
    if args.check_against is not None:
        for label, measured, committed, floor in check_against(
            payload, args.check_against
        ):
            print(
                f"baseline check ok ({label}): {measured:.1f}x >= floor "
                f"{floor:.1f}x (committed {committed:.1f}x)"
            )
    write_bench_json("kernels", payload)
    return 0


if __name__ == "__main__":
    import sys

    sys.exit(main())
