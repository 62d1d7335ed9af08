"""Repository benchmark: the TCP search service driven from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pool-short --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # every workload in turn

Each run generates its inputs from ``--seed``, computes the reference
oracle for every query, builds the index with ``repro index``, starts
``repro serve --tcp`` as its own process, loads it from this process
over two connections and checks every ranking.  ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` reports the
per-layer ledger (see ``bench.run_traced``).  The last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is non-zero on any ranking mismatch, failed
request or late load generator.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Human-readable extras printed after the metrics (not in the JSON).
EXTRAS = {"failed_frac": "", "short_p95_ms": "ms", "long_p50_ms": "ms",
          "ingest_ack_p50_ms": "ms", "late_p95_ms": "ms"}


def render(outcome, units: dict[str, str]) -> list[str]:
    lines = [f"# run {json.dumps(outcome.header, sort_keys=True)}"]
    for name, value in outcome.metrics.items():
        lines.append(f"{name:>26} : {value:.6g} {units[name]}")
    for name, unit in EXTRAS.items():
        if name in outcome.header:
            lines.append(f"{name:>26} : {outcome.header[name]:.6g} {unit}")
    row = outcome.header["paper_row"]
    text = (
        f"{row['useful_cells']:,} useful cells; FPGA cycles x clock period "
        f"{row['fpga_predicted_s']:.4g} s = {row['fpga_predicted_mcups']:.1f} MCUPS; "
        f"service {row['e2e_mcups']:.1f} MCUPS"
    )
    if "vs_fpga" in row:
        text += f"; bare kernel {row['bare_kernel_mcups']:.1f} MCUPS, kernels.vs_fpga {row['vs_fpga']:.4f}"
    lines.append(f"{'paper row':>26} : {text}")
    lines += [f"note: {n}" for n in outcome.notes[:10]]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not SPEC_PATH.is_file() or not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no repository to benchmark "
              "(need BENCHMARK.json and src/repro)", file=sys.stderr)
        return 2
    spec = json.loads(SPEC_PATH.read_text())
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    names = list(bench.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in bench.WORKLOADS for name in names):
        parser.error(f"--workload must be one of {', '.join(bench.WORKLOADS)} or all")
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    outcomes = {}
    for name in names:
        outcomes[name] = bench.run(name, args.seed, seconds, args.trace)
        print("\n".join(render(outcomes[name], units)), flush=True)

    def label(name: str, metric: str) -> str:
        return metric if len(names) == 1 else f"{name}/{metric}"

    summary = {
        "correct": all(o.correct for o in outcomes.values()),
        "attempted": sum(o.attempted for o in outcomes.values()),
        "failed": sum(o.failed for o in outcomes.values()),
        "metrics": {
            label(name, metric): {"value": value, "unit": units[metric]}
            for name, outcome in outcomes.items()
            for metric, value in outcome.metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
