"""Self-tests of the benchmark in tiny sizes (two-second runs).

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import harness  # noqa: E402
import bench  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SECONDS = 2


def _cli(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def _session_members(sid: int) -> list[int]:
    """Live processes in session ``sid`` (each server leads its own)."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[3]) == sid and fields[0] != "Z":
            members.append(int(entry))
    return members


def _children(ppid: int) -> list[int]:
    """Live child processes of ``ppid`` (oracle workers, index builds)."""
    kids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == ppid and fields[0] != "Z":
            kids.append(int(entry))
    return kids


@pytest.fixture
def servers(monkeypatch):
    """Every server process a run starts, for leak checks."""
    started: list[int] = []
    real = harness.Server.__init__

    def tracking(self, *args, **kwargs):
        real(self, *args, **kwargs)
        started.append(self.pid)

    monkeypatch.setattr(harness.Server, "__init__", tracking)
    return started


def _assert_nothing_left(started: list[int]) -> None:
    assert started, "the run started no server"
    for pid in started:
        assert _session_members(pid) == [], f"server session {pid} left processes behind"
    assert _children(os.getpid()) == []


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    done = _cli("--workload", workload, "--seed", "3", "--seconds", str(TINY_SECONDS),
                "--trace", str(trace))
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_check_ranking_exact_and_with_live_records():
    expected = [(f"rec{k}", 30 - k, k, k) for k in range(10)]
    assert workloads.check_ranking(list(expected), expected)
    swapped = [expected[1], expected[0], *expected[2:]]
    assert not workloads.check_ranking(swapped, expected)
    off_by_one = [(*expected[0][:3], expected[0][3] + 1), *expected[1:]]
    assert not workloads.check_ranking(off_by_one, expected)
    query = "ACGTACGTAC" * 3
    live_seq = query  # an exact copy outranks every base record
    live_row = workloads.pair_row(query, "live0", live_seq)
    got = [live_row, *expected[:9]]
    assert workloads.check_ranking(got, expected, {"live0": live_seq}, query)
    wrong = [(live_row[0], live_row[1] - 1, *live_row[2:]), *expected[:9]]
    assert not workloads.check_ranking(wrong, expected, {"live0": live_seq}, query)


def test_ranking_check_fails_against_a_corrupted_oracle(servers):
    def corrupted(*args):
        oracle = workloads.compute_oracle(*args)
        for rows in oracle.values():
            name, score, i, j = rows[0]
            rows[0] = (name, score, i, j + 1)
        return oracle

    outcome = bench.run("kernel-long", 5, TINY_SECONDS, 0, oracle=corrupted)
    assert not outcome.correct
    assert outcome.mismatches == outcome.failed > 0
    _assert_nothing_left(servers)


def test_no_process_left_after_a_normal_run(servers):
    outcome = bench.run("pool-short", 6, TINY_SECONDS, 0)
    assert outcome.correct
    _assert_nothing_left(servers)


def test_no_process_left_after_a_load_generator_exception(servers):
    async def broken(workload, inputs, port, ids):
        await harness.first_answer(port, inputs.queries[0], bench.options(workload), ids)
        raise RuntimeError("load generator failed")

    with pytest.raises(RuntimeError, match="load generator failed"):
        bench.run("pool-short", 7, TINY_SECONDS, 0, load_fn=broken)
    _assert_nothing_left(servers)


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _cli("--workload", "pool-short", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
