"""The serving path loads neither scipy nor networkx.

scipy is needed only by E-value statistics and networkx only by the
figure-6 datapath model, and both are imported on first use.  So
``repro index``, ``repro serve``, ``repro query`` and every forked pool
worker import neither, which keeps their start-up time and resident
memory small (EXPERIMENTS.md, CS1).  One test checks ``sys.modules``
after the serving imports; the other runs the whole index / serve /
query flow with both modules made unimportable.
"""

from __future__ import annotations

import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.io.fasta import FastaRecord, write_fasta
from repro.io.generate import mutate, random_dna
from repro.scan import scan_database

SRC = str(Path(repro.__file__).resolve().parent.parent)
BLOCKER = 'import sys\nsys.modules["scipy"] = sys.modules["networkx"] = None\n'


def _env(*paths: str) -> dict[str, str]:
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join([*paths, SRC, *filter(None, [inherited])]))


def _children(pid: int) -> set[int]:
    found = set()
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            found.add(int(stat.parent.name))
    return found


def _alive(pid: int) -> bool:
    try:
        state = Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except OSError:
        return False
    return state != "Z"


def test_serving_imports_load_neither_scipy_nor_networkx():
    code = (
        "import sys, repro.cli, repro.service, repro.service.net, repro.kernels\n"
        "print(sorted(m for m in ('scipy', 'networkx') if m in sys.modules))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="needs /proc")
def test_index_serve_query_run_with_scipy_and_networkx_unimportable(tmp_path):
    block = tmp_path / "block"
    block.mkdir()
    (block / "sitecustomize.py").write_text(BLOCKER)
    env = _env(str(block))
    probe = subprocess.run(
        [sys.executable, "-c", "import scipy"], env=env, capture_output=True, timeout=60
    )
    assert probe.returncode != 0, "the blocker did not take effect"

    query = random_dna(60, seed=201)
    records = []
    for i in range(8):
        seq = random_dna(250, seed=300 + i)
        if i == 3:
            planted = mutate(query, rate=0.05, seed=400)
            seq = seq[:80] + planted + seq[80 + len(planted):]
        records.append(FastaRecord(f"rec{i}", seq))
    write_fasta(records, path=str(tmp_path / "db.fasta"))
    cli = [sys.executable, "-m", "repro"]
    subprocess.run(
        cli + ["index", "db.fasta", "--out", "db.npz", "--shard-bp", "500"],
        cwd=tmp_path, env=env, check=True, capture_output=True, timeout=60,
    )
    server = subprocess.Popen(
        cli + ["serve", "db.npz", "--tcp", "127.0.0.1:0", "--workers", "2",
               "--retries", "1", "--kernel", "numpy-striped"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    workers: set[int] = set()
    try:
        match = re.search(r"listening on (\S+)", server.stdout.readline())
        assert match, "server did not announce its address"
        answer = subprocess.run(
            cli + ["query", match.group(1), query, "--top", "3"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert answer.returncode == 0, answer.stderr
        workers = _children(server.pid)
        assert workers, "the supervised pool forked no workers"
        server.send_signal(signal.SIGINT)
        out, _ = server.communicate(timeout=30)
    finally:
        if server.poll() is None:
            server.kill()
            server.wait()
    assert server.returncode == 0, out
    assert "served 1 requests" in out

    row = re.compile(r"^\| \d+\s*\| (\S+)\s*\| \d+\s*\| (\d+)\s*\| \((\d+), (\d+)\)")
    rows = [
        (m.group(1), *map(int, m.groups()[1:]))
        for m in map(row.match, answer.stdout.splitlines()) if m
    ]
    report = scan_database(query, records, kernel="reference", top=3, retrieve=0)
    assert rows == [(h.record, h.hit.score, h.hit.i, h.hit.j) for h in report.hits]

    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(_alive(pid) for pid in workers):
        time.sleep(0.05)
    assert not [pid for pid in workers if _alive(pid)], "a pool worker outlived the server"
