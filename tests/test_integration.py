"""End-to-end integration tests: the full co-design workflows."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.align.local_linear import local_align_linear
from repro.align.scoring import DEFAULT_DNA
from repro.align.smith_waterman import sw_align, sw_score
from repro.core.accelerator import SWAccelerator
from repro.core.timing import PAPER_CLOCK, estimate_run
from repro.hw.host import PAPER_HOST
from repro.io.fasta import FastaRecord, read_fasta, write_fasta
from repro.io.generate import mutated_pair, planted_pair, random_dna
from repro.parallel.wavefront_cluster import ClusterConfig, WavefrontCluster
from repro.parallel.zalign import zalign

from conftest import src_env


class TestFastaToAlignment:
    """FASTA in, pretty alignment out — the user-facing workflow."""

    def test_roundtrip_through_files(self, tmp_path):
        s, t = mutated_pair(150, rate=0.1, seed=31)
        path = tmp_path / "pair.fasta"
        write_fasta([FastaRecord("query", s), FastaRecord("database", t)], path)
        q, d = read_fasta(path, alphabet="ACGT")

        acc = SWAccelerator(elements=64)
        result = local_align_linear(q.sequence, d.sequence, locate=acc.locate)
        assert result.alignment.score == sw_score(s, t)
        result.alignment.validate(s, t)
        text = result.alignment.pretty()
        assert f"score={result.alignment.score}" in text


class TestHardwareSoftwareCodesign:
    """The paper's deployment: FPGA locates, host retrieves."""

    def test_partitioned_query_through_full_pipeline(self):
        # Query longer than the array forces figure-7 partitioning in
        # both the forward and the reverse accelerator passes.
        s, t = mutated_pair(300, rate=0.12, seed=33)
        acc = SWAccelerator(elements=50)
        res = local_align_linear(s, t, locate=acc.locate)
        oracle = sw_align(s, t)
        assert res.alignment.score == oracle.score
        res.alignment.validate(s, t)

    def test_rtl_engine_end_to_end_small(self):
        s, t = mutated_pair(40, rate=0.1, seed=34)
        acc = SWAccelerator(elements=16, engine="rtl")
        res = local_align_linear(s, t, locate=acc.locate)
        assert res.alignment.score == sw_score(s, t)

    def test_transfer_ledger_counts_both_passes(self):
        s, t = mutated_pair(60, rate=0.1, seed=35)
        acc = SWAccelerator(elements=32)
        local_align_linear(s, t, locate=acc.locate)
        # Forward + reverse pass each download sequences and upload a
        # result word.
        assert acc.board.log.transfers == 4
        assert acc.board.log.bytes_up == 24


class TestHeadlineScaled:
    """Experiment E1 at test scale: shape of the section 6 claim."""

    def test_speedup_model_scales_linearly_with_database(self):
        speedups = []
        for n in (10_000, 100_000):
            timing = estimate_run(100, n, 100, PAPER_CLOCK)
            software = PAPER_HOST.seconds_for_cells(timing.cells)
            speedups.append(software / timing.total_seconds)
        # Speedup saturates: both sides linear in n, ratio stable.
        assert speedups[1] == pytest.approx(speedups[0], rel=0.05)
        assert speedups[1] == pytest.approx(246.9, rel=0.1)

    def test_live_accelerator_vs_live_software_consistency(self):
        # Run a genuinely simulated (emulator) accelerator pass and
        # the software baseline on the same scaled workload; both must
        # produce identical results, and the modeled device time must
        # be far below the modeled software time.
        q = random_dna(100, seed=36)
        db = random_dna(50_000, seed=37)
        acc = SWAccelerator(elements=100, clock=PAPER_CLOCK)
        run = acc.run(q, db)
        from repro.baselines.software import locate_numpy

        assert run.hit == locate_numpy(q, db)
        software_modeled = PAPER_HOST.seconds_for_cells(run.cells)
        assert software_modeled / run.total_seconds > 100


class TestClusterWithAccelerators:
    """Section 2.4 + section 5: accelerated nodes in a cluster."""

    def test_zalign_and_direct_pipeline_agree(self):
        s, t = mutated_pair(200, rate=0.15, seed=38)
        z = zalign(s, t, ClusterConfig(processors=4, row_block=32))
        direct = local_align_linear(s, t)
        assert z.score == direct.alignment.score
        # Both are optimal alignments of the same bracketed region;
        # traceback tie-breaks may differ, audited scores may not.
        z.alignment.validate(s, t)
        assert z.alignment.audit_score(DEFAULT_DNA) == direct.alignment.score

    def test_cluster_finds_planted_alignment(self):
        p = planted_pair(s_len=300, t_len=400, fragment_len=60, seed=39)
        run = WavefrontCluster(ClusterConfig(processors=5, row_block=50)).run(p.s, p.t)
        assert run.hit.score >= 50
        # The hit must end within/after the planted fragment region.
        assert run.hit.i > p.s_pos


EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs_without_deprecation_warnings(script, tmp_path):
    """Every script in ``examples/`` runs to exit 0 on the current API."""
    proc = subprocess.run(
        [sys.executable, "-W", "error::DeprecationWarning", str(script)],
        cwd=tmp_path, env=src_env(), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
