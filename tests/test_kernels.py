"""Kernel-backend registry and cross-backend equivalence tests.

The :mod:`repro.kernels` contract under test:

* the registry resolves names, validates unknowns loudly, honours
  ``REPRO_KERNEL``, and lets third parties register without shadowing
  built-ins silently;
* **every** registered backend is bit-identical on ``(score, i, j)``
  under the repo-wide tie-break convention, on random DNA and protein
  inputs (Hypothesis), including empty sequences;
* batched and sequential entry points of the same backend agree;
* selection is honoured end-to-end: ``scan_database(kernel=...)``,
  ``QueryOptions.kernel`` through the engine and over TCP, cache keys
  per kernel; the old ``locate=`` callable is a ``TypeError``.
"""

import contextlib
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.align.scoring import LinearScoring, SubstitutionMatrix, blosum62
from repro.align.smith_waterman import LocalHit, sw_locate_best
from repro.io.fasta import FastaRecord
from repro.io.generate import mutate, random_dna, random_protein
from repro.kernels import (
    DEFAULT_KERNEL,
    KernelBackend,
    StripedKernel,
    available_backends,
    default_kernel,
    get_backend,
    register_backend,
)
from repro.kernels import _FACTORIES, _INSTANCES, striped
from repro.scan import scan_database
from repro.service import (
    BadRequest,
    DatabaseIndex,
    QueryOptions,
    ResultCache,
    SearchClient,
    SearchEngine,
    WorkerSpec,
)
from repro.service import protocol
from repro.service.net import ServerThread

from conftest import dna_pair, dna_text, linear_schemes

#: Backends cheap enough for full-size Hypothesis sweeps; ``hw-sim``
#: (the cycle-accurate emulator) joins on smaller inputs only.
FAST_BACKENDS = ("reference", "pure", "numpy-striped")


def ranking(hits):
    return [(h.record, h.length, h.hit.as_tuple()) for h in hits]


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtins_registered(self):
        names = available_backends()
        for expected in ("reference", "pure", "numpy-striped", "hw-sim"):
            assert expected in names
        assert names == tuple(sorted(names))

    def test_get_backend_unknown_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            get_backend("no-such-kernel")

    def test_get_backend_none_resolves_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert default_kernel() == DEFAULT_KERNEL
        assert get_backend(None).name == DEFAULT_KERNEL

    def test_env_var_selects_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy-striped")
        assert default_kernel() == "numpy-striped"
        assert get_backend(None).name == "numpy-striped"

    def test_env_var_typo_fails_loudly(self, monkeypatch):
        monkeypatch.setenv("REPRO_KERNEL", "numpy-stripd")
        with pytest.raises(ValueError, match="REPRO_KERNEL"):
            default_kernel()

    def test_instances_are_shared(self):
        assert get_backend("reference") is get_backend("reference")

    def test_register_rejects_bad_names(self):
        with pytest.raises(ValueError, match="lowercase token"):
            register_backend("My-Kernel", StripedKernel)
        with pytest.raises(ValueError, match="lowercase token"):
            register_backend("", StripedKernel)

    def test_register_rejects_silent_shadowing(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("reference", StripedKernel)

    def test_register_and_replace_third_party(self):
        class Custom(KernelBackend):
            name = "custom-test"

            def locate(self, s, t, scheme=None):
                return sw_locate_best(s, t) if scheme is None else sw_locate_best(
                    s, t, scheme
                )

        try:
            register_backend("custom-test", Custom)
            assert "custom-test" in available_backends()
            first = get_backend("custom-test")
            assert isinstance(first, Custom)
            # replace=True swaps the factory and drops the cached instance.
            register_backend("custom-test", Custom, replace=True)
            assert get_backend("custom-test") is not first
            # A registered name is a valid WorkerSpec kind and a valid
            # QueryOptions.kernel.
            assert WorkerSpec("custom-test").resolved_kernel() == "custom-test"
            QueryOptions(kernel="custom-test").validate()
        finally:
            _FACTORIES.pop("custom-test", None)
            _INSTANCES.pop("custom-test", None)


class TestWorkerSpecAliases:
    def test_software_resolves_process_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_KERNEL", raising=False)
        assert WorkerSpec("software").resolved_kernel() == DEFAULT_KERNEL
        monkeypatch.setenv("REPRO_KERNEL", "numpy-striped")
        assert WorkerSpec("software").resolved_kernel() == "numpy-striped"

    def test_accelerator_resolves_hw_sim(self):
        spec = WorkerSpec("accelerator", elements=16)
        assert spec.resolved_kernel() == "hw-sim"
        backend = spec.make_backend(LinearScoring())
        assert backend.name == "hw-sim"
        assert backend.elements == 16

    def test_registry_name_is_a_valid_kind(self):
        assert WorkerSpec("numpy-striped").resolved_kernel() == "numpy-striped"

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown worker kind"):
            WorkerSpec("fortran")


# ----------------------------------------------------------------------
# Cross-backend bit-identity
# ----------------------------------------------------------------------
class TestBitIdentity:
    @given(dna_pair(0, 28), linear_schemes())
    def test_all_fast_backends_identical_dna(self, pair, scheme):
        s, t = pair
        expected = sw_locate_best(s, t, scheme)
        for name in FAST_BACKENDS:
            assert get_backend(name).locate(s, t, scheme) == expected, name

    @given(dna_pair(0, 12), linear_schemes())
    @settings(max_examples=12)
    def test_hw_sim_identical_dna(self, pair, scheme):
        s, t = pair
        assert get_backend("hw-sim").locate(s, t, scheme) == sw_locate_best(
            s, t, scheme
        )

    @given(st.integers(0, 10_000))
    @settings(max_examples=20)
    def test_all_fast_backends_identical_protein(self, seed):
        scheme = blosum62()
        s = random_protein(17, seed=seed)
        t = random_protein(29, seed=seed + 1)
        expected = sw_locate_best(s, t, scheme)
        for name in FAST_BACKENDS:
            assert get_backend(name).locate(s, t, scheme) == expected, name

    @given(dna_text(0, 20))
    @settings(max_examples=20)
    def test_empty_sequences(self, t):
        for name in FAST_BACKENDS:
            backend = get_backend(name)
            assert backend.locate("", t) == LocalHit(0, 0, 0), name
            assert backend.locate(t, "") == LocalHit(0, 0, 0), name

    def test_striped_tie_breaks_match_reference(self):
        # A repeated motif forces score ties: smallest i, then
        # smallest j, must win in both kernels.
        s = "ACAC"
        t = "ACACACAC"
        assert StripedKernel().locate(s, t) == sw_locate_best(s, t)


class TestBatchEquivalence:
    @given(
        st.lists(dna_text(0, 20), min_size=1, max_size=4),
        st.lists(dna_text(0, 24), min_size=1, max_size=5),
        linear_schemes(),
    )
    @settings(max_examples=30)
    def test_batch_equals_sequential(self, queries, targets, scheme):
        for name in ("reference", "numpy-striped"):
            backend = get_backend(name)
            batch = backend.locate_batch(queries, targets, scheme)
            for qi, q in enumerate(queries):
                for ti, t in enumerate(targets):
                    assert batch[qi][ti] == sw_locate_best(q, t, scheme)
        # Rows this small take the cumulative-max scan; force the doubling
        # scan that wide rows take.
        with mock.patch.object(striped, "NARROW_ROW", 0):
            batch = get_backend("numpy-striped").locate_batch(queries, targets, scheme)
        assert batch == [[sw_locate_best(q, t, scheme) for t in targets] for q in queries]

    def test_striped_chunking_preserves_results(self):
        # A one-record cell budget forces a chunk per record, including
        # the length-descending reorder/scatter path.
        queries = [random_dna(20, seed=1), random_dna(12, seed=2)]
        targets = [random_dna(n, seed=10 + n) for n in (5, 40, 17, 31, 8)]
        tiny = StripedKernel(cell_budget=1)
        assert tiny.locate_batch(queries, targets) == get_backend(
            "reference"
        ).locate_batch(queries, targets)


# ----------------------------------------------------------------------
# numpy-striped: memory bounds and state-dtype edges
# ----------------------------------------------------------------------
#: Where the striped kernel's state widens: int16 -> int32 -> int64.
DTYPE_EDGES = {2**15: (np.int16, np.int32), 2**31: (np.int32, np.int64)}


@contextlib.contextmanager
def picked_dtypes():
    """Record the state dtype of every chunk the striped kernel sweeps."""
    picked = []
    real = StripedKernel._state_dtype

    def spy(*args):
        picked.append(real(*args))
        return picked[-1]

    with mock.patch.object(StripedKernel, "_state_dtype", staticmethod(spy)):
        yield picked


def peak_bytes(fn):
    """``(result, tracemalloc peak)`` of one call."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@st.composite
def dtype_edge_batches(draw):
    """A skewed batch, a scan and a scheme that put the DP range on one
    side of a state-dtype edge; ``(queries, records, scheme, wide, dtype)``.

    ``wide`` forces the doubling scan, else the cumulative max runs.  The
    *lever* crossing the edge is the match score (H's ceiling), the gap
    (the up candidate), a mask penalty (the pair-score floor) or the
    record length (the scan's reach: ``(n-1)·|gap|`` doubling, ``n·|gap|``
    cumulative).
    """
    queries = draw(st.lists(dna_text(0, 12), min_size=1, max_size=6))
    records = draw(st.lists(dna_text(0, 10), min_size=1, max_size=4))
    if draw(st.booleans()):
        # One long record among short ones.
        records.insert(draw(st.integers(0, len(records))), draw(dna_text(40, 90)))
    edge = draw(st.sampled_from(sorted(DTYPE_EDGES)))
    above, wide = draw(st.booleans()), draw(st.booleans())
    m = max(len(q) for q in queries)
    n = max(len(t) for t in records)
    reach = 0 if wide else n  # the cumulative max lifts H by up to n·|gap|
    levers = ["match", "mask"] + (["gap"] + ["length"] * (n > 1) if wide else ["length"])
    lever = draw(st.sampled_from(levers))
    match, gap, penalty = 1, -1, -1
    if lever == "match":
        match = (edge - reach) // (m + 1) + 1 if above else (edge - 1 - reach) // (m + 1)
    elif lever == "gap":
        gap = -edge - above
    elif lever == "mask":
        penalty = -edge - above
    elif wide:
        match = (edge - 1) // (m + 1)
        gap = -(edge // (n - 1) + above)
    else:
        gap = -(edge // max(n, 1) + 1) if above else -((edge - m - 2) // max(n, 1))
    scheme = SubstitutionMatrix(
        "ACGT",
        {(a, b): match if a == b else -1 for a in "ACGT" for b in "ACGT"},
        gap=gap,
    ).with_mask_penalty("N", penalty)
    # Sprinkle the masked symbol so the penalty is actually scored.
    mask = lambda s: s if len(s) < 3 else s[:2] + "N" + s[3:]  # noqa: E731
    queries = [mask(q) for q in queries]
    records = [mask(t) for t in records]
    return queries, records, scheme, wide, DTYPE_EDGES[edge][above]


class TestStripedShapes:
    @given(dtype_edge_batches())
    @settings(max_examples=120)
    def test_dtype_edges_match_pure(self, batch):
        queries, records, scheme, wide, dtype = batch
        with picked_dtypes() as picked, mock.patch.object(
            striped, "NARROW_ROW", 0 if wide else 2**62
        ):
            got = get_backend("numpy-striped").locate_batch(queries, records, scheme)
        assert got == get_backend("pure").locate_batch(queries, records, scheme)
        live = any(queries) and any(records)
        assert picked == ([dtype] if live else [])

    def test_kernel_long_shape_runs_in_int16(self):
        # 2 x 100 bp queries against 12 records of 2-5 kbp: the bound
        # must keep this shape in int16, half the traffic of int32.
        queries = [random_dna(100, seed=s) for s in (1, 2)]
        records = [random_dna(2_000 + 250 * k, seed=30 + k) for k in range(12)]
        with picked_dtypes() as picked:
            StripedKernel().locate_batch(queries, records)
        assert picked == [np.int16]

    def test_state_dtype_edges(self):
        def dtype(pmin, pmax, m, n, gap, narrow=False):
            return StripedKernel._state_dtype(pmin, pmax, m, n, gap, narrow)

        # H's ceiling (m+1)·pmax.
        assert dtype(-1, 2**15 - 1, 0, 10, -1) is np.int16
        assert dtype(-1, 2**15, 0, 10, -1) is np.int32
        assert dtype(-1, 2**31, 0, 10, -1) is np.int64
        # The pair-score floor, and the doubling scan's reach (n-1)·|gap|.
        assert dtype(-(2**15), 1, 10, 10, -1) is np.int16
        assert dtype(-(2**15) - 1, 1, 10, 10, -1) is np.int32
        assert dtype(-1, 2**15 - 1, 0, 33, -1000) is np.int16
        assert dtype(-1, 2**15 - 1, 0, 34, -1000) is np.int32
        # Spans past 2·H's ceiling change nothing, so record length alone
        # never widens the doubling scan's state ...
        assert dtype(-1, 1, 100, 10**6, -2) is np.int16
        # ... but the cumulative max shifts H by n·|gap|.
        assert dtype(-1, 1, 100, 16_000, -2, narrow=True) is np.int16
        assert dtype(-1, 1, 100, 17_000, -2, narrow=True) is np.int32

    def test_long_query_profile_stays_small(self):
        # One 20 kbp query against one 100 bp record: the profile used
        # to be int64 (Q, m, 256), 2 KiB per query base (~80 MiB here).
        query = random_dna(20_000, seed=5)
        record = random_dna(100, seed=6)
        hit, peak = peak_bytes(lambda: StripedKernel().locate(query, record))
        assert hit == sw_locate_best(query, record)
        assert peak < 8 * 2**20

    def test_many_queries_chunked_within_budget(self):
        # 64 queries against one 20 kbp record: a budget of eight lanes
        # must split the queries, not run all 64 against the record.
        queries = [random_dna(40, seed=100 + k) for k in range(64)]
        record = [random_dna(20_000, seed=7)]
        budget = 8 * 20_000
        chunked, peak = peak_bytes(
            lambda: StripedKernel(cell_budget=budget).locate_batch(queries, record)
        )
        whole, whole_peak = peak_bytes(
            lambda: StripedKernel(cell_budget=10**9).locate_batch(queries, record)
        )
        assert chunked == whole
        # Each chunk: 4 queries x 20k int16 state arrays plus the profile
        # and target indices; the unchunked sweep holds all 64 at once.
        assert peak < 3 * 2**20 < whole_peak


# ----------------------------------------------------------------------
# scan_database selection
# ----------------------------------------------------------------------
class TestScanKernelSelection:
    RECORDS = [("a", "TTACGTTT"), ("b", "ACGTACGT"), ("c", "GGGGGGGG")]

    def test_kernel_name_matches_default(self):
        base = scan_database("ACGT", self.RECORDS, retrieve=0)
        for name in FAST_BACKENDS:
            report = scan_database("ACGT", self.RECORDS, kernel=name, retrieve=0)
            assert ranking(report.hits) == ranking(base.hits), name

    def test_kernel_instance_accepted(self):
        report = scan_database(
            "ACGT", self.RECORDS, kernel=StripedKernel(), retrieve=0
        )
        base = scan_database("ACGT", self.RECORDS, retrieve=0)
        assert ranking(report.hits) == ranking(base.hits)

    def test_unknown_kernel_name_raises(self):
        with pytest.raises(ValueError, match="unknown kernel backend"):
            scan_database("ACGT", self.RECORDS, kernel="fortran")

    def test_locate_callable_deprecated_but_works(self):
        """The removed ``locate=`` callable is a TypeError; ``kernel=`` is the way."""
        with pytest.raises(TypeError, match="locate"):
            scan_database("ACGT", self.RECORDS, locate=sw_locate_best, retrieve=0)

    def test_locate_and_kernel_together_rejected(self):
        with pytest.raises(TypeError, match="locate"):
            scan_database(
                "ACGT", self.RECORDS, locate=sw_locate_best, kernel="reference"
            )


# ----------------------------------------------------------------------
# QueryOptions.kernel + wire protocol
# ----------------------------------------------------------------------
class TestQueryOptionsKernel:
    def test_default_is_none(self):
        assert QueryOptions().kernel is None
        QueryOptions().validate()

    def test_valid_name_passes(self):
        QueryOptions(kernel="numpy-striped").validate()

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            QueryOptions(kernel="fortran").validate()

    def test_wire_roundtrip(self):
        options = QueryOptions(top=5, kernel="numpy-striped")
        wire = protocol.options_to_wire(options)
        assert wire["kernel"] == "numpy-striped"
        back = protocol.options_from_wire(wire)
        assert back.kernel == "numpy-striped"
        assert back.top == 5

    def test_absent_on_wire_means_server_default(self):
        wire = protocol.options_to_wire(QueryOptions())
        assert "kernel" not in wire
        assert protocol.options_from_wire(wire).kernel is None
        # The server's defaults (its --kernel flag) survive an absent field.
        defaults = QueryOptions(kernel="numpy-striped")
        assert protocol.options_from_wire(wire, defaults).kernel == "numpy-striped"

    def test_v1_encoding_drops_kernel(self):
        wire = protocol.options_to_wire(
            QueryOptions(kernel="numpy-striped"), version=1
        )
        assert "kernel" not in wire

    def test_non_string_kernel_rejected(self):
        with pytest.raises(ValueError, match="non-empty string"):
            protocol.options_from_wire({"kernel": 3})
        with pytest.raises(ValueError, match="non-empty string"):
            protocol.options_from_wire({"kernel": ""})


# ----------------------------------------------------------------------
# Engine + cache + TCP end-to-end
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def planted_index():
    query = random_dna(48, seed=7001)
    records = []
    for i in range(10):
        seq = random_dna(160, seed=7100 + i)
        if i == 4:
            copy = mutate(query, rate=0.05, seed=7200)
            seq = seq[:60] + copy + seq[60 + len(copy):]
        records.append(FastaRecord(f"rec{i}", seq))
    return query, DatabaseIndex.build(records, shards=3)


class TestEngineKernelSelection:
    def test_request_kernel_matches_default_rankings(self, planted_index):
        query, index = planted_index
        engine = SearchEngine(index, cache=ResultCache(0))
        base = engine.search(query, QueryOptions(top=5))
        for name in FAST_BACKENDS:
            response = engine.search(query, QueryOptions(top=5, kernel=name))
            assert ranking(response.report.hits) == ranking(base.report.hits), name

    def test_engine_spec_kernel_used_by_default(self, planted_index):
        query, index = planted_index
        striped = SearchEngine(
            index, spec=WorkerSpec("numpy-striped"), cache=ResultCache(0)
        )
        reference = SearchEngine(index, cache=ResultCache(0))
        assert striped.describe()["kernel"] == "numpy-striped"
        assert ranking(striped.search(query).report.hits) == ranking(
            reference.search(query).report.hits
        )

    def test_unknown_kernel_is_bad_request_shaped(self, planted_index):
        query, index = planted_index
        engine = SearchEngine(index, cache=ResultCache(0))
        with pytest.raises(ValueError, match="unknown kernel"):
            engine.search(query, QueryOptions(kernel="fortran"))

    def test_cache_keys_separate_per_kernel(self, planted_index):
        query, index = planted_index
        # Pin the engine default so the override below genuinely
        # differs even when REPRO_KERNEL=numpy-striped is exported.
        engine = SearchEngine(index, spec=WorkerSpec("reference"))
        first = engine.search(query, QueryOptions(top=5))
        assert not first.metrics.cache_hit
        hit = engine.search(query, QueryOptions(top=5))
        assert hit.metrics.cache_hit
        # A different kernel selection must not replay the entry...
        other = engine.search(query, QueryOptions(top=5, kernel="numpy-striped"))
        assert not other.metrics.cache_hit
        assert ranking(other.report.hits) == ranking(first.report.hits)
        # ...but repeats of it hit its own key.
        again = engine.search(query, QueryOptions(top=5, kernel="numpy-striped"))
        assert again.metrics.cache_hit

    def test_worker_pool_sweeps_with_requested_kernel(self, planted_index):
        query, index = planted_index
        engine = SearchEngine(index, workers=2, cache=ResultCache(0))
        base = engine.search(query, QueryOptions(top=5))
        striped = engine.search(query, QueryOptions(top=5, kernel="numpy-striped"))
        assert ranking(striped.report.hits) == ranking(base.report.hits)

    def test_kernel_override_spec_is_request_scoped(self, planted_index):
        query, index = planted_index
        engine = SearchEngine(index, cache=ResultCache(0))
        engine.search(query, QueryOptions(kernel="numpy-striped"))
        # The engine's own spec is untouched by the per-request override.
        assert engine.spec.resolved_kernel() == engine._kernel_for(QueryOptions())[0]


class TestTcpKernelSelection:
    def test_kernel_selection_over_the_wire(self, planted_index):
        query, index = planted_index
        engine = SearchEngine(index, cache=ResultCache(0))
        inline = engine.search(query, QueryOptions(top=5))
        with ServerThread(engine) as handle:
            with SearchClient(handle.host, handle.port) as client:
                remote = client.search(
                    query, QueryOptions(top=5, kernel="numpy-striped")
                )
                assert ranking(remote.report.hits) == ranking(inline.report.hits)
                with pytest.raises(ValueError, match="unknown kernel"):
                    client.search(query, QueryOptions(kernel="fortran"))
                # The connection survives the bad request.
                assert client.search(query, QueryOptions(top=5)).report.hits
