"""The ``numpy-striped`` backend: many pairs per matrix instruction.

Every query and every record of a batch advance through the same DP
row at once: state is a ``(Q, R, n+1)`` array (queries × records ×
padded columns), so a row costs a fixed number of NumPy calls however
many pairs it holds — SWAPHI's inter- and intra-sequence parallelism
on array axes.  A row's pair scores are one gather from a **target
profile** ``tp[a, r·n + j]`` (residue ``alphabet[a]`` of the queries,
4 for DNA, against column ``j`` of record ``r``), laid along the
database axis as in SWAPHI, so the profile never grows with query
length.  The within-row term ``H[j] = max(h[j], H[j-1] + g)`` is one
cumulative max on narrow rows; wide rows use a **doubling max-plus
scan**, ``row[j] = max(row[j], row[j-s] + s·g)`` for ``s = 1, 2, 4,
…``, stopping at the first span that changes no lane.  That exit is
exact: after the spans below ``s`` each ``row[j]`` covers ``h[l] +
(j-l)·g`` for ``j-s < l ≤ j``; an unchanged span ``s`` means
``row[j] ≥ row[j-s] + s·g`` for every ``j``, and chaining that reaches
every ``l ≤ j``.  Random sequences need two or three spans a row.
State is the narrowest dtype the values fit (:meth:`StripedKernel.
_state_dtype`): int16 for 100 bp queries against 5 kbp records.

Exactness: a real column reads only columns ``j-1`` and ``j`` of the
previous row and ``< j`` of its own, never another record or its own
pads.  Pad columns and rows past a query's end score the **wall**
``-(m+1)·pmax - 1``, which no ``H`` lifts above 0.  By induction over
rows, pad ``k`` past a record's last column ``L`` holds at most
``max(0, H[L] - k·|g|)``, and a row past a query's end peaks strictly
below the row above it, or at 0; neither wins or ties the strict
best-cell update (best-so-far starts at 0).  The result is
**bit-identical** to the reference kernel — same ``(score, i, j)`` and
smallest-``i``-then-smallest-``j`` tie-breaks — as the cross-backend
property tests pin down.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..align.scoring import DEFAULT_DNA, LinearScoring, SubstitutionMatrix, encode
from ..align.smith_waterman import LocalHit

from . import KernelBackend

__all__ = ["StripedKernel", "DEFAULT_CELL_BUDGET"]

#: Ceiling on ``(Q + A) × R × n`` cells per chunk — Q queries' DP state
#: plus A target-profile slabs over R records padded to n columns.
#: Larger batches are split into chunks of records first and, when one
#: record is already too wide for every query, of queries too.
DEFAULT_CELL_BUDGET = 4_000_000

#: Cells a row below which one cumulative max beats doubling-scan dispatch.
NARROW_ROW = 32_768


class StripedKernel(KernelBackend):
    """Batched profile-based locate kernel (see module docs)."""

    name = "numpy-striped"

    def __init__(self, cell_budget: int = DEFAULT_CELL_BUDGET) -> None:
        if cell_budget < 1:
            raise ValueError(f"cell budget must be positive, got {cell_budget}")
        self.cell_budget = cell_budget

    # ------------------------------------------------------------------
    def locate(self, s, t, scheme=DEFAULT_DNA) -> LocalHit:
        return self.locate_batch([s], [t], scheme)[0][0]

    def locate_batch(
        self,
        queries: Sequence[str | np.ndarray],
        targets: Sequence[str | np.ndarray],
        scheme: LinearScoring | SubstitutionMatrix = DEFAULT_DNA,
    ) -> list[list[LocalHit]]:
        q_codes = [encode(q) for q in queries]
        t_codes = [encode(t) for t in targets]
        hits = [[LocalHit(0, 0, 0)] * len(targets) for _ in queries]
        # Longest first on both axes, so each chunk pads to a similar
        # width and height — padding cells are real work here.
        live_q = sorted(
            (qi for qi, qc in enumerate(q_codes) if len(qc)),
            key=lambda qi: -len(q_codes[qi]),
        )
        order = sorted(
            (ti for ti, tc in enumerate(t_codes) if len(tc)),
            key=lambda ti: -len(t_codes[ti]),
        )
        if not live_q or not order:
            return hits
        # One profile slab per distinct query residue, plus the wall.
        residues = np.bincount(np.concatenate([q_codes[qi] for qi in live_q]))
        n_slabs = np.count_nonzero(residues) + 1
        lo = 0
        while lo < len(order):
            lanes = max(1, self.cell_budget // len(t_codes[order[lo]]))
            per_q = max(1, min(len(live_q), lanes - n_slabs))
            chunk = order[lo : lo + max(1, lanes // (per_q + n_slabs))]
            lo += len(chunk)
            for q_lo in range(0, len(live_q), per_q):
                q_chunk = live_q[q_lo : q_lo + per_q]
                chunk_hits = self._sweep_chunk(
                    [q_codes[k] for k in q_chunk], [t_codes[k] for k in chunk], scheme
                )
                for row, qi in enumerate(q_chunk):
                    for col, ti in enumerate(chunk):
                        hits[qi][ti] = chunk_hits[row][col]
        return hits

    # ------------------------------------------------------------------
    @staticmethod
    def _state_dtype(
        pmin: int, pmax: int, m_max: int, n_max: int, gap: int, narrow: bool
    ) -> type:
        """The narrowest integer dtype no value the sweep computes overflows.

        H and the diagonal candidate lie in ``[pmin, (m+1)·pmax]``, the
        up candidate is at least ``gap``.  A doubling-scan candidate
        ``row[j-s] + s·gap`` is at least ``-s·|gap|``, where span ``s``
        runs only if ``(s/2)·|gap| < H``'s cap and ``s < n``; the
        ``narrow`` cumulative max shifts H by up to ``n·|gap|`` instead.
        """
        hi = (m_max + 1) * max(pmax, 0)
        span = min((n_max - 1) * abs(gap), max(abs(gap), 2 * hi))
        if narrow:
            hi, span = hi + n_max * abs(gap), n_max * abs(gap)
        lo = min(pmin, gap, -span)
        for dtype in (np.int16, np.int32):
            info = np.iinfo(dtype)
            if info.min <= lo and hi <= info.max:
                return dtype
        return np.int64

    def _sweep_chunk(
        self,
        q_codes: list[np.ndarray],
        t_codes: list[np.ndarray],
        scheme: LinearScoring | SubstitutionMatrix,
    ) -> list[list[LocalHit]]:
        """One padded chunk: every query × every record, row by row."""
        gap, n_q, n_t = scheme.gap, len(q_codes), len(t_codes)
        m_max, n_max = max(map(len, q_codes)), max(map(len, t_codes))
        # np.unique would import numpy.ma (~30 ms) on a worker's first call.
        alphabet = np.flatnonzero(np.bincount(np.concatenate(q_codes)))
        # q_idx[i, qi]: query qi's row-i profile slab (the wall past its end).
        q_idx = np.full((m_max, n_q), len(alphabet), dtype=np.intp)
        for qi, qc in enumerate(q_codes):
            q_idx[: len(qc), qi] = np.searchsorted(alphabet, qc)
        # scores[a, byte]: alphabet[a] against every target byte.
        if isinstance(scheme, SubstitutionMatrix):
            scores = scheme._table[alphabet]
        else:
            same = alphabet[:, None] == np.arange(256)
            scores = np.where(same, scheme.match, scheme.mismatch)
        pmax = int(scores.max())
        # No H plus the wall score is positive (see module docs).
        wall = -(m_max + 1) * max(pmax, 0) - 1
        narrow = n_q * n_t * n_max < NARROW_ROW
        pmin = min(int(scores.min()), wall)
        dtype = self._state_dtype(pmin, pmax, m_max, n_max, gap, narrow)
        scores = np.pad(scores, ((0, 1), (0, 1)), constant_values=wall)
        T = np.full((n_t, n_max), 256, dtype=np.intp)
        for ti, tc in enumerate(t_codes):
            T[ti, : len(tc)] = tc
        tp = np.take(scores.astype(dtype), T.ravel(), axis=1)
        prev, cur = np.zeros((2, n_q, n_t, n_max + 1), dtype=dtype)
        pair, up = np.empty((2, n_q, n_t, n_max), dtype=dtype)
        changed = np.empty((n_q, n_t, n_max), dtype=bool)
        # NumPy's maximum against a Python scalar does not vectorize.
        zero = np.zeros(n_max, dtype=dtype)
        offsets = gap * np.arange(1, n_max + 1, dtype=dtype) if narrow else None
        best, vals = np.zeros((2, n_q, n_t), dtype=dtype)
        best_i, best_j = np.zeros((2, n_q, n_t), dtype=np.int64)
        for i in range(1, m_max + 1):
            np.take(tp, q_idx[i - 1], axis=0, out=pair.reshape(n_q, -1))
            row = cur[..., 1:]
            np.add(prev[..., :-1], pair, out=row)
            np.add(prev[..., 1:], gap, out=up)
            np.maximum(row, up, out=row)
            np.maximum(row, zero, out=row)
            if narrow:
                # max_{l ≤ j} h[l] + (j-l)·g as one cumulative max.
                np.subtract(row, offsets, out=up)
                np.maximum.accumulate(up, axis=-1, out=row)
                np.add(row, offsets, out=row)
            s = n_max if narrow else 1
            while s < n_max:
                # up doubles as the shifted candidate buffer.
                cand, hit = up[..., s:], changed[..., s:]
                np.add(row[..., :-s], s * gap, out=cand)
                np.greater(cand, row[..., s:], out=hit)
                if not hit.any():
                    break
                np.maximum(row[..., s:], cand, out=row[..., s:])
                s *= 2
            row.max(axis=-1, out=vals)
            improved = vals > best
            if improved.any():
                # argmax (first occurrence = smallest j) only where a lane improved.
                np.copyto(best, vals, where=improved)
                best_i[improved] = i
                best_j[improved] = np.argmax(row[improved], axis=-1) + 1
            prev, cur = cur, prev
        return [
            [LocalHit(*map(int, cell)) for cell in zip(*lanes)]
            for lanes in zip(best, best_i, best_j)
        ]
