"""Fault tolerance for the search service.

PR 1's service layer realizes the paper's host/accelerator loop — a
fixed database, queries streaming in, "only a few bytes" of results
streaming out — but assumes every sweep succeeds.  Production database
search engines treat partial failure as the normal case (SWAPHI
degrades gracefully when a Xeon Phi drops out; BioSEAL's large-scale
scans assume unit-level faults), and this module brings that posture
here:

* an **error taxonomy** rooted at :class:`ServiceError`, whose
  ``code`` attribute is the one-token failure class the line protocol
  emits (``error <code> <message>``);
* a :class:`RetryPolicy` — capped exponential backoff with
  deterministic jitter, so two runs with the same seed schedule the
  same delays;
* a :class:`FaultPlan` — a deterministic fault-injection schedule
  (crash-on-shard-k, hang-for-t, corrupt-result, error, bad-npz) that
  tests and benchmarks use to script failures without monkeypatching
  the kernel;
* :func:`validate_sweep` — the host-side sanity check on every result
  that crosses the process boundary (the paper's "few bytes" wire
  format is cheap to audit exhaustively);
* a :class:`SupervisedWorkerPool` — the fault-aware counterpart of
  :class:`~repro.service.pool.ShardWorkerPool` on the same long-lived
  workers: worker-death detection, per-task timeouts, retries under
  the policy, and shard-level **quarantine** for sweeps that fail
  repeatedly.

The healthy path preserves PR 1's contract: a supervised sweep with no
faults returns exactly the per-shard candidates the plain pool
returns, so merged rankings stay bit-identical to
:func:`repro.scan.scan_database`.
"""

from __future__ import annotations

import dataclasses
import io
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from ..align.scoring import LinearScoring, SubstitutionMatrix
from ..obs import NULL_OBS, Observability
from .pool import ShardSweep, WorkerSpec, _WorkerPool, _sweep_shard, shard_task

__all__ = [
    "ServiceError",
    "BadRequest",
    "Overloaded",
    "RequestTimeout",
    "DeadlineExceeded",
    "Deadline",
    "ShardFailure",
    "WorkerTimeout",
    "IndexCorrupt",
    "RetryPolicy",
    "Fault",
    "FaultPlan",
    "CrashPoint",
    "DiskFault",
    "DiskFaultPlan",
    "FaultFS",
    "ShardHealth",
    "SweepOutcome",
    "SupervisedWorkerPool",
    "validate_sweep",
    "corrupt_index_file",
]


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
class ServiceError(RuntimeError):
    """Base of the service-layer error taxonomy.

    ``code`` is the stable one-token failure class the server's line
    protocol reports (``error <code> <message>``); subclasses override
    it.  Anything that is not a :class:`ServiceError` or a bad request
    surfaces as ``internal``.
    """

    code = "internal"


class BadRequest(ServiceError, ValueError):
    """A client-supplied request was malformed or out of range.

    Subclasses :class:`ValueError` too, so a remote bad-request
    reconstructed by the client raises through the same ``except
    ValueError`` handlers an in-process engine's validation does.
    """

    code = "bad-request"


class Overloaded(ServiceError):
    """The server is at its in-flight limit (or draining); retry later."""

    code = "overloaded"


class RequestTimeout(ServiceError):
    """A request exceeded the server's per-request deadline."""

    code = "timeout"


class ShardFailure(ServiceError):
    """A shard sweep failed (worker died, raised, or returned garbage)."""

    code = "shard-failure"

    def __init__(self, shard_id: int, message: str) -> None:
        super().__init__(f"shard {shard_id}: {message}")
        self.shard_id = shard_id


class WorkerTimeout(ServiceError):
    """A shard sweep exceeded the supervisor's task timeout."""

    code = "worker-timeout"

    def __init__(self, shard_id: int, seconds: float) -> None:
        super().__init__(f"shard {shard_id}: sweep exceeded {seconds:.3g}s timeout")
        self.shard_id = shard_id
        self.seconds = seconds


class IndexCorrupt(ServiceError):
    """Stored index content failed its content-hash validation."""

    code = "index-corrupt"


class DeadlineExceeded(RequestTimeout):
    """The request's end-to-end deadline budget ran out.

    Subclasses :class:`RequestTimeout` so existing ``except
    RequestTimeout`` handlers keep working, but carries its own wire
    code — a deadline the *client* set expiring is a different signal
    from the server's static per-request timeout, and circuit breakers
    and dashboards want to tell them apart.  The same class (and the
    same code) surfaces in-process from the engine, over the wire from
    the TCP server, and client-side from an expired local budget.
    """

    code = "deadline-exceeded"


@dataclass(frozen=True)
class Deadline:
    """An absolute point on the monotonic clock a request must beat.

    A deadline is *anchored once* — when the request is admitted — and
    every layer downstream (engine, pool, per-attempt supervision)
    derives its own timeout from :meth:`remaining` instead of carrying
    a private static budget.  That is what makes worst-case latency
    ``deadline`` rather than ``retries x timeout``: a retry only ever
    gets what is left, never a fresh allowance.
    """

    expires_at: float

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now."""
        return cls(time.monotonic() + seconds)

    @classmethod
    def after_ms(cls, milliseconds: float) -> "Deadline":
        """A deadline ``milliseconds`` from now (the wire unit)."""
        return cls.after(milliseconds / 1000.0)

    def remaining(self) -> float:
        """Seconds left; negative once expired."""
        return self.expires_at - time.monotonic()

    def remaining_ms(self) -> float:
        """Milliseconds left — what a client forwards on the wire."""
        return self.remaining() * 1000.0

    @property
    def expired(self) -> bool:
        return self.remaining() <= 0.0

    def check(self, where: str = "request") -> "Deadline":
        """Raise :class:`DeadlineExceeded` if the budget is gone."""
        if self.expired:
            raise DeadlineExceeded(
                f"deadline exceeded ({where}, {-self.remaining():.3f}s past budget)"
            )
        return self


# ----------------------------------------------------------------------
# Retry policy
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Capped exponential backoff with deterministic jitter.

    Attempt ``a`` (0-based) that fails waits
    ``min(base_delay * multiplier**a, max_delay)`` scaled down by up to
    ``jitter`` (a fraction in [0, 1]) before retrying; ``retries`` is
    how many retries follow the first attempt.  Jitter is drawn from a
    generator seeded by ``(seed, token, attempt)`` — same inputs, same
    delay — so supervised runs are reproducible end to end.
    """

    retries: int = 2
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValueError(f"retries cannot be negative, got {self.retries}")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays cannot be negative")
        if self.multiplier < 1.0:
            raise ValueError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be within [0, 1], got {self.jitter}")

    def delay(self, attempt: int, token: object = 0) -> float:
        """Backoff before retrying after failed attempt ``attempt``."""
        if attempt < 0:
            raise ValueError(f"attempt cannot be negative, got {attempt}")
        raw = min(self.base_delay * self.multiplier**attempt, self.max_delay)
        if self.jitter == 0.0 or raw == 0.0:
            return raw
        # str seeding hashes with sha512 — stable across processes and
        # PYTHONHASHSEED, which int tuple hashing would not be for all
        # token types.
        rng = random.Random(f"{self.seed}:{token}:{attempt}")
        return raw * (1.0 - self.jitter * rng.random())


# ----------------------------------------------------------------------
# Deterministic fault injection
# ----------------------------------------------------------------------
FAULT_KINDS = ("crash", "hang", "error", "corrupt", "bad-npz")


@dataclass(frozen=True)
class Fault:
    """One scripted failure.

    ``kind``:
      * ``crash``   — the worker process exits hard (``os._exit``);
      * ``hang``    — the worker stalls ``seconds`` before sweeping;
      * ``error``   — the worker raises inside the sweep;
      * ``corrupt`` — the worker returns a plausible-looking but
        invalid :class:`~repro.service.pool.ShardSweep`;
      * ``bad-npz`` — file-level: a saved index's payload bytes for
        the shard are flipped (applied by
        :meth:`FaultPlan.apply_to_file`, not by workers).

    ``times`` limits the fault to the shard's first N attempts (so a
    retry "heals" it); ``None`` makes it persistent.
    """

    kind: str
    shard_id: int
    times: int | None = 1
    seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r} (use one of {FAULT_KINDS})")
        if self.shard_id < 0:
            raise ValueError(f"shard_id cannot be negative, got {self.shard_id}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be positive or None, got {self.times}")
        if self.seconds <= 0:
            raise ValueError(f"seconds must be positive, got {self.seconds}")


class FaultPlan:
    """A deterministic schedule of :class:`Fault` injections.

    The supervisor consults :meth:`fault_for` before launching each
    shard attempt and ships the matching fault (if any) into the
    worker; the plan itself never crosses the process boundary.  Only
    supervised workers honor the plan — the engine's in-process
    fallback path is the trusted reference and ignores it.
    """

    def __init__(self, faults: Iterable[Fault] = ()) -> None:
        self.faults = tuple(faults)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"FaultPlan({list(self.faults)!r})"

    @classmethod
    def crash_on(cls, shard_id: int, times: int | None = 1) -> "FaultPlan":
        return cls([Fault("crash", shard_id, times=times)])

    @classmethod
    def hang_on(
        cls, shard_id: int, seconds: float = 30.0, times: int | None = 1
    ) -> "FaultPlan":
        return cls([Fault("hang", shard_id, times=times, seconds=seconds)])

    @classmethod
    def error_on(cls, shard_id: int, times: int | None = 1) -> "FaultPlan":
        return cls([Fault("error", shard_id, times=times)])

    @classmethod
    def corrupt_on(cls, shard_id: int, times: int | None = 1) -> "FaultPlan":
        return cls([Fault("corrupt", shard_id, times=times)])

    def merged(self, other: "FaultPlan") -> "FaultPlan":
        """A plan containing both schedules."""
        return FaultPlan(self.faults + other.faults)

    def fault_for(self, shard_id: int, attempt: int) -> Fault | None:
        """The fault to inject on ``shard_id``'s 0-based ``attempt``."""
        for fault in self.faults:
            if fault.kind == "bad-npz":
                continue
            if fault.shard_id == shard_id and (
                fault.times is None or attempt < fault.times
            ):
                return fault
        return None

    def apply_to_file(self, path: str | Path) -> int:
        """Apply every file-level (``bad-npz``) fault to a saved index.

        Returns the number of faults applied.
        """
        applied = 0
        for fault in self.faults:
            if fault.kind == "bad-npz":
                corrupt_index_file(path, shard_id=fault.shard_id)
                applied += 1
        return applied


def corrupt_index_file(path: str | Path, shard_id: int = 0, offset: int = 0) -> None:
    """Flip a payload byte of ``shard_id`` inside a saved index file.

    The file stays a structurally valid ``.npz`` — only the shard's
    content no longer matches its stored hash, which is exactly what a
    bit-rotted or torn write looks like to
    :meth:`~repro.service.index.DatabaseIndex.load`.  ``offset`` picks
    *which* byte of the shard's payload span is flipped (wrapped into
    range), so property tests can damage arbitrary positions.
    """
    import numpy as np

    path = Path(path)
    with np.load(path) as data:
        arrays = {key: data[key].copy() for key in data.files}
    counts = arrays["shard_counts"]
    lengths = arrays["record_lengths"]
    if not 0 <= shard_id < len(counts):
        raise ValueError(f"shard {shard_id} out of range (index has {len(counts)})")
    first = int(counts[:shard_id].sum())
    span = int(lengths[first : first + int(counts[shard_id])].sum())
    if span == 0:
        raise ValueError(f"shard {shard_id} has no payload to corrupt")
    start = int(lengths[:first].sum())
    arrays["payload"][start + (offset % span)] ^= 0x1F
    buffer = io.BytesIO()
    np.savez_compressed(buffer, **arrays)
    path.write_bytes(buffer.getvalue())


# ----------------------------------------------------------------------
# Disk fault injection: FaultFS
# ----------------------------------------------------------------------
DISK_FAULT_KINDS = ("torn", "short", "enospc", "eio", "fsync-drop", "crash")


class CrashPoint(Exception):
    """Simulated process death at a labeled filesystem barrier.

    Raised by :class:`FaultFS` when a ``crash`` (or ``torn``) fault
    triggers.  Ingest code must never catch it — the chaos harness
    catches it at the top, throws the whole service object away, and
    rebuilds one over the same directory, exactly as a restart after
    ``kill -9`` would.  Before raising, :class:`FaultFS` discards
    every byte that was never fsynced, so recovery sees what the disk
    would actually hold.
    """

    def __init__(self, label: str) -> None:
        super().__init__(f"simulated crash at barrier {label!r}")
        self.label = label


@dataclass(frozen=True)
class DiskFault:
    """One scripted filesystem failure at a labeled barrier.

    ``kind``:
      * ``torn``       — a write lands only a prefix of its bytes
        (made durable, as if the page hit the platter) and the process
        dies: the classic torn write a journal must detect by
        checksum;
      * ``short``      — a write returns having written fewer bytes
        than asked, without raising (the POSIX short-write case a
        naive caller ignores);
      * ``enospc``     — the operation raises ``OSError(ENOSPC)``;
      * ``eio``        — the operation raises ``OSError(EIO)``;
      * ``fsync-drop`` — an ``fsync`` silently does nothing, so the
        bytes it was meant to make durable vanish at the next crash;
      * ``crash``      — the process dies at the barrier, before the
        operation applies.

    ``label`` names the barrier (e.g. ``journal.append``,
    ``delta.rename``); ``after`` skips the first N hits of that
    barrier and ``times`` bounds how many trigger (``None`` =
    every subsequent hit).
    """

    kind: str
    label: str
    after: int = 0
    times: int | None = 1
    fraction: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in DISK_FAULT_KINDS:
            raise ValueError(
                f"unknown disk fault kind {self.kind!r} (use one of {DISK_FAULT_KINDS})"
            )
        if not self.label:
            raise ValueError("disk fault needs a barrier label")
        if self.after < 0:
            raise ValueError(f"after cannot be negative, got {self.after}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be positive or None, got {self.times}")
        if not 0.0 <= self.fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {self.fraction}")


class DiskFaultPlan:
    """A deterministic schedule of :class:`DiskFault` injections.

    The disk-level counterpart of :class:`FaultPlan`: where that plan
    keys faults on ``(shard_id, attempt)``, this one keys them on
    ``(barrier label, hit count)`` — every filesystem operation the
    ingest path performs passes through a named barrier, and the plan
    decides which hit of which barrier fails, and how.
    """

    def __init__(self, faults: Iterable[DiskFault] = ()) -> None:
        self.faults = tuple(faults)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        return f"DiskFaultPlan({list(self.faults)!r})"

    @classmethod
    def crash_at(cls, label: str, after: int = 0) -> "DiskFaultPlan":
        return cls([DiskFault("crash", label, after=after)])

    @classmethod
    def torn_at(cls, label: str, after: int = 0, fraction: float = 0.5) -> "DiskFaultPlan":
        return cls([DiskFault("torn", label, after=after, fraction=fraction)])

    @classmethod
    def short_at(cls, label: str, after: int = 0, fraction: float = 0.5) -> "DiskFaultPlan":
        return cls([DiskFault("short", label, after=after, fraction=fraction)])

    @classmethod
    def enospc_at(cls, label: str, after: int = 0, times: int | None = 1) -> "DiskFaultPlan":
        return cls([DiskFault("enospc", label, after=after, times=times)])

    @classmethod
    def eio_at(cls, label: str, after: int = 0, times: int | None = 1) -> "DiskFaultPlan":
        return cls([DiskFault("eio", label, after=after, times=times)])

    @classmethod
    def fsync_drop_at(cls, label: str, after: int = 0, times: int | None = None) -> "DiskFaultPlan":
        return cls([DiskFault("fsync-drop", label, after=after, times=times)])

    def merged(self, other: "DiskFaultPlan") -> "DiskFaultPlan":
        return DiskFaultPlan(self.faults + other.faults)

    def fault_for(self, label: str, hit: int) -> DiskFault | None:
        """The fault to inject on the 0-based ``hit`` of ``label``."""
        for fault in self.faults:
            if fault.label != label:
                continue
            if hit < fault.after:
                continue
            if fault.times is not None and hit >= fault.after + fault.times:
                continue
            return fault
        return None


class FaultFS:
    """Filesystem shim with labeled barriers and injectable disk faults.

    Every durable operation the ingest path performs — appends,
    fsyncs, atomic publishes, renames, removals — goes through this
    object and names the barrier it is crossing.  A clean
    :class:`FaultFS` (no plan) is a thin veneer over ``os``; one armed
    with a :class:`DiskFaultPlan` injects torn/short writes, ENOSPC,
    EIO, dropped fsyncs, and simulated crashes deterministically.

    The shim keeps an honest durability model so a simulated crash
    behaves like a real one: for every file it touches it tracks the
    byte length that has actually been fsynced, and when a ``crash``
    or ``torn`` fault fires it truncates each file back to its durable
    length and deletes not-yet-renamed temp files before raising
    :class:`CrashPoint`.  Bytes written but never synced are gone
    after the "reboot", exactly as the page cache would lose them —
    which is what makes torn-tail recovery testable in-process.

    ``hits`` / ``labels_seen`` record every barrier crossing, so a
    fault-free probe run enumerates the crash points a chaos schedule
    should then kill at.
    """

    def __init__(self, plan: DiskFaultPlan | None = None) -> None:
        self.plan = plan or DiskFaultPlan()
        self.hits: dict[str, int] = {}
        self.labels_seen: list[str] = []
        self.crashed = False
        self._durable: dict[str, int] = {}
        self._temps: set[str] = set()

    # -- fault bookkeeping ---------------------------------------------
    def _barrier(self, label: str) -> DiskFault | None:
        hit = self.hits.get(label, 0)
        self.hits[label] = hit + 1
        if label not in self.labels_seen:
            self.labels_seen.append(label)
        return self.plan.fault_for(label, hit)

    def _crash(self, label: str) -> None:
        """Apply crash semantics: unsynced bytes vanish, temps vanish."""
        self.crashed = True
        for name, durable in self._durable.items():
            path = Path(name)
            if not path.exists():
                continue
            size = path.stat().st_size
            if size > durable:
                with open(path, "rb+") as fh:
                    fh.truncate(durable)
        for name in list(self._temps):
            Path(name).unlink(missing_ok=True)
        self._temps.clear()
        raise CrashPoint(label)

    def _track(self, path: Path) -> None:
        key = str(path)
        if key not in self._durable:
            # A file we did not write this run (or one inherited from a
            # previous life) counts as durable at its current size.
            self._durable[key] = path.stat().st_size if path.exists() else 0

    # -- operations ----------------------------------------------------
    def append(self, path: str | Path, data: bytes, label: str) -> int:
        """Append ``data``; returns the byte count actually written.

        A ``short`` fault writes a prefix and returns its short count
        without raising — the caller must check, as with a real
        ``write(2)``.
        """
        path = Path(path)
        self._track(path)
        fault = self._barrier(label)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(label)
            if fault.kind in ("enospc", "eio"):
                raise _disk_error(fault.kind, label)
            if fault.kind == "torn":
                keep = int(len(data) * fault.fraction)
                with open(path, "ab") as fh:
                    fh.write(data[:keep])
                # The torn prefix is what the platter kept.
                self._durable[str(path)] = path.stat().st_size
                self._crash(label)
            if fault.kind == "short":
                keep = int(len(data) * fault.fraction)
                with open(path, "ab") as fh:
                    fh.write(data[:keep])
                return keep
        with open(path, "ab") as fh:
            fh.write(data)
        return len(data)

    def fsync(self, path: str | Path, label: str) -> None:
        """Make a file's current content durable (unless dropped)."""
        path = Path(path)
        self._track(path)
        fault = self._barrier(label)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(label)
            if fault.kind in ("enospc", "eio"):
                raise _disk_error(fault.kind, label)
            if fault.kind == "fsync-drop":
                return  # lies like a failing disk: reports success
        with open(path, "rb+") as fh:
            os.fsync(fh.fileno())
        self._durable[str(path)] = path.stat().st_size

    def replace(self, src: str | Path, dst: str | Path, label: str) -> None:
        """Atomic rename; the barrier fires before the rename applies."""
        src, dst = Path(src), Path(dst)
        fault = self._barrier(label)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(label)
            if fault.kind in ("enospc", "eio"):
                raise _disk_error(fault.kind, label)
        durable = self._durable.pop(str(src), None)
        os.replace(src, dst)
        self._temps.discard(str(src))
        self._durable[str(dst)] = (
            durable if durable is not None else dst.stat().st_size
        )

    def fsync_dir(self, path: str | Path, label: str) -> None:
        """Flush a directory entry (rename durability barrier)."""
        fault = self._barrier(label)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(label)
            if fault.kind in ("enospc", "eio"):
                raise _disk_error(fault.kind, label)
            if fault.kind == "fsync-drop":
                return
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-specific
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def remove(self, path: str | Path, label: str) -> None:
        """Delete a file (journal segment retirement)."""
        path = Path(path)
        fault = self._barrier(label)
        if fault is not None:
            if fault.kind == "crash":
                self._crash(label)
            if fault.kind in ("enospc", "eio"):
                raise _disk_error(fault.kind, label)
        path.unlink(missing_ok=True)
        self._durable.pop(str(path), None)

    def truncate(self, path: str | Path, size: int) -> None:
        """Truncate a file (torn-tail repair during recovery; no barrier)."""
        path = Path(path)
        with open(path, "rb+") as fh:
            fh.truncate(size)
            os.fsync(fh.fileno())
        self._durable[str(path)] = size

    def publish(self, path: str | Path, data: bytes, label: str) -> None:
        """Atomically replace ``path`` with ``data``, barrier by barrier.

        The four steps of :func:`repro.io.atomic_write`, each crossing
        its own crash point: ``<label>.write`` → ``<label>.sync`` →
        ``<label>.rename`` → ``<label>.dirsync``.  A crash at any step
        leaves either the complete old file or the complete new file
        (or, with a dropped sync, a file whose content the digest
        check will refuse) — never a silently torn one.
        """
        path = Path(path)
        tmp = path.with_name(path.name + ".tmp")
        self._temps.add(str(tmp))
        tmp.unlink(missing_ok=True)
        self._durable[str(tmp)] = 0
        written = self.append(tmp, data, f"{label}.write")
        if written < len(data):
            raise _disk_error("enospc", f"{label}.write (short write: {written}/{len(data)} bytes)")
        self.fsync(tmp, f"{label}.sync")
        self.replace(tmp, path, f"{label}.rename")
        self.fsync_dir(path.parent, f"{label}.dirsync")


def _disk_error(kind: str, label: str) -> OSError:
    import errno

    number = errno.ENOSPC if kind == "enospc" else errno.EIO
    return OSError(number, f"injected {kind} at {label}")


# ----------------------------------------------------------------------
# Sweep validation (host-side audit of the wire format)
# ----------------------------------------------------------------------
def validate_sweep(
    sweep: ShardSweep,
    shard,
    n_queries: int,
    min_score: int,
    k: int,
) -> None:
    """Audit one sweep result against its shard's ground truth.

    The pool's wire format is tiny — ``(score, global_index, i, j)``
    per candidate — so the host can afford to check all of it: shard
    identity, record count, per-query list shape, score floor, and
    that every global index lands inside the shard's span.  Raises
    :class:`ShardFailure` on the first violation, which the supervisor
    treats like any other failed attempt (retry, then quarantine).
    """
    sid = shard.shard_id
    if sweep.shard_id != sid:
        raise ShardFailure(sid, f"result reports shard {sweep.shard_id}")
    if sweep.records != len(shard):
        raise ShardFailure(
            sid, f"result reports {sweep.records} records, shard has {len(shard)}"
        )
    if len(sweep.candidates) != n_queries:
        raise ShardFailure(
            sid,
            f"result carries {len(sweep.candidates)} query lists, expected {n_queries}",
        )
    lo, hi = shard.start, shard.start + len(shard)
    for cands in sweep.candidates:
        if len(cands) > k:
            raise ShardFailure(sid, f"{len(cands)} candidates exceed top-{k}")
        for cand in cands:
            score, gidx, i, j = cand
            if score < min_score or not lo <= gidx < hi or i < 0 or j < 0:
                raise ShardFailure(sid, f"corrupt candidate {cand!r}")


# ----------------------------------------------------------------------
# Supervised worker pool
# ----------------------------------------------------------------------
def _corrupt_sweep(sweep: ShardSweep) -> ShardSweep:
    """The ``corrupt`` fault: plausible shape, invalid content."""
    bad = tuple(
        tuple((score, gidx + 1_000_000_007, i, j) for score, gidx, i, j in cands)
        for cands in sweep.candidates
    )
    return dataclasses.replace(sweep, candidates=bad, records=sweep.records + 1)


def _faulty_sweep(task: tuple, fault: Fault) -> ShardSweep:
    """The sweep with a scripted fault applied (runs inside the worker)."""
    if fault.kind == "crash":
        os._exit(13)
    if fault.kind == "hang":
        time.sleep(fault.seconds)
    elif fault.kind == "error":
        raise RuntimeError("injected worker error")
    sweep = _sweep_shard(task)
    return _corrupt_sweep(sweep) if fault.kind == "corrupt" else sweep


@dataclass
class ShardHealth:
    """Per-shard failure bookkeeping across sweeps."""

    failures: int = 0
    exhaustions: int = 0
    quarantined: bool = False
    last_error: str = ""


@dataclass
class SweepOutcome:
    """What a supervised sweep produced, successes and failures both.

    ``sweeps`` holds every validated per-shard result; ``failed`` maps
    shard ids that exhausted their retries (or were already
    quarantined) to the :class:`ServiceError` describing why.  The
    counters record how hard the supervisor had to work.
    """

    sweeps: list[ShardSweep] = field(default_factory=list)
    failed: dict[int, ServiceError] = field(default_factory=dict)
    attempts: int = 0
    retries: int = 0
    timeouts: int = 0
    worker_deaths: int = 0

    @property
    def complete(self) -> bool:
        return not self.failed


class SupervisedWorkerPool(_WorkerPool):
    """Fault-aware shard sweeps: supervision, retries, quarantine.

    The long-lived workers of :class:`~repro.service.pool.WorkerSet`,
    supervised: a worker's death is read from its sentinel and exit
    code, ``task_timeout`` is enforced by killing it, and either way
    the shard is rescheduled under ``policy``'s backoff while the worker
    is replaced at its next launch.  A shard whose attempts exhaust the
    policy is recorded in the outcome's ``failed`` map; after
    ``quarantine_after`` such exhaustions it is quarantined and excluded
    from future sweeps until :meth:`heal`.

    ``fault_plan`` scripts deterministic failures for tests and
    benchmarks, applied inside the worker; ``None`` injects nothing.

    ``obs`` is the observability bundle: retries, quarantines, timeouts
    and worker deaths become counters, trace events on the open
    ``pool.sweep`` span, and log lines.  An engine with a live bundle
    rebinds a pool constructed without one.
    """

    def __init__(
        self,
        workers: int = 1,
        spec: WorkerSpec | None = None,
        policy: RetryPolicy | None = None,
        task_timeout: float | None = None,
        quarantine_after: int = 1,
        fault_plan: FaultPlan | None = None,
        obs: Observability | None = None,
    ) -> None:
        super().__init__(workers, spec)
        if task_timeout is not None and task_timeout <= 0:
            raise ValueError(f"task_timeout must be positive, got {task_timeout}")
        if quarantine_after < 1:
            raise ValueError(f"quarantine_after must be positive, got {quarantine_after}")
        self.policy = policy if policy is not None else RetryPolicy()
        self.task_timeout = task_timeout
        self.quarantine_after = quarantine_after
        self.fault_plan = fault_plan
        self.health: dict[int, ShardHealth] = {}
        self.sweeps_run = 0
        self.attempts_total = 0
        self.retries_total = 0
        self.timeouts_total = 0
        self.worker_deaths_total = 0
        self._healthy = True
        self.bind_obs(obs if obs is not None else NULL_OBS)

    def bind_obs(self, obs: Observability) -> None:
        """Attach an observability bundle and register the counters."""
        self.obs = obs
        registry = obs.registry
        self._m_attempts = registry.counter(
            "sweep_attempts_total", "Shard sweep attempts launched"
        )
        self._m_retries = registry.counter(
            "retries_total", "Shard sweep attempts retried after a failure"
        )
        self._m_quarantines = registry.counter(
            "quarantines_total", "Shards quarantined after exhausting retries"
        )
        self._m_timeouts = registry.counter(
            "worker_timeouts_total", "Shard sweeps killed at the task timeout"
        )
        self._m_deaths = registry.counter(
            "worker_deaths_total", "Worker processes that died without a result"
        )

    # ------------------------------------------------------------------
    @property
    def healthy(self) -> bool:
        """False once a sweep ends with zero successful shards."""
        return self._healthy

    @property
    def quarantined(self) -> tuple[int, ...]:
        """Shard ids currently excluded from sweeps."""
        return tuple(sorted(s for s, h in self.health.items() if h.quarantined))

    def heal(self, shard_id: int | None = None) -> None:
        """Clear quarantine (one shard, or everything) and mark healthy."""
        if shard_id is None:
            self.health.clear()
        else:
            self.health.pop(shard_id, None)
        self._healthy = True

    # ------------------------------------------------------------------
    def sweep(
        self,
        index,
        queries: Sequence[str],
        scheme: LinearScoring | SubstitutionMatrix,
        min_score: int,
        k: int,
        deadline: Deadline | None = None,
        spec: WorkerSpec | None = None,
    ) -> SweepOutcome:
        """Sweep every non-quarantined shard under supervision.

        ``deadline`` bounds the *whole* sweep: each attempt may run
        ``min(task_timeout, remaining budget)``, and once the budget is
        gone everything still running is killed and
        :class:`DeadlineExceeded` raised.  ``spec`` overrides the pool's
        kernel spec for this sweep only (``QueryOptions.kernel``).
        """
        queries = tuple(queries)
        spec = spec if spec is not None else self.spec
        outcome = SweepOutcome()

        def launch(shard, attempt):
            outcome.attempts += 1
            self._m_attempts.inc()
            task = shard_task(shard, queries, scheme, spec, min_score, k)
            plan = self.fault_plan
            fault = plan.fault_for(shard.shard_id, attempt) if plan is not None else None
            return (_sweep_shard, (task,)) if fault is None else (_faulty_sweep, (task, fault))

        def settle(shard, attempt, status, value):
            sid = shard.shard_id
            if status == "ok":
                try:
                    validate_sweep(value, shard, len(queries), min_score, k)
                    outcome.sweeps.append(value)
                    return None
                except ShardFailure as exc:
                    error = exc
            elif status == "error":
                error = ShardFailure(sid, f"worker raised: {value}")
            elif status == "died":
                outcome.worker_deaths += 1
                self._report(self._m_deaths, "worker-death", shard=sid, exit_code=value)
                error = ShardFailure(sid, f"worker died (exit code {value})")
            else:
                outcome.timeouts += 1
                self._report(self._m_timeouts, "worker-timeout", shard=sid, seconds=value)
                error = WorkerTimeout(sid, value)
            return self._record_failure(sid, attempt, error, outcome, deadline)

        with self._set.lock:  # one sweep's bookkeeping at a time
            runnable = []
            for shard in index.active_shards:
                health = self.health.get(shard.shard_id)
                if health is not None and health.quarantined:
                    outcome.failed[shard.shard_id] = ShardFailure(
                        shard.shard_id, f"quarantined: {health.last_error}"
                    )
                else:
                    runnable.append(shard)
            try:
                self._set.run(runnable, launch, settle, deadline, self.task_timeout)
            except DeadlineExceeded:
                self.obs.log.warning("pool.deadline-exceeded", shards=len(runnable))
                raise
            finally:
                self.sweeps_run += 1
                self.attempts_total += outcome.attempts
                self.retries_total += outcome.retries
                self.timeouts_total += outcome.timeouts
                self.worker_deaths_total += outcome.worker_deaths
            outcome.sweeps.sort(key=lambda s: s.shard_id)
            if runnable and not outcome.sweeps:
                self._healthy = False
                self.obs.log.error(
                    "pool.unhealthy", shards=len(runnable), attempts=outcome.attempts
                )
            return outcome

    # ------------------------------------------------------------------
    def _report(self, counter, event: str, level: str = "warning", **fields) -> None:
        """One supervision event: counter, trace event and log line."""
        counter.inc()
        self.obs.tracer.event(event, **fields)
        getattr(self.obs.log, level)(f"pool.{event}", **fields)

    def _record_failure(
        self, sid: int, attempt: int, error: ServiceError, outcome: SweepOutcome, deadline
    ) -> float | None:
        """Book a failed attempt; the retry's start time, if one follows."""
        health = self.health.setdefault(sid, ShardHealth())
        health.failures += 1
        health.last_error = str(error)
        if attempt < self.policy.retries:
            delay = self.policy.delay(attempt, token=sid)
            # A retry whose backoff alone outlives the budget can never
            # complete; spend the remaining time on failing cleanly.
            if deadline is None or delay < deadline.remaining():
                outcome.retries += 1
                self._report(
                    self._m_retries, "retry", shard=sid, attempt=attempt,
                    delay_s=round(delay, 4), error=str(error),
                )
                return time.monotonic() + delay
            self.obs.log.warning(
                "pool.retry-skipped", shard=sid, reason="deadline budget exhausted"
            )
        health.exhaustions += 1
        if health.exhaustions >= self.quarantine_after:
            health.quarantined = True
            self._report(
                self._m_quarantines, "quarantine", "error", shard=sid,
                failures=health.failures, error=str(error),
            )
        else:
            self.obs.log.error(
                "pool.shard-exhausted", shard=sid, attempt=attempt, error=str(error)
            )
        outcome.failed[sid] = error
        return None

    # ------------------------------------------------------------------
    def describe(self) -> dict[str, object]:
        """Supervision counters for the ``stats`` server verb."""
        return {
            "pool": "healthy" if self._healthy else "unhealthy",
            "quarantined shards": len(self.quarantined),
            "sweep attempts": self.attempts_total,
            "sweep retries": self.retries_total,
            "sweep timeouts": self.timeouts_total,
            "worker deaths": self.worker_deaths_total,
        }
