"""Server processes, the wire client and the two load generators.

The service under test always runs as its own process, started from
the repository's CLI (``python -m repro serve --tcp ...``) or, for the
traced run, from :mod:`traced_serve`.  Load comes from this one
process over at most ``nproc`` connections.
"""

from __future__ import annotations

import asyncio
import itertools
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.service import QueryOptions, protocol

HERE = Path(__file__).resolve().parent
KB_PER_MB = 1024.0  # /proc status values are in kB
#: A reply slower than this means the server hung; the run fails.
REPLY_TIMEOUT_S = 60.0


def python_env(src: Path) -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_KERNEL", None)
    return env


def build_index(src: Path, fasta: Path, out: Path, shard_bp: int | None) -> None:
    """``repro index`` as its own process."""
    cmd = [sys.executable, "-m", "repro", "index", str(fasta), "--out", str(out)]
    if shard_bp is not None:
        cmd += ["--shard-bp", str(shard_bp)]
    done = subprocess.run(
        cmd, env=python_env(src), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True, timeout=120,
    )
    if done.returncode != 0:
        raise RuntimeError(f"repro index failed:\n{done.stderr[-2000:]}")


class Server:
    """One ``repro serve --tcp`` process (traced or not) and its children.

    Started in its own session so that stopping it can reach every
    pool worker it forked, even after a client-side failure.
    """

    def __init__(self, src: Path, index: Path, workdir: Path, serve_args, spans: Path | None = None):
        workdir.mkdir(parents=True, exist_ok=True)
        self.log = workdir / "server.out"
        argv = [
            "serve", str(index), "--tcp", "127.0.0.1:0",
            "--kernel", "numpy-striped", *serve_args,
        ]
        if spans is None:
            cmd = [sys.executable, "-m", "repro", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_serve.py"), str(spans), *argv]
        self.peak_rss_kb = 0
        self._stop_sampling = threading.Event()
        self._sampler = threading.Thread(target=self._sample_rss, daemon=True)
        with open(self.log, "w") as out:
            self.proc = subprocess.Popen(
                cmd, env=python_env(src), stdout=out, stderr=subprocess.STDOUT,
                stdin=subprocess.DEVNULL, cwd=workdir, start_new_session=True,
            )
        self.port = self._wait_listening(timeout=60.0)
        self._sampler.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _wait_listening(self, timeout: float) -> int:
        end = time.monotonic() + timeout
        while time.monotonic() < end:
            text = self.log.read_text()
            for line in text.splitlines():
                if line.startswith("listening on "):
                    return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{text[-2000:]}")
            time.sleep(0.01)
        self.stop()
        raise RuntimeError("server did not start listening in time")

    # -- peak resident set, read from outside ---------------------------
    def family(self) -> list[int]:
        """The server pid plus every live descendant."""
        parents: dict[int, int] = {}
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    stat = fh.read()
            except OSError:
                continue
            parents[int(entry)] = int(stat.rsplit(")", 1)[1].split()[1])
        found = [self.pid]
        frontier = [self.pid]
        while frontier:
            parent = frontier.pop()
            kids = [pid for pid, ppid in parents.items() if ppid == parent]
            found += kids
            frontier += kids
        return found

    @staticmethod
    def _hwm_kb(pid: int) -> int:
        try:
            with open(f"/proc/{pid}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1])
        except OSError:
            pass
        return 0

    def _sample_rss(self) -> None:
        while not self._stop_sampling.wait(0.2):
            for pid in self.family():
                self.peak_rss_kb = max(self.peak_rss_kb, self._hwm_kb(pid))

    def peak_rss_mb(self) -> float:
        for pid in self.family():
            self.peak_rss_kb = max(self.peak_rss_kb, self._hwm_kb(pid))
        return self.peak_rss_kb / KB_PER_MB

    # -- shutdown ---------------------------------------------------------
    def stop(self) -> None:
        """Drain with SIGINT, then kill whatever is left of its session."""
        self._stop_sampling.set()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                pass
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        self.proc.wait(timeout=20)
        if self._sampler.is_alive():
            self._sampler.join(timeout=5)


# ----------------------------------------------------------------------
# Wire client: id-matched pipelining over the frame protocol.  Request
# ids are unique across connections, so a traced server can join its
# per-request records with the client's latencies.
# ----------------------------------------------------------------------
class Connection:
    def __init__(self, reader, writer, ids) -> None:
        self._reader = reader
        self._writer = writer
        self._ids = ids
        self._pending: dict[int, asyncio.Future] = {}
        self._lost: Exception | None = None
        self._task = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def open(cls, port: int, ids) -> "Connection":
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(protocol.encode_frame(protocol.hello_frame()))
        await writer.drain()
        header = await reader.readexactly(protocol.HEADER.size)
        body = await reader.readexactly(protocol.frame_length(header))
        protocol.check_hello_reply(protocol.decode_frame(body))
        return cls(reader, writer, ids)

    async def _read_loop(self) -> None:
        try:
            while True:
                header = await self._reader.readexactly(protocol.HEADER.size)
                body = await self._reader.readexactly(protocol.frame_length(header))
                frame = protocol.decode_frame(body)
                future = self._pending.pop(frame.get("id"), None)
                if future is not None and not future.done():
                    future.set_result(frame)
        except (asyncio.IncompleteReadError, ConnectionError, protocol.ProtocolError) as exc:
            self._lost = exc
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(ConnectionError(f"connection lost: {exc}"))
            self._pending.clear()

    async def call(self, build) -> tuple[int, dict]:
        """One request; its reply frame (a response or an error frame)."""
        if self._lost is not None:
            raise ConnectionError(f"connection lost: {self._lost}")
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        self._writer.write(protocol.encode_frame(build(request_id)))
        await self._writer.drain()
        return request_id, await asyncio.wait_for(future, REPLY_TIMEOUT_S)

    async def search(self, query: str, options: QueryOptions) -> tuple[int, dict]:
        return await self.call(lambda rid: protocol.search_request(rid, query, options))

    async def ingest(self, name: str, sequence: str) -> tuple[int, dict]:
        return await self.call(lambda rid: protocol.ingest_request(rid, name, sequence))

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except ConnectionError:
            pass


def rows_of(frame: dict) -> list[tuple[str, int, int, int]]:
    return [(h["record"], h["score"], h["i"], h["j"]) for h in frame.get("hits", [])]


@dataclass
class Sample:
    """One attempted request as the client saw it."""

    request_id: int
    query: str
    latency: float  # seconds; open loop: from when it was due
    service: float  # seconds from send to reply
    late: float  # seconds the send lagged its due time
    ok: bool
    frame: dict


@dataclass
class LoadResult:
    samples: list[Sample] = field(default_factory=list)
    ingest_acks: list[float] = field(default_factory=list)  # seconds
    ingested: list[tuple[str, str]] = field(default_factory=list)
    elapsed: float = 0.0


async def closed_loop(port: int, queries: list[str], options: QueryOptions,
                      connections: int, seconds: float, ids) -> LoadResult:
    """Rounds of one unique query per connection, sent together; the next
    round goes out when the whole round is answered.

    Lockstep keeps every round in one micro-batch.  Free-running
    connections lock into one of two phases, batched pairs or strict
    alternation, on a few milliseconds of timing, and stay there, so a
    run would measure which phase it fell into.  Stops at ``seconds``
    or when the unique queries run out.
    """
    result = LoadResult()
    conns = [await Connection.open(port, ids) for _ in range(connections)]
    cursor = iter(queries)

    async def timed(conn: Connection, query: str):
        rid, frame = await conn.search(query, options)
        return rid, frame, time.perf_counter()

    start = due = time.perf_counter()
    try:
        while time.perf_counter() < start + seconds:
            batch = list(itertools.islice(cursor, len(conns)))
            if not batch:
                break
            sent = time.perf_counter()
            replies = await asyncio.gather(*(timed(c, q) for c, q in zip(conns, batch)))
            # A round is due when the previous one is answered, so its
            # lateness is the generator's own turnaround.
            for query, (rid, frame, now) in zip(batch, replies):
                result.samples.append(Sample(
                    request_id=rid, query=query, latency=now - sent, service=now - sent,
                    late=sent - due, ok=frame.get("type") == "response", frame=frame,
                ))
            due = max(now for _, _, now in replies)
        result.elapsed = time.perf_counter() - start
    finally:
        for conn in conns:
            await conn.close()
    return result


async def open_loop(port: int, queries: list[str], arrivals: list[float],
                    ingest: list[tuple[float, str, str]], options: QueryOptions,
                    connections: int, ids) -> LoadResult:
    """Send each query at its scheduled instant, whatever is in flight.

    Searches round-robin over the connections; the ingest stream rides
    the first one.  Latency counts from when a request was due.
    """
    result = LoadResult()
    conns = [await Connection.open(port, ids) for _ in range(connections)]
    loop = asyncio.get_running_loop()
    start = time.perf_counter()

    async def one_search(k: int) -> None:
        due = start + arrivals[k]
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        sent = time.perf_counter()
        rid, frame = await conns[k % len(conns)].search(queries[k], options)
        now = time.perf_counter()
        result.samples.append(Sample(
            request_id=rid, query=queries[k], latency=now - due, service=now - sent,
            late=sent - due, ok=frame.get("type") == "response", frame=frame,
        ))

    async def ingest_stream() -> None:
        for due_at, name, seq in ingest:
            delay = start + due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent = time.perf_counter()
            _, frame = await conns[0].ingest(name, seq)
            if frame.get("type") == "result":
                result.ingest_acks.append(time.perf_counter() - sent)
                result.ingested.append((name, seq))

    tasks = [loop.create_task(one_search(k)) for k in range(len(queries))]
    tasks.append(loop.create_task(ingest_stream()))
    try:
        await asyncio.gather(*tasks)
        result.elapsed = time.perf_counter() - start
    finally:
        for task in tasks:
            task.cancel()
        await asyncio.gather(*tasks, return_exceptions=True)
        for conn in conns:
            await conn.close()
    return result


async def ingest_probe(port: int, records: list[tuple[str, str]], ids) -> list[float]:
    """Ingest ``records`` one at a time; the ack latencies in seconds."""
    conn = await Connection.open(port, ids)
    acks = []
    try:
        for name, seq in records:
            sent = time.perf_counter()
            _, frame = await conn.ingest(name, seq)
            if frame.get("type") != "result":
                raise RuntimeError(f"probe ingest failed: {frame}")
            acks.append(time.perf_counter() - sent)
    finally:
        await conn.close()
    return acks


async def first_answer(port: int, query: str, options: QueryOptions, ids) -> dict:
    conn = await Connection.open(port, ids)
    try:
        return (await conn.search(query, options))[1]
    finally:
        await conn.close()
