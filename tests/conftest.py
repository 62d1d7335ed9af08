"""Shared fixtures and hypothesis strategies for the test-suite.

The strategies encode the repository's input domain:

* ``dna_text`` — DNA strings over ACGT (possibly empty variants);
* ``dna_pair`` / ``related_pair`` — independent and mutated pairs;
* ``linear_schemes`` — valid linear scoring schemes (match > 0,
  mismatch < match, gap < 0) so property tests cover the scheme space
  rather than only the paper's +1/-1/-2.

``ServeProcess`` runs ``repro serve --tcp`` as a subprocess for the
tests that drive the CLI server end to end (``src_env`` is the
environment such subprocesses need); ``recv_frame`` reads one
wire-protocol frame off a raw socket.
"""

from __future__ import annotations

import os
import re
import signal
import socket
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings, strategies as st

import repro
from repro.align.scoring import DNA_ALPHABET, LinearScoring
from repro.service import protocol

# Conservative global profile: deterministic, no deadline flakiness on
# slow CI boxes, moderate example counts (the kernels are O(mn)).
settings.register_profile(
    "repro",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
    derandomize=True,
)
settings.load_profile("repro")


def dna_text(min_size: int = 0, max_size: int = 40) -> st.SearchStrategy[str]:
    """Strategy for DNA strings."""
    return st.text(alphabet=DNA_ALPHABET, min_size=min_size, max_size=max_size)


@st.composite
def dna_pair(draw, min_size: int = 1, max_size: int = 32):
    """Two independent DNA strings."""
    s = draw(dna_text(min_size, max_size))
    t = draw(dna_text(min_size, max_size))
    return s, t


@st.composite
def related_pair(draw, min_size: int = 4, max_size: int = 32):
    """A DNA string and a noisy copy — strong alignments exist."""
    s = draw(dna_text(min_size, max_size))
    # Edit the copy: swap a few positions to other letters.
    t_chars = list(s)
    n_edits = draw(st.integers(0, max(1, len(s) // 4)))
    for _ in range(n_edits):
        pos = draw(st.integers(0, len(t_chars) - 1))
        t_chars[pos] = draw(st.sampled_from(DNA_ALPHABET))
    return s, "".join(t_chars)


@st.composite
def linear_schemes(draw):
    """Valid linear scoring schemes."""
    match = draw(st.integers(1, 5))
    mismatch = draw(st.integers(-5, 0))
    gap = draw(st.integers(-6, -1))
    return LinearScoring(match=match, mismatch=mismatch, gap=gap)


@pytest.fixture
def paper_pair() -> tuple[str, str]:
    """The figure 2 sequences."""
    return "TATGGAC", "TAGTGACT"


@pytest.fixture
def mutated_120() -> tuple[str, str]:
    """A 120-base mutated pair used by several integration tests."""
    from repro.io.generate import mutated_pair

    return mutated_pair(120, rate=0.15, seed=42)


def src_env() -> dict[str, str]:
    """This process's environment with the tested ``repro`` first on PYTHONPATH."""
    src = str(Path(repro.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, inherited])))


def recv_frame(sock: socket.socket) -> dict:
    """Read one length-prefixed protocol frame from ``sock``."""
    header = _recv_exact(sock, protocol.HEADER.size)
    return protocol.decode_frame(_recv_exact(sock, protocol.frame_length(header)))


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    data = b""
    while len(data) < n:
        chunk = sock.recv(n - len(data))
        if not chunk:
            raise EOFError(f"socket closed after {len(data)} of {n} bytes")
        data += chunk
    return data


class ServeProcess:
    """``python -m repro serve <args> --tcp 127.0.0.1:0`` in a subprocess.

    ``address`` is the ``host:port`` from the server's ``listening on``
    line.  :meth:`stop` sends SIGINT (the server drains and exits) and
    returns ``(returncode, stdout, stderr)``.
    """

    def __init__(self, *args: str, cwd: Path) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", *args, "--tcp", "127.0.0.1:0"],
            cwd=cwd, env=src_env(), text=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        match = re.search(r"listening on (\S+)", self.proc.stdout.readline())
        if match is None:
            self.proc.kill()
            _, err = self.proc.communicate(timeout=30)
            raise AssertionError(f"repro serve did not announce its address:\n{err}")
        self.address = match.group(1)
        self._result: tuple[int, str, str] | None = None

    def stop(self) -> tuple[int, str, str]:
        if self._result is None:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGINT)
            try:
                out, err = self.proc.communicate(timeout=30)
            finally:
                if self.proc.poll() is None:
                    self.proc.kill()
                    self.proc.wait()
            self._result = (self.proc.returncode, out, err)
        return self._result

    def __enter__(self) -> "ServeProcess":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()
