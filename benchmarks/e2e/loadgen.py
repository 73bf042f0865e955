"""The daemon under test and the benchmark's own wire client.

The client is deliberately not ``repro.service.client``: a change to the
shipped client must not move the benchmark's numbers.  One blocking socket,
one JSON line out, one JSON line back.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from measure import SERVER_CPU
from spec import SRC

READY_TIMEOUT_S = 60.0
CALL_TIMEOUT_S = 60.0
_CLK_TCK = os.sysconf("SC_CLK_TCK")


class LineClient:
    """One blocking line-JSON connection."""

    def __init__(self, host: str, port: int) -> None:
        self._sock = socket.create_connection((host, port), timeout=CALL_TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""

    def call(self, command: Dict[str, Any]) -> Dict[str, Any]:
        self._sock.sendall(json.dumps(command, separators=(",", ":")).encode() + b"\n")
        while b"\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def close(self) -> None:
        self._sock.close()


def proc_sample(pid: int) -> Dict[str, float]:
    """CPU seconds, bytes and syscalls written, RSS and peak RSS of one process."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        # The command name may hold spaces; fields resume after the last ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    sample = {"cpu_s": (int(fields[11]) + int(fields[12])) / _CLK_TCK}
    with open(f"/proc/{pid}/io", "r", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key == "wchar":
                sample["write_bytes"] = float(value)
            elif key == "syscw":
                sample["write_syscalls"] = float(value)
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                sample["rss_peak_mb"] = float(line.split()[1]) / 1024.0
            elif line.startswith("VmRSS:"):
                sample["rss_mb"] = float(line.split()[1]) / 1024.0
    return sample


class ServerProcess:
    """``python -m repro.cli serve`` with every flag but these at its default."""

    def __init__(self, scale: str, journal_dir: Path) -> None:
        self.scale = scale
        self.journal_dir = Path(journal_dir)
        self.proc: Optional[subprocess.Popen] = None
        self.ready: Dict[str, Any] = {}
        self.spawn_s = 0.0

    def start(self) -> "ServerProcess":
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--scale", self.scale,
                "--port", "0",
                "--journal-dir", str(self.journal_dir),
                "--fsync",
                "--log-level", "error",
            ],
            stdout=subprocess.PIPE,
            env=env,
        )
        # Before the daemon starts a thread, so that every thread inherits it.
        os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
        line = self.proc.stdout.readline()
        self.spawn_s = time.perf_counter() - started
        if not line:
            self.proc.wait(timeout=READY_TIMEOUT_S)
            raise RuntimeError(
                f"daemon exited with code {self.proc.returncode} before its ready line"
            )
        self.ready = json.loads(line)
        return self

    @property
    def pid(self) -> int:
        return self.proc.pid

    def connect(self) -> LineClient:
        return LineClient(self.ready["host"], self.ready["port"])

    def kill9(self) -> None:
        """SIGKILL: the journal keeps what reached the OS cache, nothing more."""
        self._end(signal.SIGKILL)

    def stop(self) -> None:
        """SIGTERM and wait; the daemon checkpoints on the way out."""
        self._end(signal.SIGTERM)

    def _end(self, signum: int) -> None:
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signum)
            try:
                self.proc.wait(timeout=READY_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self.proc = None


def journal_usage(journal_dir: Path) -> Tuple[int, int, int]:
    """``(wal bytes, wal records, newest snapshot seq)`` of a durability directory."""
    wal = journal_dir / "wal.jsonl"
    size = records = newest = 0
    if wal.exists():
        with open(wal, "rb") as handle:
            for chunk in iter(lambda: handle.read(1 << 20), b""):
                size += len(chunk)
                records += chunk.count(b"\n")
    for entry in journal_dir.glob("snapshot-*.json"):
        newest = max(newest, int(entry.stem.split("-", 1)[1]))
    return size, records, newest
