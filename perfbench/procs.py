"""Running the program's CLI as cold child processes."""

from __future__ import annotations

import os
import resource
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: Longest any single child may run before the benchmark gives up on it.
CHILD_TIMEOUT_S = 120.0


@dataclass(frozen=True)
class Finished:
    """A completed cold command."""

    wall: float
    returncode: int
    stdout: str
    stderr: str


class Program:
    """The ``repro`` CLI of one checkout, run as users run it:
    ``PYTHONPATH=src python -m repro.cli ...`` with default flags."""

    def __init__(self, root: Path, scratch: Path) -> None:
        self.root = root
        self.scratch = scratch
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        self.env = env

    def argv(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "repro.cli", *args]

    def run(self, *args: str) -> Finished:
        """Run one command to completion; wall time spans launch to exit."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            self.argv(*args), cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            _reap(proc)
        return Finished(time.perf_counter() - start, proc.returncode, out, err)

    def python(self, code: str) -> Finished:
        """Run a snippet in a fresh interpreter with the program importable."""
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
        return Finished(time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr)

    def start(self, *args: str) -> "Running":
        return Running(self, args)


@dataclass
class Line:
    at: float
    text: str


class Running:
    """A long-running command whose stdout lines are time-stamped as they
    arrive (a reader thread drains the pipe so the child never blocks)."""

    def __init__(self, program: Program, args: tuple[str, ...]) -> None:
        self.program = program
        self.args = args
        self.lines: list[Line] = []
        self.stderr = ""
        self._stderr = open(self.program.scratch / f"stderr-{id(self)}.log", "w+")
        self.launched = time.perf_counter()
        self.proc = subprocess.Popen(
            self.program.argv(*self.args), cwd=self.program.root,
            env=self.program.env, stdout=subprocess.PIPE, stderr=self._stderr,
            text=True,
        )
        self._changed = threading.Condition()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for text in self.proc.stdout:
            with self._changed:
                self.lines.append(Line(time.perf_counter(), text.rstrip("\n")))
                self._changed.notify_all()
        with self._changed:
            self._changed.notify_all()

    def wait_line(self, prefix: str, timeout: float = CHILD_TIMEOUT_S) -> Line | None:
        """The first stdout line starting with ``prefix``; ``None`` if the
        child exits or ``timeout`` passes first."""
        deadline = time.perf_counter() + timeout
        with self._changed:
            while True:
                for line in self.lines:
                    if line.text.startswith(prefix):
                        return line
                remaining = deadline - time.perf_counter()
                if remaining <= 0 or not self._reader.is_alive():
                    return None
                self._changed.wait(min(remaining, 0.5))

    def stop(self, timeout: float = 30.0) -> int:
        """SIGTERM the child if still running, wait for it and its reader."""
        try:
            if self.proc.poll() is None:
                self.proc.send_signal(signal.SIGTERM)
            self.proc.wait(timeout=timeout)
        finally:
            self._finish()
        return self.proc.returncode

    def wait(self, timeout: float = CHILD_TIMEOUT_S) -> int:
        """Wait for a child that exits on its own."""
        try:
            self.proc.wait(timeout=timeout)
        finally:
            self._finish()
        return self.proc.returncode

    def _finish(self) -> None:
        _reap(self.proc)
        self._reader.join(timeout=5.0)
        if not self._stderr.closed:
            self._stderr.seek(0)
            self.stderr = self._stderr.read()
            self._stderr.close()

    @property
    def stdout(self) -> str:
        with self._changed:
            return "\n".join(line.text for line in self.lines) + "\n"


def _reap(proc: subprocess.Popen) -> None:
    """Kill and wait for a child that is still running."""
    if proc.poll() is None:
        proc.kill()
        proc.wait()


def peak_child_rss_mb() -> float:
    """Peak resident set of the largest child waited for so far."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
