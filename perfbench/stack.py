"""The serving stack under test and the process that hosts it.

The stack is the one a deployment runs: ``PlanServer`` in front of a
``PlanRouter`` over ``builtin_catalog()``.  For the wire workloads it
lives in a child process (``serve.py``) so the load generator's Python
never shares the server's interpreter lock; this module launches that
child, asks it for its CPU time, moves it between CPUs, reads its peak
memory from ``/proc``, and drains it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any, Dict, List, Optional

from repro.cloud.registry import builtin_catalog
from repro.cloud.router import PlanRouter
from repro.core.planner import PlannerConfig

from perfbench.speed import pin_process

#: The paper's grid: 0.5 m/s x 10 m x 1 s (the planner defaults).
PAPER_GRID = PlannerConfig()
#: The coarse serving grid: 1 m/s x 50 m x 2 s, 500 s horizon.
COARSE_GRID = PlannerConfig(
    v_step_ms=1.0, s_step_m=50.0, t_bin_s=2.0, horizon_s=500.0
)
GRIDS = {"paper": PAPER_GRID, "coarse": COARSE_GRID}

#: Admission bound of the server: above the two connections any
#: workload opens, so nothing is ever shed.
MAX_PENDING = 4
#: Dispatcher worker threads of the server.
SERVER_WORKERS = 2

#: The line asyncio logs for a task garbage-collected while pending.
PENDING_TASK_LINE = "Task was destroyed but it is pending!"

ROOT = Path(__file__).resolve().parent.parent


def build_router(grid: str, **catalog_kwargs) -> PlanRouter:
    """The router over the built-in three-corridor catalog at one grid."""
    return PlanRouter(builtin_catalog(config=GRIDS[grid], **catalog_kwargs))


def grid_dict(grid: str) -> Dict[str, float]:
    config = GRIDS[grid]
    return {
        "v_step_ms": config.v_step_ms,
        "s_step_m": config.s_step_m,
        "t_bin_s": config.t_bin_s,
        "horizon_s": config.horizon_s,
        "window_margin_s": config.window_margin_s,
    }


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """A process's peak resident set (``VmHWM``), in MiB."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path, encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM line in {path}")


class ServerChild:
    """A plan server running in its own process (``serve.py``).

    The child prints ``READY <port>`` once it listens and answers the
    control lines of ``serve.py`` on its stdin until ``drain``, after
    which it prints one JSON line holding its spans.  It starts on the
    CPUs the calling thread may use.  Its stderr is collected so
    lifecycle warnings can be counted.
    """

    def __init__(self, grid: str, trace: bool) -> None:
        env = dict(os.environ)
        # A fixed hash seed keeps the server's dict and set layouts, and so
        # its run-to-run speed, the same on every launch.
        env["PYTHONHASHSEED"] = "0"
        # One malloc arena: the server's peak RSS then does not depend on
        # which dispatcher thread happened to serve the largest solves.
        env["MALLOC_ARENA_MAX"] = "1"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src"), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
        )
        self.proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "serve.py"),
             "--grid", grid, "--trace", str(int(trace))],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=str(ROOT),
            env=env,
        )
        self._stderr: List[str] = []
        self._stderr_reader = threading.Thread(
            target=self._read_stderr, name="server-stderr", daemon=True
        )
        self._stderr_reader.start()
        line = self.proc.stdout.readline()
        if not line.startswith("READY "):
            self.kill()
            raise RuntimeError(
                f"server child did not start: {line!r} {''.join(self._stderr)[-2000:]}"
            )
        self.port = int(line.split()[1])
        self.address = ("127.0.0.1", self.port)

    def _read_stderr(self) -> None:
        for line in self.proc.stderr:
            self._stderr.append(line)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _command(self, command: str) -> str:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(
                f"server child ended on {command!r}: {''.join(self._stderr)[-2000:]}"
            )
        return line.strip()

    def cpu_seconds(self) -> float:
        """The child's user + system CPU so far, all threads."""
        return float(self._command("cpu"))

    def clear_cache(self) -> None:
        """Drop every plan the child's router has cached."""
        if self._command("clear") != "cleared":
            raise RuntimeError("server child did not clear its cache")

    def pin(self, cpu: int) -> None:
        """Move every thread of the child to ``cpu``."""
        pin_process(self.pid, cpu)

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.pid)

    def drain(self, timeout_s: float = 60.0) -> Dict[str, Any]:
        """Drain the server and stop the child; returns its final report.

        The report holds ``spans`` (empty unless traced) and
        ``pending_tasks``: the number of "Task was destroyed but it is
        pending!" lines the child wrote to stderr.
        """
        watchdog = threading.Timer(timeout_s, self.proc.kill)
        watchdog.start()
        try:
            self.proc.stdin.write("drain\n")
            self.proc.stdin.close()
            out = self.proc.stdout.read()
            self.proc.wait()
        finally:
            watchdog.cancel()
        self._stderr_reader.join(timeout=10.0)
        self.proc.stdout.close()
        self.proc.stderr.close()
        stderr = "".join(self._stderr)
        if self.proc.returncode != 0:
            raise RuntimeError(
                f"server child exited with {self.proc.returncode}: {stderr[-2000:]}"
            )
        lines = out.strip().splitlines()
        report = json.loads(lines[-1]) if lines else {}
        report["pending_tasks"] = stderr.count(PENDING_TASK_LINE)
        return report

    def kill(self) -> None:
        """Stop the child without draining (error paths); idempotent."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._stderr_reader.join(timeout=10.0)
        for pipe in (self.proc.stdin, self.proc.stdout, self.proc.stderr):
            if not pipe.closed:
                pipe.close()
