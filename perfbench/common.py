"""Shared plumbing of the end-to-end benchmark: paths, child processes,
statistics, the machine fingerprint and the result document.

The benchmark runs from the root of a source checkout and touches
nothing outside it: scratch stores, obs spools (``TMPDIR``) and result
documents all live under ``.perfbench/`` there.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
TMP = WORK / "tmp"
RESULTS = WORK / "results"

# Every child process gets this long to finish before it is killed and
# the run fails (a run as a whole must end within 180 s).
CHILD_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a valid measurement (missing program,
    a child that crashed, or a work witness that is zero or unsteady)."""


def require_program() -> None:
    """Fail fast when the checkout holds no program to measure."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program sources under {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for every process the benchmark starts: the program
    from this checkout's ``src``, and temp files inside the checkout."""
    TMP.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(TMP)
    env.pop("REPRO_NO_POOL", None)
    return env


class Child:
    """A ``python3 <args>`` child started now and read later: its result
    is the JSON object its last stdout line carries."""

    def __init__(self, args: Sequence[str], *, timeout: float = CHILD_TIMEOUT_S) -> None:
        self.name = " ".join(args)
        self._deadline = time.monotonic() + timeout
        self.proc = subprocess.Popen(
            [sys.executable, *args], cwd=str(ROOT), env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def result(self) -> Dict[str, Any]:
        """Wait for the child; raises :class:`BenchError` on failure."""
        try:
            out, err = self.proc.communicate(
                timeout=max(0.0, self._deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError(f"child {self.name} timed out")
        if self.proc.returncode != 0:
            raise BenchError(f"child {self.name} exited {self.proc.returncode}:\n{err[-4000:]}")
        lines = [line for line in out.splitlines() if line.strip()]
        if not lines:
            raise BenchError(f"child {self.name} printed nothing:\n{err[-4000:]}")
        return json.loads(lines[-1])

    def kill(self) -> None:
        """Stop the child if it still runs, and wait until it has ended."""
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.communicate()


def run_child(args: Sequence[str], *, timeout: float = CHILD_TIMEOUT_S) -> Dict[str, Any]:
    """Run ``python3 <args>`` to completion and return its JSON result."""
    child = Child(args, timeout=timeout)
    try:
        return child.result()
    finally:
        child.kill()


# ---------------------------------------------------------------------- #
# statistics
# ---------------------------------------------------------------------- #

def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    if not ordered:
        raise BenchError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    if not ordered:
        raise BenchError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def timing(values: Sequence[float]) -> Dict[str, Any]:
    """A timing as the result document records it: p50 and p99 with the
    sample count (below 100 samples the nearest-rank p99 is the max)."""
    return {"p50": median(values), "p99": percentile(values, 99), "n": len(values)}


# ---------------------------------------------------------------------- #
# fingerprint and result document
# ---------------------------------------------------------------------- #

def _cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git(*args: str) -> Optional[str]:
    # Only ask git about a checkout that is itself a repository; git
    # would otherwise walk up into directories outside the checkout.
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", *args], cwd=str(ROOT), capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_digest() -> str:
    """sha256 over the program's source files — identifies the measured
    code when the checkout carries no git metadata."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def fingerprint() -> Dict[str, Any]:
    """The machine and code a result was measured on."""
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain", "--", "src")
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "src_sha256": src_digest(),
        "platform": platform.platform(),
    }


def write_result(doc: Dict[str, Any]) -> Path:
    """Store the full result document under ``.perfbench/results``."""
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{doc['workload']}-seed{doc['seed']}-trace{int(doc['trace'])}.json"
    path = RESULTS / name
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return path


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident memory of process ``pid`` (default: this one) in MB.

    Read as ``VmHWM``, the high-water mark of the process's own address
    space. ``getrusage`` would not do: Linux carries a process's
    ``ru_maxrss`` across ``fork`` and ``exec``, so a child would report
    at least the resident size of the benchmark process that started it.
    """
    with open(f"/proc/{pid or 'self'}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for process {pid or 'self'}")


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


class Deadline:
    """Wall-clock budget of one run's measured phase."""

    def __init__(self, seconds: float) -> None:
        self.start = time.perf_counter()
        self.seconds = float(seconds)

    def left(self) -> float:
        return self.seconds - (time.perf_counter() - self.start)

    def expired(self) -> bool:
        return self.left() <= 0.0

    def more(self, taken: int, last: float, minimum: int = 1) -> bool:
        """Take another sample? Always until ``minimum`` are taken; after
        that only while the budget left covers at least half of one more
        (``last`` is what the previous sample took), so a run overshoots
        its budget by at most half a sample."""
        return taken < minimum or self.left() >= 0.5 * last


def canonical(obj: Any) -> str:
    """Canonical JSON text (sorted keys, repr floats) — the form every
    byte-identity check compares."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def emit_json_line(obj: Dict[str, Any]) -> None:
    print(json.dumps(obj, sort_keys=True), flush=True)


def checked_list(values: List[float], what: str) -> List[float]:
    if not values:
        raise BenchError(f"no {what} samples were taken")
    return values
