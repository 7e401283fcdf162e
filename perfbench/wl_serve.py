"""Workload ``serve``: ``repro serve`` under closed-loop load.

The server runs as users start it — ``python -m repro serve --port 0
--no-store`` at its default configuration (3 ms batching window,
max_batch 32) — in its own process. Every request is a depth8 ``audit``
at N = 2^16 whose nine source values are drawn from the workload seed.
One thread of the benchmark process generates a closed-loop load in
two phases that use the batching window in opposite ways:

* ``solo`` — one connection, one outstanding request: the window costs
  latency (``serve_solo_p50_ms``);
* ``burst`` — two connections with 16 pipelined requests each: the
  window buys coalescing (``serve_burst_rps``).

The phases alternate in segments of about a second, so both see the
same stretch of a shared machine's background load. A closed loop was
chosen because an open-loop rate ladder did not repeat on a small
shared machine. On a machine with two or more CPUs the server is pinned
to one CPU and the load generator to another, so that the two never
compete for a CPU or migrate between them (on a 2-vCPU VM this took the
solo p50 of alternating 4 s loads from 8.3-11.3 ms unpinned to 7.6-8.3
ms). While the phase runs, one idle-priority spinner per CPU keeps the
CPUs from going idle: on a virtual machine, waking an idle virtual CPU
costs a delay that grows with the host's load, and a ``SCHED_IDLE``
spinner yields at once to any runnable thread (same VM, 6 s loads: solo
p50 7.1-7.3 ms with spinners against 9.8-11.4 ms without while the host
was busy, 6.1-7.0 against 7.1-7.9 ms while it was quiet). Requests that
fail, time out, or — for a seeded sample of responses — differ from a
solo ``execute_group`` of the same request count as failed.
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import re
import selectors
import socket
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

import common
from common import BenchError

GRAPH = "depth8"
LENGTH = 1 << 16
SETUPS = 3
BURST_CONNECTIONS = 2
BURST_DEPTH = 16
SEGMENT_S = 1.0         # target length of one solo or burst segment
SAMPLES_PER_PHASE = 16
REQUEST_TIMEOUT_S = 20.0
START_TIMEOUT_S = 60.0


def _encode(obj: Dict[str, Any]) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode() + b"\n"


class RequestSource:
    """Seeded audit requests: same seed, same request sequence."""

    def __init__(self, seed: int, sources: List[str], length: int = LENGTH) -> None:
        self._rng = random.Random(seed)
        self._sources = sources
        self._length = length
        self._count = 0

    def next(self, prefix: str) -> Dict[str, Any]:
        self._count += 1
        return {"id": f"{prefix}{self._count}", "kind": "audit", "graph": GRAPH,
                "length": self._length, "tolerance": 0.35,
                "values": {name: self._rng.random() for name in self._sources}}


class Sampler:
    """Reservoir sample of (request, response) pairs for the identity check."""

    def __init__(self, seed: int, size: int = SAMPLES_PER_PHASE) -> None:
        self._rng = random.Random(seed)
        self._size = size
        self._seen = 0
        self.items: List[Tuple[Dict[str, Any], Dict[str, Any]]] = []

    def offer(self, request: Dict[str, Any], response: Dict[str, Any]) -> None:
        self._seen += 1
        if len(self.items) < self._size:
            self.items.append((request, response))
        else:
            slot = self._rng.randrange(self._seen)
            if slot < self._size:
                self.items[slot] = (request, response)


def _ok(response: Optional[Dict[str, Any]]) -> bool:
    return bool(response) and response.get("ok") is True and "result" in response


def _cpus() -> Tuple[Optional[Set[int]], Optional[Set[int]]]:
    """CPUs for the server and for the load generator: one each when at
    least two are available, otherwise no pinning (``None``)."""
    available = sorted(os.sched_getaffinity(0))
    if len(available) < 2:
        return None, None
    return {available[-1]}, {available[0]}


# Runs at the lowest scheduling class, or not at all.
SPINNER = """\
import os, sys
try:
    os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
except (AttributeError, OSError):
    sys.exit(0)
while True:
    pass
"""


@contextlib.contextmanager
def cpus_awake() -> Iterator[None]:
    """One idle-priority spinner per CPU of this process for the block."""
    procs: List[subprocess.Popen] = []
    try:
        for cpu in sorted(os.sched_getaffinity(0)):
            procs.append(subprocess.Popen(
                [sys.executable, "-I", "-c", SPINNER], stdin=subprocess.DEVNULL,
                preexec_fn=lambda cpu=cpu: os.sched_setaffinity(0, {cpu})))
        yield
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


@contextlib.contextmanager
def client_pinned(cpus: Optional[Set[int]]) -> Iterator[None]:
    """Pin this process to ``cpus`` for the block (no-op for ``None``)."""
    if cpus is None:
        yield
        return
    saved = os.sched_getaffinity(0)
    os.sched_setaffinity(0, cpus)
    try:
        yield
    finally:
        os.sched_setaffinity(0, saved)


# ---------------------------------------------------------------------- #
# server process
# ---------------------------------------------------------------------- #

class Server:
    """One ``repro serve`` process (traced runs start it through
    :mod:`serve_boot`, which installs the layer wrappers)."""

    def __init__(self, trace_out: Optional[Path] = None,
                 cpus: Optional[Set[int]] = None) -> None:
        args = ["serve", "--port", "0", "--no-store"]
        if trace_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(common.BENCH_DIR / "serve_boot.py"),
                   str(trace_out), *args]
        env = common.child_env()
        env["PYTHONUNBUFFERED"] = "1"
        self._stderr_path = common.TMP / f"serve-{os.getpid()}-{time.monotonic_ns()}.err"
        self._stderr = open(self._stderr_path, "wb")
        self.spawned_at = time.perf_counter()
        pin = None if cpus is None else (lambda: os.sched_setaffinity(0, cpus))
        self.proc = subprocess.Popen(cmd, cwd=str(common.ROOT), env=env,
                                     stdout=subprocess.PIPE, stderr=self._stderr,
                                     preexec_fn=pin)
        self.port = self._read_port()

    def _read_port(self) -> int:
        deadline = time.perf_counter() + START_TIMEOUT_S
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while time.perf_counter() < deadline:
                if not sel.select(timeout=max(0.0, deadline - time.perf_counter())):
                    continue
                line = self.proc.stdout.readline().decode(errors="replace")
                if not line:
                    self._fail("server exited before listening")
                match = re.search(r"listening on [^:\s]+:(\d+)", line)
                if match:
                    return int(match.group(1))
        self._fail("server did not announce its port")

    def _fail(self, message: str):
        err = ""
        if self._stderr_path.exists():
            err = self._stderr_path.read_text(errors="replace")[-4000:]
        self.kill()
        raise BenchError(f"{message}:\n{err}")

    def stop(self) -> float:
        """Shut the server down cleanly; returns its peak RSS in MB."""
        from repro.serve.client import ServeClient, ServeError

        peak_rss = common.peak_rss_mb(self.proc.pid)
        try:
            with ServeClient(port=self.port, timeout=REQUEST_TIMEOUT_S) as client:
                client.shutdown()
        except (OSError, ValueError, ServeError) as exc:
            self._fail(f"shutdown request failed: {exc}")
        try:
            self.proc.wait(timeout=START_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._fail("server did not exit after shutdown")
        self._close_pipes()
        if self.proc.returncode != 0:
            raise BenchError(f"server exited {self.proc.returncode}")
        return peak_rss

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self._close_pipes()

    def _close_pipes(self) -> None:
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._stderr.close()
        self._stderr_path.unlink(missing_ok=True)


def _client(port: int):
    from repro.serve.client import ServeClient

    return ServeClient(port=port, timeout=REQUEST_TIMEOUT_S)


def first_ok(server: Server, requests: RequestSource) -> float:
    """Seconds from spawning ``server`` to its first ok audit response."""
    with _client(server.port) as client:
        response = client.request(requests.next("w"))
    if not _ok(response):
        raise BenchError(f"first request failed: {response}")
    return time.perf_counter() - server.spawned_at


# ---------------------------------------------------------------------- #
# load phases
# ---------------------------------------------------------------------- #

def solo_phase(port: int, requests: RequestSource, seconds: float,
               sampler: Sampler) -> Dict[str, Any]:
    latency: Dict[str, float] = {}
    sent = failed = 0
    deadline = common.Deadline(seconds)
    with _client(port) as client:
        while not deadline.expired() or not sent:
            request = requests.next("s")
            sent += 1
            started = time.perf_counter()
            try:
                response = client.request(request)
            except (OSError, ValueError):
                failed += 1  # timeout or broken connection: stop the phase
                break
            elapsed = time.perf_counter() - started
            if _ok(response):
                latency[request["id"]] = elapsed * 1000.0
                sampler.offer(request, response)
            else:
                failed += 1
    return {"sent": sent, "failed": failed, "latency_ms": latency}


def burst_phase(port: int, requests: RequestSource, seconds: float,
                sampler: Sampler) -> Dict[str, Any]:
    conns = [socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S)
             for _ in range(BURST_CONNECTIONS)]
    pending: Dict[str, Tuple[float, Dict[str, Any]]] = {}
    buffers = {sock: b"" for sock in conns}
    latency: List[float] = []
    sent = failed = ok = 0
    started = time.perf_counter()
    stop_at = started + seconds

    def send(sock) -> None:
        nonlocal sent
        request = requests.next("b")
        pending[request["id"]] = (time.perf_counter(), request)
        sock.sendall(_encode(request))
        sent += 1

    with selectors.DefaultSelector() as sel:
        try:
            for sock in conns:
                sel.register(sock, selectors.EVENT_READ)
                for _ in range(BURST_DEPTH):
                    send(sock)
            while pending:
                events = sel.select(timeout=REQUEST_TIMEOUT_S)
                if not events:
                    break  # everything still pending timed out
                for key, _ in events:
                    sock = key.fileobj
                    data = sock.recv(1 << 20)
                    if not data:
                        raise ConnectionError("server closed a burst connection")
                    buffers[sock] += data
                    while b"\n" in buffers[sock]:
                        line, buffers[sock] = buffers[sock].split(b"\n", 1)
                        now = time.perf_counter()
                        response = json.loads(line)
                        sent_at, request = pending.pop(response.get("id"), (None, None))
                        if request is None:
                            continue
                        if _ok(response):
                            ok += 1
                            latency.append((now - sent_at) * 1000.0)
                            sampler.offer(request, response)
                        else:
                            failed += 1
                        if now < stop_at:
                            send(sock)
        except (OSError, ValueError):
            pass  # whatever is still pending counts as failed below
        finally:
            for sock in conns:
                sock.close()
    elapsed = time.perf_counter() - started
    failed += len(pending)
    return {"sent": sent, "failed": failed, "ok": ok, "seconds": elapsed,
            "latency_ms": latency}


def load(server: Server, requests: RequestSource, seconds: float,
         sampler: Sampler) -> Dict[str, Any]:
    """Alternate solo and burst segments of about :data:`SEGMENT_S`, so
    that both phases see the same stretch of a shared machine's
    background load."""
    solo: Dict[str, Any] = {"sent": 0, "failed": 0, "latency_ms": {}}
    burst: Dict[str, Any] = {"sent": 0, "failed": 0, "ok": 0, "seconds": 0.0,
                             "latency_ms": []}
    segments = max(1, round(seconds / (2 * SEGMENT_S)))
    segment = seconds / (2 * segments)
    for _ in range(segments):
        part = solo_phase(server.port, requests, segment, sampler)
        solo["sent"] += part["sent"]
        solo["failed"] += part["failed"]
        solo["latency_ms"].update(part["latency_ms"])
        part = burst_phase(server.port, requests, segment, sampler)
        for key in ("sent", "failed", "ok", "seconds", "latency_ms"):
            burst[key] += part[key]
    burst["rps"] = burst["ok"] / burst["seconds"]
    return {"solo": solo, "burst": burst}


def verify(samples, plan) -> int:
    """Sampled responses that are not byte-identical (as canonical JSON)
    to a solo ``execute_group`` of the same request."""
    from repro.serve.batcher import execute_group
    from repro.serve.protocol import canonical_result, parse_request

    bad = 0
    for request, response in samples:
        solo = execute_group([parse_request(request)], plan)[0]
        if canonical_result(solo["result"]) != canonical_result(response["result"]):
            bad += 1
    return bad


# ---------------------------------------------------------------------- #
# workload
# ---------------------------------------------------------------------- #

def run(seed: int, seconds: float, trace: bool, *, setups: int = SETUPS,
        length: int = LENGTH) -> Dict[str, Any]:
    common.require_program()
    from repro.engine import build_graph, compile_graph

    plan = compile_graph(build_graph(GRAPH))
    requests = RequestSource(seed, list(plan.source_names), length)
    sampler = Sampler(seed + 1)

    setup: List[float] = []
    servers: List[Server] = []
    server_cpus, client_cpus = _cpus()
    # A server leaves ``servers`` only through stop(), which kills it on
    # failure; whatever is still listed when an error escapes is killed.
    try:
        with cpus_awake(), client_pinned(client_cpus):
            for _ in range(setups):
                servers.append(Server(cpus=server_cpus))
                setup.append(first_ok(servers[-1], requests))
                if len(setup) < setups:
                    servers.pop().stop()
            plain = load(servers[-1], requests, seconds / 2.0 if trace else seconds,
                         sampler)
            peak_rss = servers.pop().stop()
            traced = groups = traced_layers = None
            if trace:
                out = common.TMP / f"serve-trace-{os.getpid()}.json"
                servers.append(Server(trace_out=out, cpus=server_cpus))
                first_ok(servers[-1], requests)
                traced = load(servers[-1], requests, seconds / 2.0, sampler)
                servers.pop().stop()
                doc = json.loads(out.read_text())
                out.unlink()
                groups, traced_layers = doc["groups"], doc["layers"]
    finally:
        for server in servers:
            server.kill()

    phases = [plain] + ([traced] if traced else [])
    sent = sum(p[ph]["sent"] for p in phases for ph in ("solo", "burst"))
    failed = sum(p[ph]["failed"] for p in phases for ph in ("solo", "burst"))
    ok = sum(len(p["solo"]["latency_ms"]) + p["burst"]["ok"] for p in phases)
    if ok == 0:
        raise BenchError("serve work witness failed: no ok responses")
    failed += verify(sampler.items, plan)

    solo_ms = list(plain["solo"]["latency_ms"].values())
    burst_ms = plain["burst"]["latency_ms"]
    common.checked_list(solo_ms, "solo latency")
    common.checked_list(burst_ms, "burst latency")
    result: Dict[str, Any] = {
        "attempted": sent,
        "failed": failed,
        "witness": {"serve.ok_equals_sent": ok == sent,
                    "serve.samples_checked": len(sampler.items)},
        "samples": {"setup_s": setup, "ok_responses": ok, "requests_sent": sent,
                    "burst_seconds": plain["burst"]["seconds"],
                    "burst_sent": plain["burst"]["sent"],
                    "pinned_cpus": None if server_cpus is None
                    else {"server": sorted(server_cpus), "client": sorted(client_cpus)}},
        "metrics": {
            "setup_s": (common.median(setup), "s"),
            "peak_rss_mb": (peak_rss, "MB"),
            "serve_solo_p50_ms": (common.median(solo_ms), "ms"),
            "serve_burst_rps": (plain["burst"]["rps"], "1/s"),
        },
        "timings": {"serve_solo_latency_ms": common.timing(solo_ms),
                    "serve_burst_latency_ms": common.timing(burst_ms)},
    }
    if trace:
        # The timed region is the client-side solo request: the part its
        # group's execute_group span covers is attributed, the rest
        # (window, queue, protocol) is the wait.
        execute_ms = {rid: g["dur"] * 1000.0 for g in groups for rid in g["ids"]}
        traced_solo = traced["solo"]["latency_ms"]
        joined = [(ms, execute_ms[rid]) for rid, ms in traced_solo.items() if rid in execute_ms]
        waits = [ms - ex for ms, ex in common.checked_list(joined, "joined solo")]
        traced_layers["serve.wait_ms_p50"] = common.median(waits)
        traced_layers["attributed_frac"] = (
            sum(min(ex, ms) for ms, ex in joined) / sum(ms for ms, _ in joined)
        )
        traced_layers["trace_overhead_frac"] = (
            common.median(list(traced_solo.values())) / common.median(solo_ms) - 1.0
        )
        result["layers"] = traced_layers
    return result
