"""Workload ``long_stream``: one long single-configuration streaming audit.

The graph has the shape of ``repro.engine.library.long_stream_graph(20)``
— synchronizer, desynchronizer and decorrelator, each feeding the
operator that needs its correlation — built here through the public
``SCGraph`` API with source values chosen by the workload seed. Each
timed call is ``audit_streaming`` at N = 2^20, alternately at jobs=1
(the sequential tile walk) and jobs=2 (span-parallel streaming on the
worker pool), after warm-up audits on both arms (the jobs=2 one at
N / 16: it only has to start the pool and hand it the plan). Kernel stepping and
RNG windows dominate it; kernel compilation, the runner, the store and
serving are absent.

Every timed audit carries a work witness — kernel input bits counted at
the kernel entry points, at least 3 transforms x 2 inputs x N — and its
result must be float-identical to the materialised ``plan.audit(N)`` of
the same plan, computed once per run outside the timed region.
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import common
from common import BenchError

EXPONENT = 20
SETUPS = 3
TRANSFORMS = 3          # synchronizer, desynchronizer, decorrelator
J2_WARMUP_SHIFT = 4     # the jobs=2 warm-up audits N >> 4 bits
MIN_SAMPLES = 3         # rounds per run at least: one is too few on a noisy machine


def build_graph(values: Sequence[float], width: int = EXPONENT):
    """The long-stream graph with sources ``a, b, c, d`` at ``values``."""
    from repro.core import Decorrelator, Desynchronizer, Synchronizer
    from repro.graph import SCGraph, TransformNode
    from repro.rng import LFSR

    def splice(g, transform, a, b, stem):
        shared: dict = {}
        g.add(TransformNode(f"{stem}_x", transform, (a, b), 0, shared))
        g.add(TransformNode(f"{stem}_y", transform, (a, b), 1, shared))
        return f"{stem}_x", f"{stem}_y"

    g = SCGraph()
    g.source("a", values[0], "vdc", width=width)
    g.source("b", values[1], "halton3", width=width)
    g.op("diff", "sub", *splice(g, Synchronizer(depth=1), "a", "b", "sync"))
    g.source("c", values[2], "vdc", width=width)
    g.source("d", values[3], "vdc", width=width)
    g.op("sat", "sat_add", *splice(g, Desynchronizer(depth=1), "c", "d", "desync"))
    deco = Decorrelator(LFSR(8, seed=45), LFSR(8, seed=142), depth=4)
    g.op("prod", "mul", *splice(g, deco, "c", "d", "deco"))
    return g


def audit_doc(audit) -> Dict[str, Any]:
    """A graph audit as plain data (floats kept exact)."""
    return {"entries": [dataclasses.asdict(e) for e in audit.entries],
            "values": dict(audit.values), "expected": dict(audit.expected)}


def source_values(seed: int) -> List[float]:
    """The four source values the workload seed picks."""
    rng = random.Random(seed)
    return [round(rng.uniform(0.05, 0.95), 6) for _ in range(4)]


def witnessed(call: Callable[[], Any], min_bits: int) -> Tuple[Any, float, int]:
    """Time ``call()`` and count the kernel input bits it stepped.

    Raises :class:`BenchError` when fewer than ``min_bits`` were stepped:
    a call that skips the work must fail the run, never read as a
    speed-up. In a tracing session the call is the timed region that
    ``attributed_frac`` is measured against.
    """
    import layers
    from repro import obs

    before = layers.kernel_bits()
    started = time.perf_counter()
    with obs.span(layers.REGION):
        result = call()
    elapsed = time.perf_counter() - started
    bits = layers.kernel_bits() - before
    if bits < min_bits:
        raise BenchError(f"work witness failed: {bits} kernel input bits stepped, "
                         f"expected at least {min_bits}")
    return result, elapsed, bits


# ---------------------------------------------------------------------- #
# child: the auditing process
# ---------------------------------------------------------------------- #

def child_main(spec_json: str) -> None:
    import layers

    spec = json.loads(spec_json)
    layers.install()
    import repro.engine as engine
    from repro import obs

    n, tile_words = spec["n"], spec["tile_words"]
    min_bits = TRANSFORMS * 2 * n
    audits: Dict[str, Dict[str, Any]] = {}
    bits_seen: Dict[int, set] = {1: set(), 2: set()}

    def record(jobs: int, audit, bits: int) -> None:
        doc = audit_doc(audit)
        digest = common.digest_text(common.canonical(doc))
        entry = audits.setdefault(digest, {"count": 0, "doc": doc})
        entry["count"] += 1
        bits_seen[jobs].add(bits)

    def audit_call(plan, jobs, length=n):
        return lambda: plan.audit_streaming(length, tile_words=tile_words, jobs=jobs)

    setups: List[float] = []
    for _ in range(spec["setups"]):
        started = time.perf_counter()
        plan = engine.compile_graph(build_graph(spec["values"]))
        witnessed(audit_call(plan, 1), min_bits)
        setups.append(time.perf_counter() - started)
    warm_n = n >> J2_WARMUP_SHIFT
    _, j2_warmup, _ = witnessed(audit_call(plan, 2, warm_n), TRANSFORMS * 2 * warm_n)

    times: Dict[int, List[float]] = {1: [], 2: []}
    traced_times: Dict[int, List[float]] = {1: [], 2: []}
    reports = []
    deadline = common.Deadline(spec["seconds"])
    rounds = 0
    last = 0.0
    while deadline.more(rounds, last, minimum=MIN_SAMPLES):
        traced = spec["trace"] and rounds % 2 == 1
        started = time.perf_counter()
        if traced:
            obs.start()
        for jobs in (1, 2):
            audit, elapsed, bits = witnessed(audit_call(plan, jobs), min_bits)
            (traced_times if traced else times)[jobs].append(elapsed)
            record(jobs, audit, bits)
        if traced:
            trace = obs.stop()
            reports.append(layers.layer_report(trace.spans, trace.metrics, os.getpid()))
        last = time.perf_counter() - started
        rounds += 1
    for jobs, seen in bits_seen.items():
        if len(seen) != 1:
            raise BenchError(f"jobs={jobs} witness differs between audits: {sorted(seen)}")

    common.emit_json_line({
        "setup_s": setups,
        "j2_warmup_s": j2_warmup,
        "times": times,
        "traced_times": traced_times,
        "bits_per_audit": {str(j): seen.pop() for j, seen in bits_seen.items()},
        "audits": audits,
        "layers": reports,
        "peak_rss_mb": common.peak_rss_mb(),
    })


# ---------------------------------------------------------------------- #
# parent
# ---------------------------------------------------------------------- #

def reference_doc(values: Sequence[float], n: int) -> Dict[str, Any]:
    """The materialised audit of the same plan (the correctness oracle)."""
    import repro.engine as engine

    plan = engine.compile_graph(build_graph(values))
    return audit_doc(plan.audit(n))


def count_mismatches(audits: Dict[str, Dict[str, Any]], reference: Dict[str, Any]) -> int:
    """Audits whose result is not float-identical to the reference."""
    want = common.canonical(reference)
    return sum(a["count"] for a in audits.values() if common.canonical(a["doc"]) != want)


def run(seed: int, seconds: float, trace: bool, *, exponent: int = EXPONENT,
        tile_words: int = 0, setups: int = SETUPS,
        reference: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Audits for ``seconds``; ``reference`` is :func:`reference_doc` of
    the same seed and exponent (computed here when omitted)."""
    common.require_program()
    from repro.bitstream.streaming import DEFAULT_TILE_WORDS

    values = source_values(seed)
    n = 1 << exponent
    spec = {"values": values, "n": n, "tile_words": tile_words or DEFAULT_TILE_WORDS,
            "setups": setups, "seconds": seconds, "trace": trace}
    out = common.run_child([str(Path(__file__)), "child", json.dumps(spec)])
    if reference is None:
        reference = reference_doc(values, n)
    failed = count_mismatches(out["audits"], reference)
    attempted = sum(a["count"] for a in out["audits"].values())

    j1, j2 = out["times"]["1"], out["times"]["2"]
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "witness": {f"kernels.bits_per_audit.jobs{j}": bits
                    for j, bits in out["bits_per_audit"].items()},
        "samples": {"setup_s": out["setup_s"], "j2_warmup_s": out["j2_warmup_s"],
                    "long_stream_audit_s": j1, "long_stream_audit_j2_s": j2,
                    "source_values": values},
        "metrics": {
            "setup_s": (common.median(out["setup_s"]), "s"),
            "peak_rss_mb": (out["peak_rss_mb"], "MB"),
            "long_stream_audit_s": (common.median(j1), "s"),
            "long_stream_audit_j2_s": (common.median(j2), "s"),
        },
        "timings": {"long_stream_audit_s": common.timing(j1),
                    "long_stream_audit_j2_s": common.timing(j2)},
    }
    if trace:
        import layers
        report = layers.merge_reports(out["layers"])
        plain = common.median([a + b for a, b in zip(j1, j2)])
        traced = common.median([a + b for a, b in zip(out["traced_times"]["1"],
                                                      out["traced_times"]["2"])])
        report["trace_overhead_frac"] = traced / plain - 1.0
        result["layers"] = report
    return result


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "child":
        child_main(sys.argv[2])
    else:
        sys.exit("usage: wl_long_stream.py child <spec-json>")
