"""Workload ``tables``: regenerate every registered paper table/figure.

Each timed run is what a ``repro run`` user pays: a fresh interpreter
that imports the package and runs every registered spec at ``smoke``
fidelity through ``run_many(..., jobs=2, force=True)`` into a fresh
store — cold process, kernel compilation and pool start included.

The workload seed permutes the order in which the specs are requested.
The program's run seed stays at its default (``None``), the setting the
paper's tables are published and checked at. Store payloads must not
depend on the request order, so every run is compared byte for byte
against one ``jobs=1`` reference run made outside the timed region
(:func:`start_reference` lets the caller overlap it with other untimed
work).
"""

from __future__ import annotations

import contextlib
import json
import os
import random
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import common
from common import BenchError

FIDELITY = "smoke"
JOBS = 2
# Cold runs per run at least: one is too few on a noisy machine.
MIN_SAMPLES = 3


# ---------------------------------------------------------------------- #
# child: one cold run_many in a fresh interpreter
# ---------------------------------------------------------------------- #

def child_main(spawned_at: float, spec_json: str) -> None:
    import repro  # noqa: F401 — the import whose cost setup_s measures
    imported_at = time.perf_counter()

    import repro.runner
    from repro import obs

    spec = json.loads(spec_json)
    region = contextlib.nullcontext()
    if spec["trace"]:
        import layers
        layers.install()
        obs.start()
        region = obs.span(layers.REGION)
    store = repro.runner.ResultStore(spec["store"])
    started = time.perf_counter()
    # Looked up after install() so a traced run calls the wrapped entry.
    with region:
        reports = repro.runner.run_many(spec["names"], fidelity=spec["fidelity"],
                                        jobs=spec["jobs"], force=True, store=store,
                                        log=None)
    wall = time.perf_counter() - started
    layer_metrics = None
    if spec["trace"]:
        import layers
        trace = obs.stop()
        layer_metrics = layers.layer_report(trace.spans, trace.metrics, os.getpid())
    common.emit_json_line({
        "setup_s": imported_at - spawned_at,
        "wall_s": wall,
        "peak_rss_mb": common.peak_rss_mb(),
        "reports": [
            {"spec": r.spec, "shards": r.shard_count, "computed": r.computed,
             "cache_hits": r.cache_hits,
             "failed_checks": sorted(k for k, ok in r.result.checks.items() if not ok)}
            for r in reports
        ],
        "layers": layer_metrics,
    })


# ---------------------------------------------------------------------- #
# parent
# ---------------------------------------------------------------------- #

def _store_digests(root: Path) -> Dict[str, str]:
    """Content key -> digest of the canonical payload, for every object."""
    digests = {}
    for path in sorted((root / "objects").glob("*/*.json")):
        record = json.loads(path.read_text())
        digests[record["key"]] = common.digest_text(common.canonical(record["payload"]))
    return digests


class ColdRun:
    """One cold ``run_many`` child writing into a fresh store."""

    def __init__(self, names: Sequence[str], *, jobs: int, trace: bool, tag: str) -> None:
        self.store = common.TMP / f"tables-{os.getpid()}-{tag}"
        shutil.rmtree(self.store, ignore_errors=True)
        spec = {"names": list(names), "fidelity": FIDELITY, "jobs": jobs,
                "store": str(self.store), "trace": trace}
        self.child = common.Child([str(Path(__file__)), "child",
                                   repr(time.perf_counter()), json.dumps(spec)])

    def result(self) -> Dict[str, Any]:
        """Wait for the child; its result plus the store's payload digests."""
        try:
            out = self.child.result()
            out["digests"] = _store_digests(self.store)
        finally:
            self.kill()
        return out

    def kill(self) -> None:
        self.child.kill()
        shutil.rmtree(self.store, ignore_errors=True)


def spec_order(seed: int, names: Optional[Sequence[str]] = None) -> List[str]:
    """The registered specs (or ``names``) in the order ``seed`` picks."""
    from repro.runner import SPEC_REGISTRY

    order = list(names or SPEC_REGISTRY)
    random.Random(seed).shuffle(order)
    return order


def start_reference(seed: int, names: Optional[Sequence[str]] = None) -> ColdRun:
    """Start the ``jobs=1`` reference run of the spec order ``seed`` picks."""
    return ColdRun(spec_order(seed, names), jobs=1, trace=False, tag="ref")


def _failures(out: Dict[str, Any], reference: Dict[str, str], shards: int) -> int:
    """Shards whose spec checks failed or whose payload differs from the
    reference (a missing payload differs too), at most one per shard."""
    bad = sum(r["shards"] for r in out["reports"] if r["failed_checks"])
    bad += sum(1 for key, digest in reference.items() if out["digests"].get(key) != digest)
    return min(bad, shards)


def _witness(out: Dict[str, Any], expected_shards: int) -> Dict[str, Any]:
    computed = sum(r["computed"] for r in out["reports"])
    hits = sum(r["cache_hits"] for r in out["reports"])
    witness = {"runner.shards_computed": computed,
               "runner.cache_hit_ratio": hits / max(1, computed + hits),
               "store.objects": len(out["digests"])}
    if computed == 0 or computed != expected_shards or hits \
            or len(out["digests"]) != expected_shards:
        raise BenchError(f"tables work witness failed: {witness}, "
                         f"expected {expected_shards} computed shards, no cache hits")
    return witness


def run(seed: int, seconds: float, trace: bool, *,
        names: Optional[Sequence[str]] = None,
        reference: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Cold runs for ``seconds``; ``reference`` is the finished result of
    :func:`start_reference` for the same seed (made here when omitted)."""
    common.require_program()
    from repro.runner import SPEC_REGISTRY

    names = spec_order(seed, names)
    expected_shards = sum(
        SPEC_REGISTRY[n].shard_count(SPEC_REGISTRY[n].params(FIDELITY)) for n in names
    )

    ref = reference
    if ref is None:
        ref = ColdRun(names, jobs=1, trace=False, tag="ref").result()
    _witness(ref, expected_shards)

    plain: List[Dict[str, Any]] = []
    traced: List[Dict[str, Any]] = []
    failed = attempted = 0
    witness = None
    deadline = common.Deadline(seconds)
    index = 0
    last = 0.0
    while deadline.more(index, last, minimum=MIN_SAMPLES):
        use_trace = trace and index % 2 == 1
        started = time.perf_counter()
        out = ColdRun(names, jobs=JOBS, trace=use_trace, tag=str(index)).result()
        last = time.perf_counter() - started
        this = _witness(out, expected_shards)
        if witness is not None and this != witness:
            raise BenchError(f"tables witness changed between runs: {witness} -> {this}")
        witness = this
        attempted += expected_shards
        failed += _failures(out, ref["digests"], expected_shards)
        (traced if use_trace else plain).append(out)
        index += 1

    walls = [o["wall_s"] for o in plain]
    result: Dict[str, Any] = {
        "attempted": attempted,
        "failed": failed,
        "witness": witness,
        "samples": {
            "setup_s": [o["setup_s"] for o in plain],
            "tables_wall_s": walls,
            "peak_rss_mb": [o["peak_rss_mb"] for o in plain],
            "reference_jobs1_wall_s": ref["wall_s"],
        },
        "metrics": {
            "setup_s": (common.median([o["setup_s"] for o in plain]), "s"),
            "peak_rss_mb": (common.median([o["peak_rss_mb"] for o in plain]), "MB"),
            "tables_wall_s": (common.median(walls), "s"),
        },
        "timings": {"tables_wall_s": common.timing(walls)},
    }
    if trace:
        import layers
        report = layers.merge_reports([o["layers"] for o in traced])
        traced_wall = common.median([o["wall_s"] for o in traced])
        report["trace_overhead_frac"] = traced_wall / common.median(walls) - 1.0
        result["layers"] = report
    return result


if __name__ == "__main__":
    if len(sys.argv) == 4 and sys.argv[1] == "child":
        child_main(float(sys.argv[2]), sys.argv[3])
    else:
        sys.exit("usage: wl_tables.py child <spawned_at> <spec-json>")
