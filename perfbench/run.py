"""End-to-end benchmark of the repro stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tables --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --compare BASE NEW

Phases, each one a workload that ``--workload`` can name (``BENCHMARK.json``
lists the ones the benchmark is judged on, and why):

* ``tables`` — every registered paper table/figure at smoke fidelity,
  cold interpreter per run (:mod:`wl_tables`);
* ``long_stream`` — ``audit_streaming`` at N = 2^20, jobs=1 and jobs=2
  (:mod:`wl_long_stream`);
* ``serve`` — ``repro serve`` under a closed-loop solo and burst load
  (:mod:`wl_serve`).

``--trace 0`` measures every end-to-end metric with tracing off. Each
metric belongs to one phase, so an untraced run runs all three phases,
in the order above: the named workload's phase gets :data:`NAMED_SHARE`
of ``--seconds`` and its ``setup_s`` and ``peak_rss_mb`` are the ones
reported; the other two phases share the rest. The untimed correctness
references of the tables and long-stream phases are made first, side by
side. ``--trace 1`` makes a separate traced run of the named phase alone
that reports per-layer self time and work counts (:mod:`layers`). Either way the last stdout line is
one JSON object ``{"correct", "attempted", "failed", "metrics"}`` and
the full result document — samples, witnesses, the machine fingerprint
— is written to ``.perfbench/results/``. ``--compare`` prints the
per-layer deltas between two traced result documents (:mod:`compare`).

Exit status: 0 on a correct run, 1 when an output check failed (the
result line still prints), 2 when no valid measurement could be made
(missing program, crashed child, zero or unsteady work witness).
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import time
from typing import Any, Dict

import common
from common import BenchError

WORKLOADS = ("tables", "long_stream", "serve")
NAMED_SHARE = 0.4
# Reported from the named workload's phase only; every other end-to-end
# metric is measured by exactly one phase.
PER_WORKLOAD = ("setup_s", "peak_rss_mb")


def budgets(named: str, seconds: float) -> Dict[str, float]:
    """Measuring seconds of each phase of an untraced run."""
    rest = (1.0 - NAMED_SHARE) * seconds / (len(WORKLOADS) - 1)
    return {w: NAMED_SHARE * seconds if w == named else rest for w in WORKLOADS}


def combine(named: str, phases: Dict[str, Dict[str, Any]]) -> Dict[str, Any]:
    """One untraced result from the three phases' results."""
    metrics = {}
    for workload, phase in phases.items():
        for name, value in phase["metrics"].items():
            if workload == named or name not in PER_WORKLOAD:
                metrics[name] = value
    timings: Dict[str, Any] = {}
    for phase in phases.values():
        timings.update(phase.get("timings", {}))
    return {
        "attempted": sum(p["attempted"] for p in phases.values()),
        "failed": sum(p["failed"] for p in phases.values()),
        "witness": {w: p["witness"] for w, p in phases.items()},
        "samples": {w: p.get("samples", {}) for w, p in phases.items()},
        "timings": timings,
        "metrics": metrics,
    }


def measure(named: str, seed: int, seconds: float) -> Dict[str, Any]:
    """The untraced run: every phase, the named one with the most time."""
    import wl_long_stream
    import wl_serve
    import wl_tables

    # Both references are untimed; the tables one runs in a child while
    # this process computes the long-stream one.
    reference = wl_tables.start_reference(seed)
    try:
        stream_ref = wl_long_stream.reference_doc(
            wl_long_stream.source_values(seed), 1 << wl_long_stream.EXPONENT)
        tables_ref = reference.result()
    finally:
        reference.kill()

    share = budgets(named, seconds)
    phases = {
        "tables": wl_tables.run(seed, share["tables"], False, reference=tables_ref),
        "long_stream": wl_long_stream.run(
            seed, share["long_stream"], False, reference=stream_ref,
            setups=wl_long_stream.SETUPS if named == "long_stream" else 1),
        "serve": wl_serve.run(seed, share["serve"], False,
                              setups=wl_serve.SETUPS if named == "serve" else 1),
    }
    return combine(named, phases)


def _summary(result, trace: bool) -> None:
    for name, timing in sorted(result.get("timings", {}).items()):
        print(f"  {name}: p50 {timing['p50']:.6g}, p99 {timing['p99']:.6g} "
              f"(n={timing['n']})")
    if trace:
        import layers
        for name, unit in layers.PER_LAYER:
            print(f"  {name} = {result['layers'][name]:.6g} {unit}")
    else:
        for name, (value, unit) in sorted(result["metrics"].items()):
            print(f"  {name} = {value:.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="print per-layer deltas between two traced results")
    args = parser.parse_args(argv)

    if args.compare:
        import compare
        return compare.main(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    started = time.time()
    common.TMP.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(common.TMP)  # temp files stay in the checkout
    try:
        common.require_program()
        if args.trace:
            workload = importlib.import_module(f"wl_{args.workload}")
            result = workload.run(args.seed, args.seconds, True)
        else:
            result = measure(args.workload, args.seed, args.seconds)
        fingerprint = common.fingerprint()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    trace = bool(args.trace)
    if trace:
        import layers
        metrics = {name: common.metric(result["layers"][name], unit)
                   for name, unit in layers.PER_LAYER}
    else:
        metrics = {name: common.metric(value, unit)
                   for name, (value, unit) in result["metrics"].items()}
    correct = result["failed"] == 0
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "started_unix": started,
        "fingerprint": fingerprint,
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "witness": result["witness"],
        "timings": result.get("timings", {}),
        "samples": result.get("samples", {}),
        "metrics": metrics,
    }
    path = common.write_result(doc)
    print(f"[perfbench] {args.workload} seed={args.seed} trace={int(trace)} "
          f"attempted={result['attempted']} failed={result['failed']} -> "
          f"{path.relative_to(common.ROOT)}")
    print("[perfbench] machine: " + ", ".join(f"{k}={v}" for k, v in fingerprint.items()))
    _summary(result, trace)
    common.emit_json_line({
        "correct": correct,
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    })
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
