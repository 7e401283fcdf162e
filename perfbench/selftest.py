"""Self-tests of the benchmark itself.

Every workload runs at toy size through the same code as the real
benchmark, and the checks that guard the numbers are shown to bite: the
work witness rejects a call that does no work, and each correctness
check rejects a perturbed result. Run with::

    python3 perfbench/selftest.py            # or: python -m pytest perfbench/selftest.py

(The file is deliberately not named ``test_*.py``: the repository's own
test suite does not collect it.)
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import layers  # noqa: E402
import wl_long_stream  # noqa: E402
import wl_serve  # noqa: E402
import wl_tables  # noqa: E402
from common import BenchError  # noqa: E402

common.require_program()

TOY_SPECS = ["table1", "fig2", "table4", "ablation_buffer_depth"]
TOY_EXPONENT = 14
TOY_VALUES = [0.3, 0.6, 0.45, 0.2]


def _raises(exc_type, fn, *args, **kwargs):
    try:
        fn(*args, **kwargs)
    except exc_type as exc:
        return exc
    raise AssertionError(f"{fn.__name__} did not raise {exc_type.__name__}")


# ---------------------------------------------------------------------- #
# each workload at toy size, traced (which also runs the untraced arm)
# ---------------------------------------------------------------------- #

def test_tables_toy():
    result = wl_tables.run(3, 0.0, True, names=TOY_SPECS)
    assert result["failed"] == 0
    assert result["witness"]["runner.shards_computed"] == 13
    assert result["witness"]["runner.cache_hit_ratio"] == 0
    report = result["layers"]
    assert report["runner.shards_computed"] == 13
    assert report["analysis.shards"] == 13
    assert report["pipeline.calls"] > 0 and report["kernels.bits"] > 0
    assert report["pool.tasks"] == 13 and report["pool.worker_busy_s"] > 0


def test_long_stream_toy():
    result = wl_long_stream.run(5, 0.0, True, exponent=TOY_EXPONENT, tile_words=32,
                                setups=1)
    assert result["failed"] == 0 and result["attempted"] >= 2
    n = 1 << TOY_EXPONENT
    for bits in result["witness"].values():
        assert bits >= wl_long_stream.TRANSFORMS * 2 * n
    report = result["layers"]
    assert report["kernels.warm_s"] > 0 and report["kernels.cold_s"] == 0
    assert report["rng.values"] > 0 and report["pool.tasks"] > 0


def test_serve_toy():
    result = wl_serve.run(7, 1.0, True, setups=1, length=1 << 10)
    assert result["failed"] == 0
    assert result["witness"]["serve.ok_equals_sent"] is True
    assert result["witness"]["serve.samples_checked"] > 0
    report = result["layers"]
    assert report["serve.groups"] > 0 and report["serve.batch_mean"] >= 1
    assert report["engine.calls"] > 0


# ---------------------------------------------------------------------- #
# the witness rejects vacuous work
# ---------------------------------------------------------------------- #

def test_witness_rejects_vacuous_streaming_call():
    import repro.engine as engine

    layers.install()
    try:
        n = 1 << TOY_EXPONENT
        min_bits = wl_long_stream.TRANSFORMS * 2 * n
        plan = engine.compile_graph(wl_long_stream.build_graph(TOY_VALUES, TOY_EXPONENT))
        assert plan.optimize_level == 1
        # Dead-node elimination prunes every node of a keep=() run: no work.
        exc = _raises(BenchError, wl_long_stream.witnessed,
                      lambda: plan.run_streaming(n, keep=()), min_bits)
        assert "work witness failed" in str(exc)
        # The same plan audited does the work and passes.
        _, _, bits = wl_long_stream.witnessed(lambda: plan.audit_streaming(n), min_bits)
        assert bits == min_bits
    finally:
        layers.uninstall()


def test_tables_witness_rejects_cache_hits():
    out = {"reports": [{"spec": "table1", "shards": 1, "computed": 0, "cache_hits": 1,
                        "failed_checks": []}], "digests": {"k": "d"}}
    _raises(BenchError, wl_tables._witness, out, 1)


# ---------------------------------------------------------------------- #
# the correctness checks reject perturbed results
# ---------------------------------------------------------------------- #

def test_long_stream_check_rejects_perturbed_audit():
    import numpy as np

    n = 1 << TOY_EXPONENT
    reference = wl_long_stream.reference_doc(TOY_VALUES, n)
    perturbed = copy.deepcopy(reference)
    entry = perturbed["entries"][0]
    entry["measured_scc"] = float(np.nextafter(entry["measured_scc"], 2.0))
    audits = {"good": {"count": 3, "doc": reference}, "bad": {"count": 2, "doc": perturbed}}
    assert wl_long_stream.count_mismatches(audits, reference) == 2


def test_tables_check_rejects_perturbed_payload():
    reference = {"k1": "aa", "k2": "bb"}
    reports = [{"spec": "s", "shards": 2, "computed": 2, "cache_hits": 0, "failed_checks": []}]
    assert wl_tables._failures({"reports": reports, "digests": dict(reference)}, reference, 2) == 0
    assert wl_tables._failures({"reports": reports, "digests": {"k1": "aa", "k2": "bc"}},
                               reference, 2) == 1
    failing = [dict(reports[0], failed_checks=["shape"])]
    assert wl_tables._failures({"reports": failing, "digests": dict(reference)},
                               reference, 2) == 2


def test_serve_check_rejects_perturbed_response():
    from repro.engine import build_graph, compile_graph
    from repro.serve.batcher import execute_group
    from repro.serve.protocol import parse_request

    plan = compile_graph(build_graph(wl_serve.GRAPH))
    source = wl_serve.RequestSource(11, list(plan.source_names), 1 << 10)
    request = source.next("t")
    response = execute_group([parse_request(request)], plan)[0]
    assert wl_serve.verify([(request, response)], plan) == 0
    perturbed = copy.deepcopy(response)
    entry = perturbed["result"]["entries"][0]
    entry["measured_value"] = entry["measured_value"] + 1e-12
    assert wl_serve.verify([(request, perturbed)], plan) == 1


# ---------------------------------------------------------------------- #
# self-time arithmetic, compare mode, missing program
# ---------------------------------------------------------------------- #

def _span(name, t0, dur, parent, pid=1, **args):
    return {"name": name, "t0": t0, "dur": dur, "parent": parent, "pid": pid, "args": args}


def test_layer_report_self_time():
    spans = [
        _span(layers.REGION, 0.0, 12.5, -1),                          # 0 timed region
        _span("bench.engine.audit_streaming", 0.0, 10.0, 0, n=1),    # 1 root
        _span("engine.stream", 0.5, 9.0, 1),                          # 2 program span
        _span("bench.kernels.TablePairCarrier.step", 1.0, 4.0, 2, n=100, cold=True),  # 3
        _span("bench.kernels.ShuffleCarrier.step", 1.5, 1.0, 3),      # 4 folded into 3
        _span("bench.rng.sequence_window", 2.0, 1.0, 4, n=7),         # 5 child of 3
        _span("bench.kernels.TablePairCarrier.step", 6.0, 2.0, 2, n=100),  # 6 warm
        _span("bench.pool.task", 0.0, 3.0, -1, pid=2),                # 7 worker
    ]
    report = layers.layer_report(spans, {"counters": {}}, main_pid=1)
    assert report["engine.self_s"] == 10.0 - 4.0 - 2.0
    assert report["kernels.self_s"] == 3.0 + 2.0
    assert report["kernels.cold_s"] == 3.0 and report["kernels.warm_s"] == 2.0
    assert report["kernels.calls"] == 2 and report["kernels.bits"] == 200
    assert report["rng.self_s"] == 1.0 and report["rng.values"] == 7
    assert report["pool.worker_busy_s"] == 3.0
    # The root layer's own self time counts: 10 of the 12.5 s region.
    assert report["attributed_frac"] == 0.8


def test_layer_report_leaves_installer_calls_out_of_busy_time():
    spans = [
        _span("bench.pool.call", 0.0, 10.0, -1, jobs=2, workers=2,
              installer="repro.engine.parallel:_pool_install_ctx"),
        _span("bench.pool.task", 0.5, 1.0, -1, pid=2,
              fn="repro.engine.parallel:_pool_install_ctx"),          # priming
        _span("bench.pool.task", 2.0, 4.0, -1, pid=2, fn="repro.engine.parallel:_span_task"),
        _span("bench.pool.task", 2.0, 5.0, -1, pid=3, fn="repro.engine.parallel:_span_task"),
        _span("bench.pool.task", 9.0, 0.5, -1, pid=3,
              fn="repro.engine.parallel:_pool_install_ctx"),          # release
    ]
    report = layers.layer_report(spans, {"counters": {}}, main_pid=1)
    assert report["pool.calls"] == 1
    assert report["pool.worker_busy_s"] == 9.0
    assert report["pool.utilization"] == 9.0 / 20.0


def test_untraced_result_carries_every_end_to_end_metric():
    import run

    declared = {m["name"]: m["unit"] for m in
                json.loads((common.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    def phase(own, setup):
        metrics = {"setup_s": (setup, "s"), "peak_rss_mb": (setup * 10, "MB")}
        metrics.update({name: (1.0, declared[name]) for name in own})
        return {"attempted": 2, "failed": 0, "witness": {}, "metrics": metrics}

    phases = {"tables": phase(["tables_wall_s"], 0.5),
              "long_stream": phase(["long_stream_audit_s", "long_stream_audit_j2_s"], 3.0),
              "serve": phase(["serve_solo_p50_ms", "serve_burst_rps"], 0.7)}
    for named in run.WORKLOADS:
        combined = run.combine(named, phases)
        assert {k: unit for k, (_, unit) in combined["metrics"].items()} == declared
        assert combined["metrics"]["setup_s"] == phases[named]["metrics"]["setup_s"]
        assert combined["attempted"] == 6
    shares = run.budgets("serve", 30.0)
    assert abs(sum(shares.values()) - 30.0) < 1e-9 and shares["serve"] == 12.0


def _doc(workload, value, witness):
    metrics = {name: {"value": 0.0, "unit": unit} for name, unit in layers.PER_LAYER}
    metrics["kernels.self_s"]["value"] = value
    return {"workload": workload, "trace": True, "witness": witness, "metrics": metrics,
            "fingerprint": {"git_sha": None, "src_sha256": "abc"}}


def test_compare_reports_deltas_with_base():
    import compare

    base = {"long_stream": [_doc("long_stream", 2.0, {"w": 6})]}
    new = {"long_stream": [_doc("long_stream", 1.5, {"w": 6})]}
    lines = compare.report(base, new)
    row = next(line for line in lines if line.startswith("kernels.self_s"))
    assert "0.7500 of base 2 s" in row and "-0.5" in row
    assert any(line.startswith("witness identical") for line in lines)
    new["long_stream"][0]["witness"] = {"w": 0}
    assert any(line.startswith("WITNESS DIFFERS") for line in compare.report(base, new))


def test_fails_without_program():
    bare = common.TMP / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(common.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(common.ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tables", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=str(bare), env=env, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failures = 0
    for name, fn in tests:
        started = time.perf_counter()
        try:
            fn()
        except Exception as exc:  # noqa: BLE001 — report every failing test
            failures += 1
            print(f"FAIL {name}: {type(exc).__name__}: {exc}")
        else:
            print(f"ok   {name} ({time.perf_counter() - started:.1f}s)")
    print(json.dumps({"tests": len(tests), "failed": failures}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
