"""Bench: serving throughput — micro-batch coalescing vs solo dispatch.

The serving front-end's perf claim: under concurrent load, coalescing
requests that share a structural plan into single batched engine passes
multiplies throughput, because one batched pass over ``k``
configurations costs far less than ``k`` solo passes (shared source
generation, one schedule walk, vectorised kernels).

Two server arms, identical except for the one coalescing knob:

* **coalesce=on** — ``max_batch=64`` (requests that arrive while a pass
  for their plan is in flight group into the next pass);
* **coalesce=off** — ``max_batch=1`` (every request is its own engine
  pass — the classic request-per-pass server).

Both serve the same closed-loop load: ``audit depth8 N=65536`` with
per-request distinct source values (the batched value-merge path, not
the degenerate shared-row case), no result store (every request must
reach the engine). Floors:

* **throughput** at concurrency 32: coalesce=on >= 3x coalesce=off — a
  relative same-box measure, legitimate to gate in CI;
* **lone-request latency** at concurrency 1: coalesce=on p50 <= 1.25x
  coalesce=off p50, each over ``SOLO_REQUESTS`` sequential requests —
  coalescing may cost latency only when there is a queue to coalesce
  (a fixed batching window made a lone request wait ~2x);
* **byte identity**: sampled coalesced responses equal their solo
  service (direct ``execute_group`` group-of-one) as canonical JSON.

``python benchmarks/bench_serve.py`` archives
``benchmarks/results/serve.txt`` + ``BENCH_serve.json`` and exits
non-zero on a floor miss; ``--smoke`` runs a reduced comparison
(concurrency 16) plus the same concurrency-1 latency gate for the CI
smoke job.
"""

import pathlib
import sys

import pytest

import _snapshot
from repro.engine.library import build_graph
from repro.engine.plan import compile_graph
from repro.serve import ServeConfig, ServerThread, execute_group
from repro.serve.loadgen import audit_request, run_load
from repro.serve.protocol import canonical_result, parse_request

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

GRAPH = "depth8"
LENGTH = 1 << 16
CONCURRENCY_SWEEP = (1, 8, 32)
GATE_CONCURRENCY = 32
PER_WORKER = 3
MIN_SPEEDUP = 3.0
# The CI smoke arm runs at lower concurrency (16), where the coalescing
# win is structurally smaller; it gates a softer floor so shared-runner
# noise doesn't flake the job — the strict 3x gate rides on the c=32 arm.
SMOKE_MIN_SPEEDUP = 2.0
# Lone-request latency: a p50 over fewer requests (or a throughput over
# the sweep's 3) is too noisy to gate on a shared machine.
SOLO_REQUESTS = 32
MAX_SOLO_P50_RATIO = 1.25
IDENTITY_SAMPLES = 8

_ARMS = {
    "on": dict(max_batch=64),
    "off": dict(max_batch=1),
}


def _make_request(i: int) -> dict:
    payload = audit_request(GRAPH, LENGTH, i)
    payload["id"] = f"g{i}"
    return payload


def _measure_arm(arm: str, concurrency: int, per_worker: int = PER_WORKER):
    config = ServeConfig(store_root=None, **_ARMS[arm])
    with ServerThread(config) as srv:
        report = run_load(
            "127.0.0.1", srv.port,
            concurrency=concurrency, per_worker=per_worker,
            make_request=_make_request,
        )
        counters = dict(srv.server.counters)
    assert report.errors == 0, f"arm {arm}: {report.errors} request errors"
    return report, counters


def _assert_identity(responses):
    """Sampled coalesced responses == their solo service, byte for byte."""
    plan = compile_graph(build_graph(GRAPH))
    by_id = {r["id"]: r for r in responses if r.get("ok")}
    sampled = sorted(by_id)[:IDENTITY_SAMPLES]
    assert sampled, "no successful responses to check"
    for rid in sampled:
        i = int(rid[1:])
        solo_req = parse_request({**_make_request(i), "id": "solo"})
        solo = execute_group([solo_req], plan)[0]
        assert canonical_result(by_id[rid]["result"]) == canonical_result(
            solo["result"]
        ), f"coalesced response {rid} diverged from solo service"


def _solo_latency():
    """Concurrency-1 p50 latency of each arm over ``SOLO_REQUESTS``
    sequential requests; returns ``(on / off ratio, {arm: p50_ms})``."""
    p50 = {}
    for arm in ("off", "on"):
        report, _ = _measure_arm(arm, 1, per_worker=SOLO_REQUESTS)
        p50[arm] = report.p50_ms
    return p50["on"] / p50["off"], p50


def _solo_verdict(ratio, p50) -> str:
    return (
        f"lone-request p50 over {SOLO_REQUESTS} requests at concurrency 1: "
        f"off {p50['off']:.2f} ms, on {p50['on']:.2f} ms, "
        f"ratio {ratio:.2f}x (gate <= {MAX_SOLO_P50_RATIO}x)"
    )


def _warmup():
    """One solo pass before any timing: the engine's process-global
    sequence memos (source RNG sequences at N) warm up once, so the
    first-measured arm isn't charged the cold-start cost."""
    plan = compile_graph(build_graph(GRAPH))
    execute_group([parse_request({**_make_request(0), "id": "warm"})], plan)


def _run_and_archive():
    _warmup()
    rows = []
    gate = {}
    for concurrency in CONCURRENCY_SWEEP:
        reports = {}
        for arm in ("off", "on"):
            report, counters = _measure_arm(arm, concurrency)
            reports[arm] = (report, counters)
            _snapshot.add_entry(
                "serve",
                op=f"audit {GRAPH} c={concurrency} coalesce={arm}",
                wall_ms=report.duration_s * 1e3,
                config={
                    "graph": GRAPH, "length": LENGTH,
                    "concurrency": concurrency,
                    "requests": report.requests,
                    "rps": round(report.throughput_rps, 1),
                    "p50_ms": round(report.p50_ms, 2),
                    "p99_ms": round(report.p99_ms, 2),
                    "coalesced_max": report.coalesced_max,
                    "batched": counters.get("serve.coalesce.batched", 0),
                    "solo": counters.get("serve.coalesce.solo", 0),
                },
            )
        off, on = reports["off"][0], reports["on"][0]
        speedup = on.throughput_rps / off.throughput_rps if off.throughput_rps else 0.0
        rows.append((concurrency, off, on, speedup))
        if concurrency == GATE_CONCURRENCY:
            gate["speedup"] = speedup
            gate["responses"] = on.responses
            _snapshot.add_entry(
                "serve",
                op=f"coalescing speedup c={GATE_CONCURRENCY}",
                wall_ms=on.duration_s * 1e3,
                config={"floor": MIN_SPEEDUP},
                speedup=speedup,
            )

    solo_ratio, solo_p50 = _solo_latency()
    gate["solo_ratio"] = solo_ratio
    _snapshot.add_entry(
        "serve",
        op=f"lone-request p50 c=1 on/off over {SOLO_REQUESTS} requests",
        wall_ms=solo_p50["on"],
        config={"off_p50_ms": round(solo_p50["off"], 2),
                "on_p50_ms": round(solo_p50["on"], 2),
                "requests": SOLO_REQUESTS,
                "ceiling": MAX_SOLO_P50_RATIO},
        speedup=solo_p50["off"] / solo_p50["on"],
    )

    lines = [
        f"serving throughput — audit {GRAPH} N={LENGTH}, "
        f"{PER_WORKER} requests/worker",
        "",
        f"{'conc':>5} {'off rps':>9} {'on rps':>9} {'speedup':>8} "
        f"{'off p99 ms':>11} {'on p99 ms':>11} {'max batch':>10}",
    ]
    for concurrency, off, on, speedup in rows:
        lines.append(
            f"{concurrency:>5} {off.throughput_rps:>9.1f} "
            f"{on.throughput_rps:>9.1f} {speedup:>7.2f}x "
            f"{off.p99_ms:>11.2f} {on.p99_ms:>11.2f} "
            f"{on.coalesced_max:>10}"
        )
    lines.append("")
    lines.append(
        f"floor: coalesce=on >= {MIN_SPEEDUP:.0f}x coalesce=off at "
        f"concurrency {GATE_CONCURRENCY} "
        f"(measured {gate['speedup']:.2f}x)"
    )
    lines.append(f"gate: {_solo_verdict(solo_ratio, solo_p50)}")
    text = "\n".join(lines)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / "serve.txt").write_text(text + "\n")
    _snapshot.write("serve")
    print("\n" + text)
    return gate, text


@pytest.fixture(scope="module")
def measured():
    return _run_and_archive()


def test_coalescing_throughput_floor(measured):
    gate, text = measured
    assert gate["speedup"] >= MIN_SPEEDUP, (
        f"coalescing speedup {gate['speedup']:.2f}x under the "
        f"{MIN_SPEEDUP:.0f}x floor at concurrency {GATE_CONCURRENCY}\n{text}"
    )


def test_lone_request_latency_gate(measured):
    gate, text = measured
    assert gate["solo_ratio"] <= MAX_SOLO_P50_RATIO, (
        f"coalescing makes a lone request {gate['solo_ratio']:.2f}x slower "
        f"(p50), over the {MAX_SOLO_P50_RATIO}x gate\n{text}"
    )


def test_coalesced_responses_byte_identical(measured):
    gate, _ = measured
    _assert_identity(gate["responses"])


def _smoke(concurrency: int = 16) -> int:
    """The CI smoke arm: one reduced comparison, the softened throughput
    floor, and the full concurrency-1 latency gate."""
    _warmup()
    solo_ratio, solo_p50 = _solo_latency()
    print(f"smoke {_solo_verdict(solo_ratio, solo_p50)}")
    off, _ = _measure_arm("off", concurrency, per_worker=2)
    on, counters = _measure_arm("on", concurrency, per_worker=2)
    speedup = on.throughput_rps / off.throughput_rps
    batched = counters.get("serve.coalesce.batched", 0)
    solo = counters.get("serve.coalesce.solo", 0)
    print(f"smoke c={concurrency}: off={off.throughput_rps:.1f} rps, "
          f"on={on.throughput_rps:.1f} rps, speedup={speedup:.2f}x, "
          f"batched={batched}, solo={solo}")
    _assert_identity(on.responses)
    print("byte identity: coalesced == solo (sampled)")
    if batched <= solo:
        print(f"FAIL: batched ({batched}) <= solo ({solo})")
        return 1
    if speedup < SMOKE_MIN_SPEEDUP:
        print(f"FAIL: speedup {speedup:.2f}x < {SMOKE_MIN_SPEEDUP:.0f}x "
              "smoke floor")
        return 1
    if solo_ratio > MAX_SOLO_P50_RATIO:
        print(f"FAIL: lone-request p50 ratio {solo_ratio:.2f}x > "
              f"{MAX_SOLO_P50_RATIO}x")
        return 1
    print(f"OK: batched > solo, speedup >= {SMOKE_MIN_SPEEDUP:.0f}x, "
          f"lone-request p50 ratio <= {MAX_SOLO_P50_RATIO}x")
    return 0


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        sys.exit(_smoke())
    gate, _ = _run_and_archive()
    _assert_identity(gate["responses"])
    print("byte identity: coalesced == solo (sampled)")
    passed = (gate["speedup"] >= MIN_SPEEDUP
              and gate["solo_ratio"] <= MAX_SOLO_P50_RATIO)
    sys.exit(0 if passed else 1)
