"""Group execution: one engine pass serving many requests.

:func:`execute_group` is the **single code path** for every engine-bound
request the server answers — a solo request is simply a group of one.
That, plus the engine's row contract (*row i of a batched pass is
bit-identical to evaluating configuration i alone*), is the whole
byte-identity argument: there is no separate fast path whose output
could drift from the slow one.

Pipeline of one group (all requests share a
:func:`~repro.serve.protocol.group_key`):

1. **Store short-circuit** — each request's canonical identity is a
   content address in the shared
   :class:`~repro.runner.store.ResultStore`; hits skip the engine
   entirely (and skip counting toward the batch).
2. **Value merge** — the missing requests' source overrides merge into
   per-source ``(batch,)`` arrays; sources a request leaves unnamed get
   their graph-default value, so row *i* is exactly request *i*'s solo
   configuration. A group with no overrides anywhere collapses to a
   single shared row.
3. **Route** — the materialised footprint estimate
   (:func:`~repro.bitstream.streaming.materialized_batch_bytes`)
   decides between the materialised executor and the constant-memory
   tile scheduler (:func:`~repro.engine.streaming.run_streaming`,
   bit-identical by construction). Audits with overrides always use
   :func:`~repro.engine.executor.audit_batch` — the streaming auditor
   takes no per-source overrides (its N = 2^22 use case audits graph
   defaults), so the budget can only reroute *default-configuration*
   audits; this is the one documented load-shed gap.
4. **Split** — per-request results are rendered from their row
   (config-independent nodes have one shared row) and written back to
   the store.

This module is synchronous and socket-free on purpose: the asyncio
server calls it on a worker thread, tests and docs call it directly.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..engine.executor import audit_batch, run_batch
from ..engine.plan import ExecutionPlan
from ..engine.streaming import audit_streaming, run_streaming
from ..exceptions import GraphCompilationError
from ..bitstream.streaming import DEFAULT_TILE_WORDS, materialized_batch_bytes
from ..obs import counter_add
from ..obs import span as obs_span
from ..runner.store import ResultStore
from .protocol import ServeRequest, words_to_b64

__all__ = [
    "DEFAULT_BUDGET_BYTES",
    "execute_group",
    "merged_values",
    "store_key",
]

# 256 MiB of live packed buffers before a group sheds into streaming.
DEFAULT_BUDGET_BYTES = 256 * 1024 * 1024


def store_key(store: ResultStore, req: ServeRequest) -> str:
    """The content address of one request's deterministic result.

    Reuses the runner's shard-key scheme, so the code-relevant version
    is folded in: editing any engine source invalidates every cached
    serve response, exactly like runner shards.
    """
    return store.shard_key(
        spec="serve",
        label=req.kind,
        fn_ref=f"serve.{req.kind}",
        kwargs={
            "graph": req.graph,
            "length": req.length,
            "values": dict(req.values),
            "keep": list(req.keep) if req.keep is not None else None,
            "bits": req.bits,
            "encoding": req.encoding,
            "tolerance": req.tolerance if req.kind == "audit" else None,
        },
        seed=None,
    )


def merged_values(
    requests: List[ServeRequest], plan: ExecutionPlan
) -> Optional[Dict[str, np.ndarray]]:
    """Merge per-request source overrides into batched override arrays.

    Returns None when no request overrides anything (the whole group
    shares the graph-default single row). Otherwise every source any
    request names gets a ``(batch,)`` array whose row *i* is request
    *i*'s value — or the graph default where request *i* stayed silent —
    so each row reproduces that request's solo configuration exactly.
    """
    overridden = sorted({name for r in requests for name, _ in r.values})
    if not overridden:
        return None
    defaults = {s.name: s.value for s in plan.source_steps}
    merged: Dict[str, np.ndarray] = {}
    for name in overridden:
        merged[name] = np.array(
            [r.values_dict.get(name, defaults[name]) for r in requests],
            dtype=np.float64,
        )
    return merged


def _row(array: np.ndarray, i: int) -> int:
    """Row index of configuration ``i`` in a possibly-shared matrix
    (config-independent nodes carry one row for the whole batch)."""
    return min(i, array.shape[0] - 1)


def _render_run(run, i: int, req: ServeRequest) -> Dict[str, Any]:
    """Request ``i``'s deterministic payload from a (batched) run."""
    result: Dict[str, Any] = {
        "graph": req.graph,
        "length": req.length,
        "encoding": req.encoding,
        "values": {
            name: float(run.values(name)[_row(run.packed[name], i)])
            for name in run.names
        },
    }
    if req.bits:
        result["words"] = {
            name: words_to_b64(run.packed[name][_row(run.packed[name], i)])
            for name in run.names
        }
    return result


def _render_audit_batch(audit, i: int, req: ServeRequest) -> Dict[str, Any]:
    """Request ``i``'s payload from a batched audit (an override-free
    group audits one shared row)."""
    entries = [
        {
            "node": e.node,
            "op": e.op,
            "required_scc": e.required_scc,
            "measured_scc": float(e.measured_scc[_row(e.measured_scc, i)]),
            "expected_value": float(e.expected_value[_row(e.expected_value, i)]),
            "measured_value": float(e.measured_value[_row(e.measured_value, i)]),
            "violated": bool(e.violated[_row(e.violated, i)]),
        }
        for e in audit.entries
    ]
    return {
        "graph": req.graph,
        "length": req.length,
        "tolerance": req.tolerance,
        "entries": entries,
        "violations": sum(e["violated"] for e in entries),
    }


def _render_audit_graph(audit, req: ServeRequest) -> Dict[str, Any]:
    """Same payload shape from a streaming :class:`GraphAudit` (scalar
    entries; only reachable for override-free groups, where every row is
    the shared default configuration)."""
    entries = [
        {
            "node": e.node,
            "op": e.op,
            "required_scc": e.required_scc,
            "measured_scc": float(e.measured_scc),
            "expected_value": float(e.expected_value),
            "measured_value": float(e.measured_value),
            "violated": bool(e.violated),
        }
        for e in audit.entries
    ]
    return {
        "graph": req.graph,
        "length": req.length,
        "tolerance": req.tolerance,
        "entries": entries,
        "violations": sum(e["violated"] for e in entries),
    }


def execute_group(
    requests: List[ServeRequest],
    plan: ExecutionPlan,
    *,
    store: Optional[ResultStore] = None,
    budget_bytes: int = DEFAULT_BUDGET_BYTES,
    stream_jobs: int = 1,
    tile_words: int = DEFAULT_TILE_WORDS,
) -> List[Dict[str, Any]]:
    """Serve one coalesced group in a single engine pass.

    Args:
        requests: requests sharing one :func:`~repro.serve.protocol.group_key`.
        plan: the compiled plan all of them target.
        store: optional shared result store — hits short-circuit the
            engine; misses are written back (atomic, last-writer-wins).
        budget_bytes: materialised-footprint budget above which the
            group sheds into the streaming backend.
        stream_jobs / tile_words: parameters of the shed path.

    Returns one response dict per request, in request order:
    ``{"id", "ok": True, "result", "meta": {"route", "coalesced",
    "cached"}}``. The ``result`` payloads are byte-identical (canonical
    JSON) to serving each request alone.
    """
    if not requests:
        return []
    req0 = requests[0]
    results: List[Optional[Dict[str, Any]]] = [None] * len(requests)
    cached = [False] * len(requests)
    keys: List[Optional[str]] = [None] * len(requests)

    if store is not None:
        for i, req in enumerate(requests):
            keys[i] = store_key(store, req)
            hit = store.get(keys[i])
            if hit is not None:
                results[i] = hit
                cached[i] = True

    misses = [i for i in range(len(requests)) if results[i] is None]
    route = "store"
    if misses:
        miss_reqs = [requests[i] for i in misses]
        values = merged_values(miss_reqs, plan)
        batch = len(miss_reqs) if values is not None else 1
        footprint = materialized_batch_bytes(len(plan.steps), batch, req0.length)
        shed = footprint > budget_bytes
        keep = list(req0.keep) if req0.keep is not None else None
        with obs_span(
            "serve.execute",
            kind=req0.kind, graph=req0.graph, length=req0.length,
            batch=len(miss_reqs), shed=shed,
        ):
            if req0.kind == "run":
                route = "batched"
                if shed:
                    try:
                        run = run_streaming(
                            plan, req0.length, values=values, keep=keep,
                            encoding=req0.encoding, tile_words=tile_words,
                            jobs=stream_jobs,
                        )
                        route = "streamed"
                    except GraphCompilationError:
                        # Plans with fsm-domain transforms have no
                        # streaming carriers; the budget cannot reroute
                        # them, so they take the materialised pass.
                        run = None
                    if route == "streamed":
                        for j, i in enumerate(misses):
                            results[i] = _render_run(run, j, requests[i])
                if route == "batched":
                    run = run_batch(
                        plan, req0.length, values=values, keep=keep,
                        encoding=req0.encoding,
                    )
                    for j, i in enumerate(misses):
                        results[i] = _render_run(run, j, requests[i])
            else:  # audit
                if shed and values is None:
                    try:
                        ga = audit_streaming(
                            plan, req0.length, tolerance=req0.tolerance,
                            tile_words=tile_words, jobs=stream_jobs,
                        )
                        route = "streamed"
                        for i in misses:
                            results[i] = _render_audit_graph(ga, requests[i])
                    except GraphCompilationError:
                        route = "batched"
                else:
                    route = "batched"
                if route == "batched":
                    ba = audit_batch(
                        plan, req0.length, values=values,
                        tolerance=req0.tolerance,
                    )
                    for j, i in enumerate(misses):
                        results[i] = _render_audit_batch(ba, j, requests[i])

        if store is not None:
            # Intra-group duplicates may write the same key twice; the
            # store's unique-temp atomic rename makes that a benign
            # last-writer-wins (both writers hold identical content).
            for i in misses:
                store.put(
                    keys[i],
                    results[i],
                    meta={"kind": requests[i].kind, "graph": requests[i].graph},
                )

    counter_add("serve.store.hit", sum(cached))
    return [
        {
            "id": req.id,
            "ok": True,
            "result": results[i],
            "meta": {
                "route": "store" if cached[i] else route,
                "coalesced": len(requests),
                "cached": cached[i],
            },
        }
        for i, req in enumerate(requests)
    ]
