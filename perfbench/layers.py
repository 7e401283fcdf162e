"""Per-layer spans and work counts, recorded from outside the program.

:func:`install` wraps the public entry points of each ``src/repro``
layer — where their callers look them up — so that every call records
a ``bench.<layer>.<entry>`` span through :mod:`repro.obs`. Using the
program's own tracer means spans from forked pool workers flush to its
spool and merge into the parent's trace like the program's own spans.
With no tracing session active a wrapper costs one extra Python call;
it still counts kernel input bits into :data:`KERNEL_BITS`, the work
witness of the streaming workload.

:func:`layer_report` turns a finished trace into per-layer metrics.
A layer's *self time* is its span wall time minus the part covered by
spans of other wrapped layers nested inside it; a span nested (at any
depth) inside a span of its own layer is folded into the outer one.
``attributed_frac`` is the share of the workload's timed region — a
:data:`REGION` span the workload opens around each timed call — that
any wrapped span of the measuring process covers, the outermost
layer's own self time included.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import multiprocessing
import sys
import threading
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

from common import median

# Wrapped calls record spans named ``bench.<layer>.<entry>``.
PREFIX = "bench."
# The span a workload opens around each timed call (not a layer).
REGION = "perfbench.region"

_DEPTH = threading.local()
_SEEN: Dict[int, Callable[[], Any]] = {}
_ORIGINALS: List[Tuple[Any, str, Any]] = []


class _SharedCounter:
    """A process-shared integer: forked pool workers inherit the mapping,
    so kernel work done in a worker counts in the parent's total."""

    def __init__(self) -> None:
        self._value = multiprocessing.get_context("fork").Value("q", 0)

    def add(self, n: int) -> None:
        with self._value.get_lock():
            self._value.value += n

    @property
    def value(self) -> int:
        with self._value.get_lock():
            return int(self._value.value)


KERNEL_BITS: Optional[_SharedCounter] = None


def _first_use(obj) -> bool:
    """Is this the first kernel call on ``obj`` in this process?"""
    if obj is None:
        return False
    key = id(obj)
    ref = _SEEN.get(key)
    if ref is not None and ref() is obj:
        return False
    try:
        _SEEN[key] = weakref.ref(obj)
    except TypeError:
        _SEEN[key] = lambda keep=obj: keep
    return True


def _wrap(fn, layer: str, entry: str, *, count=None, key=None):
    """``fn`` with a ``bench.<layer>.<entry>`` span around each call.

    ``count(args, kwargs, result)`` gives the call's work count and
    ``key(args)`` the circuit whose first call is *cold*; both are taken
    only on the outermost call of the layer, so nested calls of one
    layer never count work twice.
    """
    from repro import obs
    from repro.obs import tracer

    name = f"{PREFIX}{layer}.{entry}"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        depth = getattr(_DEPTH, layer, 0)
        setattr(_DEPTH, layer, depth + 1)
        try:
            # First use is tracked with tracing off too, so a traced call
            # after untraced warm-up calls is correctly warm.
            cold = depth == 0 and key is not None and _first_use(key(args))
            if tracer._TRACER is None:
                result = fn(*args, **kwargs)
                if depth == 0 and layer == "kernels" and KERNEL_BITS is not None:
                    KERNEL_BITS.add(count(args, kwargs, result))
                return result
            attrs: Dict[str, Any] = {"cold": True} if cold else {}
            with obs.span(name, **attrs) as sp:
                result = fn(*args, **kwargs)
                if depth == 0 and count is not None:
                    n = count(args, kwargs, result)
                    sp.annotate(n=n)
                    if layer == "kernels" and KERNEL_BITS is not None:
                        KERNEL_BITS.add(n)
            return result
        finally:
            setattr(_DEPTH, layer, depth)

    return wrapper


# ---------------------------------------------------------------------- #
# work counts
# ---------------------------------------------------------------------- #

def _result_size(args, kwargs, result) -> int:
    return int(getattr(result, "size", 0))


def _arg_sizes(*positions):
    def count(args, kwargs, result) -> int:
        return int(sum(getattr(args[p], "size", 0) for p in positions if p < len(args)))
    return count


def _carrier_circuit(carrier):
    """The circuit whose lazily built tables a carrier or composer steps."""
    for attr in ("_fsm", "_buffer", "_tfm"):
        obj = getattr(carrier, attr, None)
        if obj is not None:
            return obj
    for attr in ("_cx", "_cy"):
        inner = getattr(carrier, attr, None)
        if inner is not None:
            return _carrier_circuit(inner)
    stages = getattr(carrier, "_stages", None)
    if stages:
        return _carrier_circuit(stages[0])
    return None  # delay lines: no tables to build


# ---------------------------------------------------------------------- #
# installation
# ---------------------------------------------------------------------- #

def _replace_function(old, new) -> None:
    """Rebind ``old`` to ``new`` in every loaded ``repro`` module that
    holds it — the patch lands where each caller looks the name up."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                _ORIGINALS.append((module, attr, old))
                setattr(module, attr, new)


def _replace_method(cls, attr: str, new) -> None:
    _ORIGINALS.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, new)


def _wrap_pool_call(orig):
    from repro import obs

    @contextlib.contextmanager
    def pool_call(jobs, *args, **kwargs):
        # The installer is named so that the report can tell its worker
        # calls (context priming and release) from the call's tasks.
        with obs.span(f"{PREFIX}pool.call", jobs=jobs,
                      installer=kwargs.get("installer")) as sp:
            with orig(jobs, *args, **kwargs) as call:
                sp.annotate(workers=0 if call is None else call.workers)
                yield call

    return pool_call


def _wrap_imap(orig):
    from repro import obs

    @functools.wraps(orig)
    def imap(self, fn_ref, arglists):
        obs.counter_add(f"{PREFIX}pool.tasks", len(arglists))
        results = orig(self, fn_ref, arglists)
        while True:
            # Only the time the parent spends blocked inside the pool is
            # waiting; the consumer's work between results is its own.
            with obs.span(f"{PREFIX}pool.wait"):
                try:
                    item = next(results)
                except StopIteration:
                    return
            yield item

    return imap


def _wrap_resolve_fn(orig):
    from repro import obs

    @functools.wraps(orig)
    def resolve(ref):
        fn = orig(ref)

        @functools.wraps(fn)
        def task(*args, **kwargs):
            with obs.span(f"{PREFIX}pool.task", fn=ref):
                return fn(*args, **kwargs)

        return task

    return resolve


_ANALYSIS: Dict[Any, Callable] = {}


def _analysis_fn(fn):
    wrapped = _ANALYSIS.get(fn)
    if wrapped is None:
        wrapped = _wrap(fn, "analysis", getattr(fn, "__name__", "shard"))
        _ANALYSIS[fn] = wrapped
    return wrapped


def _wrap_execute_shard(orig):
    def execute_shard(task):
        return orig(dataclasses.replace(task, fn=_analysis_fn(task.fn)))

    functools.update_wrapper(execute_shard, orig)
    return _wrap(execute_shard, "runner", "execute_shard")


def _wrap_store_put(orig):
    from repro import obs

    def put(self, key, payload, meta=None):
        path = orig(self, key, payload, meta)
        obs.counter_add(f"{PREFIX}store.bytes_written", path.stat().st_size)
        return path

    functools.update_wrapper(put, orig)
    return _wrap(put, "runner", "store_put")


def install() -> None:
    """Wrap every layer's entry points (idempotent)."""
    global KERNEL_BITS
    if _ORIGINALS:
        return
    import repro  # noqa: F401 — loads the package before patching
    import repro.analysis.experiments  # noqa: F401
    import repro.bitstream.metrics as bmetrics
    import repro.bitstream.packed as packed
    import repro.bitstream.streaming as bstream
    import repro.engine.executor as executor
    import repro.engine.parallel  # noqa: F401
    import repro.engine.plan as plan
    import repro.engine.pool as pool
    import repro.engine.streaming as estream
    import repro.kernels.dispatch as dispatch
    import repro.kernels.streaming as kstream
    import repro.pipeline.accelerator as accelerator
    import repro.rng.base as rng_base
    import repro.runner.scheduler as scheduler
    import repro.runner.store as store
    import repro.runner.workers as workers
    import repro.serve.batcher as batcher
    import repro.serve.server  # noqa: F401

    KERNEL_BITS = _SharedCounter()

    # rng: every StreamRNG generator inherits these from the base class.
    for attr in ("sequence", "sequence_window", "sequence_at", "integers",
                 "integers_window", "fractions", "fractions_window"):
        method = rng_base.StreamRNG.__dict__[attr]
        _replace_method(rng_base.StreamRNG, attr,
                        _wrap(method, "rng", attr, count=_result_size))

    # bitstream: packing, popcount/overlap kernels, tile sources, accumulators.
    for fn, count in ((packed.pack_bits, _result_size),
                      (packed.pack_bits_unchecked, _result_size),
                      (packed.unpack_bits, _arg_sizes(0)),
                      (bmetrics.popcount_words, _arg_sizes(0)),
                      (bmetrics.overlap_counts_packed, _arg_sizes(0, 1))):
        _replace_function(fn, _wrap(fn, "bitstream", fn.__name__, count=count))
    _replace_method(bstream.PackedTileSource, "tile",
                    _wrap(bstream.PackedTileSource.tile, "bitstream", "tile",
                          count=_result_size))
    _replace_method(bstream.ValueAccumulator, "update",
                    _wrap(bstream.ValueAccumulator.update, "bitstream",
                          "value_update", count=_arg_sizes(1)))
    _replace_method(bstream.OverlapAccumulator, "update",
                    _wrap(bstream.OverlapAccumulator.update, "bitstream",
                          "overlap_update", count=_arg_sizes(1, 2)))

    # kernels: whole-stream dispatch plus every carrier/composer step.
    for fn, count in ((dispatch.pair_kernel, _arg_sizes(1, 2)),
                      (dispatch.op_kernel, _arg_sizes(1, 2)),
                      (dispatch.tfm_kernel, _arg_sizes(1)),
                      (dispatch.shuffle_kernel, _arg_sizes(1))):
        _replace_function(fn, _wrap(fn, "kernels", fn.__name__, count=count,
                                    key=lambda args: args[0]))
    for cls in vars(kstream).values():
        if isinstance(cls, type) and "step" in cls.__dict__ \
                and cls.__module__ == kstream.__name__ \
                and not getattr(cls.__dict__["step"], "__isabstractmethod__", False):
            _replace_method(cls, "step", _wrap(
                cls.__dict__["step"], "kernels", f"{cls.__name__}.step",
                count=_arg_sizes(1, 2),
                key=lambda args: _carrier_circuit(args[0])))

    # engine: compile and the five evaluation entry points.
    for fn in (plan.compile_graph, executor.run_batch, executor.audit_batch,
               executor.audit, estream.run_streaming, estream.audit_streaming):
        _replace_function(fn, _wrap(fn, "engine", fn.__name__))

    # pool: parent-side call and blocking waits, worker-side task spans.
    _replace_function(pool.pool_call, _wrap_pool_call(pool.pool_call))
    _replace_method(pool.PoolCall, "imap", _wrap_imap(pool.PoolCall.imap))
    _replace_function(pool._resolve_fn, _wrap_resolve_fn(pool._resolve_fn))

    # pipeline: the image accelerator's frame entry point.
    _replace_method(accelerator.SCAccelerator, "process",
                    _wrap(accelerator.SCAccelerator.process, "pipeline", "process"))

    # runner (analysis shard functions are wrapped per task, in the
    # process that runs the shard).
    _replace_function(scheduler.run_many,
                      _wrap(scheduler.run_many, "runner", "run_many"))
    _replace_function(workers.execute_shard, _wrap_execute_shard(workers.execute_shard))
    _replace_method(store.ResultStore, "get",
                    _wrap(store.ResultStore.get, "runner", "store_get"))
    _replace_method(store.ResultStore, "put", _wrap_store_put(store.ResultStore.put))

    # serve: the group executor as the server looks it up.
    _replace_function(batcher.execute_group, _wrap_execute_group(batcher.execute_group))


def _wrap_execute_group(orig):
    from repro import obs

    def execute_group(requests, plan, **kwargs):
        with obs.span(f"{PREFIX}serve.execute_group",
                      ids=[req.id for req in requests]) as sp:
            responses = orig(requests, plan, **kwargs)
            sp.annotate(errors=sum(1 for r in responses if not r.get("ok")))
            return responses

    functools.update_wrapper(execute_group, orig)
    return execute_group


def uninstall() -> None:
    """Restore every wrapped entry point (the self-tests use this)."""
    global KERNEL_BITS
    while _ORIGINALS:
        owner, attr, original = _ORIGINALS.pop()
        setattr(owner, attr, original)
    _ANALYSIS.clear()
    _SEEN.clear()
    KERNEL_BITS = None


def kernel_bits() -> int:
    if KERNEL_BITS is None:
        raise RuntimeError("layers are not installed")
    return KERNEL_BITS.value


# ---------------------------------------------------------------------- #
# trace -> per-layer metrics
# ---------------------------------------------------------------------- #

PER_LAYER = [
    ("rng.self_s", "s"), ("rng.calls", "count"), ("rng.values", "count"),
    ("bitstream.self_s", "s"), ("bitstream.calls", "count"),
    ("bitstream.words", "count"),
    ("kernels.self_s", "s"), ("kernels.calls", "count"), ("kernels.bits", "count"),
    ("kernels.cold_s", "s"), ("kernels.warm_s", "s"),
    ("engine.self_s", "s"), ("engine.compile_s", "s"), ("engine.calls", "count"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("pool.calls", "count"), ("pool.tasks", "count"), ("pool.wait_s", "s"),
    ("pool.worker_busy_s", "s"), ("pool.utilization", "ratio"),
    ("pool.fallbacks", "count"), ("pool.respawns", "count"),
    ("analysis.self_s", "s"), ("analysis.shards", "count"),
    ("pipeline.self_s", "s"), ("pipeline.calls", "count"),
    ("runner.self_s", "s"), ("runner.shards_computed", "count"),
    ("runner.cache_hit_ratio", "ratio"), ("store.write_s", "s"),
    ("store.bytes_written", "bytes"),
    ("serve.groups", "count"), ("serve.requests", "count"),
    ("serve.batch_mean", "count"), ("serve.execute_s", "s"),
    ("serve.wait_ms_p50", "ms"), ("serve.errors", "count"),
    ("trace_overhead_frac", "ratio"), ("attributed_frac", "ratio"),
]


def _union_length(intervals: List[Tuple[float, float]], lo: float, hi: float) -> float:
    total = 0.0
    cursor = lo
    for start, stop in sorted(intervals):
        start, stop = max(start, cursor), min(stop, hi)
        if stop > start:
            total += stop - start
            cursor = stop
    return total


def layer_report(spans: List[Dict[str, Any]], metrics: Dict[str, Any],
                 main_pid: int) -> Dict[str, float]:
    """Per-layer self times and counts of one finished trace.

    ``main_pid`` is the process that timed the workload: its
    :data:`REGION` spans and the wrapped spans covering them give
    ``attributed_frac``. Spans of other processes (pool workers) count
    toward their layers but not toward attribution. Worker-side calls of
    a pool call's installer are priming, not task work, and are left out
    of ``pool.worker_busy_s``.
    """
    installers = {(rec.get("args") or {}).get("installer") for rec in spans
                  if rec["name"] == f"{PREFIX}pool.call"} - {None}
    layer_of: Dict[int, str] = {}
    nearest: Dict[int, int] = {}      # span -> nearest wrapped ancestor (-1)
    top: Dict[int, int] = {}          # wrapped span -> span it folds into
    for i, rec in enumerate(spans):
        parent = rec["parent"]
        anc = -1
        if parent >= 0:
            anc = parent if parent in layer_of else nearest.get(parent, -1)
        nearest[i] = anc
        if rec["name"].startswith(PREFIX):
            layer = rec["name"][len(PREFIX):].split(".", 1)[0]
            layer_of[i] = layer
            folded = anc >= 0 and layer_of[top[anc]] == layer
            top[i] = top[anc] if folded else i

    covered: Dict[int, List[Tuple[float, float]]] = {}
    for i in layer_of:
        if top[i] != i or nearest[i] < 0:
            continue
        owner = top[nearest[i]]
        rec = spans[i]
        covered.setdefault(owner, []).append((rec["t0"], rec["t0"] + rec["dur"]))

    out: Dict[str, float] = {name: 0.0 for name, _ in PER_LAYER}
    roots: List[Tuple[float, float]] = []
    call_capacity = 0.0
    for i, layer in layer_of.items():
        rec = spans[i]
        name = rec["name"][len(PREFIX):]
        args = rec.get("args") or {}
        if name == "pool.wait":
            out["pool.wait_s"] += rec["dur"]
        elif name == "pool.task" and rec["pid"] != main_pid \
                and args.get("fn") not in installers:
            out["pool.worker_busy_s"] += rec["dur"]
        elif name == "pool.call":
            workers = args.get("workers", 0)
            if workers:
                out["pool.calls"] += 1
                call_capacity += workers * rec["dur"]
        elif name == "runner.store_put":
            out["store.write_s"] += rec["dur"]
        elif name == "engine.compile_graph":
            out["engine.compile_s"] += rec["dur"]
        elif name == "serve.execute_group":
            out["serve.groups"] += 1
            out["serve.requests"] += len(args.get("ids", ()))
            out["serve.execute_s"] += rec["dur"]
            out["serve.errors"] += args.get("errors", 0)
        elif name == "runner.execute_shard":
            out["runner.shards_computed"] += 1
        if top[i] != i:
            continue
        lo, hi = rec["t0"], rec["t0"] + rec["dur"]
        cover = _union_length(covered.get(i, []), lo, hi)
        self_s = rec["dur"] - cover
        if f"{layer}.self_s" in out:
            out[f"{layer}.self_s"] += self_s
        if f"{layer}.calls" in out and layer != "pool":  # pool.calls: pooled calls only
            out[f"{layer}.calls"] += 1
        work = args.get("n", 0)
        if layer == "rng":
            out["rng.values"] += work
        elif layer == "bitstream":
            out["bitstream.words"] += work
        elif layer == "kernels":
            out["kernels.bits"] += work
            out["kernels.cold_s" if args.get("cold") else "kernels.warm_s"] += self_s
        elif layer == "analysis":
            out["analysis.shards"] += 1
        if nearest[i] < 0 and rec["pid"] == main_pid:
            roots.append((lo, hi))

    counters = metrics.get("counters", {})
    hits = counters.get("engine.plan.cache.hit", 0)
    misses = counters.get("engine.plan.cache.miss", 0)
    out["engine.plan_cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    out["pool.tasks"] = counters.get(f"{PREFIX}pool.tasks", 0)
    out["pool.utilization"] = (
        out["pool.worker_busy_s"] / call_capacity if call_capacity else 0.0
    )
    out["pool.fallbacks"] = sum(
        v for k, v in counters.items() if k.startswith("engine.pool.fallback.")
    )
    out["pool.respawns"] = counters.get("engine.pool.respawn", 0)
    out["store.bytes_written"] = counters.get(f"{PREFIX}store.bytes_written", 0)
    runner_hits = counters.get("runner.cache.hit", 0)
    runner_total = runner_hits + counters.get("runner.cache.miss", 0)
    out["runner.cache_hit_ratio"] = runner_hits / runner_total if runner_total else 0.0
    out["serve.batch_mean"] = (
        out["serve.requests"] / out["serve.groups"] if out["serve.groups"] else 0.0
    )
    regions = [(rec["t0"], rec["t0"] + rec["dur"]) for rec in spans
               if rec["name"] == REGION and rec["pid"] == main_pid]
    region_wall = sum(hi - lo for lo, hi in regions)
    out["attributed_frac"] = (
        sum(_union_length(roots, lo, hi) for lo, hi in regions) / region_wall
        if region_wall else 0.0
    )
    return out


def merge_reports(reports: List[Dict[str, float]]) -> Dict[str, float]:
    """Median of each metric over several traced repetitions."""
    if not reports:
        return {name: 0.0 for name, _ in PER_LAYER}
    return {name: median([r.get(name, 0.0) for r in reports]) for name, _ in PER_LAYER}
