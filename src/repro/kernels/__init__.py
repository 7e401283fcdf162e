"""repro.kernels — time-parallel execution of sequential SC circuits.

After the packed combinational domain (PR 1) and the compiled engine
(PR 2), the sequential circuits — the paper's synchronizer /
desynchronizer / regenerator family plus the FSM arithmetic baselines —
were the last interpreter-bound hot path: every one ran a python
``for t in range(length)`` loop. This subsystem erases that loop:

* :mod:`repro.kernels.tables` — lowers each bounded-state circuit to
  explicit ``(symbol, state) -> (next_state, out_bits)`` transition
  tables (plus per-``remaining`` tail tables for the flush modes);
* :mod:`repro.kernels.steppers` — vectorised executors over those
  tables: a chunked-LUT stepper that row-folds long streams (row count
  chosen per ``(batch, chunks, n_states)``), plus a log-doubling
  prefix-scan stepper kept as a forced strategy;
* :mod:`repro.kernels.dispatch` — per-instance kernel caching, the
  ``auto``/``reference`` backend switch, and the dedicated gather
  kernels (shuffle buffer, TFM output stage).

The circuits themselves stay the source of truth: their original loops
remain as the bit-identical reference implementation, selected by
``kernels.set_backend("reference")`` and enforced equal by
``tests/test_kernels.py`` across depths, flush modes, encodings, odd
lengths, and batch sizes. The engine classifies table-compiled transform
nodes into a ``kernel`` domain (:mod:`repro.engine.plan`), and every
sweep, audit, autofix, and pipeline path inherits the speedup because
dispatch happens inside ``_process_bits`` itself.
"""

from .dispatch import (
    compiled_kernel,
    get_backend,
    get_strategy,
    is_kernelized,
    op_kernel,
    pair_kernel,
    set_backend,
    set_strategy,
    shuffle_kernel,
    tfm_kernel,
    use_backend,
)
from .steppers import (
    STRATEGIES,
    choose_chunk,
    choose_rows,
    choose_strategy,
    state_trajectory,
    step_chunk,
)
from .streaming import (
    PairCarrier,
    StreamCarrier,
    make_pair_carrier,
    make_stream_carrier,
)
from .tables import (
    MAX_TABLE_STATES,
    CompiledFSM,
    TransitionTable,
    compilable_types,
    compile_transform,
)

__all__ = [
    "CompiledFSM",
    "TransitionTable",
    "compile_transform",
    "compilable_types",
    "MAX_TABLE_STATES",
    "STRATEGIES",
    "state_trajectory",
    "step_chunk",
    "choose_chunk",
    "choose_rows",
    "choose_strategy",
    "PairCarrier",
    "StreamCarrier",
    "make_pair_carrier",
    "make_stream_carrier",
    "get_backend",
    "set_backend",
    "use_backend",
    "get_strategy",
    "set_strategy",
    "pair_kernel",
    "op_kernel",
    "tfm_kernel",
    "shuffle_kernel",
    "compiled_kernel",
    "is_kernelized",
]
