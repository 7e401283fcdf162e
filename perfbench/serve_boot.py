"""Start ``repro serve`` with the layer wrappers installed.

The traced ``serve`` run keeps the server in its own process, as users
run it; this bootstrap wraps the layers, opens the tracing session the
server then records into, runs the unchanged CLI, and on shutdown writes
the per-layer report plus every group's request ids and execute time::

    python3 perfbench/serve_boot.py OUT.json serve --port 0 --no-store
"""

from __future__ import annotations

import json
import os
import sys


def main(out_path: str, argv) -> int:
    import layers

    layers.install()
    import repro.cli
    from repro import obs

    obs.start()
    try:
        return repro.cli.main(argv)
    finally:
        trace = obs.stop()
        groups = [
            {"ids": rec["args"].get("ids", []), "dur": rec["dur"]}
            for rec in trace.spans if rec["name"] == f"{layers.PREFIX}serve.execute_group"
        ]
        doc = {"layers": layers.layer_report(trace.spans, trace.metrics, os.getpid()),
               "groups": groups}
        with open(out_path, "w") as fh:
            json.dump(doc, fh)


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit("usage: serve_boot.py OUT.json serve [serve options]")
    sys.exit(main(sys.argv[1], sys.argv[2:]))
