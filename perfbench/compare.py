"""Compare two traced results layer by layer.

``python3 perfbench/run.py --compare BASE NEW`` where each side is a
traced result document (``.perfbench/results/<workload>-seed<n>-trace1.json``)
or a directory of them. With several documents per workload on one side
(different seeds), each metric is the median over them. Each workload
prints in its own block: per-layer self time and count, base and new
value, the delta, and the ratio with its base. Work witnesses must be
identical on both sides; the exit status is 1 when one differs.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List

from common import median
from layers import PER_LAYER


def load(path: str) -> Dict[str, List[Dict[str, Any]]]:
    """Traced result documents under ``path``, grouped by workload."""
    root = Path(path)
    files = sorted(root.glob("*-trace1.json")) if root.is_dir() else [root]
    grouped: Dict[str, List[Dict[str, Any]]] = {}
    for file in files:
        doc = json.loads(file.read_text())
        if not doc.get("trace"):
            raise SystemExit(f"{file} is not a traced result (run with --trace 1)")
        grouped.setdefault(doc["workload"], []).append(doc)
    if not grouped:
        raise SystemExit(f"no traced results under {path}")
    return grouped


def _value(docs: List[Dict[str, Any]], name: str) -> float:
    return median([d["metrics"][name]["value"] for d in docs if name in d["metrics"]] or [0.0])


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report(base: Dict[str, List[Dict[str, Any]]],
           new: Dict[str, List[Dict[str, Any]]]) -> List[str]:
    lines: List[str] = []
    for workload in sorted(set(base) | set(new)):
        b_docs, n_docs = base.get(workload, []), new.get(workload, [])
        lines.append(f"== {workload}: base n={len(b_docs)} "
                     f"({_shas(b_docs)}), new n={len(n_docs)} ({_shas(n_docs)})")
        lines.append(f"{'metric':<30} {'unit':<6} {'base':>12} {'new':>12} "
                     f"{'delta':>12}  ratio new/base")
        for name, unit in PER_LAYER:
            b, n = _value(b_docs, name), _value(n_docs, name)
            ratio = f"{n / b:.4f} of base {_fmt(b)} {unit}" if b else "n/a (base 0)"
            lines.append(f"{name:<30} {unit:<6} {_fmt(b):>12} {_fmt(n):>12} "
                         f"{_fmt(n - b):>12}  {ratio}")
        lines.extend(_witness_lines(b_docs, n_docs))
    return lines


def _shas(docs: List[Dict[str, Any]]) -> str:
    shas = sorted({str(d["fingerprint"].get("git_sha") or d["fingerprint"]["src_sha256"])[:12]
                   for d in docs})
    return ",".join(shas) or "-"


def _witness_lines(b_docs, n_docs) -> List[str]:
    witnesses = [json.dumps(d["witness"], sort_keys=True) for d in b_docs + n_docs]
    if len(set(witnesses)) <= 1:
        return [f"witness identical: {witnesses[0] if witnesses else '-'}"]
    return ["WITNESS DIFFERS: " + " | ".join(sorted(set(witnesses)))]


def main(base_path: str, new_path: str) -> int:
    lines = report(load(base_path), load(new_path))
    print("\n".join(lines))
    return 1 if any(line.startswith("WITNESS DIFFERS") for line in lines) else 0
