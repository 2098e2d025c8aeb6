#!/usr/bin/env python3
"""Regenerate ``bench/goldens/<workload>.json`` from the panfuse in ``src/``.

    python3 bench/make_goldens.py [workload ...]

The goldens are the reference outputs every benchmark op is checked
against, so they are generated once, at the commit that defines the
benchmark, and then frozen. Each file states its tolerance: an op fails
when a value differs from its golden by more than ``abs + rel * |golden|``.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

TOLERANCE = {
    "wald": {
        "abs": 2e-6,
        "rel": 0.0,
        "why": "report.csv prints six decimals, so a last-digit rounding flip is 1e-6",
    },
    "gan": {
        "abs": 1e-12,
        "rel": 1e-8,
        "why": "full-precision losses and gradient sums: room for a changed"
        " summation order, not for a changed formula",
    },
}


def _dump(doc: dict) -> str:
    """JSON with one line per op, so that each golden reads as one line."""
    head = json.dumps({k: v for k, v in doc.items() if k != "ops"}, indent=1)
    ops = [f"  {json.dumps(key)}: {json.dumps(value)}" for key, value in doc["ops"].items()]
    return head[:-2] + ',\n "ops": {\n' + ",\n".join(ops) + "\n }\n}\n"


def main(names: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    for name in names or workloads.WORKLOADS:
        work = ROOT / ".bench_out" / f"goldens-{name}"
        wl = workloads.WORKLOADS[name](work)
        try:
            wl.prepare()
            ops = {str(key): wl.summary(key, wl.run(key)) for key in wl.universe}
        finally:
            shutil.rmtree(work, ignore_errors=True)
        doc = {
            "workload": name,
            "src_sha256": workloads.src_sha256(),
            "tolerance": TOLERANCE[name.split("-")[0]],
            "ops": ops,
        }
        (BENCH / "goldens").mkdir(exist_ok=True)
        (BENCH / "goldens" / f"{name}.json").write_text(_dump(doc))
        print(f"wrote {len(ops)} goldens for {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
