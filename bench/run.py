#!/usr/bin/env python3
"""panfuse benchmark: one workload, one closed-loop client, one process.

    python3 bench/run.py --workload wald-256 --seed 1 --seconds 10 --trace 0

Run from the repository root. panfuse is imported from ``src/`` beside this
directory. With ``--trace 0`` the last stdout line carries the end-to-end
metrics listed in ``BENCHMARK.json``; with ``--trace 1`` an untraced phase
and a traced phase share the run time and the last line carries the
per-layer metrics. The line before it is a JSON report with the environment
block, the tail percentile, ``failed_frac`` and every traced function.
Exit code 2 means the benchmark could not start.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3


def _measure(wl, keys, start, seconds, tracer=None):
    """Closed loop over ``keys[start:]``; runs at least one op."""
    samples, failed = [], 0
    i = start
    begin = perf_counter()
    while True:
        key = keys[i % len(keys)]
        if tracer is not None:
            tracer.op = len(samples)
        output, ok = None, False
        t0 = perf_counter()
        try:
            output = wl.run(key)
        except Exception:
            traceback.print_exc()
        samples.append((perf_counter() - t0) * 1e3)
        if output is not None:
            try:
                ok = wl.check(key, output)
            except Exception:
                traceback.print_exc()
        if not ok:
            failed += 1
            print(f"{wl.name}: op on input {key} failed", file=sys.stderr)
        i += 1
        if perf_counter() - begin >= seconds:
            return samples, failed, perf_counter() - begin, i


def _tail(samples: list[float]) -> dict | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    idx = max(math.ceil(pct * n / 100) - 1, 0)
    return {"value": sorted(samples)[idx], "percentile": pct, "n": n, "above": n - 1 - idx}


def _lscpu_caches() -> dict:
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=20, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {}
    caches = {}
    for level in ("L2", "L3"):
        m = re.search(
            rf"^{level} cache:\s*([\d.]+)\s*([KMG])i?B?(?:\s*\((\d+) instances?\))?",
            text,
            re.M,
        )
        if m:
            total = float(m.group(1)) * units[m.group(2)]
            caches[f"{level.lower()}_bytes_per_instance"] = int(total / int(m.group(3) or 1))
    return caches


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=20
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _environment(threads: int, wl) -> dict:
    import numpy as np

    import workloads

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        openblas = "unknown"
    env = {
        "numpy": np.__version__,
        "blas": openblas,
        "blas_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": workloads.src_sha256(),
        **_lscpu_caches(),
        "working_set_bytes": wl.working_set_bytes,
        "working_set_is": wl.working_set_what,
    }
    l2 = env.get("l2_bytes_per_instance")
    env["working_set_fits_l2"] = None if l2 is None else wl.working_set_bytes <= l2
    return env


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # BLAS reads its thread count once, when numpy is first imported.
    threads = max(1, min(2, len(os.sched_getaffinity(0))))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import panfuse
    except ImportError as exc:
        print(f"error: cannot import panfuse from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import_s = perf_counter() - t0
    if not Path(panfuse.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: panfuse imported from {panfuse.__file__}, not src/", file=sys.stderr)
        return 2

    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    work = OUT / f"work-{os.getpid()}"
    wl = workloads.WORKLOADS[args.workload](work)
    wl.load_goldens()
    try:
        prepare_s = []
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            wl.prepare()
            prepare_s.append(perf_counter() - t0)
        keys = wl.keys(args.seed)
        # Untimed warm-up op on the last input of this run's order.
        _, warm_failed, warm_s, _ = _measure(wl, keys[-1:], 0, 0.0)
        setup_s = import_s + statistics.median(prepare_s) + warm_s

        seconds = args.seconds / 2 if args.trace else args.seconds
        samples, failed, elapsed, next_i = _measure(wl, keys, 0, seconds)
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        tail = _tail(samples)
        end_to_end = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "op_p50_ms": {"value": statistics.median(samples), "unit": "ms"},
            "op_tail_ms": {"unit": "ms", **tail}
            if tail
            else {"value": None, "unit": "ms", "undefined": f"{len(samples)} ops, needs 11"},
            "ops_per_s": {"value": (len(samples) - failed) / elapsed, "unit": "1/s"},
            "failed_frac": {"value": failed / len(samples), "unit": "frac"},
            "peak_rss_mb": {"value": rss_kib * 1024 / 1e6, "unit": "MB"},
        }
        report = {
            "workload": wl.name,
            "seed": args.seed,
            "trace": args.trace,
            "environment": _environment(threads, wl),
            "setup_parts_s": {
                "import": import_s,
                "prepare_median": statistics.median(prepare_s),
                "warmup_op": warm_s,
            },
            "end_to_end": end_to_end,
            "op_ms": samples,
        }
        attempted, n_failed = len(samples), failed
        if args.trace:
            tracer = spans.Tracer()
            tracer.install()
            try:
                t_samples, t_failed, _, _ = _measure(wl, keys, next_i, seconds, tracer)
            finally:
                tracer.uninstall()
            attempted += len(t_samples)
            n_failed += t_failed
            traced = tracer.summarize(t_samples)
            traced["trace.overhead_frac"] = (
                statistics.median(t_samples) / statistics.median(samples) - 1.0
            )
            report["traced"] = {"ops": len(t_samples), "op_ms": t_samples, **traced}
            tracer.write(OUT / f"spans-{wl.name}-seed{args.seed}.jsonl")
            values = {
                m["name"]: traced.get(m["name"], 0.0) for m in spec["per_layer"]
            }
            wanted = spec["per_layer"]
        else:
            values = {name: m["value"] for name, m in end_to_end.items()}
            wanted = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"report": report}))
    result = {
        "correct": n_failed == 0 and warm_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
