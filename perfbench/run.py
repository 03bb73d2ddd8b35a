"""flatlink benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; flatlink is imported from the
checkout's `src/`, never from an installed copy. Every flatlink call runs
in a fresh child interpreter (worker.py), single-threaded, closed loop: an
op starts when the previous one returns.

--trace 0 prints the end-to-end metrics:
  work_per_s   work units per busy second (decide and flags: instances;
               certify: pattern cells; descend: congruence-ball points)
  op_p50_ms    median op latency (decide: one instance of each m = 2..5;
               certify: one pattern, synthesized and rationalized;
               descend: one descent; flags: one cycle of three instances)
  peak_rss_mb  peak resident memory of the measuring interpreter
  setup_s      median over fresh interpreters of import plus warm-up
Op times are scaled to a reference CPU speed sampled between ops, and
set-up times to one sampled after the import and after each warm-up step
(see refclock.py and worker.py); the unscaled figures are printed
alongside.
--trace 1 runs the same inputs untraced and then traced, and prints the
per-layer metrics (calls and self time per public function and module,
plus counters) and trace.overhead_ratio.

Human-readable lines (sample counts, failed_frac, the verdict digest) come
first; the last stdout line is the JSON result. The exit code is 1 when any
correctness check failed, 2 when the checkout has no flatlink sources.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("decide", "certify", "descend", "flags")
SETUP_SAMPLES = 3  # fresh interpreters timed for setup_s, the measuring one included
RUN_BUDGET_S = 170  # every child must end within this, counted from the start
UNITS = {"decide": "instances", "certify": "cells", "descend": "ball points", "flags": "instances"}


def child(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--mode", mode, "--seconds", str(args.seconds),
    ]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, text=True, env=env,
        timeout=max(1.0, deadline - time.monotonic()), check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {mode} exited with code {proc.returncode}")
    return json.loads(lines[-1])


def percentile_line(name: str, values_ms: list) -> str:
    """Median, plus the highest of p90/p95/p99 with at least ten samples beyond it."""
    n = len(values_ms)
    parts = [f"{name} p50 {statistics.median(values_ms):.3f} ms"]
    for p in (99, 95, 90):
        if n * (100 - p) / 100 >= 10:
            parts.append(f"p{p} {statistics.quantiles(values_ms, n=100)[p - 1]:.3f} ms")
            break
    return ", ".join(parts) + f" (n={n})"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="flatlink benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "flatlink" / "__init__.py").is_file():
        print(f"no flatlink sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = []
        if not args.trace:
            setups = [child(args, "setup", deadline) for _ in range(SETUP_SAMPLES - 1)]
        res = child(args, "trace" if args.trace else "measure", deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"benchmark run failed: {e}", file=sys.stderr)
        return 1
    setups.append(res)

    attempted, failed = res["items"], res["failed"]
    errors = list(res["errors"])
    digest_ok = True
    if args.trace:
        tr = res["traced"]
        attempted += tr["items"]
        failed += tr["failed"]
        errors += tr["errors"]
        digest_ok = tr["digest"] == res["digest"]
        if not digest_ok:
            errors.append(f"traced digest {tr['digest']} differs from untraced")

    unit = UNITS[args.workload]
    print(
        f"workload {args.workload} seed {args.seed}: {res['items']} items "
        f"({len(res['op_s'])} ops) in {res['wall_s']:.2f} s wall, "
        f"{res['busy_s']:.2f} s busy; failed {failed}/{attempted} "
        f"(failed_frac {failed / attempted:.4f})"
    )
    print(f"digest {res['digest']}")
    for e in errors:
        print(f"error: {e}")
    for k, v in res["notes"].items():
        print(f"note: {k}: {v}")

    if args.trace:
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in res["layers"].items()}
        print(f"trace.overhead_ratio {res['layers']['trace.overhead_ratio']:.3f}")
    else:
        print(
            f"reference chunk scale {res['ref_scale']:.4f} "
            "(reference seconds per second; times below are scaled)"
        )
        work = res["units"] / res["ref_busy_s"]
        op_ms = [s * 1000 for s in res["ref_op_s"]]
        print(
            f"work_per_s {work:.4f} {unit}/s, unscaled {res['units'] / res['busy_s']:.4f} "
            f"({res['units']} {unit}, n={res['items']} items)"
        )
        print(percentile_line("op latency", op_ms))
        print(percentile_line("unscaled op latency", [s * 1000 for s in res["op_s"]]))
        setup = [s["ref_setup_s"] for s in setups]
        raw_setup = [s["setup_s"] for s in setups]
        print(
            f"setup_s samples {', '.join(f'{s:.3f}' for s in setup)} s, unscaled "
            f"{', '.join(f'{s:.3f}' for s in raw_setup)} s"
        )
        metrics = {
            "work_per_s": {"value": work, "unit": "1/s"},
            "op_p50_ms": {"value": statistics.median(op_ms), "unit": "ms"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }

    correct = failed == 0 and digest_ok
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
