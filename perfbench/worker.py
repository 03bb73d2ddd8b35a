"""One fresh interpreter of the benchmark: set up a workload, then measure it.

    python3 perfbench/worker.py --workload decide --seed 1 --mode setup
    python3 perfbench/worker.py --workload decide --seed 1 --mode measure --seconds 20
    python3 perfbench/worker.py --workload decide --seed 1 --mode trace --seconds 20

Set-up is the import of flatlink (from the checkout's `src/`) plus the
workload's warm-up through public calls, timed from before the import, so a
cold module-level cache such as the rationalization base library starts
empty in every process. It is reported raw and scaled to the reference
speed sampled after the import and after each warm-up step. `measure` then runs whole input cycles as a
single-threaded closed loop until `--seconds` have passed. `trace` does the
same untraced, then replays the workload's fixed first cycles untraced,
traced and untraced again, and reports per-layer metrics and the tracing
overhead over those items; its warm-up is traced too, as op -1. The result is one JSON
line on stdout; run.py turns it into the benchmark's report.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import sys
import time
import traceback
from pathlib import Path

from refclock import RefClock
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench-out"
SETUP_BURST = 50  # reference samples after the import and each warm-up step
# Set-up moves less than the reference chunk when the machine's speed
# swings, so its parts are scaled by these powers of the chunk's factor.
# They are the ones that gave the smallest quartile spread over 40 fresh
# interpreters per workload on a shared 2-vCPU Xeon VM whose speed swung by
# up to a factor of two: 0.07 for decide's import (0.17 raw, 0.16 at power
# 1) and 0.13 for certify's warm-up (0.21 raw, 0.20 at power 1).
IMPORT_EXPONENT = 0.4
WARM_EXPONENT = 0.7


@contextlib.contextmanager
def tracing(tracer, op=None):
    """Install the tracer (if any) around a block; `op` labels its spans."""
    if tracer is None:
        yield
        return
    tracer.install()
    tracer.op = op
    try:
        yield
    finally:
        tracer.op = None
        tracer.uninstall()


class Tally:
    """What a run keeps per item: its time, its work units, its errors, and
    its verdict only for the items of the fixed cycles, so memory does not
    grow with the number of items a faster program completes."""

    def __init__(self, wl):
        self.wl = wl
        self.ref = RefClock()
        self.spans: list[tuple[float, float]] = []
        self.verdicts: list = []
        self.errors: list[str] = []
        self.failed = 0
        self.units = 0

    def run(self, items, tracer=None, keep=False):
        """Run and check the given items one after another; `keep` their
        verdicts for the digest."""
        for inp in items:
            self.ref.maybe_sample()
            if tracer is not None:
                tracer.op = len(self.spans)
            t0 = time.perf_counter()
            try:
                out = self.wl.run(inp)
                error = None
            except Exception as e:  # a raised error is a failed op, not a crash
                error = f"{type(e).__name__}: {e}"
                if not self.failed:
                    traceback.print_exc(file=sys.stderr)
            t1 = time.perf_counter()
            if tracer is not None:
                tracer.op = None
            if error is None:
                errors, verdict, units = self.wl.check(inp, out)
            else:
                errors, verdict, units = [error], None, 0
            self.spans.append((t0, t1))
            if keep:
                self.verdicts.append(verdict)
            if errors:
                self.failed += 1
                self.errors += errors[: 5 - len(self.errors)]
            self.units += units

    def summary(self) -> dict:
        """Raw and reference-scaled busy time and op latencies, and the digest.

        Takes reference samples first, so the last op is bracketed."""
        self.ref.maybe_sample()
        raw = [t1 - t0 for t0, t1 in self.spans]
        ref = [(t1 - t0) * self.ref.scale(t0, t1) for t0, t1 in self.spans]
        k = self.wl.op_items
        blob = json.dumps(self.verdicts, sort_keys=True, separators=(",", ":"))
        return {
            "items": len(self.spans),
            "failed": self.failed,
            "errors": self.errors,
            "units": self.units,
            "busy_s": sum(raw),
            "ref_busy_s": sum(ref),
            "op_s": [sum(raw[i : i + k]) for i in range(0, len(raw), k)],
            "ref_op_s": [sum(ref[i : i + k]) for i in range(0, len(ref), k)],
            "ref_scale": self.ref.median_scale(),
            "digest": hashlib.sha256(blob.encode()).hexdigest(),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import flatlink  # noqa: E402  (timed as part of set-up)

    if Path(flatlink.__file__).resolve().parent != src / "flatlink":
        print(f"flatlink imported from {flatlink.__file__}, not {src}", file=sys.stderr)
        return 2
    import workloads  # noqa: E402

    wl = workloads.WORKLOADS[args.workload]()
    # the traced run also traces the warm-up, as op -1, so that set-up work
    # such as filling the base-matrix library shows per layer
    tracer = Tracer() if args.mode == "trace" else None
    import_end = time.perf_counter()
    # a burst of reference samples after the import and after each warm-up
    # step, outside the timed spans, scales set-up
    ref = RefClock()
    ref.burst(SETUP_BURST)
    warm = []
    with tracing(tracer, op=-1):
        a = time.perf_counter()
        for _ in wl.warm_up():
            warm.append((a, time.perf_counter()))
            ref.burst(SETUP_BURST)
            a = time.perf_counter()
    import_s = import_end - t0
    warm_s = sum(b - a for a, b in warm)
    result = {
        "setup_s": import_s + warm_s,
        "ref_setup_s": import_s * ref.scale(t0, import_end) ** IMPORT_EXPONENT
        + sum((b - a) * ref.scale(a, b) ** WARM_EXPONENT for a, b in warm),
    }
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    rng = random.Random(f"{args.workload}:{args.seed}")
    tally = Tally(wl)
    fixed = []  # inputs of the fixed cycles, kept for the traced replay
    start = time.perf_counter()
    while len(fixed) < wl.fixed_cycles or time.perf_counter() - start < args.seconds:
        items = wl.cycle(rng)
        keep = len(fixed) < wl.fixed_cycles
        if keep:
            fixed.append(items)
        tally.run(items, keep=keep)
    result["wall_s"] = time.perf_counter() - start
    result.update(tally.summary())
    result["notes"] = dict(getattr(wl, "notes", {}))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if tracer is not None:
        # the fixed cycles untraced, traced, then untraced again: the traced
        # pass over the mean of the two around it is the tracing overhead,
        # with no bias from which pass runs first
        before, traced, after = Tally(wl), Tally(wl), Tally(wl)
        for items in fixed:
            before.run(items)
        with tracing(tracer):
            for items in fixed:
                traced.run(items, tracer, keep=True)
        for items in fixed:
            after.run(items)
        t = traced.summary()
        plain_s = (before.summary()["ref_busy_s"] + after.summary()["ref_busy_s"]) / 2
        result["traced"] = {k: t[k] for k in ("items", "failed", "errors", "digest")}
        result["layers"] = tracer.metrics(warm_s + t["busy_s"], t["ref_scale"])
        result["layers"]["trace.overhead_ratio"] = t["ref_busy_s"] / plain_s
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"spans-{args.workload}-{args.seed}.tsv")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
