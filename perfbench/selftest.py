"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py            # every workload
    python3 perfbench/selftest.py decide     # only the named workloads

1. The ball_points formula equals a brute-force count at tiny bounds.
2. Installing and removing the tracer leaves every flatlink binding and
   class attribute exactly as it was, and wraps the bindings it must.
3. Per workload, a traced and an untraced run print the same verdict
   digest, the untraced run reports exactly the end-to-end metrics of
   BENCHMARK.json and the traced run exactly its per-layer metrics.

Exits 1 on the first failure.
"""

from __future__ import annotations

import inspect
import itertools
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracer as tracer_mod  # noqa: E402


class SelfTestFailure(Exception):
    pass


def expect(ok: bool, message: str):
    if not ok:
        raise SelfTestFailure(message)


def check_ball_points():
    for m, q, bound in [(2, 5, b) for b in range(0, 13)] + [(2, 3, 4), (3, 2, 1), (3, 3, 2)]:
        brute = sum(
            1
            for entries in itertools.product(range(-bound, bound + 1), repeat=m * m)
            if all((entries[i * m + j] - (i == j)) % q == 0 for i in range(m) for j in range(m))
        )
        formula = tracer_mod.ball_points(m, q, bound)
        expect(brute == formula, f"ball_points({m}, {q}, {bound}) = {formula}, brute force {brute}")
    print("PASS ball_points formula matches brute force")


def _bindings():
    """id of every attribute of every flatlink module and flatlink class."""
    snap = {}
    for name, mod in sorted(sys.modules.items()):
        if not name.startswith("flatlink"):
            continue
        for attr, value in vars(mod).items():
            snap[(name, attr)] = id(value)
            if inspect.isclass(value) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = id(cvalue)
    return snap


def check_tracer_restores():
    from flatlink import boundary, congruence, construct, projlink, qkernel, symspace  # noqa: F401

    before = _bindings()
    t = tracer_mod.Tracer()
    t.install()
    try:
        for owner, attr in [
            (qkernel, "det"),
            (congruence, "det"),
            (construct, "intersect"),
            (symspace, "intersect"),
            (qkernel.QMatrix, "__matmul__"),
            (symspace.FlatX, "transport"),
        ]:
            expect(hasattr(getattr(owner, attr), tracer_mod.MARK), f"{owner}.{attr} not wrapped")
        patched = len(t._patches)
    finally:
        t.uninstall()
    after = _bindings()
    changed = [k for k in before if before[k] != after.get(k)]
    expect(not changed and before.keys() == after.keys(), f"bindings changed: {changed[:5]}")
    print(f"PASS tracer wrapped {patched} bindings and restored all {len(before)} attributes")


def _run(workload: str, trace: int) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, timeout=170, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    expect(proc.returncode == 0 and bool(lines), f"{workload} trace={trace} exited {proc.returncode}")
    digest = next(line.split()[1] for line in lines if line.startswith("digest "))
    return digest, json.loads(lines[-1])


def check_workload(workload: str, spec: dict):
    plain_digest, plain = _run(workload, 0)
    traced_digest, traced = _run(workload, 1)
    expect(plain["correct"] and traced["correct"], f"{workload}: correctness check failed")
    expect(plain_digest == traced_digest, f"{workload}: traced digest differs")
    for result, key in ((plain, "end_to_end"), (traced, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        expect(got == want, f"{workload}: {key} metrics differ: {set(got) ^ set(want)}")
    print(f"PASS {workload}: traced and untraced digests agree, metric sets match")


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = (argv if argv is not None else sys.argv[1:]) or [w["name"] for w in spec["workloads"]]
    try:
        check_ball_points()
        check_tracer_restores()
        for name in names:
            check_workload(name, spec)
    except SelfTestFailure as e:
        print(f"FAIL {e}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
