"""The benchmark's own test.  Run from the repository root:

  python3 perfbench/selftest.py

1. Every workload at smoke sizes, untraced and traced: the last output line
   has exactly the keys correct/attempted/failed/metrics, every check passes,
   and the metric names and units are those of BENCHMARK.json.
2. query-mix on a Kayles analysis with one P element flipped reports
   failures.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits nonzero without printing a result.
4. calib.SpeedSampler.split leaves kernel runs out and scales each stretch
   of work by the kernel runs around it.

Exits 0 when all pass.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import calib  # noqa: E402
import workloads  # noqa: E402


def _run(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def _last_json(lines):
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    problems = []

    sampler = calib.SpeedSampler()
    ref = calib.REFERENCE_S
    sampler.runs = [(1.0, 1.0 + ref), (2.0, 2.0 + 3 * ref)]  # the second at a third of the speed
    cases = {  # (from, to): (raw, scaled)
        (1.0, 2.0 + 3 * ref): (1.0 - ref, (1.0 - ref) / 2),
        (0.5, 1.0): (0.5, 0.5),
        (2.0 + 3 * ref, 3.0): (1.0 - 3 * ref, (1.0 - 3 * ref) / 3),
        (1.0 + ref / 2, 1.5): (0.5 - ref, (0.5 - ref) / 2),
    }
    for (a, b), want in cases.items():
        got = sampler.split(a, b)
        if any(abs(g - w) > 1e-12 for g, w in zip(got, want)):
            problems.append(f"SpeedSampler.split({a}, {b}) = {got}, want {want}")
    print("ok SpeedSampler.split" if not problems else "FAIL SpeedSampler.split", flush=True)

    for name in workloads.NAMES:
        for trace in (0, 1):
            rc, lines = _run(["--workload", name, "--seed", "7", "--seconds", "2",
                              "--trace", str(trace), "--smoke"])
            result = _last_json(lines)
            label = f"{name} --trace {trace}"
            if rc != 0 or result is None:
                problems.append(f"{label}: exit {rc}, no result")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{label}: checks failed: {lines[-12:-1]}")
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if units != expected[trace]:
                problems.append(f"{label}: metrics differ from BENCHMARK.json")
            if any(not isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{label}: a metric value is not a number")
            print(f"ok {label}" if not problems else f"checked {label}", flush=True)

    rc, lines = _run(["--workload", "query-mix", "--seed", "7", "--seconds", "3",
                      "--trace", "0", "--smoke", "--flip-p"])
    result = _last_json(lines)
    if result is None or result["correct"] or result["failed"] == 0:
        problems.append(f"flipped P element not caught: {lines[-6:]}")
    else:
        print(f"ok flipped P element: {result['failed']} of {result['attempted']} failed")

    bare = os.path.join(HERE, ".work", f"selftest-{os.getpid()}")
    try:
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        rc, lines = _run(["--workload", "genus-kayles", "--seed", "1", "--seconds", "1",
                          "--trace", "0"], cwd=bare)
        if rc == 0 or _last_json(lines) is not None:
            problems.append(f"without the package source: exit {rc}, output {lines[-1:]}")
        else:
            print(f"ok without the package source: exit {rc}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
