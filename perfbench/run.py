"""The repository benchmark: one workload, measured for a fixed time.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout.  Every measured repetition is a fresh
interpreter (child.py), started from this single process one at a time, so
each one pays for interpreter start, package import and cold memos.  With
--trace 0 it reports the end-to-end metrics of BENCHMARK.json; with --trace 1
it alternates untraced and traced repetitions and reports the per-layer
metrics, including the tracing overhead.  End-to-end times are scaled to a
reference machine speed, sampled while each repetition runs (calib.py), so
that a shared machine's swings do not read as a change of the program.  The
last line of standard output is a JSON object with keys correct, attempted,
failed and metrics; a result file with the environment, samples, counters
and spans goes to perfbench/results/.  --smoke switches to tiny sizes for
the benchmark's own test (selftest.py).
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE_DIR = os.path.join(ROOT, "src", "misere_quotients")
RESULTS = os.path.join(HERE, "results")

sys.path.insert(0, HERE)
import tracer  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "solve_s": "s",
    "commands_per_s": "1/s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "octal.moves_from_heap.calls": "count",
    "octal.moves_from_heap.hit_ratio": "ratio",
    "oracle.outcome.calls": "count",
    "oracle.outcome.s": "s",
    "oracle.outcome.memo_entries": "count",
    "oracle.outcome.new_per_call": "ratio",
    "oracle.genus.s": "s",
    "oracle.genus.memo_entries": "count",
    "builder.build_quotient.s": "s",
    "builder.build_quotient.self_s": "s",
    "builder.classes": "count",
    "builder.analysis_from_json.s": "s",
    "builder.analysis_from_json.p50_ms": "ms",
    "builder.phi_of_position.calls": "count",
    "builder.phi_of_position.s": "s",
    "builder.kayles_analysis.s": "s",
    "semigroup.knuth_bendix.s": "s",
    "semigroup.knuth_bendix.rules": "count",
    "semigroup.enumerate_elements.s": "s",
    "semigroup.FiniteCommutativeMonoid.s": "s",
    "verifier.certify_period.s": "s",
    "verifier.verify_to_heap.s": "s",
    "verifier.move_pairs.s": "s",
    "verifier.check_no_PP.s": "s",
    "verifier.scan.s": "s",
    "verifier.scan.nodes": "count",
    "verifier.scan.evaluations": "count",
    "verifier.move_pairs.count": "count",
    "structure.principal_series.s": "s",
    "structure.tame_islands.s": "s",
    "cli.outcome.p50_ms": "ms",
    "cli.outcome.p99_ms": "ms",
    "cli.structure.p50_ms": "ms",
    "cli.reduce.p50_ms": "ms",
    "python.gc.s": "s",
    "python.gc.collections": "count",
    "octal.self_s": "s",
    "oracle.self_s": "s",
    "semigroup.self_s": "s",
    "builder.self_s": "s",
    "verifier.self_s": "s",
    "structure.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}
# Counters that repeat exactly for a fixed workload; a run whose values
# differ from the previous run's is flagged.
EXACT = (
    "verifier.scan.nodes",
    "verifier.scan.evaluations",
    "verifier.move_pairs.count",
    "oracle.outcome.memo_entries",
    "oracle.genus.memo_entries",
    "builder.classes",
    "semigroup.knuth_bendix.rules",
)

MIN_REPS = 3          # untraced repetitions of a one-command workload
QUERY_SESSIONS = 3    # untraced query-mix sessions, each with its own set-up
LAUNCH_LIMIT_S = 110  # no repetition starts later than this into the run
RUN_LIMIT_S = 170     # a repetition still running then is killed


def _child(args, size_name, workdir, session, traced, stream_s, started):
    """Run one repetition; returns its result dict, or {"crash": reason}.
    Repetitions with the same session number replay the same query stream."""
    cmd = [
        sys.executable, "-I", os.path.join(HERE, "child.py"),
        args.workload, str(args.seed), str(session), size_name,
        "", repr(stream_s), workdir, "1" if traced else "0",
    ]
    if args.flip_p:
        cmd.append("flip-p")
    cmd[7] = repr(time.monotonic())  # stamped last, just before the start
    timeout = max(1.0, RUN_LIMIT_S - (time.monotonic() - started))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crash": f"repetition timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crash": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    return json.loads(lines[-1])


def _plan(args):
    """(pattern, minimum count, repeat): the pattern lists (traced, stream
    seconds) per repetition; one-command workloads repeat it until the time
    is spent, query-mix splits the time between its sessions."""
    if args.workload == "query-mix":
        if args.trace:
            return [(False, args.seconds / 2), (True, args.seconds / 2)], 2, False
        return [(False, args.seconds / QUERY_SESSIONS)], QUERY_SESSIONS, False
    if args.trace:
        return [(False, 0.0), (True, 0.0)], 2, True
    return [(False, 0.0)], MIN_REPS, True


def _run_reps(args, size_name, workdir):
    started = time.monotonic()
    pattern, minimum, repeat = _plan(args)
    reps = []
    while True:
        traced, stream_s = pattern[len(reps) % len(pattern)]
        session = len(reps) // len(pattern)  # a traced session replays its untraced twin
        reps.append((traced, _child(args, size_name, workdir, session, traced, stream_s, started)))
        elapsed = time.monotonic() - started
        whole = len(reps) % len(pattern) == 0 and len(reps) >= minimum
        if (whole and (not repeat or elapsed >= args.seconds)) or elapsed >= LAUNCH_LIMIT_S:
            return reps


def _quantile(values, q):
    """q-th percentile (1..99) with the sample count, as (value, n)."""
    if len(values) == 1:
        return values[0], 1
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1], len(values)


def _environment(seed):
    env = {
        "git_sha": None,
        "git_dirty": None,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
    }
    if os.path.isdir(os.path.join(ROOT, ".git")):
        git = ["git", "-C", ROOT]
        try:
            env["git_sha"] = subprocess.run(
                git + ["rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
            env["git_dirty"] = bool(subprocess.run(
                git + ["status", "--porcelain"], capture_output=True, text=True, timeout=30
            ).stdout.strip())
        except (OSError, subprocess.TimeoutExpired):
            pass
    return env


def _counts_repeat(workload, size, traced_layers):
    """Compare the exact counters of this run's traced repetitions with each
    other and with the previous run's at the same size; store them for the
    next run."""
    sets = [{k: layer[k] for k in EXACT} for layer in traced_layers]
    if not sets:
        return None, None
    same_within = all(s == sets[0] for s in sets)
    tag = "-".join(f"{k}{v}" for k, v in size.items())
    path = os.path.join(RESULTS, f"counts-{workload}-{tag}.json")
    previous = None
    if os.path.exists(path):
        with open(path, encoding="utf-8") as f:
            previous = json.load(f)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(sets[-1], f, indent=1, sort_keys=True)
    repeat = same_within and (previous is None or previous == sets[-1])
    return repeat, previous


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for selftest.py")
    ap.add_argument("--flip-p", action="store_true",
                    help="query-mix only: flip one P element of the Kayles analysis")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"error: package source not found at {PACKAGE_DIR}", file=sys.stderr)
        return 2
    env = _environment(args.seed)
    compileall.compile_dir(PACKAGE_DIR, quiet=1)  # bytecode ready before timing
    size_name = "smoke" if args.smoke else "full"
    os.makedirs(RESULTS, exist_ok=True)
    workdir = os.path.join(HERE, ".work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        reps = _run_reps(args, size_name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    crashes = [r["crash"] for _, r in reps if "crash" in r]
    good = [(traced, r) for traced, r in reps if "crash" not in r]
    attempted = sum(r["attempted"] for _, r in good) + len(crashes)
    failed = sum(r["failed"] for _, r in good) + len(crashes)
    plain = [r for traced, r in good if not traced]
    traced_reps = [r for traced, r in good if traced]
    failures = crashes + [msg for _, r in good for msg in r["failures"]]

    def latencies(rs, kind=None, raw=False):
        """Command times, scaled to the reference speed unless raw."""
        return [
            raw_s if raw else scaled_s
            for r in rs
            for k, raw_s, scaled_s in r["latencies"]
            if kind is None or k == kind
        ]

    def unit_times(rs, raw=False):
        """Seconds per unit of work: one command, or for query-mix one
        complete block of the stream (a session too short for a block
        counts as one)."""
        if args.workload != "query-mix":
            return latencies(rs, raw=raw)
        units = []
        for r in rs:
            lat = latencies([r], raw=raw)
            size = workloads.QUERY_BLOCK
            blocks = [sum(lat[i:i + size]) for i in range(0, len(lat) - size + 1, size)]
            units.extend(blocks or [sum(lat)])
        return units

    def mean_command_s(rs):
        lat = latencies(rs)
        return sum(lat) / len(lat)

    summary = {}
    if plain:
        summary = {
            "setup_s": statistics.median(r["setup_s"] for r in plain),
            "solve_s": statistics.median(unit_times(plain)),
            "commands_per_s": statistics.median(
                len(r["latencies"]) / sum(latencies([r])) for r in plain
            ),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
            "raw_setup_s": statistics.median(r["raw_setup_s"] for r in plain),
            "raw_solve_s": statistics.median(unit_times(plain, raw=True)),
            "kernel_s": statistics.median(k for r in plain for k in r["kernel_s"]),
        }
    samples = {
        "repetitions": len(plain),
        "commands": len(latencies(plain)),
        "solve_units": len(unit_times(plain)),
        "setup_s": [r["setup_s"] for r in plain],
        "repetition_s": [sum(latencies([r])) for r in plain],
        "raw_setup_s": [r["raw_setup_s"] for r in plain],
        "raw_repetition_s": [sum(latencies([r], raw=True)) for r in plain],
        "kernel_runs": [len(r["kernel_s"]) for r in plain],
        "kernel_s_median": [statistics.median(r["kernel_s"]) for r in plain],
    }
    if args.workload == "query-mix" and plain:
        out_ms = [dt * 1e3 for dt in latencies(plain, "outcome")]
        p50, n = _quantile(out_ms, 50)
        p99, _ = _quantile(out_ms, 99)
        summary.update(outcome_p50_ms=p50, outcome_p99_ms=p99, outcome_samples=n)

    layer = {}
    shares = {}
    counts_repeat = previous_counts = None
    if traced_reps:
        layers = [r["layer"] for r in traced_reps]
        layer = {k: statistics.median(x[k] for x in layers) for k in PER_LAYER if k != "trace.overhead"}
        layer["trace.overhead"] = mean_command_s(traced_reps) / mean_command_s(plain) if plain else 0.0
        timed = statistics.median(x["timed_s"] for x in layers)
        shares = {name: layer[f"{name}.self_s"] / timed for name in tracer.LAYERS}
        shares["verifier.scan"] = layer["verifier.scan.s"] / timed
        shares["oracle.genus"] = layer["oracle.genus.s"] / timed
        counts_repeat, previous_counts = _counts_repeat(
            args.workload, workloads.SIZES[args.workload][size_name], layers
        )

    correct = failed == 0 and bool(plain) and (not args.trace or bool(traced_reps))
    if args.trace:
        metrics = {k: {"value": layer.get(k, 0.0), "unit": u} for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": summary.get(k, 0.0), "unit": u} for k, u in END_TO_END.items()}

    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = {
        "workload": args.workload,
        "size": workloads.SIZES[args.workload][size_name],
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:50],
        "end_to_end": summary,
        "samples": samples,
        "per_layer": layer,
        "layer_shares": shares,
        "counts_repeat": counts_repeat,
        "previous_counts": previous_counts,
        "repetitions": [
            {k: v for k, v in r.items() if k not in ("spans", "latencies", "kernel_s")} | {"traced": t}
            for t, r in reps
        ],
        "spans": [r["spans"] for r in traced_reps],
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as f:
        json.dump(record, f)

    print(f"workload {args.workload}  seed {args.seed}  {samples['repetitions']} untraced "
          f"repetitions, {samples['commands']} commands")
    for k, v in summary.items():
        print(f"  {k:<20} {v:.6g}")
    if shares:
        print("  layer shares of traced command time: " +
              "  ".join(f"{k} {v:.1%}" for k, v in shares.items()))
        print(f"  tracing overhead {layer['trace.overhead']:.3f}x; exact counters "
              f"{'repeat' if counts_repeat else 'DIFFER from the previous run' if counts_repeat is False else 'n/a'}")
    for msg in failures[:10]:
        print(f"  FAILED: {msg}")
    print(f"  result file: perfbench/results/{name}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
