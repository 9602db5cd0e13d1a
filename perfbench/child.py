"""One measured repetition, run in a fresh interpreter by run.py.

The oracle memos and the lru_caches of the package are module globals, so a
second repetition in the same process would time warm memos.  run.py
therefore starts this script once per repetition and reads the JSON object
it prints as its last line.

  python3 child.py WORKLOAD SEED SESSION SIZE SPAWNED STREAM_S WORKDIR TRACED [FLIP_P]

SPAWNED is the parent's time.monotonic() just before the start; the clock is
shared by all processes, so set-up time includes interpreter start and
package import.

In an untraced repetition calib.SpeedSampler runs its kernel every few
hundredths of a second, from the start of main() to the end of the timed
phase, and every time is reported twice: raw (kernel runs left out) and
scaled to the reference speed.  A traced repetition runs no kernel while it
works, so that the kernel does not count in the per-layer times; its times
are scaled by the kernel's median time in nine runs just before and nine
just after the timed phase.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)


def run_cli(cli, argv: list[str]) -> tuple[int, str, float, float]:
    """(exit code, stdout, start, end) of one in-process ``misereq`` call,
    as time.monotonic() readings."""
    out = io.StringIO()
    t0 = time.monotonic()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejecting the arguments
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            print(f"exception: {exc!r}")
            rc = -1
    return rc, out.getvalue(), t0, time.monotonic()


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _setup_query_mix(cli, builder, size: dict, workdir: str, flip_p: bool) -> dict[str, str]:
    files = {"0.123": f"{workdir}/q0123.json", "0.77": f"{workdir}/kayles.json"}
    rc, _, _, _ = run_cli(
        cli, ["analyze", "0.123", "-n", str(size["n"]), "--certify", "6,5", "--out", files["0.123"]]
    )
    if rc != 0:
        raise RuntimeError(f"set-up analysis of 0.123 exited {rc}")
    doc = json.loads(builder.analysis_to_json(builder.kayles_analysis()))
    if flip_p:
        # Mutation for the benchmark's own test: one P element becomes N.
        # z2 is the P element that random Kayles positions reach most often.
        doc["p_set"].remove(doc["names"].index("z2"))
    with open(files["0.77"], "w", encoding="utf-8") as f:
        json.dump(doc, f)
    return files


def main(argv: list[str]) -> None:
    workload, seed, session, size_name, spawned, stream_s, workdir, traced = argv[:8]
    flip_p = len(argv) > 8 and argv[8] == "flip-p"
    traced = traced == "1"

    import calib

    sampler = None if traced else calib.SpeedSampler()
    if sampler is not None:
        sampler.start()

    from misere_quotients import builder, cli, octal
    import tracer
    import workloads

    size = workloads.SIZES[workload][size_name]
    moves = octal.moves_from_heap  # the lru_cache, before any wrapper
    tr = tracer.Tracer() if traced else None
    if tr is not None:
        tr.install()

    files = None
    if workload == "query-mix":
        files = _setup_query_mix(cli, builder, size, workdir, flip_p)
    ready = time.monotonic()
    bracket = [calib.median_kernel_s()] if traced else []

    if tr is not None:
        tr.reset()
    memo0 = tracer.memo_sizes()
    hits0, misses0 = moves.cache_info()[:2]

    records = []  # (kind, game, argv, rc, stdout, seconds, start, end)
    if files is None:
        args = workloads.command(workload, size, workdir)
        rc, out, t0, t1 = run_cli(cli, args)
        records.append(("command", None, args, rc, out, t1 - t0, t0, t1))
    else:
        rng = random.Random(f"{seed}:{session}")
        deadline = time.monotonic() + float(stream_s)
        for kind, game, args in workloads.query_stream(rng, files):
            rc, out, t0, t1 = run_cli(cli, args)
            records.append((kind, game, args, rc, out, t1 - t0, t0, t1))
            if t1 >= deadline:
                break
    if sampler is not None:
        sampler.stop()
    rss = _rss_mb()

    layer = None
    if tr is not None:
        tr.uninstall()
        layer = _layer_metrics(tr, records, memo0, tracer.memo_sizes(), moves, hits0, misses0)
        bracket.append(calib.median_kernel_s())

    failures = []
    if files is None:
        _, _, args, rc, out, *_ = records[0]
        failures = workloads.check_command(workload, size, workdir, rc, out)
    else:
        with open(files["0.77"], encoding="utf-8") as f:
            kayles_names = set(json.load(f)["names"])
        checker = workloads.QueryChecker(kayles_names)
        for kind, game, args, rc, out, *_ in records:
            try:
                problem = checker.check(kind, game, args, rc, out)
            except (ValueError, KeyError, IndexError) as exc:  # unparsable output
                problem = f"{args}: {exc!r}"
            if problem is not None:
                failures.append(problem)

    def split(a, b):  # (raw, scaled) seconds
        if traced:
            return b - a, (b - a) * calib.REFERENCE_S / statistics.mean(bracket)
        return sampler.split(a, b)

    raw_setup_s, setup_s = split(float(spawned), ready)
    result = {
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "latencies": [[r[0], *split(r[6], r[7])] for r in records],
        "kernel_s": bracket if traced else sampler.kernel_s(),
        "rss_mb": rss,
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "layer": layer,
        "spans": tr.spans if tr is not None else None,
    }
    sys.stdout.write(json.dumps(result) + "\n")


def _p(values: list[float], q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _layer_metrics(tr, records, memo0, memo, moves, hits0, misses0) -> dict[str, float]:
    hits, misses = moves.cache_info()[:2]
    lookups = (hits - hits0) + (misses - misses0)
    calls = tr.calls("oracle.outcome")
    ms = {kind: [r[5] * 1e3 for r in records if r[0] == kind] for kind in ("outcome", "structure", "reduce")}
    out = {
        "octal.moves_from_heap.calls": tr.calls("octal.moves_from_heap"),
        "octal.moves_from_heap.hit_ratio": (hits - hits0) / lookups if lookups else 0.0,
        "oracle.outcome.calls": calls,
        "oracle.outcome.s": tr.total("oracle.outcome"),
        "oracle.outcome.memo_entries": memo["oracle.outcome.memo_entries"],
        "oracle.outcome.new_per_call": (
            (memo["oracle.outcome.memo_entries"] - memo0["oracle.outcome.memo_entries"]) / calls
            if calls else 0.0
        ),
        "oracle.genus.s": tr.total("oracle.genus"),
        "oracle.genus.memo_entries": memo["oracle.genus.memo_entries"],
        "builder.build_quotient.s": tr.total("builder.build_quotient"),
        "builder.build_quotient.self_s": tr.self_time("builder.build_quotient"),
        "builder.classes": tr.counts.get("builder.classes", 0),
        "builder.analysis_from_json.s": tr.total("builder.analysis_from_json"),
        "builder.analysis_from_json.p50_ms": tr.p50_ms("builder.analysis_from_json"),
        "builder.phi_of_position.calls": tr.calls("builder.phi_of_position"),
        "builder.phi_of_position.s": tr.total("builder.phi_of_position"),
        "builder.kayles_analysis.s": tr.total("builder.kayles_analysis"),
        "semigroup.knuth_bendix.s": tr.total("semigroup.knuth_bendix"),
        "semigroup.knuth_bendix.rules": tr.counts.get("semigroup.knuth_bendix.rules", 0),
        "semigroup.enumerate_elements.s": tr.total("semigroup.enumerate_elements"),
        "semigroup.FiniteCommutativeMonoid.s": tr.total("semigroup.FiniteCommutativeMonoid"),
        "verifier.certify_period.s": tr.total("verifier.certify_period"),
        "verifier.verify_to_heap.s": tr.total("verifier.verify_to_heap"),
        "verifier.move_pairs.s": tr.total("verifier.move_pairs"),
        "verifier.check_no_PP.s": tr.total("verifier.check_no_PP"),
        "verifier.scan.s": tr.total("verifier.scan"),
        "verifier.scan.nodes": tr.counts.get("verifier.scan.nodes", 0),
        "verifier.scan.evaluations": tr.counts.get("verifier.scan.evaluations", 0),
        "verifier.move_pairs.count": tr.counts.get("verifier.move_pairs.count", 0),
        "structure.principal_series.s": tr.total("structure.principal_series"),
        "structure.tame_islands.s": tr.total("structure.tame_islands"),
        "cli.outcome.p50_ms": _p(ms["outcome"], 50),
        "cli.outcome.p99_ms": _p(ms["outcome"], 99),
        "cli.structure.p50_ms": _p(ms["structure"], 50),
        "cli.reduce.p50_ms": _p(ms["reduce"], 50),
        "python.gc.s": tr.gc_seconds,
        "python.gc.collections": tr.gc_collections,
    }
    for layer, seconds in tr.layer_self_times().items():
        out[f"{layer}.self_s"] = seconds
    out["timed_s"] = sum(r[5] for r in records)
    return out


if __name__ == "__main__":
    main(sys.argv[1:])
